//! Run-wide measurement: latency histograms, completion time series, and
//! the report type every experiment prints.
//!
//! Counters are not listed here: each component writes its own with an
//! `add_counters` method next to its fields, and
//! [`Cluster::counters_snapshot`](crate::cluster::Cluster::counters_snapshot)
//! gathers them into [`RunReport::counters`].

use std::cell::RefCell;
use std::rc::Rc;

use skv_simcore::stats::{Counters, Histogram, SeriesPoint, TimeSeries};
use skv_simcore::{SimDuration, SimTime};

/// Shared measurement sink written by client actors.
pub struct MetricsHub {
    /// Latency of SET (and other write) operations.
    pub set_latency: Histogram,
    /// Latency of GET (and other read) operations.
    pub get_latency: Histogram,
    /// All operations together.
    pub all_latency: Histogram,
    /// Completions bucketed over time (for throughput-vs-time plots).
    pub completions: TimeSeries,
    /// Operations that completed inside the measurement window.
    pub ops: u64,
    /// Error replies observed (e.g. `min-slaves` rejections).
    pub errors: u64,
    /// Start of the measurement window.
    pub measure_from: SimTime,
    /// End of the measurement window.
    pub measure_until: SimTime,
}

/// Cheaply cloneable handle to a [`MetricsHub`].
pub type SharedMetrics = Rc<RefCell<MetricsHub>>;

impl MetricsHub {
    /// Create a hub measuring `[from, until]`, with 500 ms series buckets.
    pub fn new(from: SimTime, until: SimTime) -> SharedMetrics {
        Rc::new(RefCell::new(MetricsHub {
            set_latency: Histogram::new(),
            get_latency: Histogram::new(),
            all_latency: Histogram::new(),
            completions: TimeSeries::new(SimDuration::from_millis(500)),
            ops: 0,
            errors: 0,
            measure_from: from,
            measure_until: until,
        }))
    }

    /// Record one completed operation.
    pub fn record(&mut self, at: SimTime, latency: SimDuration, is_write: bool, is_error: bool) {
        // The time series covers the whole run (Figure 14 needs it).
        self.completions.record(at);
        if at < self.measure_from || at > self.measure_until {
            return;
        }
        self.ops += 1;
        if is_error {
            self.errors += 1;
            return;
        }
        self.all_latency.record_duration(latency);
        if is_write {
            self.set_latency.record_duration(latency);
        } else {
            self.get_latency.record_duration(latency);
        }
    }
}

/// Summary of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which system produced it ("SKV", "RDMA-Redis", "Redis").
    pub label: String,
    /// Operations completed inside the measurement window.
    pub ops: u64,
    /// Error replies inside the window.
    pub errors: u64,
    /// Throughput in kops/s over the window.
    pub throughput_kops: f64,
    /// Mean latency, microseconds.
    pub avg_latency_us: f64,
    /// Median latency, microseconds.
    pub p50_latency_us: f64,
    /// 95th percentile latency, microseconds.
    pub p95_latency_us: f64,
    /// 99th percentile ("tail") latency, microseconds.
    pub p99_latency_us: f64,
    /// Throughput over time (500 ms buckets) across the whole run.
    pub series: Vec<SeriesPoint>,
    /// Every counter in the testbed at report time, keyed by subsystem
    /// (see [`Cluster::counters_snapshot`](crate::cluster::Cluster::counters_snapshot));
    /// empty for a report built straight from a hub.
    pub counters: Counters,
}

impl RunReport {
    /// Build a report from a hub after the simulation finished.
    pub fn from_hub(label: impl Into<String>, hub: &MetricsHub) -> RunReport {
        let window = hub.measure_until - hub.measure_from;
        let secs = window.as_secs_f64().max(f64::MIN_POSITIVE);
        let h = &hub.all_latency;
        RunReport {
            label: label.into(),
            ops: hub.ops,
            errors: hub.errors,
            throughput_kops: hub.ops as f64 / secs / 1000.0,
            avg_latency_us: h.mean() / 1000.0,
            p50_latency_us: h.p50() as f64 / 1000.0,
            p95_latency_us: h.p95() as f64 / 1000.0,
            p99_latency_us: h.p99() as f64 / 1000.0,
            series: hub.completions.points(),
            counters: Counters::new(),
        }
    }

    /// One fixed-width table row (pairs with [`RunReport::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8}",
            self.label,
            self.throughput_kops,
            self.avg_latency_us,
            self.p50_latency_us,
            self.p99_latency_us,
            self.ops,
            self.errors
        )
    }

    /// Table header matching [`RunReport::row`].
    pub fn header() -> String {
        format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "system", "kops/s", "avg(us)", "p50(us)", "p99(us)", "ops", "errors"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_filter_by_window() {
        let hub = MetricsHub::new(SimTime::from_secs(1), SimTime::from_secs(2));
        let mut h = hub.borrow_mut();
        h.record(
            SimTime::from_millis(500),
            SimDuration::from_micros(10),
            true,
            false,
        ); // before window
        h.record(
            SimTime::from_millis(1500),
            SimDuration::from_micros(20),
            true,
            false,
        ); // inside
        h.record(
            SimTime::from_millis(2500),
            SimDuration::from_micros(30),
            false,
            false,
        ); // after
        assert_eq!(h.ops, 1);
        assert_eq!(h.all_latency.count(), 1);
        assert_eq!(h.set_latency.count(), 1);
        assert_eq!(h.get_latency.count(), 0);
        // But the series saw all three.
        assert_eq!(h.completions.total(), 3);
    }

    #[test]
    fn errors_counted_not_timed() {
        let hub = MetricsHub::new(SimTime::ZERO, SimTime::from_secs(10));
        let mut h = hub.borrow_mut();
        h.record(
            SimTime::from_secs(1),
            SimDuration::from_micros(5),
            true,
            true,
        );
        assert_eq!(h.errors, 1);
        assert_eq!(h.ops, 1);
        assert_eq!(h.all_latency.count(), 0);
    }

    #[test]
    fn report_computes_throughput() {
        let hub = MetricsHub::new(SimTime::ZERO, SimTime::from_secs(2));
        {
            let mut h = hub.borrow_mut();
            for i in 0..1000 {
                h.record(
                    SimTime::from_millis(i),
                    SimDuration::from_micros(50),
                    i % 2 == 0,
                    false,
                );
            }
        }
        let r = RunReport::from_hub("SKV", &hub.borrow());
        assert_eq!(r.ops, 1000);
        assert!((r.throughput_kops - 0.5).abs() < 1e-9);
        assert!((r.avg_latency_us - 50.0).abs() < 0.5);
        assert!(!r.row().is_empty());
        assert!(RunReport::header().contains("p99"));
    }
}
