//! Wall-clock: the multi-writer linearizability checker on recorded
//! bench-client histories. Each arm simulates its quorum-mode run once,
//! outside the timing, then times `check_linearizable` over the whole
//! history; throughput is the history's op count, so the report reads
//! as checker nanoseconds per recorded op. The uniform arm prices the
//! per-key overhead of many short histories, the Zipf 0.99 arm the
//! per-key search on a few hot keys with thousands of ops each.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use skv_bench::wallclock::histcheck_history;
use skv_core::histcheck::check_linearizable;
use std::time::Duration;

fn histcheck(c: &mut Criterion) {
    let mut g = c.benchmark_group("histcheck");
    for (label, theta) in [("theta-0", 0.0), ("theta-0.99", 0.99)] {
        let history = histcheck_history(theta, 0x5EED);
        assert!(!history.ops.is_empty(), "{label}: nothing recorded");
        g.throughput(Throughput::Elements(history.ops.len() as u64));
        g.bench_function(label, |b| {
            b.iter(|| {
                let violations = check_linearizable(&history);
                assert!(violations.is_empty(), "{label}: {violations:?}");
                black_box(violations.len())
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(2_000))
        .sample_size(10);
    targets = histcheck
}
criterion_main!(benches);
