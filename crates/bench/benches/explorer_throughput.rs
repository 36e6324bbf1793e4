//! Sequential vs. parallel explorer throughput on Fischer's protocol: the
//! same full zone-graph exploration driven through the single-threaded
//! explorer and through the sharded parallel explorer at several worker
//! counts, so the locking/sharding overhead and the scaling trend are
//! visible side by side.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tempo_bench::fischer;
use tempo_check::{Explorer, ParallelOptions, SearchOptions};

fn bench_explorer_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("explorer_throughput");
    group.sample_size(10);
    for &n in &[3usize, 4] {
        let sys = fischer(n, true);
        group.bench_function(format!("fischer{n}/sequential"), |b| {
            b.iter(|| {
                let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
        // Ablation of the active-clock reduction.
        group.bench_function(format!("fischer{n}/no_reduction"), |b| {
            b.iter(|| {
                let opts = SearchOptions {
                    active_clock_reduction: false,
                    ..SearchOptions::default()
                };
                let ex = Explorer::new(&sys, opts).unwrap();
                black_box(ex.state_space_size().unwrap())
            })
        });
        for workers in [1usize, 2, 4] {
            group.bench_function(format!("fischer{n}/parallel/{workers}"), |b| {
                b.iter(|| {
                    let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
                    black_box(
                        ex.par_state_space_size(&ParallelOptions::with_workers(workers))
                            .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_explorer_throughput);
criterion_main!(benches);
