//! Ablation: streaming edge generation versus materialising per-worker
//! blocks, at a fixed worker count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use kron_bench::paper;
use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::{count_edges_streaming, Pipeline};

fn bench_stream_vs_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_vs_materialize");
    group.sample_size(10);

    let cases: &[(&str, &[u64], usize)] = &[
        ("quarter_scale", &[3, 4, 5, 9], 2),
        (
            "machine_scale",
            paper::MACHINE_SCALE,
            paper::MACHINE_SCALE_SPLIT,
        ),
    ];
    let workers = 4usize;
    for &(label, points, split) in cases {
        let design =
            KroneckerDesign::from_star_points(points, SelfLoop::None).expect("valid design");
        group.throughput(Throughput::Elements(
            design.edges().to_u64().expect("machine scale"),
        ));

        group.bench_with_input(BenchmarkId::new("streaming", label), &(), |b, _| {
            b.iter(|| count_edges_streaming(&design, split, workers, 60_000_000).expect("fits"));
        });
        group.bench_with_input(
            BenchmarkId::new("materialised_blocks", label),
            &(),
            |b, _| {
                b.iter(|| {
                    Pipeline::for_design(&design)
                        .workers(workers)
                        .split_index(split)
                        .max_c_edges(200_000)
                        .collect_coo()
                        .expect("fits")
                        .edge_count()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream_vs_materialize);
criterion_main!(benches);
