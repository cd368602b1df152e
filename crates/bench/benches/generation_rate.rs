//! Criterion benchmark behind Figure 3: edge-generation throughput as a
//! function of worker count, for both the block-materialising and the
//! streaming generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rayon::prelude::*;

use kron_bench::paper;
use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::{count_block_edges, stream_block_edges_into, EdgeChunk, Partition, Pipeline};

fn design() -> KroneckerDesign {
    KroneckerDesign::from_star_points(paper::MACHINE_SCALE, SelfLoop::None).expect("valid design")
}

fn bench_generation_rate(c: &mut Criterion) {
    let design = design();
    let edges = design.edges().to_u64().expect("machine scale");
    let mut group = c.benchmark_group("generation_rate");
    group.throughput(Throughput::Elements(edges));
    group.sample_size(10);

    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("materialised", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    Pipeline::for_design(&design)
                        .workers(workers)
                        .split_index(paper::MACHINE_SCALE_SPLIT)
                        .max_c_edges(200_000)
                        .collect_coo()
                        .expect("generation succeeds")
                        .edge_count()
                });
            },
        );
        // Both streaming paths time the same work: factors realised and
        // ordered outside the measured region, expansion inside it.
        let (b_design, c_design) = design
            .split(paper::MACHINE_SCALE_SPLIT)
            .expect("valid split");
        let bf = b_design.realize_raw(60_000_000).expect("fits");
        let c = c_design.realize_raw(60_000_000).expect("fits");
        let triples = kron_gen::partition::csc_ordered_triples(&bf);

        // Closure-free counting fast path (the chunked pipeline's arithmetic).
        group.bench_with_input(
            BenchmarkId::new("streaming_fast_path", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let partition = Partition::even(triples.len(), workers);
                    (0..workers)
                        .into_par_iter()
                        .map(|worker| count_block_edges(&triples[partition.range(worker)], &c))
                        .sum::<u64>()
                });
            },
        );
        // Per-edge closure baseline, same partitioning and factor
        // realisation: the chunked expansion handing every edge to a
        // closure one at a time.
        group.bench_with_input(
            BenchmarkId::new("streaming_per_edge", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let partition = Partition::even(triples.len(), workers);
                    (0..workers)
                        .into_par_iter()
                        .map(|worker| {
                            let mut checksum = 0u64;
                            let mut chunk = EdgeChunk::with_default_capacity();
                            let produced = stream_block_edges_into(
                                &triples[partition.range(worker)],
                                &c,
                                &mut chunk,
                                |edges| {
                                    for &(row, col) in edges {
                                        checksum = checksum
                                            .wrapping_add(row)
                                            .rotate_left(1)
                                            .wrapping_add(col);
                                    }
                                },
                            );
                            criterion::black_box(checksum);
                            produced
                        })
                        .sum::<u64>()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_generation_rate);
criterion_main!(benches);
