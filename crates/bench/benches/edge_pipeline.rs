//! Per-edge versus chunked edge-pipeline throughput.
//!
//! The paper's headline metric (Figure 3) is raw edge-generation rate.  In a
//! real pipeline the generated edges cross an abstraction boundary into a
//! sink the generator cannot see through — a TSV writer, a binary shard
//! writer, a socket, a counting analytic.  That boundary is modelled here as
//! `#[inline(never)]` consumer functions (a devirtualizable closure would
//! let the optimizer fuse the sink into the generation loop, which no real
//! sink allows).  The per-edge API pays the opaque call, and the lost
//! vectorization behind it, for *every* edge; the chunked API pays it once
//! per 64 Ki-edge [`EdgeChunk`] and hands the sink a slice it can process
//! in a tight local loop.  This bench measures exactly that difference on
//! one core, plus the equivalent materialising comparison:
//!
//! * `per_edge_stream` — the seed's streaming loop calling the opaque sink
//!   per edge.
//! * `chunked_stream` — [`kron_gen::stream_block_edges_into`] flushing
//!   whole chunks to the same sink boundary.
//! * `count_fast_path` — [`kron_gen::count_block_edges`], the closure-free
//!   counting loop behind `count_edges_streaming` (no sink at all).
//! * `per_edge_materialise` / `bulk_materialise` — bounds-checked
//!   `CooMatrix::push` per edge versus the bulk
//!   `CooMatrix::append_translated`, into a reused COO block.
//!
//! Results are printed and written as machine-readable JSON to
//! `BENCH_edge_pipeline.json` at the workspace root, so successive PRs can
//! track the trajectory.

use std::time::{Duration, Instant};

use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::{count_block_edges, stream_block_edges_into, EdgeChunk};
use kron_sparse::{CooMatrix, PlusTimes};

/// The paper's `B` factor from Figures 3/4: `M-hat{3,4,5,9,16,25}`,
/// 13,824,000 edges — big enough for stable single-core timings, small
/// enough to materialise.
const BENCH_POINTS: &[u64] = &[3, 4, 5, 9, 16, 25];
const BENCH_SPLIT: usize = 2;
const SAMPLES: usize = 7;

struct Measurement {
    name: String,
    median: Duration,
    edges_per_sec: f64,
}

fn measure(name: impl Into<String>, edges: u64, mut pass: impl FnMut() -> u64) -> Measurement {
    let name = name.into();
    // Warm-up pass also validates the produced edge count.
    assert_eq!(pass(), edges, "{name} produced the wrong number of edges");
    let mut samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            criterion::black_box(pass());
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    Measurement {
        name,
        median,
        edges_per_sec: edges as f64 / median.as_secs_f64(),
    }
}

/// The seed's per-edge streaming loop, feeding the opaque sink boundary.
fn per_edge_stream_baseline(
    b_triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    sink: &mut CheckSink,
) -> u64 {
    let mut produced = 0u64;
    for &(rb, cb, _) in b_triples {
        for (rc, cc, _) in c.iter() {
            consume_edge(sink, rb * c.nrows() + rc, cb * c.ncols() + cc);
            produced += 1;
        }
    }
    produced
}

/// The sink both streaming variants feed: two independent accumulators over
/// every edge (a row sum and a column xor), cheap enough to expose the
/// pipeline overhead rather than hide it, order-insensitive, and impossible
/// to optimize away.
#[derive(Default)]
struct CheckSink {
    row_sum: u64,
    col_xor: u64,
}

impl CheckSink {
    fn digest(&self) -> u64 {
        self.row_sum ^ self.col_xor
    }
}

/// The per-edge side of the sink boundary.  `#[inline(never)]` keeps the
/// boundary opaque, as it is for any real sink.
#[inline(never)]
fn consume_edge(sink: &mut CheckSink, row: u64, col: u64) {
    sink.row_sum = sink.row_sum.wrapping_add(row);
    sink.col_xor ^= col;
}

/// The chunked side of the same boundary: one opaque call per chunk, with a
/// local loop the compiler vectorizes.
#[inline(never)]
fn consume_chunk(sink: &mut CheckSink, edges: &[(u64, u64)]) {
    for &(row, col) in edges {
        sink.row_sum = sink.row_sum.wrapping_add(row);
        sink.col_xor ^= col;
    }
}

/// Time the per-edge-push and bulk-extend materialisations of the same
/// block into a preallocated, reused output matrix.
fn materialise_pair(
    label: &str,
    triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    vertices: u64,
    edges: u64,
) -> (Measurement, Measurement) {
    let mut out = CooMatrix::with_capacity(vertices, vertices, triples.len() * c.nnz());
    let per_edge = measure(format!("per_edge_materialise_{label}"), edges, || {
        out.clear();
        for &(rb, cb, vb) in triples {
            for (rc, cc, vc) in c.iter() {
                out.push(rb * c.nrows() + rc, cb * c.ncols() + cc, vb * vc)
                    .expect("kron indices are within the product dimensions");
            }
        }
        out.nnz() as u64
    });
    let bulk = measure(format!("bulk_materialise_{label}"), edges, || {
        out.clear();
        let (c_rows, c_cols, c_vals) = (c.row_indices(), c.col_indices(), c.values());
        for &(rb, cb, vb) in triples {
            out.append_translated::<PlusTimes>(
                rb * c.nrows(),
                cb * c.ncols(),
                vb,
                c_rows,
                c_cols,
                c_vals,
            );
        }
        out.nnz() as u64
    });
    (per_edge, bulk)
}

fn main() {
    let design =
        KroneckerDesign::from_star_points(BENCH_POINTS, SelfLoop::None).expect("valid design");
    let (b_design, c_design) = design.split(BENCH_SPLIT).expect("valid split");
    let b = b_design.realize_raw(50_000_000).expect("B fits");
    let c = c_design.realize_raw(50_000_000).expect("C fits");
    let triples = kron_gen::partition::csc_ordered_triples(&b);
    let edges = design.edges().to_u64().expect("bench scale");
    let vertices = design.vertices().to_u64().expect("bench scale");

    println!("edge_pipeline: {edges} edges per pass, single worker");

    let mut reference_digest = None;
    let mut check_digest = |name: &str, digest: u64| match reference_digest {
        None => reference_digest = Some(digest),
        Some(expected) => {
            assert_eq!(digest, expected, "{name} saw a different edge stream");
        }
    };

    let per_edge_stream = measure("per_edge_stream", edges, || {
        let mut sink = CheckSink::default();
        let produced = per_edge_stream_baseline(&triples, &c, &mut sink);
        check_digest("per_edge_stream", sink.digest());
        produced
    });

    let mut chunk = EdgeChunk::with_default_capacity();
    let chunked_stream = measure("chunked_stream", edges, || {
        let mut sink = CheckSink::default();
        // Same opaque boundary as the per-edge baseline, crossed once per
        // chunk instead of once per edge.
        let produced = stream_block_edges_into(&triples, &c, &mut chunk, |slice| {
            consume_chunk(&mut sink, slice)
        });
        check_digest("chunked_stream", sink.digest());
        produced
    });

    let count_fast_path = measure("count_fast_path", edges, || count_block_edges(&triples, &c));

    // Materialising comparison at two scales.  Both variants write into a
    // preallocated, reused block so the measurement is the append loop, not
    // first-touch page faults.  At the full 13.8M-edge scale the 331 MB of
    // output streams to DRAM and both loops are store-bandwidth-bound; the
    // cache-resident scale (the same structure minus the last star,
    // 276,480 edges / 6.6 MB) exposes the per-edge instruction overhead the
    // bulk path removes.
    let (per_edge_materialise, bulk_materialise) =
        materialise_pair("dram", &triples, &c, vertices, edges);

    let small_design =
        KroneckerDesign::from_star_points(&BENCH_POINTS[..BENCH_POINTS.len() - 1], SelfLoop::None)
            .expect("valid design");
    let (small_b_design, small_c_design) = small_design.split(BENCH_SPLIT).expect("valid split");
    let small_b = small_b_design.realize_raw(50_000_000).expect("B fits");
    let small_c = small_c_design.realize_raw(50_000_000).expect("C fits");
    let small_triples = kron_gen::partition::csc_ordered_triples(&small_b);
    let small_edges = small_design.edges().to_u64().expect("bench scale");
    let small_vertices = small_design.vertices().to_u64().expect("bench scale");
    let (per_edge_materialise_l3, bulk_materialise_l3) =
        materialise_pair("l3", &small_triples, &small_c, small_vertices, small_edges);

    let results = [
        per_edge_stream,
        chunked_stream,
        count_fast_path,
        per_edge_materialise,
        bulk_materialise,
        per_edge_materialise_l3,
        bulk_materialise_l3,
    ];
    for m in &results {
        println!(
            "  {:<22} median {:>12?}  {:>9.1} Medges/s",
            m.name,
            m.median,
            m.edges_per_sec / 1e6
        );
    }
    let speedup_stream = results[1].edges_per_sec / results[0].edges_per_sec;
    let speedup_materialise = results[4].edges_per_sec / results[3].edges_per_sec;
    let speedup_materialise_l3 = results[6].edges_per_sec / results[5].edges_per_sec;
    println!("  chunked_stream vs per_edge_stream:              {speedup_stream:.2}x");
    println!("  bulk_materialise vs per_edge_materialise (dram): {speedup_materialise:.2}x");
    println!("  bulk_materialise vs per_edge_materialise (l3):   {speedup_materialise_l3:.2}x");

    let json_entries: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"edges_per_sec\": {:.0}}}",
                m.name,
                m.median.as_secs_f64(),
                m.edges_per_sec
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"edge_pipeline\",\n  \"design\": {{\"points\": {:?}, \"split_index\": {}, \"edges\": {}}},\n  \"samples\": {},\n  \"results\": [\n{}\n  ],\n  \"speedup_chunked_vs_per_edge_stream\": {:.3},\n  \"speedup_bulk_vs_per_edge_materialise_dram\": {:.3},\n  \"speedup_bulk_vs_per_edge_materialise_l3\": {:.3}\n}}\n",
        BENCH_POINTS,
        BENCH_SPLIT,
        edges,
        SAMPLES,
        json_entries.join(",\n"),
        speedup_stream,
        speedup_materialise,
        speedup_materialise_l3
    );
    let out_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_edge_pipeline.json"
    );
    std::fs::write(out_path, &json).expect("write BENCH_edge_pipeline.json");
    println!("wrote {out_path}");
}
