//! Out-of-core pipeline throughput (the rows keep the names of the shard
//! driver that first ran them).
//!
//! Edges stream from the Kronecker expansion through per-worker sinks and a
//! streaming degree histogram, and nothing proportional to the edge count is
//! ever held in memory unless a terminal asks for it.  This bench measures
//! what that costs (and buys) against materialising the blocks:
//!
//! * `driver_counting_w{N}` — full `Pipeline::count` runs (generation +
//!   streamed histogram + validation-ready measurement) across worker
//!   counts: the Figure-3 sweep.
//! * `materialise_generator_w{N}` — `Pipeline::collect_coo` on the same
//!   design, every edge held in per-worker COO blocks, for the memory-bound
//!   comparison.
//! * `driver_tsv_w4` / `driver_binary_w4` (small design) — the historical
//!   disk points.  At 276 K edges these are dominated by per-run fixed
//!   costs (shard fsyncs, directory syncs, the manifest), so they price a
//!   whole small run, not the sink.
//! * `driver_binary_w*` / `driver_compressed_w*` (full design) — the sink
//!   throughput measures: 13.8 M edges amortise the fixed costs, so these
//!   numbers track bytes-per-edge × disk bandwidth + checksum/encode
//!   compute.  The compressed (v4 delta/varint) sink writes ~3.3x fewer
//!   bytes than the raw interleaved format, which is exactly what lifts it
//!   past the disk's raw-format ceiling.
//!
//! Results are printed and written as machine-readable JSON to
//! `BENCH_shard_driver.json` at the workspace root, so successive PRs can
//! track the trajectory.  Pass `--smoke` for a seconds-long single-sample
//! sanity sweep (used by CI) that exercises every sink but records nothing.

use std::path::Path;
use std::time::{Duration, Instant};

use kron_bench::provenance;
use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::{DesignPipeline, DriverConfig, Pipeline};

/// The paper's `B` factor from Figures 3/4 (13,824,000 edges) for in-memory
/// paths and the full-design disk sinks, and the same structure minus the
/// last star (276,480 edges) for the historical small disk points.
const BENCH_POINTS: &[u64] = &[3, 4, 5, 9, 16, 25];
const DISK_POINTS: &[u64] = &[3, 4, 5, 9, 16];
const BENCH_SPLIT: usize = 2;
const SAMPLES: usize = 5;

struct Measurement {
    name: String,
    median: Duration,
    edges_per_sec: f64,
}

fn measure(
    name: impl Into<String>,
    edges: u64,
    samples: usize,
    mut pass: impl FnMut() -> u64,
) -> Measurement {
    let name = name.into();
    assert_eq!(pass(), edges, "{name} produced the wrong number of edges");
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            criterion::black_box(pass());
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    Measurement {
        name,
        median,
        edges_per_sec: edges as f64 / median.as_secs_f64(),
    }
}

fn pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
    let config = DriverConfig {
        workers,
        max_c_edges: 1 << 20,
        max_b_edges: 1 << 24,
        ..DriverConfig::default()
    };
    Pipeline::from_config(design, &config).split_index(BENCH_SPLIT)
}

/// Total size on disk of the `extension` shards under `dir`, for the
/// compression ratio.  The directory is shared across sink families, so
/// filtering by extension keeps one family's leftovers out of another's
/// byte count.
fn shard_bytes(dir: &Path, extension: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == extension))
                .filter_map(|p| p.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let samples = if smoke { 1 } else { SAMPLES };

    let design =
        KroneckerDesign::from_star_points(BENCH_POINTS, SelfLoop::None).expect("valid design");
    let edges = design.edges().to_u64().expect("bench scale");
    let disk_design =
        KroneckerDesign::from_star_points(DISK_POINTS, SelfLoop::None).expect("valid design");
    let disk_edges = disk_design.edges().to_u64().expect("bench scale");
    let shard_dir = std::env::temp_dir().join("kron_bench_shard_driver");

    if smoke {
        // One fast pass over every path: generation correct, every sink
        // writes, rates are nonzero.  No JSON — a sanity gate, not a record.
        let run = pipeline(&disk_design, 2).count().expect("factors fit");
        assert!(run.validation.is_exact_match());
        for (sink, result) in [
            ("tsv", pipeline(&disk_design, 2).write_tsv(&shard_dir)),
            ("binary", pipeline(&disk_design, 2).write_binary(&shard_dir)),
            (
                "compressed",
                pipeline(&disk_design, 2).write_compressed(&shard_dir),
            ),
        ] {
            let run = result.expect("shards write");
            assert_eq!(run.stats.total_edges, disk_edges, "{sink} lost edges");
            assert_eq!(run.outputs.len(), 2, "{sink} shard count");
            let rate = disk_edges as f64 / run.stats.seconds.max(1e-9) / 1e6;
            assert!(
                rate > 0.1,
                "{sink} sink implausibly slow: {rate:.2} Medges/s"
            );
            println!("  smoke {sink:<10} {rate:>9.1} Medges/s");
        }
        std::fs::remove_dir_all(&shard_dir).ok();
        println!("shard_driver --smoke: ok ({disk_edges} edges per pass)");
        return;
    }

    println!("shard_driver: {edges} edges per pass");

    let mut results: Vec<Measurement> = Vec::new();
    let worker_counts = [1usize, 2, 4, 8];
    for &workers in &worker_counts {
        results.push(measure(
            format!("driver_counting_w{workers}"),
            edges,
            samples,
            || {
                let run = pipeline(&design, workers).count().expect("factors fit");
                assert!(run.validation.is_exact_match());
                run.stats.total_edges
            },
        ));
    }
    for &workers in &[1usize, 4] {
        results.push(measure(
            format!("materialise_generator_w{workers}"),
            edges,
            samples,
            || {
                pipeline(&design, workers)
                    .collect_coo()
                    .expect("fits in memory")
                    .edge_count()
            },
        ));
    }

    // Historical small disk points: fixed-cost-dominated on purpose (the
    // price of a whole small run), kept for trajectory continuity.
    results.push(measure(
        format!("driver_tsv_w4_{disk_edges}e"),
        disk_edges,
        samples,
        || {
            let run = pipeline(&disk_design, 4)
                .write_tsv(&shard_dir)
                .expect("shards write");
            run.stats.total_edges
        },
    ));
    results.push(measure(
        format!("driver_binary_w4_{disk_edges}e"),
        disk_edges,
        samples,
        || {
            let run = pipeline(&disk_design, 4)
                .write_binary(&shard_dir)
                .expect("shards write");
            run.stats.total_edges
        },
    ));

    // Full-design disk sinks: 50x more edges amortise the per-run fixed
    // costs, so these measure the sinks themselves.
    results.push(measure(
        format!("driver_binary_w4_{edges}e"),
        edges,
        samples,
        || {
            let run = pipeline(&design, 4)
                .write_binary(&shard_dir)
                .expect("shards write");
            run.stats.total_edges
        },
    ));
    // A fresh directory for the compressed family, so the binary runs'
    // 221 MB of `.kbk` shards don't sit under the page cache's writeback
    // while the compressed sinks are being timed.
    std::fs::remove_dir_all(&shard_dir).ok();
    let mut compressed_bytes = 0u64;
    for &workers in &[1usize, 4] {
        results.push(measure(
            format!("driver_compressed_w{workers}_{edges}e"),
            edges,
            samples,
            || {
                let run = pipeline(&design, workers)
                    .write_compressed(&shard_dir)
                    .expect("shards write");
                compressed_bytes = shard_bytes(&shard_dir, "kbkz");
                run.stats.total_edges
            },
        ));
    }
    // The ratio prices the raw interleaved layout (16 bytes/edge) against
    // the compressed shards as stored (headers included).
    let compression_ratio = (16 * edges) as f64 / compressed_bytes.max(1) as f64;
    std::fs::remove_dir_all(&shard_dir).ok();

    for m in &results {
        println!(
            "  {:<32} median {:>12?}  {:>9.1} Medges/s",
            m.name,
            m.median,
            m.edges_per_sec / 1e6
        );
    }
    let rate_of = |name: &str| {
        results
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no measurement named {name}"))
            .edges_per_sec
    };
    let scaling_1_to_4 = rate_of("driver_counting_w4") / rate_of("driver_counting_w1");
    let driver_vs_materialise = rate_of("driver_counting_w4") / rate_of("materialise_generator_w4");
    let compressed_vs_binary = rate_of(&format!("driver_compressed_w4_{edges}e"))
        / rate_of(&format!("driver_binary_w4_{edges}e"));
    println!("  driver counting scaling 1 -> 4 workers:   {scaling_1_to_4:.2}x");
    println!("  driver(4) vs materialising generator(4):  {driver_vs_materialise:.2}x");
    println!("  compressed vs binary sink (w4, full):     {compressed_vs_binary:.2}x");
    println!("  compression ratio (raw 16 B/edge vs disk): {compression_ratio:.2}x");

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
        "{{\n  \"bench\": \"shard_driver\",\n  \"design\": {{\"points\": {:?}, \"split_index\": {}, \"edges\": {}}},\n  \"samples\": {},\n  {},\n  \"results\": [\n{}\n  ],\n  \"driver_counting_scaling_1_to_4\": {:.3},\n  \"driver_vs_materialise_w4\": {:.3},\n  \"compressed_vs_binary_w4\": {:.3},\n  \"compression_ratio\": {:.3}\n}}\n",
        BENCH_POINTS,
        BENCH_SPLIT,
        edges,
        samples,
        provenance::json_fields(),
        json_entries.join(",\n"),
        scaling_1_to_4,
        driver_vs_materialise,
        compressed_vs_binary,
        compression_ratio
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard_driver.json");
    std::fs::write(out_path, &json).expect("write BENCH_shard_driver.json");
    println!("wrote {out_path}");
}
