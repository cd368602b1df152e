//! Per-layer probes: one public call of one layer, timed from outside on
//! the inputs of the workload that exercises that layer.
//!
//! Calls made inside a worker's stream are timed per chunk, and their rate
//! is edges ÷ (busy seconds ÷ workers): what the call alone would sustain
//! at the workload's worker count.  Whole-stream probes report edges ÷
//! wall time with the workload's workers running side by side.

use std::hint::black_box;
use std::time::{Duration, Instant};

use kron_gen::codec::{decode_frame, encode_frame, FRAME_HEADER_LEN};
use kron_gen::metrics::MetricObserver;
use kron_gen::{EdgeChunk, EdgeSource, FeistelPermutation, Fnv1a, SourceRun};
use kron_sparse::reduce::DegreeAccumulator;
use kron_sparse::SparseError;

use crate::kron::{self, KronCount, LabelSumObserver};
use crate::rmat::{self, QuadrantObserver};
use crate::shards::{self, PermutedShards};

pub type Metric = (&'static str, f64, &'static str);

/// Stream every worker's share of `source` side by side, handing each
/// worker's chunks to its own `per_chunk` state; returns the wall time.
fn stream_workers<S, T, F>(
    source: &S,
    workers: usize,
    state: &mut [T],
    per_chunk: F,
) -> Result<Duration, String>
where
    S: EdgeSource,
    T: Send,
    F: Fn(&mut T, &[(u64, u64)]) + Sync,
{
    let (run, _) = source.prepare(workers).map_err(|e| e.to_string())?;
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .iter_mut()
            .enumerate()
            .map(|(worker, slot)| {
                let (run, per_chunk) = (&run, &per_chunk);
                scope.spawn(move || {
                    let mut chunk = EdgeChunk::with_default_capacity();
                    run.stream_worker::<SparseError, _>(worker, &mut chunk, |edges| {
                        per_chunk(slot, edges);
                        Ok(())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe worker panicked").map(|_| ()))
            .collect::<Result<Vec<()>, SparseError>>()
    })
    .map_err(|e| e.to_string())?;
    Ok(started.elapsed())
}

fn timed<T>(busy: &mut Duration, call: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = call();
    *busy += started.elapsed();
    value
}

/// Per-chunk busy seconds, summed over workers, of
/// `DegreeAccumulator::record` at the source's vertex count and of one of
/// the benchmark's own check observers, over every worker's share of
/// `source`; returns the edges recorded with the two times.
fn histogram_and_check<S, O>(
    source: &S,
    workers: usize,
    observer: impl Fn() -> O,
) -> Result<(u64, f64, f64), String>
where
    S: EdgeSource,
    O: MetricObserver + Send,
{
    let vertices = source.vertices().map_err(|e| e.to_string())?;
    let mut state: Vec<(DegreeAccumulator, O, Duration, Duration)> = (0..workers)
        .map(|_| {
            (
                DegreeAccumulator::rows_only(vertices, vertices),
                observer(),
                Duration::ZERO,
                Duration::ZERO,
            )
        })
        .collect();
    stream_workers(
        source,
        workers,
        &mut state,
        |(acc, observer, histogram, check), edges| {
            timed(histogram, || acc.record(edges));
            timed(check, || observer.observe(edges));
        },
    )?;
    let recorded = state.iter().map(|(acc, ..)| acc.edge_count()).sum();
    let busy = |pick: fn(&(DegreeAccumulator, O, Duration, Duration)) -> Duration| {
        state.iter().map(|s| pick(s).as_secs_f64()).sum::<f64>()
    };
    Ok((recorded, busy(|s| s.2), busy(|s| s.3)))
}

/// `gen.source.kron_medges_per_s`, `sparse.histogram_medges_per_s` and
/// `check.label_sums_medges_per_s` on `kron_count`'s stream.
pub fn kron_count(workload: &KronCount) -> Result<Vec<Metric>, String> {
    let source = workload.source();
    let mut counts = vec![0u64; kron::WORKERS];
    let wall = stream_workers(&source, kron::WORKERS, &mut counts, |count, edges| {
        *count += black_box(edges).len() as u64;
    })?;
    let edges: u64 = counts.iter().sum();
    let vertices = source.vertices().map_err(|e| e.to_string())?;
    let (recorded, histogram, sums) =
        histogram_and_check(&source, kron::WORKERS, || LabelSumObserver::new(vertices))?;
    if recorded != edges {
        return Err(format!(
            "histogram probe recorded {recorded} of {edges} edges"
        ));
    }
    let rate = |busy: f64| edges as f64 / (busy / kron::WORKERS as f64) / 1e6;
    Ok(vec![
        (
            "gen.source.kron_medges_per_s",
            edges as f64 / wall.as_secs_f64() / 1e6,
            "Medges/s",
        ),
        ("sparse.histogram_medges_per_s", rate(histogram), "Medges/s"),
        ("check.label_sums_medges_per_s", rate(sums), "Medges/s"),
    ])
}

/// `sparse.histogram_rmat_medges_per_s` and `check.quadrants_medges_per_s`
/// on `rmat_count`'s stream: the histogram at 2^24 vertices on R-MAT's
/// scattered labels, and the quadrant count every `rmat_count` pass runs.
pub fn rmat_stream(seed: u64) -> Result<Vec<Metric>, String> {
    let source = rmat::source(seed)?;
    let (edges, histogram, quadrants) =
        histogram_and_check(&source, rmat::WORKERS, QuadrantObserver::default)?;
    if edges != 16 << rmat::SCALE {
        return Err(format!("histogram probe recorded {edges} R-MAT edges"));
    }
    let rate = |busy: f64| edges as f64 / (busy / rmat::WORKERS as f64) / 1e6;
    Ok(vec![
        (
            "sparse.histogram_rmat_medges_per_s",
            rate(histogram),
            "Medges/s",
        ),
        ("check.quadrants_medges_per_s", rate(quadrants), "Medges/s"),
    ])
}

/// `rmat.sample_medges_per_s`: `RmatBatchSampler::fill` over each worker's
/// sample range, side by side.
pub fn rmat_sampler(seed: u64) -> Result<Vec<Metric>, String> {
    let source = rmat::source(seed)?;
    let generator = source.generator();
    let started = Instant::now();
    let filled: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..rmat::WORKERS)
            .map(|worker| {
                scope.spawn(move || {
                    let sampler = generator.batch_sampler();
                    let mut buffer = vec![(0u64, 0u64); EdgeChunk::DEFAULT_CAPACITY];
                    let range = generator.sample_range(worker, rmat::WORKERS);
                    let mut index = range.start;
                    while index < range.end {
                        let len = ((range.end - index) as usize).min(buffer.len());
                        sampler.fill(index, &mut buffer[..len]);
                        black_box(&buffer);
                        index += len as u64;
                    }
                    range.end - range.start
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sampler panicked"))
            .sum()
    });
    Ok(vec![(
        "rmat.sample_medges_per_s",
        filled as f64 / started.elapsed().as_secs_f64() / 1e6,
        "Medges/s",
    )])
}

#[derive(Default)]
struct ShardLayers {
    edges: u64,
    bytes: u64,
    payload_bytes: u64,
    permute: Duration,
    permute_power_of_four: Duration,
    encode: Duration,
    checksum: Duration,
    decode: Duration,
    mismatch: bool,
    out: Vec<(u64, u64)>,
    pending: Vec<u32>,
    out4: Vec<(u64, u64)>,
    pending4: Vec<u32>,
    frame: Vec<u8>,
    decoded: Vec<(u64, u64)>,
}

/// The permutation, codec and checksum layers on `kron_permuted_shards`'
/// chunks, then `ReplaySource`'s stream over a freshly written shard set.
pub fn permuted_shards(workload: &PermutedShards) -> Result<Vec<Metric>, String> {
    let source = workload.source();
    let vertices = source.vertices().map_err(|e| e.to_string())?;
    let permutation = FeistelPermutation::new(vertices, workload.permutation_seed);
    // The same Feistel network with no cycle walk: 2,121,600 vertices need
    // a 22-bit domain, and 4^11 = 2^22 fills it exactly.
    let power_of_four = FeistelPermutation::new(1 << 22, workload.permutation_seed);
    let mut state: Vec<ShardLayers> = (0..shards::WORKERS)
        .map(|_| ShardLayers::default())
        .collect();
    stream_workers(&source, shards::WORKERS, &mut state, |s, edges| {
        let ShardLayers {
            out,
            pending,
            out4,
            pending4,
            frame,
            decoded,
            ..
        } = s;
        timed(&mut s.permute, || {
            permutation.apply_edges_into(edges, out, pending)
        });
        timed(&mut s.permute_power_of_four, || {
            power_of_four.apply_edges_into(edges, out4, pending4)
        });
        frame.clear();
        timed(&mut s.encode, || encode_frame(out, frame));
        black_box(timed(&mut s.checksum, || {
            Fnv1a::hash(&frame[FRAME_HEADER_LEN..])
        }));
        let decoded_ok = timed(&mut s.decode, || {
            decode_frame(out.len() as u32, &frame[FRAME_HEADER_LEN..], decoded)
        });
        s.mismatch |= decoded_ok.is_err() || decoded != out;
        s.edges += edges.len() as u64;
        s.bytes += frame.len() as u64;
        s.payload_bytes += (frame.len() - FRAME_HEADER_LEN) as u64;
    })?;
    if state.iter().any(|s| s.mismatch) {
        return Err("a decoded frame differs from the permuted chunk".into());
    }
    let edges: u64 = state.iter().map(|s| s.edges).sum();
    let per_worker = |pick: fn(&ShardLayers) -> Duration| {
        state.iter().map(|s| pick(s).as_secs_f64()).sum::<f64>() / shards::WORKERS as f64
    };
    let rate = |seconds: f64| edges as f64 / seconds / 1e6;
    let permute_s = per_worker(|s| s.permute);
    let bytes: u64 = state.iter().map(|s| s.bytes).sum();
    let payload_mib = state.iter().map(|s| s.payload_bytes).sum::<u64>() as f64 / (1 << 20) as f64;
    let mut metrics = vec![
        ("gen.permute.medges_per_s", rate(permute_s), "Medges/s"),
        (
            "gen.permute.walk_ratio",
            permute_s / per_worker(|s| s.permute_power_of_four),
            "ratio",
        ),
        (
            "gen.codec.encode_medges_per_s",
            rate(per_worker(|s| s.encode)),
            "Medges/s",
        ),
        (
            "gen.codec.decode_medges_per_s",
            rate(per_worker(|s| s.decode)),
            "Medges/s",
        ),
        (
            "gen.codec.bytes_per_edge",
            bytes as f64 / edges as f64,
            "B/edge",
        ),
        (
            "gen.checksum.mib_per_s",
            payload_mib / per_worker(|s| s.checksum),
            "MiB/s",
        ),
    ];
    metrics.push(replay_source(workload)?);
    Ok(metrics)
}

/// `gen.replay.source_medges_per_s`: write the shard set once, then time
/// `ReplaySource`'s stream (read, verify, decode) into a discarding sink.
fn replay_source(workload: &PermutedShards) -> Result<Metric, String> {
    let (set, edges) = workload.write_for_replay()?;
    let source = workload.replay_source(&set, edges);
    let mut counts = vec![0u64; shards::WORKERS];
    let wall = stream_workers(&source, shards::WORKERS, &mut counts, |count, edges| {
        *count += black_box(edges).len() as u64;
    })?;
    let replayed: u64 = counts.iter().sum();
    if replayed != edges {
        return Err(format!("replay probe streamed {replayed} of {edges} edges"));
    }
    Ok((
        "gen.replay.source_medges_per_s",
        edges as f64 / wall.as_secs_f64() / 1e6,
        "Medges/s",
    ))
}
