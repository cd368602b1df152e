//! `kron_permuted_shards`: a Fig. 3/4-family design above the permutation
//! table's 2^21-vertex domain, relabelled in-stream, written as compressed
//! (v4) shards, then replayed and re-validated.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::sink::{CompressedShardSink, DoubleBufferedSink};
use kron_gen::{
    BlockFileSet, BlockFormat, CountingSink, KroneckerSource, MetricsReport, Pipeline,
    ReplaySource, RunReport,
};

use crate::check::{self, Loop};
use crate::trace::{TracedSink, TracedSource};
use crate::{Config, Outcome, PassTrace, Workload};

/// 82,944,000 edges over 2,121,600 vertices (> 2^21 = 2,097,152).
const POINTS: [u64; 7] = [3, 3, 4, 5, 9, 16, 25];
/// One worker: with its writer thread that is two threads, within two
/// vCPUs.  Two workers would start four.
pub const WORKERS: usize = 1;
/// The base permutation seed the repository's existing benches use.
const BASE_PERMUTATION_SEED: u64 = 0x5EED;

pub struct PermutedShards {
    pub design: KroneckerDesign,
    pub permutation_seed: u64,
    pub directory: PathBuf,
}

pub struct Expected {
    edges: u128,
    histogram: BTreeMap<u64, u64>,
}

impl Drop for PermutedShards {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.directory);
    }
}

fn shard_bytes(directory: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(directory).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "kbkz") {
            total += path.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

impl PermutedShards {
    pub fn source(&self) -> KroneckerSource<'_> {
        KroneckerSource::new(&self.design)
    }

    /// Empty the shard directory, so every write starts from nothing.
    fn empty_directory(&self) -> Result<(), String> {
        match std::fs::remove_dir_all(&self.directory) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.to_string()),
            _ => {}
        }
        std::fs::create_dir_all(&self.directory).map_err(|e| e.to_string())
    }

    fn write_untraced(&self) -> Result<RunReport<PathBuf>, String> {
        Pipeline::for_source(self.source())
            .workers(WORKERS)
            .permute_vertices(self.permutation_seed)
            .write_compressed(&self.directory)
            .map_err(|e| e.to_string())
    }

    fn replay_untraced(&self) -> Result<RunReport<u64>, String> {
        let source = ReplaySource::from_directory(&self.directory).map_err(|e| e.to_string())?;
        Pipeline::for_source(source)
            .workers(WORKERS)
            .count()
            .map_err(|e| e.to_string())
    }

    /// The write through the same sink stack `write_compressed` builds
    /// (a double-buffered compressed shard sink per worker), with spans
    /// around the source and the sink.  It writes no manifest.
    fn write_traced(&self, t: &PassTrace) -> Result<(RunReport<PathBuf>, BlockFileSet), String> {
        let vertices = self.design.vertices().to_u64().ok_or("vertices fit u64")?;
        let files: Vec<PathBuf> = (0..WORKERS)
            .map(|w| self.directory.join(format!("block_{w}.kbkz")))
            .collect();
        let prefix = format!("{}/write", t.prefix);
        let report =
            Pipeline::for_source(TracedSource::new(self.source(), &t.tracer, &prefix, t.pass))
                .workers(WORKERS)
                .permute_vertices(self.permutation_seed)
                .into_sinks(|worker| {
                    let sink = CompressedShardSink::create(&files[worker], vertices, vertices)?;
                    Ok(TracedSink::new(
                        DoubleBufferedSink::new(sink),
                        &t.tracer,
                        &prefix,
                        t.pass,
                        worker,
                    ))
                })
                .map_err(|e| e.to_string())?;
        let set = BlockFileSet {
            directory: self.directory.clone(),
            files,
            vertices,
            format: BlockFormat::Compressed,
        };
        Ok((report, set))
    }

    /// Write the shard set untraced, for probes that read it back.
    pub fn write_for_replay(&self) -> Result<(BlockFileSet, u64), String> {
        self.empty_directory()?;
        let report = self.write_untraced()?;
        let files = report
            .files
            .clone()
            .ok_or("write_compressed lists its files")?;
        Ok((files, report.edge_count()))
    }

    pub fn replay_source(&self, set: &BlockFileSet, edges: u64) -> ReplaySource {
        ReplaySource::from_file_set(set).expect_edges(edges)
    }

    fn replay_traced(
        &self,
        t: &PassTrace,
        set: &BlockFileSet,
        edges: u64,
    ) -> Result<RunReport<u64>, String> {
        let prefix = format!("{}/replay", t.prefix);
        Pipeline::for_source(TracedSource::new(
            self.replay_source(set, edges),
            &t.tracer,
            &prefix,
            t.pass,
        ))
        .workers(WORKERS)
        .into_sinks(|worker| {
            Ok(TracedSink::new(
                CountingSink::new(),
                &t.tracer,
                &prefix,
                t.pass,
                worker,
            ))
        })
        .map_err(|e| e.to_string())
    }
}

fn check_pass(
    write: &MetricsReport,
    write_valid: bool,
    replay: &RunReport<u64>,
    expected: &Expected,
) -> Result<(), String> {
    if !write_valid || !replay.is_valid() {
        return Err("a run failed its own validation".into());
    }
    if &replay.metrics != write {
        return Err("the replayed metrics differ from the write run's".into());
    }
    if replay.metrics.degree_histogram != expected.histogram {
        return Err("the replayed degree histogram differs from the star product".into());
    }
    if u128::from(replay.edge_count()) != expected.edges {
        return Err(format!(
            "{} edges replayed, closed form gives {}",
            replay.edge_count(),
            expected.edges
        ));
    }
    Ok(())
}

impl Workload for PermutedShards {
    type Expected = Expected;

    fn expected(_config: &Config) -> Expected {
        let histogram = check::degree_distribution(&POINTS, Loop::None)
            .into_iter()
            .map(|(d, n)| (d as u64, n as u64))
            .collect();
        Expected {
            edges: check::edges(&POINTS, Loop::None),
            histogram,
        }
    }

    fn setup(config: &Config) -> Result<Self, String> {
        let design = KroneckerDesign::from_star_points(&POINTS, SelfLoop::None)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(design.properties());
        let workload = PermutedShards {
            design,
            permutation_seed: BASE_PERMUTATION_SEED.wrapping_add(config.seed),
            directory: config
                .scratch
                .join(format!("shards-{}", std::process::id())),
        };
        workload.empty_directory()?;
        Ok(workload)
    }

    fn pass(&mut self, expected: &Expected, trace: Option<&PassTrace>) -> Result<Outcome, String> {
        self.empty_directory()?;
        let started = Instant::now();
        let (write, write_valid, replay, write_s) = match trace {
            None => {
                let write = self.write_untraced()?;
                let write_s = started.elapsed().as_secs_f64();
                if write.manifest.shards.len() != WORKERS {
                    return Err("the manifest lacks a checksum record per shard".into());
                }
                (
                    write.metrics.clone(),
                    write.is_valid(),
                    self.replay_untraced()?,
                    write_s,
                )
            }
            Some(t) => {
                let (write, set) = self.write_traced(t)?;
                let write_s = started.elapsed().as_secs_f64();
                let replay = self.replay_traced(t, &set, write.edge_count())?;
                (write.metrics.clone(), write.is_valid(), replay, write_s)
            }
        };
        let seconds = started.elapsed().as_secs_f64();
        let edges = replay.edge_count();
        let bytes = shard_bytes(&self.directory)?;
        Ok(Outcome {
            seconds,
            edges,
            parts: vec![
                ("write_medges_per_s", edges as f64 / write_s / 1e6),
                (
                    "replay_medges_per_s",
                    edges as f64 / (seconds - write_s) / 1e6,
                ),
                ("shard_bytes_per_edge", bytes as f64 / edges as f64),
                ("replay_s", seconds - write_s),
            ],
            check: check_pass(&write, write_valid, &replay, expected),
        })
    }
}
