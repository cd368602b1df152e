//! `rmat_count`: Graph500 R-MAT at a scale whose degree histogram exceeds
//! the last-level cache, counted in memory at two workers.

use std::any::Any;
use std::time::Instant;

use kron_gen::metrics::{MetricContext, MetricObserver, StreamingMetric};
use kron_gen::{CountingSink, Pipeline};
use kron_rmat::{RmatParams, RmatSource};

use crate::check;
use crate::trace::{TracedSink, TracedSource};
use crate::{Config, Outcome, PassTrace, Workload};

/// 2^24 vertices: a 128 MiB per-worker degree vector, above a 105 MiB LLC.
pub const SCALE: u32 = 24;
pub const WORKERS: usize = 2;
/// The base seed the repository's existing benches use.
const BASE_SEED: u64 = 20180304;

pub fn source(seed: u64) -> Result<RmatSource, String> {
    RmatSource::new(RmatParams::graph500(SCALE), BASE_SEED.wrapping_add(seed))
        .map_err(|e| e.to_string())
}

/// Counts of edges per quadrant `(row bit, col bit)` at the top recursion
/// level and at the one below it, as eight space-separated numbers.
struct Quadrants;

#[derive(Default)]
pub struct QuadrantObserver {
    counts: [[u64; 4]; 2],
}

impl StreamingMetric for Quadrants {
    fn name(&self) -> &str {
        "quadrants"
    }

    fn observer(&self, _context: &MetricContext) -> Box<dyn MetricObserver> {
        Box::<QuadrantObserver>::default()
    }
}

impl MetricObserver for QuadrantObserver {
    fn observe(&mut self, edges: &[(u64, u64)]) {
        for &(row, col) in edges {
            for (level, counts) in self.counts.iter_mut().enumerate() {
                let shift = SCALE - 1 - level as u32;
                counts[(((row >> shift) & 1) * 2 + ((col >> shift) & 1)) as usize] += 1;
            }
        }
    }

    fn merge(&mut self, other: Box<dyn MetricObserver>) {
        let other = other
            .into_any()
            .downcast::<QuadrantObserver>()
            .expect("the engine merges observers of one metric");
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn finalize(self: Box<Self>) -> String {
        let all: Vec<String> = self.counts.iter().flatten().map(u64::to_string).collect();
        all.join(" ")
    }
}

pub struct RmatCount {
    source: RmatSource,
}

impl Workload for RmatCount {
    type Expected = ();

    fn expected(_config: &Config) {}

    fn setup(config: &Config) -> Result<Self, String> {
        Ok(RmatCount {
            source: source(config.seed)?,
        })
    }

    fn pass(&mut self, _expected: &(), trace: Option<&PassTrace>) -> Result<Outcome, String> {
        let started = Instant::now();
        let report = match trace {
            None => Pipeline::for_source(self.source.clone())
                .workers(WORKERS)
                .with_metric(Quadrants)
                .count(),
            Some(t) => Pipeline::for_source(TracedSource::new(
                self.source.clone(),
                &t.tracer,
                &t.prefix,
                t.pass,
            ))
            .workers(WORKERS)
            .with_metric(Quadrants)
            .into_sinks(|worker| {
                Ok(TracedSink::new(
                    CountingSink::new(),
                    &t.tracer,
                    &t.prefix,
                    t.pass,
                    worker,
                ))
            }),
        }
        .map_err(|e| e.to_string())?;
        let seconds = started.elapsed().as_secs_f64();
        if let Some(t) = trace {
            t.tracer.record_value(
                &t.prefix,
                "balance_max_over_mean",
                report.metrics.balance.max_over_mean,
            );
        }
        let check = (|| {
            let vertices = 1u64 << SCALE;
            if !report.is_valid()
                || report.vertices != vertices
                || report.edge_count() != 16 * vertices
            {
                return Err(format!(
                    "{} edges over {} vertices, expected {} over {vertices}",
                    report.edge_count(),
                    report.vertices,
                    16 * vertices
                ));
            }
            let counts: Vec<u64> = report
                .metrics
                .custom_value("quadrants")
                .ok_or("no quadrant counts")?
                .split(' ')
                .map(|c| c.parse().map_err(|_| format!("bad count {c}")))
                .collect::<Result<_, _>>()?;
            for level in 0..2 {
                let row: [u64; 4] = counts[4 * level..4 * level + 4]
                    .try_into()
                    .expect("four quadrants per level");
                check::rmat_quadrants_ok(&row, level as u32 + 1)?;
            }
            Ok(())
        })();
        Ok(Outcome {
            seconds,
            edges: report.edge_count(),
            parts: Vec::new(),
            check,
        })
    }
}
