//! `kron_count`: the Figs. 3/4 star set without its last factor, generated
//! in memory at two workers and validated in-stream.

use std::any::Any;
use std::time::Instant;

use kron_core::{KroneckerDesign, SelfLoop};
use kron_gen::metrics::{MetricContext, MetricObserver, StreamingMetric};
use kron_gen::{CountingSink, KroneckerSource, Pipeline, RunReport};

use crate::check::{self, Loop};
use crate::trace::{TracedSink, TracedSource};
use crate::{Config, Outcome, PassTrace, Workload};

/// `B` and `C` of the generated design: Figs. 3/4's stars minus 256.
/// 2,239,488,000 edges over 43,492,800 vertices.
const B_POINTS: [u64; 4] = [3, 4, 5, 9];
const C_POINTS: [u64; 3] = [16, 25, 81];
pub const WORKERS: usize = 2;

/// The seed orders the stars inside `C`: an isomorphic graph with other
/// vertex labels, so the label-sum identity is checked against a different
/// labelling across seeds, while `B`, its partition among the workers, and
/// the rows each worker touches stay the same.
fn points_for_seed(seed: u64) -> Vec<u64> {
    const ORDERS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let order = ORDERS[(seed % ORDERS.len() as u64) as usize];
    let mut points = B_POINTS.to_vec();
    points.extend(order.iter().map(|&i| C_POINTS[i]));
    points
}

/// A streaming metric summing the row labels and the column labels of
/// every delivered edge, as `"<rows> <cols>"`.
struct LabelSums;

pub struct LabelSumObserver {
    vertices: u64,
    rows: u128,
    cols: u128,
}

impl LabelSumObserver {
    pub fn new(vertices: u64) -> Self {
        LabelSumObserver {
            vertices,
            rows: 0,
            cols: 0,
        }
    }
}

impl StreamingMetric for LabelSums {
    fn name(&self) -> &str {
        "label_sums"
    }

    fn observer(&self, context: &MetricContext) -> Box<dyn MetricObserver> {
        Box::new(LabelSumObserver::new(context.vertices))
    }
}

impl MetricObserver for LabelSumObserver {
    fn observe(&mut self, edges: &[(u64, u64)]) {
        // Labels are below `vertices`, so a chunk whose labels cannot
        // overflow 64 bits is summed in u64 lanes and widened once.
        if (edges.len() as u128) * u128::from(self.vertices) <= u128::from(u64::MAX) {
            let (rows, cols) = edges
                .iter()
                .fold((0u64, 0u64), |(r, c), &(row, col)| (r + row, c + col));
            self.rows += u128::from(rows);
            self.cols += u128::from(cols);
        } else {
            for &(row, col) in edges {
                self.rows += u128::from(row);
                self.cols += u128::from(col);
            }
        }
    }

    fn merge(&mut self, other: Box<dyn MetricObserver>) {
        let other = other
            .into_any()
            .downcast::<LabelSumObserver>()
            .expect("the engine merges observers of one metric");
        self.rows += other.rows;
        self.cols += other.cols;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn finalize(self: Box<Self>) -> String {
        format!("{} {}", self.rows, self.cols)
    }
}

pub struct KronCount {
    pub design: KroneckerDesign,
}

pub struct Expected {
    edges: u128,
    vertices: u128,
    label_sums: (u128, u128),
}

impl KronCount {
    pub fn source(&self) -> KroneckerSource<'_> {
        KroneckerSource::new(&self.design).split_index(B_POINTS.len())
    }
}

fn check_report<O>(report: &RunReport<O>, expected: &Expected) -> Result<(), String> {
    if !report.is_valid() {
        return Err("streamed histogram differs from the prediction".into());
    }
    if u128::from(report.edge_count()) != expected.edges
        || u128::from(report.vertices) != expected.vertices
    {
        return Err(format!(
            "{} edges over {} vertices, closed forms give {} over {}",
            report.edge_count(),
            report.vertices,
            expected.edges,
            expected.vertices
        ));
    }
    let (rows, cols) = expected.label_sums;
    let want = format!("{rows} {cols}");
    match report.metrics.custom_value("label_sums") {
        Some(got) if got == want => Ok(()),
        got => Err(format!(
            "label sums {got:?}, Kronecker identity gives {want}"
        )),
    }
}

impl Workload for KronCount {
    type Expected = Expected;

    fn expected(config: &Config) -> Expected {
        let points = points_for_seed(config.seed);
        Expected {
            edges: check::edges(&points, Loop::None),
            vertices: check::vertices(&points),
            label_sums: check::kron_label_sums(&points),
        }
    }

    fn setup(config: &Config) -> Result<Self, String> {
        let points = points_for_seed(config.seed);
        let design = KroneckerDesign::from_star_points(&points, SelfLoop::None)
            .map_err(|e| e.to_string())?;
        // The exact prediction the run validates against.
        std::hint::black_box(design.properties());
        Ok(KronCount { design })
    }

    fn pass(&mut self, expected: &Expected, trace: Option<&PassTrace>) -> Result<Outcome, String> {
        let started = Instant::now();
        let report = match trace {
            None => Pipeline::for_source(self.source())
                .workers(WORKERS)
                .with_metric(LabelSums)
                .count(),
            Some(t) => Pipeline::for_source(TracedSource::new(
                self.source(),
                &t.tracer,
                &t.prefix,
                t.pass,
            ))
            .workers(WORKERS)
            .with_metric(LabelSums)
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
        Ok(Outcome {
            seconds,
            edges: report.edge_count(),
            parts: Vec::new(),
            check: check_report(&report, expected),
        })
    }
}
