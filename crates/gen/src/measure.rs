//! Per-worker load balance of a generation run.
//!
//! The paper's generator gives every processor the same number of edges;
//! [`BalanceReport`] quantifies that claim from a run's per-worker edge
//! counts.  (The degree distribution and the rest of the property sheet are
//! measured in-stream by the [`metrics`](crate::metrics) engine.)

use serde::{Deserialize, Serialize};

/// Per-worker load-balance summary (the paper's "same number of edges on
/// each processor" claim, quantified).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceReport {
    /// Edge count of each worker.
    pub edges_per_worker: Vec<u64>,
    /// Largest per-worker edge count.
    pub max_edges: u64,
    /// Smallest per-worker edge count.
    pub min_edges: u64,
    /// Max / mean ratio (1.0 = perfectly balanced).
    pub max_over_mean: f64,
}

impl BalanceReport {
    /// Build the balance report of any run from its generation statistics —
    /// the pipeline-era entry point
    /// (`BalanceReport::from_stats(&report.stats)`).
    pub fn from_stats(stats: &crate::stats::GenerationStats) -> Self {
        BalanceReport::from_worker_counts(stats.edges_per_worker.clone())
    }

    /// Build the balance report from raw per-worker edge counts (worker
    /// order) — the constructor the streaming-metrics engine uses.
    pub fn from_worker_counts(edges_per_worker: Vec<u64>) -> Self {
        let max_edges = edges_per_worker.iter().copied().max().unwrap_or(0);
        let min_edges = edges_per_worker.iter().copied().min().unwrap_or(0);
        let total: u64 = edges_per_worker.iter().sum();
        let mean = if edges_per_worker.is_empty() {
            0.0
        } else {
            total as f64 / edges_per_worker.len() as f64
        };
        let max_over_mean = if mean > 0.0 {
            max_edges as f64 / mean
        } else {
            1.0
        };
        BalanceReport {
            edges_per_worker,
            max_edges,
            min_edges,
            max_over_mean,
        }
    }

    /// Whether per-worker edge counts differ by at most `tolerance` edges.
    pub fn is_balanced_within(&self, tolerance: u64) -> bool {
        self.max_edges - self.min_edges <= tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use kron_core::{KroneckerDesign, SelfLoop};

    fn balance(points: &[u64], workers: usize) -> (BalanceReport, u64, u64) {
        let design = KroneckerDesign::from_star_points(points, SelfLoop::None).unwrap();
        let report = Pipeline::for_design(&design)
            .workers(workers)
            .max_c_edges(10_000)
            .count()
            .unwrap();
        let c_nnz = report.split.as_ref().unwrap().c_nnz.to_u64().unwrap();
        (
            BalanceReport::from_stats(&report.stats),
            report.edge_count(),
            c_nnz,
        )
    }

    #[test]
    fn balance_report_reflects_even_partition() {
        // B ends up with 48 triples, which 8 workers divide exactly: the
        // paper's "same number of edges on each processor" claim holds with
        // zero imbalance.
        let (report, edges, _) = balance(&[3, 4, 5, 9, 16], 8);
        assert!(report.is_balanced_within(0));
        assert!((report.max_over_mean - 1.0).abs() < 1e-9);
        assert_eq!(report.edges_per_worker.iter().sum::<u64>(), edges);
        assert_eq!(
            BalanceReport::from_worker_counts(report.edges_per_worker.clone()),
            report
        );

        // When the triple count does not divide evenly the imbalance is at
        // most one B triple, i.e. nnz(C) edges.
        let (report, _, c_nnz) = balance(&[3, 4, 5, 9], 5);
        assert!(report.is_balanced_within(c_nnz));
    }

    #[test]
    fn balance_report_degenerate() {
        let (report, _, _) = balance(&[2, 2], 1);
        assert_eq!(report.max_edges, report.min_edges);
        assert!(report.is_balanced_within(0));
        let empty = BalanceReport::from_worker_counts(Vec::new());
        assert_eq!((empty.max_edges, empty.max_over_mean), (0, 1.0));
    }
}
