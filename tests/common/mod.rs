//! Helpers shared by the integration tests.

#![allow(dead_code)] // each integration test binary uses only some helpers

pub mod golden;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use extreme_graphs::gen::{Fnv1a, MetricRecord};
use extreme_graphs::sparse::CooMatrix;

/// A fresh, empty directory of its own for one test: the process id keeps
/// concurrent test binaries apart, `name` and a per-process counter keep
/// tests (and repeated calls within one test) apart, so parallel tests
/// never delete or overwrite each other's files.
pub fn unique_dir(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    // ordering: Relaxed — the counter only has to hand out distinct values; nothing is published through it
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "extreme_graphs_test_{}_{name}_{call}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Look `key` up in a golden table.
pub fn golden(table: &[(&str, u64)], key: &str) -> u64 {
    table
        .iter()
        .find(|(name, _)| *name == key)
        .unwrap_or_else(|| panic!("no golden checksum for {key}"))
        .1
}

/// FNV-1a over every file in order, each prefixed by its byte length.
pub fn files_checksum(files: &[PathBuf]) -> u64 {
    let mut hasher = Fnv1a::new();
    for file in files {
        let bytes = std::fs::read(file).unwrap();
        hasher.update(&(bytes.len() as u64).to_le_bytes());
        hasher.update(&bytes);
    }
    hasher.finish()
}

/// FNV-1a over each edge's little-endian `(row, col)`, in order.
pub fn edges_checksum(edges: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut hasher = Fnv1a::new();
    for (row, col) in edges {
        hasher.update(&row.to_le_bytes());
        hasher.update(&col.to_le_bytes());
    }
    hasher.finish()
}

/// [`edges_checksum`] of a matrix's entries, sorted.
pub fn sorted_checksum(mut matrix: CooMatrix<u64>) -> u64 {
    matrix.sort();
    edges_checksum(matrix.iter().map(|(row, col, _)| (row, col)))
}

/// FNV-1a over `name=value\n` lines of metric records.
pub fn metrics_checksum(records: &[MetricRecord]) -> u64 {
    let mut hasher = Fnv1a::new();
    for record in records {
        hasher.update(format!("{}={}\n", record.name, record.value).as_bytes());
    }
    hasher.finish()
}
