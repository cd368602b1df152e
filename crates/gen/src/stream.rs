//! Streaming generation.
//!
//! Materialising every block is convenient for validation but unnecessary
//! when edges are being piped straight into a consumer (a file, a network
//! socket, a streaming analytic).  The fast path here is *chunked*: a worker
//! expands its `B`-triple slice against `C` into a reusable [`EdgeChunk`] and
//! hands the sink whole slices of edges, so the per-edge cost is two adds and
//! a buffered store — no bounds check, no closure dispatch, no allocation
//! after the first chunk.  A closure-free counting path measures raw
//! generation throughput (the paper's Figure 3 metric).

use rayon::prelude::*;

use kron_core::{CoreError, KroneckerDesign};
use kron_sparse::CooMatrix;

use crate::chunk::EdgeChunk;
use crate::partition::{csc_ordered_triples, Partition};

/// Stream the edges of worker `p`'s block — the Kronecker product of its
/// `B`-triple slice with `C` — filling the caller's reusable `chunk` and
/// calling the fallible `sink` with each full chunk (and once with the
/// final partial chunk).  Global `(row, col)` indices; returns the number
/// of edges produced.
///
/// The first sink error aborts the expansion immediately — no further
/// edges are generated — and the undelivered edges stay in `chunk` (see
/// [`EdgeChunk::try_flush`]).  On success the chunk is left empty, so one
/// buffer can serve a whole run of blocks.  The chunk is also flushed on
/// entry if it still holds edges from a previous call.
pub fn try_stream_block_edges_into<E, F: FnMut(&[(u64, u64)]) -> Result<(), E>>(
    b_triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    chunk: &mut EdgeChunk,
    mut sink: F,
) -> Result<u64, E> {
    chunk.try_flush(&mut sink)?;
    let (c_rows, c_cols) = (c.row_indices(), c.col_indices());
    let (c_nrows, c_ncols) = (c.nrows(), c.ncols());
    let c_nnz = c_rows.len();
    for &(rb, cb, _) in b_triples {
        let row_base = rb * c_nrows;
        let col_base = cb * c_ncols;
        // Copy C in runs sized to the space left in the chunk: each run is a
        // single vectorized extend, and the full-chunk test amortizes over
        // the run instead of running per edge.
        let mut done = 0;
        while done < c_nnz {
            let take = (c_nnz - done).min(chunk.remaining());
            chunk.extend_translated(
                row_base,
                col_base,
                &c_rows[done..done + take],
                &c_cols[done..done + take],
            );
            done += take;
            if chunk.is_full() {
                chunk.try_flush(&mut sink)?;
            }
        }
    }
    chunk.try_flush(&mut sink)?;
    Ok((b_triples.len() * c_nnz) as u64)
}

/// Infallible-sink variant of [`try_stream_block_edges_into`].
pub fn stream_block_edges_into<F: FnMut(&[(u64, u64)])>(
    b_triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    chunk: &mut EdgeChunk,
    mut sink: F,
) -> u64 {
    let result: Result<u64, std::convert::Infallible> =
        try_stream_block_edges_into(b_triples, c, chunk, |edges| {
            sink(edges);
            Ok(())
        });
    match result {
        Ok(produced) => produced,
        Err(never) => match never {},
    }
}

/// Closure-free counting fast path: run the exact expansion arithmetic of
/// [`stream_block_edges_into`] — every edge's global indices are computed —
/// but fold them into two independent accumulators instead of buffering
/// them, so the measured rate is the cost of index generation alone.  The
/// accumulators carry no loop-to-loop dependency chain (a sum and an xor),
/// letting the reduction vectorize; their digest passes through
/// [`std::hint::black_box`] to keep the optimizer honest.
pub fn count_block_edges(b_triples: &[(u64, u64, u64)], c: &CooMatrix<u64>) -> u64 {
    let (c_rows, c_cols) = (c.row_indices(), c.col_indices());
    let (c_nrows, c_ncols) = (c.nrows(), c.ncols());
    let mut row_sum = 0u64;
    let mut col_xor = 0u64;
    for &(rb, cb, _) in b_triples {
        let row_base = rb * c_nrows;
        let col_base = cb * c_ncols;
        for i in 0..c_rows.len() {
            row_sum = row_sum.wrapping_add(row_base + c_rows[i]);
            col_xor ^= col_base + c_cols[i];
        }
    }
    std::hint::black_box(row_sum ^ col_xor);
    (b_triples.len() * c_rows.len()) as u64
}

/// Generate the whole design in streaming mode across `workers` rayon tasks,
/// counting edges instead of storing them (via the closure-free
/// [`count_block_edges`] fast path).  Returns the total edge count of the
/// *raw* product (before self-loop removal), which is the quantity the
/// throughput figure reports.
pub fn count_edges_streaming(
    design: &KroneckerDesign,
    split_index: usize,
    workers: usize,
    max_factor_edges: u64,
) -> Result<u64, CoreError> {
    if workers == 0 {
        return Err(CoreError::InvalidConfig {
            message: "streaming generation needs at least one worker".into(),
        });
    }
    let (b_design, c_design) = design.split(split_index)?;
    let b = b_design.realize_raw(max_factor_edges)?;
    let c = c_design.realize_raw(max_factor_edges)?;
    let triples = csc_ordered_triples(&b);
    let partition = Partition::even(triples.len(), workers);
    let total: u64 = (0..workers)
        .into_par_iter()
        .map(|worker| count_block_edges(&triples[partition.range(worker)], &c))
        .sum();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::SelfLoop;

    /// `B` triples and `C` of a design split at `split_index`.
    fn factors(
        points: &[u64],
        self_loop: SelfLoop,
        split_index: usize,
    ) -> (Vec<(u64, u64, u64)>, CooMatrix<u64>) {
        let design = KroneckerDesign::from_star_points(points, self_loop).unwrap();
        let (b_design, c_design) = design.split(split_index).unwrap();
        let b = b_design.realize_raw(10_000).unwrap();
        let c = c_design.realize_raw(10_000).unwrap();
        (csc_ordered_triples(&b), c)
    }

    /// Every edge of the block through one chunk of `capacity`.
    fn streamed(
        triples: &[(u64, u64, u64)],
        c: &CooMatrix<u64>,
        capacity: usize,
    ) -> Vec<(u64, u64)> {
        let mut edges = Vec::new();
        let mut chunk = EdgeChunk::new(capacity);
        let produced = stream_block_edges_into(triples, c, &mut chunk, |slice| {
            edges.extend_from_slice(slice)
        });
        assert!(chunk.is_empty(), "chunk must be drained on return");
        assert_eq!(produced as usize, edges.len());
        edges
    }

    #[test]
    fn streamed_edges_match_materialised_block() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
        let (b_design, c_design) = design.split(2).unwrap();
        let b = b_design.realize_raw(10_000).unwrap();
        let c = c_design.realize_raw(10_000).unwrap();
        let mut streamed = streamed(&csc_ordered_triples(&b), &c, 4096);
        let product = kron_sparse::kron_coo::<u64, kron_sparse::PlusTimes>(&b, &c).unwrap();
        let mut materialised: Vec<(u64, u64)> =
            product.iter().map(|(r, col, _)| (r, col)).collect();
        streamed.sort_unstable();
        materialised.sort_unstable();
        assert_eq!(streamed, materialised);
    }

    #[test]
    fn chunked_stream_matches_per_edge_across_chunk_sizes() {
        let (triples, c) = factors(&[3, 4, 5], SelfLoop::Centre, 1);
        // The expansion written out one edge at a time: each B triple
        // against every C entry, in order.
        let mut per_edge = Vec::new();
        for &(rb, cb, _) in &triples {
            for (r, col, _) in c.iter() {
                per_edge.push((rb * c.nrows() + r, cb * c.ncols() + col));
            }
        }
        for chunk_capacity in [1usize, 3, 4096] {
            // Chunked emission preserves the exact per-edge order.
            assert_eq!(
                streamed(&triples, &c, chunk_capacity),
                per_edge,
                "order differs at chunk capacity {chunk_capacity}"
            );
        }
        assert_eq!(count_block_edges(&triples, &c), per_edge.len() as u64);
    }

    #[test]
    fn empty_slice_streams_nothing() {
        let (_, c) = factors(&[3, 4], SelfLoop::None, 1);
        let mut calls = 0usize;
        let mut chunk = EdgeChunk::new(16);
        let produced = stream_block_edges_into(&[], &c, &mut chunk, |_| calls += 1);
        assert_eq!(produced, 0);
        assert_eq!(calls, 0, "no edges must mean no sink calls");
        assert_eq!(count_block_edges(&[], &c), 0);
    }

    #[test]
    fn streaming_count_equals_raw_product_nnz() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], SelfLoop::Centre).unwrap();
        for workers in [1usize, 2, 4, 7] {
            let counted = count_edges_streaming(&design, 2, workers, 1_000_000).unwrap();
            assert_eq!(
                counted,
                design.nnz_with_loops().to_u64().unwrap(),
                "streaming edge count wrong with {workers} workers"
            );
        }
    }

    #[test]
    fn streaming_rejects_zero_workers() {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        assert!(matches!(
            count_edges_streaming(&design, 1, 0, 1_000),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
