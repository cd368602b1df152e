//! Equivalence of every edge-generation path.
//!
//! The chunked zero-allocation pipeline must be a pure optimisation: for any
//! design, worker count, and chunk capacity, the edges it produces are
//! exactly the edges of a per-edge reference expansion and of the full
//! `kron_coo` product — the independent oracle — (sorted-triple equality).
//! These tests pin that invariant across every `SelfLoop` variant, worker
//! counts {1, 2, 4, 7}, chunk capacities {1, 3, 4096}, the empty-slice edge
//! case, and more workers than `B` triples — first on the paper-shaped
//! deterministic designs, then on randomly drawn star sets.

use extreme_graphs::gen::partition::{csc_ordered_triples, Partition};
use extreme_graphs::gen::{count_block_edges, stream_block_edges_into, EdgeChunk};
use extreme_graphs::sparse::{kron_coo, CooMatrix, PlusTimes};
use extreme_graphs::{KroneckerDesign, SelfLoop};

/// All edges of the full design product, generated with `workers` slices by
/// the requested path, sorted.
fn generate_sorted(
    triples: &[(u64, u64, u64)],
    c: &CooMatrix<u64>,
    workers: usize,
    mut path: impl GenerationPath,
) -> Vec<(u64, u64)> {
    let partition = Partition::even(triples.len(), workers);
    let mut edges: Vec<(u64, u64)> = Vec::new();
    for worker in 0..workers {
        edges.extend(path(&triples[partition.range(worker)], c));
    }
    edges.sort_unstable();
    edges
}

/// The block's expansion written out one edge at a time: each `B` triple
/// against every `C` entry.
fn per_edge_path(b_triples: &[(u64, u64, u64)], c: &CooMatrix<u64>) -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for &(rb, cb, _) in b_triples {
        for (row, col, _) in c.iter() {
            edges.push((rb * c.nrows() + row, cb * c.ncols() + col));
        }
    }
    edges
}

/// One way of turning a worker's `B`-triple slice into its block's edges.
trait GenerationPath: FnMut(&[(u64, u64, u64)], &CooMatrix<u64>) -> Vec<(u64, u64)> {}
impl<F: FnMut(&[(u64, u64, u64)], &CooMatrix<u64>) -> Vec<(u64, u64)>> GenerationPath for F {}

fn chunked_path(chunk_capacity: usize) -> impl GenerationPath {
    move |b_triples, c| {
        let mut edges = Vec::new();
        let mut chunk = EdgeChunk::new(chunk_capacity);
        let produced = stream_block_edges_into(b_triples, c, &mut chunk, |slice| {
            edges.extend_from_slice(slice)
        });
        assert_eq!(produced as usize, edges.len());
        edges
    }
}

fn assert_all_paths_agree(b: &CooMatrix<u64>, c: &CooMatrix<u64>, label: &str) {
    let triples = csc_ordered_triples(b);

    let full = kron_coo::<u64, PlusTimes>(b, c).expect("product fits");
    let mut expected: Vec<(u64, u64)> = full.iter().map(|(r, col, _)| (r, col)).collect();
    expected.sort_unstable();

    for workers in [1usize, 2, 4, 7] {
        let per_edge = generate_sorted(&triples, c, workers, per_edge_path);
        assert_eq!(
            per_edge, expected,
            "{label}: per-edge stream with {workers} workers"
        );

        for chunk_capacity in [1usize, 3, 4096] {
            let chunked = generate_sorted(&triples, c, workers, chunked_path(chunk_capacity));
            assert_eq!(
                chunked, expected,
                "{label}: chunked stream, {workers} workers, chunk {chunk_capacity}"
            );
        }

        let partition = Partition::even(triples.len(), workers);
        let counted: u64 = (0..workers)
            .map(|w| count_block_edges(&triples[partition.range(w)], c))
            .sum();
        assert_eq!(
            counted as usize,
            expected.len(),
            "{label}: counting fast path"
        );
    }
}

#[test]
fn all_paths_agree_for_every_self_loop_variant() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], self_loop).unwrap();
        let (b_design, c_design) = design.split(1).unwrap();
        let b = b_design.realize_raw(100_000).unwrap();
        let c = c_design.realize_raw(100_000).unwrap();
        assert_all_paths_agree(&b, &c, &format!("{self_loop:?}"));
    }
}

#[test]
fn more_workers_than_triples_still_agree() {
    let design = KroneckerDesign::from_star_points(&[2, 2], SelfLoop::Centre).unwrap();
    let (b_design, c_design) = design.split(1).unwrap();
    let b = b_design.realize_raw(1_000).unwrap();
    let c = c_design.realize_raw(1_000).unwrap();
    let triples = csc_ordered_triples(&b);
    assert!(triples.len() < 64);

    let expected = generate_sorted(&triples, &c, 1, per_edge_path);
    let with_idle_workers = generate_sorted(&triples, &c, 64, chunked_path(3));
    assert_eq!(with_idle_workers, expected);
}

#[test]
fn empty_slice_is_a_clean_no_op_everywhere() {
    let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
    let (_, c_design) = design.split(1).unwrap();
    let c = c_design.realize_raw(1_000).unwrap();

    assert_eq!(per_edge_path(&[], &c), Vec::new());
    assert_eq!(chunked_path(1)(&[], &c), Vec::new());
    assert_eq!(count_block_edges(&[], &c), 0);
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn chunked_equals_per_edge_on_random_star_products(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..8,
            chunk_capacity in 1usize..5000,
            loop_choice in 0u8..3,
        ) {
            let self_loop = match loop_choice {
                0 => SelfLoop::None,
                1 => SelfLoop::Centre,
                _ => SelfLoop::Leaf,
            };
            let design =
                KroneckerDesign::from_star_points(&[left_points, right_points], self_loop).unwrap();
            let (b_design, c_design) = design.split(1).unwrap();
            let b = b_design.realize_raw(10_000).unwrap();
            let c = c_design.realize_raw(10_000).unwrap();
            let triples = csc_ordered_triples(&b);

            let expected = generate_sorted(&triples, &c, workers, per_edge_path);
            let chunked = generate_sorted(&triples, &c, workers, chunked_path(chunk_capacity));
            prop_assert_eq!(&chunked, &expected);

            let full = kron_coo::<u64, PlusTimes>(&b, &c).unwrap();
            let mut product: Vec<(u64, u64)> = full.iter().map(|(r, col, _)| (r, col)).collect();
            product.sort_unstable();
            prop_assert_eq!(&chunked, &product);
        }
    }
}
