//! Shard writing end to end: equivalence, validation, and corruption tests.
//!
//! For any design, worker count, and shard format, the union of the shards
//! the pipeline writes is bit-for-bit the graph the removed materialising
//! generator produced (held as golden checksums in `tests/common`), and the
//! streamed degree histogram validates exactly against the analytic
//! prediction — including for designs whose edge count is far beyond what
//! materialising would allow.  Shard files written to disk must also
//! survive hostile inputs: every corrupt-header and corrupt-body variant of
//! the binary layouts has to fail cleanly, with an error naming the shard,
//! through both the materialising reader and the replay source.

mod common;

use std::path::{Path, PathBuf};

use extreme_graphs::gen::writer::{
    read_block_bin, BLOCK_HEADER_CHECKSUM_LEN, BLOCK_HEADER_LEN, BLOCK_MAGIC, BLOCK_VERSION_PAIRS,
};
use extreme_graphs::gen::{BlockFileSet, BlockFormat, DesignPipeline, Pipeline, ReplaySource};
use extreme_graphs::sparse::SparseError;
use extreme_graphs::{KroneckerDesign, SelfLoop};

use common::golden::{self, MAX_C_EDGES, WORKERS};
use common::{files_checksum, sorted_checksum, unique_dir};

fn pipeline(design: &KroneckerDesign, workers: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(MAX_C_EDGES)
        .max_b_edges(1 << 22)
        .chunk_capacity(1 << 12)
}

#[test]
fn shards_are_bit_identical_to_the_materialising_generator() {
    for self_loop in [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf] {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5, 9], self_loop).unwrap();
        for workers in WORKERS {
            let dir = unique_dir(&format!("equiv_{self_loop:?}_{workers}"));
            let report = pipeline(&design, workers)
                .split_index(2)
                .write_binary(&dir)
                .unwrap();
            let files = report.files.as_ref().unwrap();
            assert_eq!(
                sorted_checksum(files.read_assembled().unwrap()),
                common::golden(golden::SORTED_EDGES, &format!("d3459/{self_loop:?}")),
                "shards differ from the generator for {self_loop:?} × {workers} workers"
            );
            assert_eq!(
                files_checksum(&files.files),
                common::golden(
                    golden::SHARD_BYTES,
                    &format!("d3459/{self_loop:?}/w{workers}/binary")
                )
            );
            assert_eq!(report.edge_count().to_string(), design.edges().to_string());
            assert!(
                report.validation.is_exact_match(),
                "streamed validation failed for {self_loop:?} × {workers} workers: {:?}",
                report.validation.failures()
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn driver_validates_beyond_the_materialising_ceiling_in_bounded_memory() {
    // The out-of-core driver is the pipeline's streaming path.  22,160,060
    // edges: more than four times this materialisation budget.
    let design =
        KroneckerDesign::from_star_points(&[3, 4, 5, 9, 16, 25], SelfLoop::Centre).unwrap();
    assert!(
        design.realize(5_000_000).is_err(),
        "the design must exceed the materialising budget for this test to mean anything"
    );

    let report = pipeline(&design, 8).split_index(4).count().unwrap();
    assert_eq!(report.edge_count().to_string(), design.edges().to_string());
    assert!(
        report.validation.is_exact_match(),
        "measured != predicted beyond the ceiling: {:?}",
        report.validation.failures()
    );
    // The measured histogram is the paper's Figure-4 series: identical to
    // the analytic degree distribution, point by point.
    assert_eq!(
        report.measured.degree_distribution,
        design.degree_distribution()
    );
}

mod corrupt_binary_shards {
    use super::*;

    /// A valid checksummed (v3) shard's bytes, and a path in this test's
    /// own directory to write mutilated copies to.
    fn valid_shard_bytes(test: &str) -> (Vec<u8>, PathBuf) {
        let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
        let dir = unique_dir(test);
        let report = pipeline(&design, 1)
            .split_index(1)
            .write_binary(&dir)
            .unwrap();
        let bytes = std::fs::read(&report.files.unwrap().files[0]).unwrap();
        (bytes, dir.join("shard.kbk"))
    }

    /// The cause behind a `WithPath` error, asserting it names `path`.
    fn named_cause(error: SparseError, path: &Path) -> SparseError {
        match error {
            SparseError::WithPath {
                path: named,
                source,
            } => {
                assert_eq!(named, path.display().to_string(), "wrong shard named");
                *source
            }
            other => panic!("the error must name {path:?}: {other:?}"),
        }
    }

    /// `read_block_bin`'s error on `bytes` written to `path`.
    fn read_error(bytes: &[u8], path: &Path) -> SparseError {
        std::fs::write(path, bytes).unwrap();
        named_cause(read_block_bin(path).unwrap_err(), path)
    }

    /// The replay source's error streaming `path` as a one-shard set.
    fn replay_error(path: &Path, vertices: u64) -> SparseError {
        let set = BlockFileSet {
            directory: path.parent().unwrap().to_path_buf(),
            files: vec![path.to_path_buf()],
            vertices,
            format: BlockFormat::Binary,
        };
        let error = Pipeline::for_source(ReplaySource::from_file_set(&set))
            .workers(1)
            .count()
            .unwrap_err();
        match error {
            extreme_graphs::core::CoreError::Sparse(error) => named_cause(error, path),
            other => panic!("expected a shard error, got {other:?}"),
        }
    }

    fn expect_parse_error(bytes: &[u8], path: &Path, what: &str) {
        match read_error(bytes, path) {
            SparseError::Parse { .. } => {}
            other => panic!("{what}: expected a parse error, got {other:?}"),
        }
    }

    fn cleanup(path: &Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (mut bytes, path) = valid_shard_bytes("bad_magic");
        bytes[..4].copy_from_slice(b"NOPE");
        expect_parse_error(&bytes, &path, "bad magic");
        cleanup(&path);
    }

    #[test]
    fn bad_version_is_rejected() {
        let (mut bytes, path) = valid_shard_bytes("bad_version");
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        expect_parse_error(&bytes, &path, "bad version");
        cleanup(&path);
    }

    #[test]
    fn declared_count_must_match_file_length() {
        let (mut bytes, path) = valid_shard_bytes("inflated_count");
        // Inflate the declared entry count without adding bytes.
        let nnz_offset = BLOCK_HEADER_LEN as usize - 8;
        let declared = u64::from_le_bytes(bytes[nnz_offset..nnz_offset + 8].try_into().unwrap());
        bytes[nnz_offset..nnz_offset + 8].copy_from_slice(&(declared + 1).to_le_bytes());
        expect_parse_error(&bytes, &path, "length mismatch (inflated count)");
        cleanup(&path);
    }

    #[test]
    fn truncated_body_is_rejected() {
        let (bytes, path) = valid_shard_bytes("truncated_body");
        expect_parse_error(&bytes[..bytes.len() - 8], &path, "truncated body");
        cleanup(&path);
    }

    #[test]
    fn truncated_header_is_rejected() {
        let (bytes, path) = valid_shard_bytes("truncated_header");
        // The header ends early: an I/O error, but still one naming the
        // shard.
        match read_error(&bytes[..10], &path) {
            SparseError::Io(_) => {}
            other => panic!("expected an I/O error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn out_of_bounds_indices_are_rejected() {
        // Hand-craft a one-edge interleaved shard whose column index exceeds
        // the declared dimensions.
        let (_, path) = valid_shard_bytes("out_of_bounds");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BLOCK_MAGIC);
        bytes.extend_from_slice(&BLOCK_VERSION_PAIRS.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes()); // nrows
        bytes.extend_from_slice(&4u64.to_le_bytes()); // ncols
        bytes.extend_from_slice(&1u64.to_le_bytes()); // nnz
        bytes.extend_from_slice(&1u64.to_le_bytes()); // row 1: in bounds
        bytes.extend_from_slice(&9u64.to_le_bytes()); // col 9: out of bounds
        match read_error(&bytes, &path) {
            SparseError::IndexOutOfBounds { col: 9, .. } => {}
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
        // v2 has no checksum, so the replay source reports the same.
        match replay_error(&path, 4) {
            SparseError::IndexOutOfBounds { col: 9, .. } => {}
            other => panic!("expected IndexOutOfBounds from replay, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn absurd_declared_count_fails_before_allocating() {
        let (mut bytes, path) = valid_shard_bytes("absurd_count");
        let nnz_offset = BLOCK_HEADER_LEN as usize - 8;
        bytes[nnz_offset..nnz_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_error(&bytes, &path) {
            SparseError::TooLarge { .. } => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn flipped_row_index_high_byte_is_a_checksum_mismatch_on_every_reader() {
        // Flip the top byte of the first row index of a v3 shard: the row
        // jumps far out of bounds, which every reader sees before the end
        // of the payload — but the cause is corruption, and both readers
        // must say so.
        let (mut bytes, path) = valid_shard_bytes("v3_flipped_row");
        let top_byte = BLOCK_HEADER_CHECKSUM_LEN as usize + 7;
        bytes[top_byte] ^= 0x80;
        let vertices = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        match read_error(&bytes, &path) {
            SparseError::ChecksumMismatch { expected, actual } => assert_ne!(expected, actual),
            other => panic!("read_block_bin: expected ChecksumMismatch, got {other:?}"),
        }
        match replay_error(&path, vertices) {
            SparseError::ChecksumMismatch { expected, actual } => assert_ne!(expected, actual),
            other => panic!("ReplaySource: expected ChecksumMismatch, got {other:?}"),
        }
        cleanup(&path);
    }
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn shards_merge_to_the_designed_graph(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..9,
            loop_choice in 0u8..3,
        ) {
            let self_loop = match loop_choice {
                0 => SelfLoop::None,
                1 => SelfLoop::Centre,
                _ => SelfLoop::Leaf,
            };
            let design =
                KroneckerDesign::from_star_points(&[left_points, right_points], self_loop)
                    .unwrap();
            let dir = unique_dir("prop_shards");
            let report = pipeline(&design, workers)
                .split_index(1)
                .write_binary(&dir)
                .unwrap();
            prop_assert!(report.validation.is_exact_match());

            let mut streamed = report.files.unwrap().read_assembled().unwrap();
            let mut designed = design.realize(1_000_000).unwrap();
            streamed.sort();
            designed.sort();
            prop_assert_eq!(streamed, designed);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
