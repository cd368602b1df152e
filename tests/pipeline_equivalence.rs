//! The pipeline is the single engine, and it reproduces the generation
//! layer it replaced exactly.
//!
//! The materialising `ParallelGenerator`, the `ShardDriver::run_*` shard
//! writers and the raw `stream_blocks_tsv` dump are gone; their outputs
//! survive as golden checksums (`tests/common/golden.rs`).  These tests pin
//! `Pipeline` to them across worker counts, chunk capacities, every
//! `SelfLoop` variant and every shard format — assembled graphs, shard
//! bytes, and the `MetricsReport` recorded in each manifest — check random
//! two-star designs against the same goldens and the analytic degree
//! distribution, and round-trip the `RunManifest` JSON every shard-producing
//! run emits.

mod common;

use extreme_graphs::gen::manifest::MANIFEST_FILE_NAME;
use extreme_graphs::gen::{DesignPipeline, Pipeline, RunManifest};
use extreme_graphs::{KroneckerDesign, SelfLoop};

use common::golden::{self, DESIGNS, MAX_C_EDGES, WORKERS};
use common::{files_checksum, metrics_checksum, sorted_checksum, unique_dir};

const SELF_LOOPS: [SelfLoop; 3] = [SelfLoop::None, SelfLoop::Centre, SelfLoop::Leaf];

fn pipeline(design: &KroneckerDesign, workers: usize, chunk: usize) -> DesignPipeline<'_> {
    Pipeline::for_design(design)
        .workers(workers)
        .max_c_edges(MAX_C_EDGES)
        .chunk_capacity(chunk)
}

#[test]
fn pipeline_blocks_equal_generator_blocks_bit_for_bit() {
    for (name, points, split) in DESIGNS {
        for self_loop in SELF_LOOPS {
            let design = KroneckerDesign::from_star_points(points, self_loop).unwrap();
            let expected = common::golden(golden::SORTED_EDGES, &format!("{name}/{self_loop:?}"));
            for workers in WORKERS {
                for chunk in [1usize, 64, 4096] {
                    let report = pipeline(&design, workers, chunk)
                        .split_index(split)
                        .collect_coo()
                        .unwrap();
                    assert!(report.is_valid());
                    assert_eq!(report.outputs.len(), workers);
                    assert_eq!(
                        sorted_checksum(report.assemble()),
                        expected,
                        "pipeline differs from the generator for {name} {self_loop:?} \
                         w{workers} c{chunk}"
                    );
                }
            }
        }
    }
}

#[test]
fn pipeline_counts_equal_driver_counts() {
    for (name, points, split) in DESIGNS {
        for self_loop in SELF_LOOPS {
            let design = KroneckerDesign::from_star_points(points, self_loop).unwrap();
            for workers in WORKERS {
                let report = pipeline(&design, workers, 512)
                    .split_index(split)
                    .count()
                    .unwrap();
                assert!(report.validation.is_exact_match());
                assert_eq!(report.edge_count().to_string(), design.edges().to_string());
                assert_eq!(
                    metrics_checksum(&report.metrics.records()),
                    common::golden(
                        golden::MANIFEST_METRICS,
                        &format!("{name}/{self_loop:?}/w{workers}")
                    ),
                    "metrics differ from the driver's for {name} {self_loop:?} w{workers}"
                );
            }
        }
    }
}

#[test]
fn shard_files_are_byte_identical_across_entry_points() {
    for (name, points, split) in DESIGNS {
        for self_loop in SELF_LOOPS {
            let design = KroneckerDesign::from_star_points(points, self_loop).unwrap();
            for workers in WORKERS {
                let key = format!("{name}/{self_loop:?}/w{workers}");
                for chunk in [1usize, 7, 4096] {
                    for format in ["tsv", "binary", "compressed"] {
                        let dir = unique_dir(&format!("shards_{format}"));
                        let run = pipeline(&design, workers, chunk).split_index(split);
                        let report = match format {
                            "tsv" => run.write_tsv(&dir),
                            "binary" => run.write_binary(&dir),
                            _ => run.write_compressed(&dir),
                        }
                        .unwrap();
                        let files = report.files.as_ref().expect("file terminal");
                        assert_eq!(
                            files_checksum(&files.files),
                            common::golden(golden::SHARD_BYTES, &format!("{key}/{format}")),
                            "{format} shards of {key} c{chunk} differ from the driver's"
                        );
                        // The manifest on disk records the driver's metrics.
                        let manifest =
                            RunManifest::read_from(&dir.join(MANIFEST_FILE_NAME)).unwrap();
                        assert_eq!(manifest, report.manifest);
                        assert_eq!(
                            metrics_checksum(&manifest.metrics),
                            common::golden(golden::MANIFEST_METRICS, &key),
                            "{format} manifest metrics of {key} c{chunk}"
                        );
                        std::fs::remove_dir_all(&dir).ok();
                    }
                }

                // The raw product, loops and all: what the removed
                // `stream_blocks_tsv` dumped.
                let dir = unique_dir("shards_raw_tsv");
                let report = pipeline(&design, workers, 4096)
                    .split_index(split)
                    .raw_product()
                    .write_tsv(&dir)
                    .unwrap();
                assert_eq!(
                    files_checksum(&report.files.unwrap().files),
                    common::golden(golden::SHARD_BYTES, &format!("{key}/raw_tsv")),
                    "raw TSV shards of {key}"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

#[test]
fn every_shard_producing_run_emits_a_round_tripping_manifest() {
    let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Leaf).unwrap();
    let dir = unique_dir("manifest_round_trip");
    let report = pipeline(&design, 4, 2048)
        .split_index(2)
        .write_binary(&dir)
        .unwrap();

    let path = dir.join(MANIFEST_FILE_NAME);
    assert!(path.exists(), "shard runs must write manifest.json");
    let manifest = RunManifest::read_from(&path).unwrap();
    assert_eq!(manifest, report.manifest);
    // Full JSON round trip: parse(serialise(m)) == m.
    assert_eq!(
        RunManifest::from_json(&manifest.to_json()).unwrap(),
        manifest
    );

    // The manifest records the run faithfully.
    assert_eq!(manifest.star_points, vec![3, 4, 5]);
    assert_eq!(manifest.self_loop, "Leaf");
    assert_eq!(manifest.workers, 4);
    assert_eq!(manifest.split_index, 2);
    assert_eq!(manifest.chunk_capacity, 2048);
    assert_eq!(manifest.sink, "binary");
    assert_eq!(manifest.total_edges, report.edge_count());
    assert_eq!(manifest.edges_per_worker, report.stats.edges_per_worker);
    assert_eq!(manifest.outputs.len(), 4);
    assert!(manifest.exact_match);
    assert_eq!(manifest.vertices, design.vertices().to_string());
    assert_eq!(manifest.predicted_edges, design.edges().to_string());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_shard_errors_name_the_failing_file() {
    let design = KroneckerDesign::from_star_points(&[3, 4], SelfLoop::None).unwrap();
    let dir = unique_dir("corrupt_named");
    let report = pipeline(&design, 2, 512)
        .split_index(1)
        .write_binary(&dir)
        .unwrap();
    let files = report.files.unwrap();
    // Corrupt the second shard's magic.
    let victim = &files.files[1];
    let mut bytes = std::fs::read(victim).unwrap();
    bytes[..4].copy_from_slice(b"NOPE");
    std::fs::write(victim, &bytes).unwrap();

    let error = files.read_assembled().unwrap_err();
    let message = error.to_string();
    assert!(
        message.contains("block_00001"),
        "error must name the failing shard, got: {message}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

mod random_designs {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn pipeline_is_bit_identical_to_both_legacy_paths(
            left_points in 2u64..6,
            right_points in 2u64..6,
            workers in 1usize..8,
            chunk_choice in 0usize..3,
            loop_choice in 0u8..3,
        ) {
            let self_loop = SELF_LOOPS[loop_choice as usize];
            let chunk = [1usize, 7, 4096][chunk_choice];
            let design =
                KroneckerDesign::from_star_points(&[left_points, right_points], self_loop)
                    .unwrap();

            let report = pipeline(&design, workers, chunk)
                .split_index(1)
                .collect_coo()
                .unwrap();
            prop_assert!(report.is_valid());

            // Both legacy paths — the materialising generator and the
            // shard driver's COO sinks — assembled to this graph…
            let key = format!("{left_points}x{right_points}/{self_loop:?}");
            prop_assert_eq!(
                sorted_checksum(report.assemble()),
                common::golden(golden::TWO_STAR_SORTED_EDGES, &key)
            );
            // …and the analytic degree distribution, point for point.
            prop_assert_eq!(
                &report.measured.degree_distribution,
                &design.degree_distribution()
            );

            // And the manifest of any run round-trips through JSON.
            prop_assert_eq!(
                RunManifest::from_json(&report.manifest.to_json()).unwrap(),
                report.manifest
            );
        }
    }
}
