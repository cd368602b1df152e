//! Golden checksums of the removed generation layer's outputs.
//!
//! Recorded from the legacy entry points — `ParallelGenerator`,
//! `ShardDriver::run_*`, `writer::stream_blocks_tsv`
//! and `RmatGenerator::generate_edges` — just before they were deleted, so
//! the pipeline that replaced them is held to their exact bytes.  (The
//! removed v1 block writer and a second R-MAT stream are pinned the same
//! way next to the unit tests that use them.)  The design matrix: `d345` is stars `[3, 4, 5]` split
//! at 1 and `d3459` is `[3, 4, 5, 9]` split at 2, each under every
//! `SelfLoop`, at 1, 2 and 4 workers, with `max_c_edges` 200,000.

/// Shard sets, keyed `design/self_loop/w<workers>/<format>`: FNV-1a over
/// every shard file in worker order, each prefixed by its byte length.
/// `tsv`, `binary` and `compressed` come from `ShardDriver::run_{tsv,binary,
/// compressed}` (identical for chunk capacities 1, 7 and 4096); `raw_tsv`
/// from `writer::stream_blocks_tsv` (the raw `B ⊗ C` product).
pub const SHARD_BYTES: &[(&str, u64)] = &[
    ("d345/None/w1/tsv", 0x58b367dbccd0b907),
    ("d345/None/w1/binary", 0xa02652104be4094c),
    ("d345/None/w1/compressed", 0x52b3f71ac79c4295),
    ("d345/None/w2/tsv", 0x175d328d70e96b69),
    ("d345/None/w2/binary", 0x276449ed9f0ed549),
    ("d345/None/w2/compressed", 0xb5173b975ed0f55b),
    ("d345/None/w4/tsv", 0x2a6d0fefdd9af251),
    ("d345/None/w4/binary", 0xd2ca3abeaa15fca9),
    ("d345/None/w4/compressed", 0x50d53a0d4a8a99ff),
    ("d345/Centre/w1/tsv", 0xc32f5d1a2406d2da),
    ("d345/Centre/w1/binary", 0xba875073444a01e6),
    ("d345/Centre/w1/compressed", 0x098188c683a2f7b3),
    ("d345/Centre/w2/tsv", 0x2e9cec9244ffa836),
    ("d345/Centre/w2/binary", 0x1e9d23306e7a18ab),
    ("d345/Centre/w2/compressed", 0x8701411c58c0ee01),
    ("d345/Centre/w4/tsv", 0x777a9f032840e9bc),
    ("d345/Centre/w4/binary", 0x5ab391b85763266d),
    ("d345/Centre/w4/compressed", 0x2d3fdd04980e3270),
    ("d345/Leaf/w1/tsv", 0x26014912f26486fc),
    ("d345/Leaf/w1/binary", 0x6f25d81ef5793c80),
    ("d345/Leaf/w1/compressed", 0x863a277e51b54e0a),
    ("d345/Leaf/w2/tsv", 0x21c2bfc78b5a58b7),
    ("d345/Leaf/w2/binary", 0x0881c3b9944c659f),
    ("d345/Leaf/w2/compressed", 0xbc43bc7b75226e5d),
    ("d345/Leaf/w4/tsv", 0xa4f23235d4fceb03),
    ("d345/Leaf/w4/binary", 0x0c426d5e4202aec5),
    ("d345/Leaf/w4/compressed", 0xf96fbebcfb9df81e),
    ("d3459/None/w1/tsv", 0x783aed051b2fe013),
    ("d3459/None/w1/binary", 0x004a5809a94075e1),
    ("d3459/None/w1/compressed", 0xedcf2eb0c4eb7024),
    ("d3459/None/w2/tsv", 0xf7d4c24dd76d17ed),
    ("d3459/None/w2/binary", 0x4733d639346c3550),
    ("d3459/None/w2/compressed", 0x843322c40d36d5ed),
    ("d3459/None/w4/tsv", 0x92ae73ae0ee6ba7a),
    ("d3459/None/w4/binary", 0xb74abde3ffac3fcb),
    ("d3459/None/w4/compressed", 0x7855f557223c1783),
    ("d3459/Centre/w1/tsv", 0x1a1733fbd3485311),
    ("d3459/Centre/w1/binary", 0x7e509503449930df),
    ("d3459/Centre/w1/compressed", 0x8902dafd8287e783),
    ("d3459/Centre/w2/tsv", 0x3e0be4d37fb7a598),
    ("d3459/Centre/w2/binary", 0x8232322db4c42a4e),
    ("d3459/Centre/w2/compressed", 0x6db5b410eb8991fb),
    ("d3459/Centre/w4/tsv", 0xdbf9179d4db90c3b),
    ("d3459/Centre/w4/binary", 0xc437c1366996ebe9),
    ("d3459/Centre/w4/compressed", 0xe8106c500f95087f),
    ("d3459/Leaf/w1/tsv", 0x4562f57e7914290e),
    ("d3459/Leaf/w1/binary", 0xe853a5900975ef36),
    ("d3459/Leaf/w1/compressed", 0x3ecef82802cf33e2),
    ("d3459/Leaf/w2/tsv", 0x2b918d3e1921efa0),
    ("d3459/Leaf/w2/binary", 0xecb2484c8feeba19),
    ("d3459/Leaf/w2/compressed", 0x63ad2eaba5ad2496),
    ("d3459/Leaf/w4/tsv", 0x7ec038a90667bd26),
    ("d3459/Leaf/w4/binary", 0x66a6d8fe2a39d424),
    ("d3459/Leaf/w4/compressed", 0xb987210899a9244b),
    ("d345/None/w1/raw_tsv", 0x58b367dbccd0b907),
    ("d345/None/w2/raw_tsv", 0x175d328d70e96b69),
    ("d345/None/w4/raw_tsv", 0x2a6d0fefdd9af251),
    ("d345/Centre/w1/raw_tsv", 0x038d80455542440b),
    ("d345/Centre/w2/raw_tsv", 0x45358f787c422243),
    ("d345/Centre/w4/raw_tsv", 0x51a4f930efbc8075),
    ("d345/Leaf/w1/raw_tsv", 0x7f9c05e0c7db8645),
    ("d345/Leaf/w2/raw_tsv", 0x028281dc575840fa),
    ("d345/Leaf/w4/raw_tsv", 0x8f444030c516e71a),
    ("d3459/None/w1/raw_tsv", 0x783aed051b2fe013),
    ("d3459/None/w2/raw_tsv", 0xf7d4c24dd76d17ed),
    ("d3459/None/w4/raw_tsv", 0x92ae73ae0ee6ba7a),
    ("d3459/Centre/w1/raw_tsv", 0xe51acfe65e13b654),
    ("d3459/Centre/w2/raw_tsv", 0x490727ae106b1971),
    ("d3459/Centre/w4/raw_tsv", 0x539b2cb259e9a2fe),
    ("d3459/Leaf/w1/raw_tsv", 0xa758cffd4898897b),
    ("d3459/Leaf/w2/raw_tsv", 0x1ab382ddf6bc79a9),
    ("d3459/Leaf/w4/raw_tsv", 0x1ddc13c1607df6d3),
];
/// `ParallelGenerator::generate_with_split(..).assemble()`, sorted, keyed
/// `design/self_loop` (identical for 1, 2 and 4 workers): FNV-1a over each
/// edge's little-endian `(row, col)`.
pub const SORTED_EDGES: &[(&str, u64)] = &[
    ("d345/None", 0x9e82e6c88639c0a5),
    ("d345/Centre", 0x66804cd0453b50c5),
    ("d345/Leaf", 0x4c1fb8f8ed399f45),
    ("d3459/None", 0x13a291421df54d59),
    ("d3459/Centre", 0xa6ea2d658d261fed),
    ("d3459/Leaf", 0x06c4f0b12898d88d),
];
/// The `MetricsReport` records of the `manifest.json` that
/// `ShardDriver::run_binary` wrote, keyed `design/self_loop/w<workers>`:
/// FNV-1a over `name=value\n` lines.
pub const MANIFEST_METRICS: &[(&str, u64)] = &[
    ("d345/None/w1", 0xfd784f70da6dabc0),
    ("d345/None/w2", 0xfd784f70da6dabc0),
    ("d345/None/w4", 0x74f7f40dd596a2f6),
    ("d345/Centre/w1", 0x4eec512b22e04b33),
    ("d345/Centre/w2", 0xd563ad827e44a88f),
    ("d345/Centre/w4", 0x28a8d9e769279359),
    ("d345/Leaf/w1", 0x5bc1123cc071e75d),
    ("d345/Leaf/w2", 0x5c0b25722e0152bd),
    ("d345/Leaf/w4", 0x5c0b25722e0152bd),
    ("d3459/None/w1", 0x0dcdf676f7029428),
    ("d3459/None/w2", 0x0dcdf676f7029428),
    ("d3459/None/w4", 0x0dcdf676f7029428),
    ("d3459/Centre/w1", 0xef91b40d01e049ee),
    ("d3459/Centre/w2", 0xbfc1f73bc0f71213),
    ("d3459/Centre/w4", 0x879d379d0d46f363),
    ("d3459/Leaf/w1", 0x8ddef44e5113dec0),
    ("d3459/Leaf/w2", 0x141dd5ff1016df29),
    ("d3459/Leaf/w4", 0x141dd5ff1016df29),
];
/// `ParallelGenerator::generate_with_split(.., 1).assemble()`, sorted, for
/// every two-star design `[left, right]` with 2 ≤ left, right ≤ 5, keyed
/// `<left>x<right>/self_loop` (identical for 1, 3 and 7 workers, and equal
/// to the assembled `ShardDriver::run_coo` blocks at chunk capacities 1, 7
/// and 4096): FNV-1a over each edge's little-endian `(row, col)`.
pub const TWO_STAR_SORTED_EDGES: &[(&str, u64)] = &[
    ("2x2/None", 0xe53460c58ade56a5),
    ("2x3/None", 0x913ceaa567b017a5),
    ("2x4/None", 0x0885b3af59c36325),
    ("2x5/None", 0xb1493171aa7d7de5),
    ("3x2/None", 0xd7fc3118b4ab5ce5),
    ("3x3/None", 0xa82072337beed625),
    ("3x4/None", 0xed4a714fad8bc825),
    ("3x5/None", 0x5f7830d51385e525),
    ("4x2/None", 0xe4c2102869b647a5),
    ("4x3/None", 0x471eb735db967625),
    ("4x4/None", 0x2f99eedbf1c17e25),
    ("4x5/None", 0x9b913c8caad526a5),
    ("5x2/None", 0x48f0faca3f175b65),
    ("5x3/None", 0x1d136202850d1e25),
    ("5x4/None", 0x5947ce31292ef1a5),
    ("5x5/None", 0x64b5145cf9800365),
    ("2x2/Centre", 0x782696012685a665),
    ("2x3/Centre", 0xb9df69a3099dbb25),
    ("2x4/Centre", 0x4757ed9746a66d05),
    ("2x5/Centre", 0x4384ac9d93bc8845),
    ("3x2/Centre", 0xb2aa97736be93745),
    ("3x3/Centre", 0xc1408e5ba8f96425),
    ("3x4/Centre", 0x03f1245b781fb625),
    ("3x5/Centre", 0xf8533bfe79828145),
    ("4x2/Centre", 0xb30afdadd76c1c05),
    ("4x3/Centre", 0xd53b65bf90f3a2a5),
    ("4x4/Centre", 0xb3d3c4c4edc04025),
    ("4x5/Centre", 0xa5522dded71ab085),
    ("5x2/Centre", 0x8d273cdea70fbee5),
    ("5x3/Centre", 0x56a39fc9ee0c0025),
    ("5x4/Centre", 0xf25f624cc2bd7785),
    ("5x5/Centre", 0xd25c0dca42f22f05),
    ("2x2/Leaf", 0xe1e031596dd709a5),
    ("2x3/Leaf", 0x08214e11eb6f51a5),
    ("2x4/Leaf", 0x3361c773a18ff3c5),
    ("2x5/Leaf", 0xa6985c1d3e20c245),
    ("3x2/Leaf", 0x29d060a581309785),
    ("3x3/Leaf", 0x06c5ebd003c6f965),
    ("3x4/Leaf", 0x321a2108d5448425),
    ("3x5/Leaf", 0x6c41fcb6cb1f4685),
    ("4x2/Leaf", 0x3d38a324d28d4f05),
    ("4x3/Leaf", 0x5978716e93a3ff25),
    ("4x4/Leaf", 0xa3e81ac2e4ca1325),
    ("4x5/Leaf", 0xfa76a7c8de241145),
    ("5x2/Leaf", 0xa3dbeff76166ee65),
    ("5x3/Leaf", 0x24084d9c726da465),
    ("5x4/Leaf", 0x571acab7f0055d85),
    ("5x5/Leaf", 0x5291d566c6c13805),
];

/// `RmatGenerator::generate_edges()` for Graph500 scale 8, seed 20180304.
pub const RMAT_G500_8_SEED_20180304: u64 = 0x849dca114bc9afe0;

/// The designs the tables cover: key, star points, split index.
pub const DESIGNS: [(&str, &[u64], usize); 2] =
    [("d345", &[3, 4, 5], 1), ("d3459", &[3, 4, 5, 9], 2)];
/// The worker counts the tables cover.
pub const WORKERS: [usize; 3] = [1, 2, 4];
/// The factor budget every golden run used.
pub const MAX_C_EDGES: u64 = 200_000;
