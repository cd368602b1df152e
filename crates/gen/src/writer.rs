//! The on-disk shard formats and the readers that bring them back.
//!
//! The natural on-disk form of a distributed Kronecker graph is one file per
//! worker — exactly what a distributed file system would hold after the
//! paper's generation run.  The shard sinks in [`crate::sink`] write them
//! (staged and atomically renamed, so a shard that exists is a shard that
//! finished); this module owns the formats:
//!
//! * **TSV triples** (`block_<p>.tsv`) — `row<TAB>col<TAB>1` lines, the
//!   interchange format Graph500-style tooling ingests.
//! * **Compact binary** (`block_<p>.kbk`, `block_<p>.kbkz`) — a fixed
//!   little-endian header (magic, version, dimensions, edge count, and from
//!   v3 on a payload checksum) followed by the edges: 16 bytes per edge in
//!   the raw layouts, delta/varint frames in the compressed one.
//!   [`read_block_bin`] reads every version back through the one streaming
//!   decoder the replay source uses.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use kron_core::CoreError;
use kron_sparse::io::read_tsv_file;
use kron_sparse::{CooMatrix, SparseError};

use crate::chunk::EdgeChunk;
use crate::replay::stream_binary_shard;

/// Magic bytes opening a binary block file.
pub const BLOCK_MAGIC: [u8; 4] = *b"KBLK";
/// Version of the binary block layout with split row/column arrays:
///
/// ```text
/// "KBLK"  u32 version  u64 nrows  u64 ncols  u64 nnz
/// nnz x u64 row indices, then nnz x u64 column indices (little-endian)
/// ```
///
/// Read-only: no sink writes it, and [`read_block_bin`] and the replay
/// source read it.
pub const BLOCK_VERSION: u32 = 1;
/// Version of the binary block layout with interleaved `(row, col)` pairs —
/// the streaming shard layout: edges append sequentially as they are
/// generated, and only the header's count is patched at the end, so a shard
/// never has to be buffered in memory.
pub const BLOCK_VERSION_PAIRS: u32 = 2;
/// Version of the binary block layout with interleaved pairs **and** an
/// FNV-1a checksum of the payload appended to the header.  The shard sinks
/// write this version; the checksum (like the count) is patched in at
/// `finish()`, and every reader verifies it so a flipped byte on disk is
/// caught before the shard is trusted (see
/// [`crate::sink::BinaryShardSink`]).
pub const BLOCK_VERSION_CHECKSUM: u32 = 3;
/// Version of the binary block layout with a delta/varint-compressed
/// payload: the edges arrive in [`crate::codec`] frames (each up to
/// [`crate::codec::FRAME_EDGES`] edges, zigzag-encoded deltas between
/// consecutive endpoints), so a generated stream with locality costs a few
/// bytes per edge instead of 16.  The header keeps the v3 fields and adds
/// the payload byte length — with variable-width frames the edge count no
/// longer determines the file size, so truncation detection needs the
/// length spelled out (see [`crate::sink::CompressedShardSink`]).
pub const BLOCK_VERSION_COMPRESSED: u32 = 4;
/// Size in bytes of the binary block header (magic, version, dimensions,
/// entry count) shared by the v1/v2 layout versions.
pub const BLOCK_HEADER_LEN: u64 = 4 + 4 + 8 + 8 + 8;
/// Size in bytes of the v3 ([`BLOCK_VERSION_CHECKSUM`]) header: the shared
/// fields followed by the `u64` payload checksum.  The checksum is appended
/// *after* the entry count so the count stays at the same offset in every
/// version.
pub const BLOCK_HEADER_CHECKSUM_LEN: u64 = BLOCK_HEADER_LEN + 8;
/// Size in bytes of the v4 ([`BLOCK_VERSION_COMPRESSED`]) header: the
/// shared fields, then the payload byte length, then the payload checksum —
/// count and checksum keep their meaning from v3, and the payload length is
/// inserted before the checksum so every fixed-width field sits at a
/// version-independent offset from either end of the header.
pub const BLOCK_HEADER_COMPRESSED_LEN: u64 = BLOCK_HEADER_LEN + 8 + 8;

/// Streaming 64-bit FNV-1a hasher — the checksum every shard carries.
///
/// FNV-1a is not cryptographic; it is a fast, dependency-free integrity
/// check that reliably catches the corruption modes a crash or a bad disk
/// produces (flipped bytes, truncation combined with the length check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Start a fresh hash.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb a byte slice.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(Self::PRIME);
        }
        self.0 = hash;
    }

    /// The hash of everything absorbed so far (non-consuming — more bytes
    /// may still be absorbed afterwards).
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Hash a complete byte slice in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut hasher = Fnv1a::new();
        hasher.update(bytes);
        hasher.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// On-disk format of a block file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockFormat {
    /// `row<TAB>col<TAB>value` text triples.
    Tsv,
    /// The checksummed interleaved binary layout
    /// ([`BLOCK_VERSION_CHECKSUM`]).
    Binary,
    /// The delta/varint-compressed binary layout
    /// ([`BLOCK_VERSION_COMPRESSED`]).
    Compressed,
}

/// The files produced by one of the block writers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockFileSet {
    /// Directory containing the block files.
    pub directory: PathBuf,
    /// One file per worker, in worker order.
    pub files: Vec<PathBuf>,
    /// Vertex count of the graph the files describe.
    pub vertices: u64,
    /// Format every file in the set is written in.
    pub format: BlockFormat,
}

impl BlockFileSet {
    /// Read every block file back and assemble the full adjacency matrix.
    ///
    /// A failure names the shard it occurred in
    /// ([`SparseError::WithPath`]), so a corrupt file in a large set is
    /// identifiable from the error alone.
    pub fn read_assembled(&self) -> Result<CooMatrix<u64>, CoreError> {
        let mut all = CooMatrix::new(self.vertices, self.vertices);
        for file in &self.files {
            let block = match self.format {
                BlockFormat::Tsv => read_tsv_file(self.vertices, self.vertices, file),
                // Both binary layouts carry their version in the header, so
                // one reader serves them; the format only picks the writer.
                BlockFormat::Binary | BlockFormat::Compressed => read_block_bin(file),
            }
            .map_err(|e| SparseError::with_path(file, e))?;
            all.append(&block)
                .map_err(|e| SparseError::with_path(file, e))?;
        }
        Ok(all)
    }
}

pub(crate) fn prepare_directory(
    directory: &Path,
    workers: usize,
    extension: &str,
) -> Result<Vec<PathBuf>, CoreError> {
    std::fs::create_dir_all(directory)
        .map_err(|e| CoreError::Sparse(SparseError::Io(e.to_string())))?;
    Ok((0..workers)
        .map(|worker| directory.join(format!("block_{worker:05}.{extension}")))
        .collect())
}

/// Write one chunk of pattern edges in the TSV triple format
/// (`row<TAB>col<TAB>1`) — the single definition of the line layout shared
/// by every TSV emitter (and matched by the reader behind
/// [`BlockFileSet::read_assembled`]).
pub(crate) fn write_tsv_edges(
    writer: &mut impl Write,
    edges: &[(u64, u64)],
) -> Result<(), std::io::Error> {
    for &(row, col) in edges {
        writeln!(writer, "{row}\t{col}\t1")?;
    }
    Ok(())
}

/// The validated header of a binary block file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockHeader {
    /// Layout version ([`BLOCK_VERSION`], [`BLOCK_VERSION_PAIRS`] or
    /// [`BLOCK_VERSION_CHECKSUM`]).
    pub version: u32,
    /// Declared number of rows.
    pub nrows: u64,
    /// Declared number of columns.
    pub ncols: u64,
    /// Declared number of stored entries.
    pub nnz: u64,
    /// Declared payload byte length — present only for
    /// [`BLOCK_VERSION_COMPRESSED`] files, whose body size is not a
    /// function of the entry count.
    pub payload_len: Option<u64>,
    /// FNV-1a checksum of the payload — present from
    /// [`BLOCK_VERSION_CHECKSUM`] on; `None` for v1/v2 files.
    pub checksum: Option<u64>,
}

/// Read and validate the shared binary block header — magic, version, and
/// the declared entry count (or, for v4, payload length) against the actual
/// file length, so a corrupt header fails cleanly before anything is
/// allocated or streamed from it.  The single owner of the header format,
/// shared by the binary decoder and [`shard_checksum`].
pub(crate) fn read_block_header(
    file_len: u64,
    reader: &mut impl Read,
) -> Result<BlockHeader, SparseError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if magic != BLOCK_MAGIC {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("bad block magic {magic:?}, expected {BLOCK_MAGIC:?}"),
        });
    }
    let mut version = [0u8; 4];
    reader.read_exact(&mut version)?;
    let version = u32::from_le_bytes(version);
    if version != BLOCK_VERSION
        && version != BLOCK_VERSION_PAIRS
        && version != BLOCK_VERSION_CHECKSUM
        && version != BLOCK_VERSION_COMPRESSED
    {
        return Err(SparseError::Parse {
            line: 0,
            message: format!("unsupported block version {version}"),
        });
    }
    let nrows = read_u64(reader)?;
    let ncols = read_u64(reader)?;
    let nnz = read_u64(reader)?;
    let payload_len = if version == BLOCK_VERSION_COMPRESSED {
        Some(read_u64(reader)?)
    } else {
        None
    };
    let checksum = if version == BLOCK_VERSION_CHECKSUM || version == BLOCK_VERSION_COMPRESSED {
        Some(read_u64(reader)?)
    } else {
        None
    };
    let expected_len = if let Some(payload) = payload_len {
        // A compressed body's size is its declared byte length, not a
        // function of the entry count.
        payload
            .checked_add(BLOCK_HEADER_COMPRESSED_LEN)
            .ok_or(SparseError::TooLarge {
                what: "compressed block payload length",
                requested: payload as u128,
            })?
    } else {
        let header_len = if checksum.is_some() {
            BLOCK_HEADER_CHECKSUM_LEN
        } else {
            BLOCK_HEADER_LEN
        };
        nnz.checked_mul(16)
            .and_then(|body| body.checked_add(header_len))
            .ok_or(SparseError::TooLarge {
                what: "binary block entry count",
                requested: nnz as u128,
            })?
    };
    if expected_len != file_len {
        return Err(SparseError::Parse {
            line: 0,
            message: format!(
                "binary block declares {nnz} entries ({expected_len} bytes) but the file is {file_len} bytes"
            ),
        });
    }
    Ok(BlockHeader {
        version,
        nrows,
        ncols,
        nnz,
        payload_len,
        checksum,
    })
}

/// Read one little-endian `u64` header field.
fn read_u64(reader: &mut impl Read) -> Result<u64, SparseError> {
    let mut bytes = [0u8; 8];
    reader.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

/// Read a binary block file of any layout version back into a COO matrix
/// (all values 1): a collect over the one streaming binary decoder, so the
/// header is validated — including the declared entry count against the
/// actual file length, before anything is allocated from it — every index
/// is bounds-checked against the header's `nrows × ncols`, and a v3/v4
/// payload that fails its checksum reports [`SparseError::ChecksumMismatch`]
/// whatever symptom the corruption shows first.  Errors name the file
/// ([`SparseError::WithPath`]).
pub fn read_block_bin(path: &Path) -> Result<CooMatrix<u64>, SparseError> {
    let (mut rows, mut cols) = (Vec::new(), Vec::new());
    let mut chunk = EdgeChunk::with_default_capacity();
    let header = stream_binary_shard(path, None, &mut chunk, &mut |edges: &[(u64, u64)]| {
        rows.extend(edges.iter().map(|&(row, _)| row));
        cols.extend(edges.iter().map(|&(_, col)| col));
        Ok::<(), SparseError>(())
    })?;
    // The vectors become the matrix's storage directly — no copy, and the
    // all-ones value vector is the only extra allocation.
    let ones = vec![1u64; rows.len()];
    let mut m = CooMatrix::new(header.nrows, header.ncols);
    m.append_raw(rows, cols, ones);
    Ok(m)
}

/// Recompute the checksum a shard *should* carry by streaming its bytes
/// back from disk: for TSV shards the FNV-1a hash of the whole file, for
/// binary shards the hash of the payload after the header (equal to the
/// checksum a v3 header stores).  Errors are annotated with the shard path.
///
/// This is what `Pipeline::resume` uses to decide whether a shard recorded
/// in the progress journal is still intact or must be regenerated.
pub fn shard_checksum(path: &Path, format: BlockFormat) -> Result<u64, SparseError> {
    let attempt = || -> Result<u64, SparseError> {
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = std::io::BufReader::with_capacity(1 << 18, file);
        if matches!(format, BlockFormat::Binary | BlockFormat::Compressed) {
            // Position the reader past the (version-dependent) header; the
            // header itself is validated in passing.
            read_block_header(file_len, &mut reader)?;
        }
        let mut hasher = Fnv1a::new();
        let mut buffer = [0u8; 1 << 16];
        loop {
            let read = reader.read(&mut buffer)?;
            if read == 0 {
                break;
            }
            hasher.update(&buffer[..read]);
        }
        Ok(hasher.finish())
    };
    attempt().map_err(|e| SparseError::with_path(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::test_support::{split_array_block, unique_dir};
    use kron_core::{KroneckerDesign, SelfLoop};

    fn sorted(mut m: CooMatrix<u64>) -> CooMatrix<u64> {
        m.sort();
        m
    }

    /// The generated graph, assembled in memory, for the round trips to
    /// compare against.
    fn in_memory(design: &KroneckerDesign, workers: usize) -> CooMatrix<u64> {
        let report = Pipeline::for_design(design)
            .workers(workers)
            .max_c_edges(1_000)
            .collect_coo()
            .unwrap();
        sorted(report.assemble())
    }

    #[test]
    fn blocks_round_trip_through_disk() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let dir = unique_dir("round_trip");
        let report = Pipeline::for_design(&design)
            .workers(3)
            .max_c_edges(1_000)
            .write_tsv(&dir)
            .unwrap();
        let files = report.files.unwrap();
        assert_eq!(files.files.len(), 3);
        assert_eq!(files.format, BlockFormat::Tsv);
        for f in &files.files {
            assert!(f.exists(), "missing block file {f:?}");
        }
        assert_eq!(
            sorted(files.read_assembled().unwrap()),
            in_memory(&design, 3)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_blocks_round_trip_and_are_compact() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let dir = unique_dir("binary_round_trip");
        let report = Pipeline::for_design(&design)
            .workers(4)
            .max_c_edges(1_000)
            .write_binary(&dir)
            .unwrap();
        let files = report.files.as_ref().unwrap();
        assert_eq!(files.format, BlockFormat::Binary);
        assert_eq!(
            sorted(files.read_assembled().unwrap()),
            in_memory(&design, 4)
        );

        // Checksummed header (40 bytes) + 16 bytes per edge, exactly.
        for (file, edges) in files.files.iter().zip(&report.stats.edges_per_worker) {
            let len = std::fs::metadata(file).unwrap().len();
            assert_eq!(len, BLOCK_HEADER_CHECKSUM_LEN + 16 * edges);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_reader_rejects_corrupt_headers() {
        let path = unique_dir("binary_corrupt").join("bad.kbk");
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(read_block_bin(&path).is_err());
        let mut with_version = BLOCK_MAGIC.to_vec();
        with_version.extend_from_slice(&99u32.to_le_bytes());
        with_version.extend_from_slice(&[0u8; 24]);
        std::fs::write(&path, &with_version).unwrap();
        assert!(read_block_bin(&path).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn split_array_v1_blocks_still_read() {
        let edges = [(0u64, 1u64), (1, 2), (2, 0), (3, 3), (1, 0)];
        let path = unique_dir("v1").join("block_00000.kbk");
        std::fs::write(&path, split_array_block(4, 4, &edges)).unwrap();
        let block = read_block_bin(&path).unwrap();
        assert_eq!((block.nrows(), block.ncols()), (4, 4));
        let decoded: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(decoded, edges);
        // v1 carries no checksum, so an out-of-range index is reported as
        // what it is.
        let mut bytes = split_array_block(4, 4, &edges);
        let last_col = bytes.len() - 8;
        bytes[last_col..].copy_from_slice(&9u64.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        match read_block_bin(&path) {
            Err(SparseError::WithPath { source, .. }) => {
                assert!(matches!(
                    *source,
                    SparseError::IndexOutOfBounds { col: 9, .. }
                ))
            }
            other => panic!("expected an out-of-bounds index, got {other:?}"),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn streamed_tsv_matches_raw_product() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::Centre).unwrap();
        let dir = unique_dir("streamed_tsv");
        let report = Pipeline::for_design(&design)
            .workers(3)
            .split_index(1)
            .raw_product()
            .write_tsv(&dir)
            .unwrap();
        let files = report.files.unwrap();
        assert_eq!(files.files.len(), 3);

        // The raw product keeps every constituent's self-loops, so compare
        // against the design's raw nnz.
        let assembled = files.read_assembled().unwrap();
        assert_eq!(
            assembled.nnz() as u64,
            design.nnz_with_loops().to_u64().unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_tsv_equals_materialised_blocks_before_loop_removal() {
        let design = KroneckerDesign::from_star_points(&[3, 4, 5], SelfLoop::None).unwrap();
        let dir = unique_dir("streamed_equals_materialised");
        let report = Pipeline::for_design(&design)
            .workers(4)
            .split_index(2)
            .raw_product()
            .write_tsv(&dir)
            .unwrap();

        // SelfLoop::None has no removable loop, so the raw product *is* the
        // designed graph and the two must agree bit for bit.
        let streamed = sorted(report.files.unwrap().read_assembled().unwrap());
        assert_eq!(streamed, sorted(design.realize(100_000).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Write a valid v4 compressed shard and return its path, for the
    /// corruption tests to mutilate.  Offsets in the v4 layout: nnz at 24,
    /// payload_len at 32, checksum at 40, payload (frames) at 48; a frame
    /// is [count u32][byte_len u32][varint body].
    fn compressed_fixture(name: &str) -> (PathBuf, Vec<(u64, u64)>) {
        use crate::sink::{CompressedShardSink, EdgeSink};
        let path = unique_dir(name).join("block_00000.kbkz");
        let edges: Vec<(u64, u64)> = (0..100u64).map(|i| (i % 64, (i * 7) % 64)).collect();
        let mut sink = CompressedShardSink::create(&path, 64, 64).unwrap();
        sink.consume(&edges).unwrap();
        sink.finish().unwrap();
        (path, edges)
    }

    fn patched(path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = std::fs::read(path).unwrap();
        mutate(&mut bytes);
        std::fs::write(path, &bytes).unwrap();
    }

    /// `read_block_bin`'s error on `path`, unwrapped from the `WithPath`
    /// annotation that must name the shard.
    fn read_error(path: &Path) -> SparseError {
        match read_block_bin(path) {
            Err(SparseError::WithPath {
                path: named,
                source,
            }) => {
                assert_eq!(named, path.display().to_string());
                *source
            }
            other => panic!("expected an error naming {path:?}, got {other:?}"),
        }
    }

    /// Re-seal a deliberately mutated payload so the corruption under test
    /// is reached *past* the checksum gate.
    fn refresh_v4_checksum(bytes: &mut [u8]) {
        let sum = Fnv1a::hash(&bytes[BLOCK_HEADER_COMPRESSED_LEN as usize..]);
        bytes[40..48].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn compressed_round_trip_and_header_fields() {
        let (path, edges) = compressed_fixture("v4_round_trip");
        let block = read_block_bin(&path).unwrap();
        let decoded: Vec<(u64, u64)> = block.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(decoded, edges);
        let bytes = std::fs::read(&path).unwrap();
        let file_len = bytes.len() as u64;
        let header = read_block_header(file_len, &mut &bytes[..]).unwrap();
        assert_eq!(header.version, BLOCK_VERSION_COMPRESSED);
        assert_eq!(header.nnz, edges.len() as u64);
        let payload_len = header.payload_len.unwrap();
        assert_eq!(file_len, BLOCK_HEADER_COMPRESSED_LEN + payload_len);
        assert!(
            payload_len < 16 * edges.len() as u64,
            "the fixture must actually compress"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_flipped_payload_byte_fails_as_checksum_mismatch() {
        let (path, _) = compressed_fixture("v4_flip");
        patched(&path, |bytes| bytes[60] ^= 1);
        match read_error(&path) {
            SparseError::ChecksumMismatch { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_truncated_file_fails_the_length_check() {
        let (path, _) = compressed_fixture("v4_truncate");
        patched(&path, |bytes| {
            bytes.pop();
        });
        let err = read_error(&path);
        assert!(
            matches!(err, SparseError::Parse { .. }) && err.to_string().contains("but the file is"),
            "truncation must fail on declared vs actual length: {err}"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_inflated_payload_len_fails_the_length_check() {
        let (path, _) = compressed_fixture("v4_payload_len");
        patched(&path, |bytes| {
            let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
            bytes[32..40].copy_from_slice(&(declared + 1).to_le_bytes());
        });
        let err = read_error(&path);
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("but the file is"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_frame_overrunning_the_payload_is_rejected() {
        let (path, _) = compressed_fixture("v4_frame_overrun");
        patched(&path, |bytes| {
            // Inflate the first frame's byte_len (offset 52) past the
            // payload's end, then re-seal so the checksum gate passes.
            let byte_len = u32::from_le_bytes(bytes[52..56].try_into().unwrap());
            bytes[52..56].copy_from_slice(&(byte_len + 8).to_le_bytes());
            refresh_v4_checksum(bytes);
        });
        let err = read_error(&path);
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("payload ends"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_frame_count_disagreeing_with_nnz_is_rejected() {
        // nnz inflated, payload untouched: the checksum still matches, the
        // frames decode cleanly, and only the decoded-entry count can tell.
        let (path, _) = compressed_fixture("v4_nnz");
        patched(&path, |bytes| {
            let nnz = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            bytes[24..32].copy_from_slice(&(nnz + 1).to_le_bytes());
        });
        let err = read_error(&path);
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("frames decode"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn compressed_truncated_frame_header_is_rejected() {
        let (path, _) = compressed_fixture("v4_frame_header");
        patched(&path, |bytes| {
            // Append 4 junk bytes (half a frame header), grow the declared
            // payload to match, and re-seal: every outer gate passes and the
            // frame loop must catch the dangling half-header itself.
            bytes.extend_from_slice(&[0u8; 4]);
            let declared = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
            bytes[32..40].copy_from_slice(&(declared + 4).to_le_bytes());
            refresh_v4_checksum(bytes);
        });
        let err = read_error(&path);
        assert!(matches!(err, SparseError::Parse { .. }), "{err:?}");
        assert!(err.to_string().contains("frame header truncated"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn fnv1a_matches_published_test_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
        // Incremental hashing equals one-shot hashing.
        let mut hasher = Fnv1a::new();
        hasher.update(b"foo");
        hasher.update(b"bar");
        assert_eq!(hasher.finish(), Fnv1a::hash(b"foobar"));
    }

    #[test]
    fn file_names_are_worker_ordered() {
        let dir = unique_dir("names");
        let files = prepare_directory(&dir, 2, "tsv").unwrap();
        assert!(files[0].to_string_lossy().contains("block_00000"));
        assert!(files[1].to_string_lossy().contains("block_00001"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
