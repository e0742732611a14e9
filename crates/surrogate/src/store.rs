//! Append-only on-disk dataset store for streaming characterization.
//!
//! A production-scale build (ROADMAP item 2: one million points) cannot hold
//! its dataset in memory and cannot afford to lose hours of SPICE time to a
//! crash. This module gives the streaming builder a durable, resumable
//! format with three properties:
//!
//! * **Append-only chunk frames** — the file is a fixed header followed by
//!   self-checksummed frames of fixed-width records. Nothing is ever
//!   rewritten, so a reader can trust every committed byte and a killed
//!   writer can lose at most its last, uncommitted frame.
//! * **Bit-reproducible** — records serialize `f64` by bit pattern and the
//!   builder is deterministic, so a resumed build produces a file
//!   byte-identical to an uninterrupted one (asserted by tests and the
//!   `surrogate_stream` bench).
//! * **Loud failure** — a torn tail (kill mid-write) is *recovered* with an
//!   explicit [`ResumeReport`] of what was discarded; actual corruption
//!   (bad checksum, bad magic, impossible lengths) is a typed
//!   [`StoreError`], never a silently shortened dataset.
//!
//! Layout (all integers little-endian, all `f64` as LE bit patterns):
//!
//! ```text
//! header:  magic "PNCDSTR1" | version u32 | record_bytes u32 | cause_cap u32
//!          | total_points u64 | chunk_points u64 | sweep_points u32
//!          | sampling u8 | seed u64 | max_failure_fraction f64
//!          | space.lo [7]f64 | space.hi [7]f64 | fnv1a64 of the above
//! frame:   magic "CNK1" | chunk_index u64 | n_records u32
//!          | n_records × record | fnv1a64 of the frame bytes so far
//! record:  index u64 | kind u8 | cause_len u16 | omega [7]f64 | eta [4]f64
//!          | fit_rmse f64 | cause [CAUSE_CAP]u8 (zero-padded)
//! ```
//!
//! The header layout (including the format version) and the record layout
//! are pinned in the `pnc-lint` oracle registry ([`StoreMeta::encode`],
//! [`StoreRecord::encode`]): changing the format requires an explicit
//! re-freeze with a justification, because old stores on disk outlive the
//! code that wrote them.

use crate::{DatasetEntry, DesignSpace, FailureRecord, FailureStage, OMEGA_DIM};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// On-disk format version written into every header. Bump only with a
/// documented migration story; readers reject other versions with a typed
/// [`StoreError::Version`].
pub const FORMAT_VERSION: u32 = 1;

/// Fixed byte budget for a failure record's cause string (UTF-8, truncated
/// at a character boundary). Fixed-width records keep chunk frames seekable
/// without an index.
pub const CAUSE_CAP: usize = 160;

/// Bytes per record: index + kind + cause_len + ω + η + rmse + cause.
pub const RECORD_BYTES: usize = 8 + 1 + 2 + 8 * OMEGA_DIM + 8 * 4 + 8 + CAUSE_CAP;

const HEADER_MAGIC: &[u8; 8] = b"PNCDSTR1";
const CHUNK_MAGIC: &[u8; 4] = b"CNK1";
/// Frame bytes before the records: magic + chunk_index + n_records.
const FRAME_PREFIX: usize = 4 + 8 + 4;
/// Frame bytes after the records: the checksum.
const FRAME_SUFFIX: usize = 8;

/// Typed errors of the dataset store. Every rejection names what was wrong;
/// a reader never gets a silently shortened or reinterpreted dataset.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a dataset store.
    BadMagic,
    /// The file was written by a different format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The header failed validation (checksum, impossible field values).
    HeaderCorrupt {
        /// What failed.
        detail: String,
    },
    /// A *complete* chunk frame failed validation — checksum mismatch, bad
    /// frame magic, out-of-sequence chunk index. Unlike a torn tail this is
    /// data damage, so it is an error rather than a recovery.
    ChunkCorrupt {
        /// Index of the offending chunk (position in the file).
        chunk: u64,
        /// What failed.
        detail: String,
    },
    /// The file ends in a partial chunk frame. `open_resumable` recovers
    /// from this by truncating; read-only opens surface it instead of
    /// guessing.
    TornTail {
        /// Bytes beyond the last committed frame.
        trailing_bytes: u64,
    },
    /// A resume was attempted against a store whose recorded configuration
    /// differs from the caller's.
    MetaMismatch {
        /// Which field differs, with both values.
        detail: String,
    },
    /// The caller asked for something outside the committed data.
    InvalidRequest {
        /// What was asked.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o failed: {e}"),
            StoreError::BadMagic => write!(f, "not a dataset store (bad magic)"),
            StoreError::Version { found, expected } => {
                write!(
                    f,
                    "unsupported store format version {found} (expected {expected})"
                )
            }
            StoreError::HeaderCorrupt { detail } => write!(f, "corrupt store header: {detail}"),
            StoreError::ChunkCorrupt { chunk, detail } => {
                write!(f, "corrupt chunk frame {chunk}: {detail}")
            }
            StoreError::TornTail { trailing_bytes } => write!(
                f,
                "store ends in a partial chunk frame ({trailing_bytes} trailing bytes); \
                 open it resumable to recover"
            ),
            StoreError::MetaMismatch { detail } => {
                write!(f, "store configuration mismatch: {detail}")
            }
            StoreError::InvalidRequest { detail } => write!(f, "invalid store request: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the store's checksum. Not cryptographic; it guards
/// against torn writes and bit rot, the failure modes a local dataset file
/// actually has.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Cursor-style reader over a byte slice; every take is bounds-checked and
/// surfaces as a typed error instead of a panic.
struct Take<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Take<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Take { bytes, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.bytes(2)
            .and_then(|b| b.try_into().ok())
            .map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// How the stream's design points are chosen, recorded in the header so a
/// resumed build continues with the policy the store was started under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Low-discrepancy Sobol' draws over the feasible box — the batch
    /// builder's sequence, point for point.
    Uniform,
    /// Committee-disagreement active sampling: each chunk's points are the
    /// highest-uncertainty candidates under the surrogate trained so far
    /// (see [`crate::ActiveConfig`]).
    Active,
}

impl SamplingMode {
    /// Environment variable selecting the mode for builders configured with
    /// the default.
    pub const ENV_VAR: &'static str = "PNC_SURROGATE_SAMPLING";

    fn to_byte(self) -> u8 {
        match self {
            SamplingMode::Uniform => 0,
            SamplingMode::Active => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SamplingMode::Uniform),
            1 => Some(SamplingMode::Active),
            _ => None,
        }
    }

    /// Resolves the mode from `PNC_SURROGATE_SAMPLING` (`uniform` or
    /// `active`), defaulting to [`SamplingMode::Uniform`] when unset.
    ///
    /// # Errors
    ///
    /// Any other value is a hard [`crate::SurrogateError::Config`] naming
    /// the variable and the offending value — never a silent fallback (the
    /// same rule `pnc-serve` applies to its `PNC_SERVE_*` variables).
    pub fn from_env() -> Result<Self, crate::SurrogateError> {
        match std::env::var(Self::ENV_VAR) {
            Err(_) => Ok(SamplingMode::Uniform),
            Ok(raw) => match raw.trim() {
                "" | "uniform" => Ok(SamplingMode::Uniform),
                "active" => Ok(SamplingMode::Active),
                other => Err(crate::SurrogateError::Config {
                    detail: format!(
                        "{}={other:?} is not a sampling mode (expected `uniform` or `active`)",
                        Self::ENV_VAR
                    ),
                }),
            },
        }
    }
}

impl fmt::Display for SamplingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingMode::Uniform => write!(f, "uniform"),
            SamplingMode::Active => write!(f, "active"),
        }
    }
}

/// The build configuration recorded in a store's header. A resumed build
/// must match it field for field: continuing a store under different
/// parameters would splice two incompatible datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreMeta {
    /// Target number of design points of the full build.
    pub total_points: u64,
    /// Points characterized (and committed) per chunk frame.
    pub chunk_points: u64,
    /// `V_in` grid points per transfer-curve sweep.
    pub sweep_points: u32,
    /// How design points are chosen.
    pub sampling: SamplingMode,
    /// Base seed of the deterministic per-chunk seed schedule.
    pub seed: u64,
    /// Abort threshold on the failed-point fraction.
    pub max_failure_fraction: f64,
    /// The design space points are drawn from.
    pub space: DesignSpace,
}

impl StoreMeta {
    /// Serializes the header, including magic, format version, layout
    /// constants, every configuration field, and the trailing checksum.
    ///
    /// This function **is** the on-disk header format (version
    /// [`FORMAT_VERSION`]); its content hash is pinned in the `pnc-lint`
    /// oracle registry, so any layout change demands an explicit re-freeze
    /// with a migration justification.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 16 * OMEGA_DIM);
        buf.extend_from_slice(HEADER_MAGIC);
        put_u32(&mut buf, FORMAT_VERSION);
        put_u32(&mut buf, RECORD_BYTES as u32);
        put_u32(&mut buf, CAUSE_CAP as u32);
        put_u64(&mut buf, self.total_points);
        put_u64(&mut buf, self.chunk_points);
        put_u32(&mut buf, self.sweep_points);
        buf.push(self.sampling.to_byte());
        put_u64(&mut buf, self.seed);
        put_f64(&mut buf, self.max_failure_fraction);
        for k in 0..OMEGA_DIM {
            put_f64(&mut buf, self.space.lo[k]);
        }
        for k in 0..OMEGA_DIM {
            put_f64(&mut buf, self.space.hi[k]);
        }
        let checksum = fnv1a64(&buf);
        put_u64(&mut buf, checksum);
        buf
    }

    /// Total encoded header length in bytes.
    pub fn encoded_len() -> usize {
        8 + 4 + 4 + 4 + 8 + 8 + 4 + 1 + 8 + 8 + 8 * OMEGA_DIM * 2 + 8
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |detail: &str| StoreError::HeaderCorrupt {
            detail: detail.to_string(),
        };
        if bytes.len() < Self::encoded_len() {
            return Err(corrupt("header shorter than the fixed layout"));
        }
        let body_len = Self::encoded_len() - 8;
        let body = bytes
            .get(..body_len)
            .ok_or_else(|| corrupt("short header"))?;
        let mut t = Take::new(bytes);
        let magic = t.bytes(8).ok_or_else(|| corrupt("missing magic"))?;
        if magic != HEADER_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = t.u32().ok_or_else(|| corrupt("missing version"))?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Version {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let record_bytes = t.u32().ok_or_else(|| corrupt("missing record size"))?;
        if record_bytes as usize != RECORD_BYTES {
            return Err(corrupt(&format!(
                "record size {record_bytes} != expected {RECORD_BYTES}"
            )));
        }
        let cause_cap = t.u32().ok_or_else(|| corrupt("missing cause cap"))?;
        if cause_cap as usize != CAUSE_CAP {
            return Err(corrupt(&format!(
                "cause cap {cause_cap} != expected {CAUSE_CAP}"
            )));
        }
        let total_points = t.u64().ok_or_else(|| corrupt("missing total_points"))?;
        let chunk_points = t.u64().ok_or_else(|| corrupt("missing chunk_points"))?;
        let sweep_points = t.u32().ok_or_else(|| corrupt("missing sweep_points"))?;
        let sampling_byte = t.u8().ok_or_else(|| corrupt("missing sampling mode"))?;
        let sampling = SamplingMode::from_byte(sampling_byte)
            .ok_or_else(|| corrupt(&format!("unknown sampling mode byte {sampling_byte}")))?;
        let seed = t.u64().ok_or_else(|| corrupt("missing seed"))?;
        let max_failure_fraction = t.f64().ok_or_else(|| corrupt("missing failure fraction"))?;
        let mut lo = [0.0; OMEGA_DIM];
        let mut hi = [0.0; OMEGA_DIM];
        for slot in lo.iter_mut() {
            *slot = t.f64().ok_or_else(|| corrupt("missing space bounds"))?;
        }
        for slot in hi.iter_mut() {
            *slot = t.f64().ok_or_else(|| corrupt("missing space bounds"))?;
        }
        let stored_checksum = t.u64().ok_or_else(|| corrupt("missing checksum"))?;
        if stored_checksum != fnv1a64(body) {
            return Err(corrupt("header checksum mismatch"));
        }
        if chunk_points == 0 {
            return Err(corrupt("chunk_points is zero"));
        }
        Ok(StoreMeta {
            total_points,
            chunk_points,
            sweep_points,
            sampling,
            seed,
            max_failure_fraction,
            space: DesignSpace { lo, hi },
        })
    }
}

/// One fixed-width record: a characterized entry or a recorded failure.
/// The streaming builder commits every attempted design point as exactly
/// one record, so `committed records == attempted points` and resume
/// arithmetic never guesses.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// A successfully characterized design point.
    Entry {
        /// Global sample index (position in the deterministic point
        /// sequence).
        index: u64,
        /// The characterized entry.
        entry: DatasetEntry,
    },
    /// A design point that failed to characterize.
    Failure(FailureRecord),
}

impl StoreRecord {
    /// The global sample index of this record.
    pub fn index(&self) -> u64 {
        match self {
            StoreRecord::Entry { index, .. } => *index,
            StoreRecord::Failure(f) => f.index as u64,
        }
    }

    /// Serializes the fixed-width record ([`RECORD_BYTES`] bytes). Failure
    /// causes longer than [`CAUSE_CAP`] bytes are truncated at a character
    /// boundary (recorded length is the truncated length).
    ///
    /// This function **is** the on-disk record format; its content hash is
    /// pinned in the `pnc-lint` oracle registry alongside
    /// [`StoreMeta::encode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(RECORD_BYTES);
        let (index, kind, omega, eta, rmse, cause) = match self {
            StoreRecord::Entry { index, entry } => {
                (*index, 0u8, &entry.omega, entry.eta, entry.fit_rmse, "")
            }
            StoreRecord::Failure(f) => {
                let kind = match f.stage {
                    FailureStage::Build => 1u8,
                    FailureStage::Sweep => 2u8,
                    FailureStage::Fit => 3u8,
                };
                (
                    f.index as u64,
                    kind,
                    &f.omega,
                    [0.0; 4],
                    0.0,
                    f.cause.as_str(),
                )
            }
        };
        let mut cause_end = cause.len().min(CAUSE_CAP);
        while cause_end > 0 && !cause.is_char_boundary(cause_end) {
            cause_end -= 1;
        }
        let cause_bytes = cause.as_bytes().get(..cause_end).unwrap_or(&[]);
        put_u64(&mut buf, index);
        buf.push(kind);
        buf.extend_from_slice(&(cause_bytes.len() as u16).to_le_bytes());
        for &v in omega.iter() {
            put_f64(&mut buf, v);
        }
        for v in eta {
            put_f64(&mut buf, v);
        }
        put_f64(&mut buf, rmse);
        buf.extend_from_slice(cause_bytes);
        buf.resize(RECORD_BYTES, 0);
        buf
    }

    fn decode(bytes: &[u8], chunk: u64) -> Result<Self, StoreError> {
        let corrupt = |detail: String| StoreError::ChunkCorrupt { chunk, detail };
        let mut t = Take::new(bytes);
        let index = t.u64().ok_or_else(|| corrupt("short record".into()))?;
        let kind = t.u8().ok_or_else(|| corrupt("short record".into()))?;
        let cause_len = t.u16().ok_or_else(|| corrupt("short record".into()))? as usize;
        if cause_len > CAUSE_CAP {
            return Err(corrupt(format!(
                "cause length {cause_len} exceeds cap {CAUSE_CAP}"
            )));
        }
        let mut omega = [0.0; OMEGA_DIM];
        for slot in omega.iter_mut() {
            *slot = t.f64().ok_or_else(|| corrupt("short record".into()))?;
        }
        let mut eta = [0.0; 4];
        for slot in eta.iter_mut() {
            *slot = t.f64().ok_or_else(|| corrupt("short record".into()))?;
        }
        let fit_rmse = t.f64().ok_or_else(|| corrupt("short record".into()))?;
        let cause_raw = t
            .bytes(CAUSE_CAP)
            .ok_or_else(|| corrupt("short record".into()))?;
        let cause_bytes = cause_raw
            .get(..cause_len)
            .ok_or_else(|| corrupt("cause length beyond record".into()))?;
        let stage = match kind {
            0 => {
                return Ok(StoreRecord::Entry {
                    index,
                    entry: DatasetEntry {
                        omega,
                        eta,
                        fit_rmse,
                    },
                })
            }
            1 => FailureStage::Build,
            2 => FailureStage::Sweep,
            3 => FailureStage::Fit,
            other => return Err(corrupt(format!("unknown record kind {other}"))),
        };
        let cause = std::str::from_utf8(cause_bytes)
            .map_err(|_| corrupt("cause is not valid utf-8".into()))?
            .to_string();
        Ok(StoreRecord::Failure(FailureRecord {
            index: index as usize,
            omega,
            stage,
            cause,
        }))
    }
}

/// What `open_resumable` found and did: how much of the build is committed
/// and whether a torn tail was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeReport {
    /// Complete, checksum-valid chunk frames in the file.
    pub committed_chunks: u64,
    /// Records (= attempted design points) across those frames.
    pub committed_records: u64,
    /// Bytes of a partial trailing frame that were truncated away (a kill
    /// mid-write); `0` for a cleanly closed store.
    pub discarded_bytes: u64,
}

/// An open dataset store: the header's [`StoreMeta`] plus an index of the
/// committed chunk frames. See the module docs for the format.
#[derive(Debug)]
pub struct DatasetStore {
    path: PathBuf,
    meta: StoreMeta,
    /// File offset of each committed chunk frame.
    chunk_offsets: Vec<u64>,
    /// Record count of each committed chunk frame.
    chunk_records: Vec<u32>,
    committed_records: u64,
    /// Append handle; `None` for read-only opens.
    file: Option<File>,
}

impl DatasetStore {
    /// Creates (truncating) a store at `path` and writes its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; rejects `chunk_points == 0`.
    pub fn create(path: &Path, meta: &StoreMeta) -> Result<Self, StoreError> {
        if meta.chunk_points == 0 {
            return Err(StoreError::HeaderCorrupt {
                detail: "chunk_points is zero".into(),
            });
        }
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&meta.encode())?;
        file.flush()?;
        Ok(DatasetStore {
            path: path.to_path_buf(),
            meta: meta.clone(),
            chunk_offsets: Vec::new(),
            chunk_records: Vec::new(),
            committed_records: 0,
            file: Some(file),
        })
    }

    /// Opens a store for reading only.
    ///
    /// # Errors
    ///
    /// Everything `open_resumable` rejects, plus [`StoreError::TornTail`]
    /// when the file ends mid-frame — a read-only open never mutates the
    /// file, so it surfaces the torn tail instead of repairing it.
    pub fn open_readonly(path: &Path) -> Result<Self, StoreError> {
        let (store, report) = Self::open_validated(path, false)?;
        if report.discarded_bytes > 0 {
            return Err(StoreError::TornTail {
                trailing_bytes: report.discarded_bytes,
            });
        }
        Ok(store)
    }

    /// Opens a store for appending, validating the committed prefix and
    /// recovering from a torn tail by truncating the partial frame (the
    /// report says how many bytes went).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for a bad magic/version, header corruption, or
    /// a *complete* frame failing its checksum — corruption is never
    /// repaired by guesswork, only an uncommitted tail is.
    pub fn open_resumable(path: &Path) -> Result<(Self, ResumeReport), StoreError> {
        Self::open_validated(path, true)
    }

    fn open_validated(path: &Path, writable: bool) -> Result<(Self, ResumeReport), StoreError> {
        let mut file = OpenOptions::new().read(true).write(writable).open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = vec![0u8; StoreMeta::encoded_len()];
        if (file_len as usize) < header.len() {
            return Err(StoreError::HeaderCorrupt {
                detail: format!("file is {file_len} bytes, shorter than the header"),
            });
        }
        file.read_exact(&mut header)?;
        let meta = StoreMeta::decode(&header)?;

        // Walk the chunk frames. A frame is committed iff it is complete
        // and its checksum matches; the walk stops at the first incomplete
        // frame (torn tail) and rejects any complete-but-invalid frame.
        let mut offsets = Vec::new();
        let mut records = Vec::new();
        let mut committed_records = 0u64;
        let mut pos = StoreMeta::encoded_len() as u64;
        while pos < file_len {
            let remaining = file_len - pos;
            if remaining < FRAME_PREFIX as u64 {
                break; // torn tail: not even a frame prefix
            }
            let mut prefix = [0u8; FRAME_PREFIX];
            file.seek(SeekFrom::Start(pos))?;
            file.read_exact(&mut prefix)?;
            let chunk_idx = offsets.len() as u64;
            let mut t = Take::new(&prefix);
            let magic = t.bytes(4).unwrap_or(&[]);
            if magic != CHUNK_MAGIC {
                return Err(StoreError::ChunkCorrupt {
                    chunk: chunk_idx,
                    detail: "bad frame magic".into(),
                });
            }
            let stored_index = t.u64().unwrap_or(u64::MAX);
            let n_records = t.u32().unwrap_or(0);
            let frame_len =
                FRAME_PREFIX as u64 + n_records as u64 * RECORD_BYTES as u64 + FRAME_SUFFIX as u64;
            if remaining < frame_len {
                break; // torn tail: frame body incomplete
            }
            if stored_index != chunk_idx {
                return Err(StoreError::ChunkCorrupt {
                    chunk: chunk_idx,
                    detail: format!("frame records chunk index {stored_index}"),
                });
            }
            let body_len = frame_len as usize - FRAME_SUFFIX;
            let mut frame = vec![0u8; frame_len as usize];
            file.seek(SeekFrom::Start(pos))?;
            file.read_exact(&mut frame)?;
            let body = frame.get(..body_len).unwrap_or(&[]);
            let stored_sum = frame
                .get(body_len..)
                .and_then(|b| <[u8; 8]>::try_from(b).ok())
                .map(u64::from_le_bytes)
                .unwrap_or(0);
            if stored_sum != fnv1a64(body) {
                return Err(StoreError::ChunkCorrupt {
                    chunk: chunk_idx,
                    detail: "frame checksum mismatch".into(),
                });
            }
            offsets.push(pos);
            records.push(n_records);
            committed_records += n_records as u64;
            pos += frame_len;
        }

        let discarded = file_len - pos;
        if discarded > 0 && writable {
            file.set_len(pos)?;
            file.flush()?;
        }
        if writable {
            file.seek(SeekFrom::Start(pos.min(file_len)))?;
        }
        let report = ResumeReport {
            committed_chunks: offsets.len() as u64,
            committed_records,
            discarded_bytes: discarded,
        };
        Ok((
            DatasetStore {
                path: path.to_path_buf(),
                meta,
                chunk_offsets: offsets,
                chunk_records: records,
                committed_records,
                file: writable.then_some(file),
            },
            report,
        ))
    }

    /// The header configuration.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Path this store lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed (checksum-valid) chunk frames.
    pub fn committed_chunks(&self) -> u64 {
        self.chunk_offsets.len() as u64
    }

    /// Records across all committed frames — one per attempted design
    /// point, entries and failures alike.
    pub fn committed_records(&self) -> u64 {
        self.committed_records
    }

    /// Whether the build this store holds has reached its target.
    pub fn is_complete(&self) -> bool {
        self.committed_records >= self.meta.total_points
    }

    /// Appends one chunk frame and flushes it. The frame's chunk index is
    /// implicit: frames are committed strictly in order.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; rejects appends on a read-only store or an
    /// empty record set.
    pub fn append_chunk(&mut self, records: &[StoreRecord]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Err(StoreError::InvalidRequest {
                detail: "refusing to append an empty chunk".into(),
            });
        }
        let chunk_index = self.chunk_offsets.len() as u64;
        let mut frame =
            Vec::with_capacity(FRAME_PREFIX + records.len() * RECORD_BYTES + FRAME_SUFFIX);
        frame.extend_from_slice(CHUNK_MAGIC);
        put_u64(&mut frame, chunk_index);
        put_u32(&mut frame, records.len() as u32);
        for r in records {
            frame.extend_from_slice(&r.encode());
        }
        let checksum = fnv1a64(&frame);
        put_u64(&mut frame, checksum);

        let Some(file) = self.file.as_mut() else {
            return Err(StoreError::InvalidRequest {
                detail: "store was opened read-only".into(),
            });
        };
        let offset = file.seek(SeekFrom::End(0))?;
        file.write_all(&frame)?;
        file.flush()?;
        self.chunk_offsets.push(offset);
        self.chunk_records.push(records.len() as u32);
        self.committed_records += records.len() as u64;
        Ok(())
    }

    /// Reads (and re-validates) one committed chunk frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRequest`] beyond the committed range; typed
    /// corruption errors if the frame no longer matches its checksum.
    pub fn read_chunk(&self, chunk: u64) -> Result<Vec<StoreRecord>, StoreError> {
        let idx = chunk as usize;
        let (Some(&offset), Some(&n_records)) =
            (self.chunk_offsets.get(idx), self.chunk_records.get(idx))
        else {
            return Err(StoreError::InvalidRequest {
                detail: format!(
                    "chunk {chunk} beyond the {} committed frames",
                    self.chunk_offsets.len()
                ),
            });
        };
        let mut file = File::open(&self.path)?;
        let frame_len = FRAME_PREFIX + n_records as usize * RECORD_BYTES + FRAME_SUFFIX;
        let mut frame = vec![0u8; frame_len];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut frame)?;
        let body_len = frame_len - FRAME_SUFFIX;
        let body = frame.get(..body_len).unwrap_or(&[]);
        let stored_sum = frame
            .get(body_len..)
            .and_then(|b| <[u8; 8]>::try_from(b).ok())
            .map(u64::from_le_bytes)
            .unwrap_or(0);
        if stored_sum != fnv1a64(body) {
            return Err(StoreError::ChunkCorrupt {
                chunk,
                detail: "frame checksum mismatch on read-back".into(),
            });
        }
        let mut out = Vec::with_capacity(n_records as usize);
        for i in 0..n_records as usize {
            let start = FRAME_PREFIX + i * RECORD_BYTES;
            let bytes =
                frame
                    .get(start..start + RECORD_BYTES)
                    .ok_or_else(|| StoreError::ChunkCorrupt {
                        chunk,
                        detail: "record extent beyond frame".into(),
                    })?;
            out.push(StoreRecord::decode(bytes, chunk)?);
        }
        Ok(out)
    }

    /// Materializes every committed record into entry/failure vectors —
    /// the bridge back to the in-memory [`crate::CircuitDataset`] world,
    /// for tests and the batch-equivalence oracle. Defeats the point of
    /// streaming at production scale; keep it to datasets that fit.
    ///
    /// # Errors
    ///
    /// Propagates chunk read/validation failures.
    pub fn load_all(&self) -> Result<(Vec<DatasetEntry>, Vec<FailureRecord>), StoreError> {
        let mut entries = Vec::new();
        let mut failures = Vec::new();
        for chunk in 0..self.committed_chunks() {
            for record in self.read_chunk(chunk)? {
                match record {
                    StoreRecord::Entry { entry, .. } => entries.push(entry),
                    StoreRecord::Failure(f) => failures.push(f),
                }
            }
        }
        Ok((entries, failures))
    }

    /// Verifies the caller's configuration against the header.
    ///
    /// # Errors
    ///
    /// [`StoreError::MetaMismatch`] naming the first differing field.
    pub fn check_meta(&self, expected: &StoreMeta) -> Result<(), StoreError> {
        let m = &self.meta;
        let mismatch = |detail: String| Err(StoreError::MetaMismatch { detail });
        if m.total_points != expected.total_points {
            return mismatch(format!(
                "total_points: store {} vs caller {}",
                m.total_points, expected.total_points
            ));
        }
        if m.chunk_points != expected.chunk_points {
            return mismatch(format!(
                "chunk_points: store {} vs caller {}",
                m.chunk_points, expected.chunk_points
            ));
        }
        if m.sweep_points != expected.sweep_points {
            return mismatch(format!(
                "sweep_points: store {} vs caller {}",
                m.sweep_points, expected.sweep_points
            ));
        }
        if m.sampling != expected.sampling {
            return mismatch(format!(
                "sampling: store {} vs caller {}",
                m.sampling, expected.sampling
            ));
        }
        if m.seed != expected.seed {
            return mismatch(format!(
                "seed: store {} vs caller {}",
                m.seed, expected.seed
            ));
        }
        if m.max_failure_fraction.to_bits() != expected.max_failure_fraction.to_bits() {
            return mismatch(format!(
                "max_failure_fraction: store {} vs caller {}",
                m.max_failure_fraction, expected.max_failure_fraction
            ));
        }
        if m.space != expected.space {
            return mismatch("design space bounds differ".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> StoreMeta {
        StoreMeta {
            total_points: 64,
            chunk_points: 16,
            sweep_points: 21,
            sampling: SamplingMode::Uniform,
            seed: 7,
            max_failure_fraction: 0.05,
            space: DesignSpace::paper(),
        }
    }

    fn entry(i: u64) -> StoreRecord {
        StoreRecord::Entry {
            index: i,
            entry: DatasetEntry {
                omega: [i as f64 + 0.5; OMEGA_DIM],
                eta: [0.1, 0.2, 0.3, 0.4 + i as f64],
                fit_rmse: 1e-3,
            },
        }
    }

    fn failure(i: u64) -> StoreRecord {
        StoreRecord::Failure(FailureRecord {
            index: i as usize,
            omega: [2.0; OMEGA_DIM],
            stage: FailureStage::Sweep,
            cause: "sweep did not converge at V_in = 0.5 (injected)".into(),
        })
    }

    #[test]
    fn header_round_trips() {
        let m = meta();
        let bytes = m.encode();
        assert_eq!(bytes.len(), StoreMeta::encoded_len());
        let back = StoreMeta::decode(&bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn header_checksum_detects_flips() {
        let mut bytes = meta().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            StoreMeta::decode(&bytes),
            Err(StoreError::HeaderCorrupt { .. })
        ));
    }

    #[test]
    fn record_round_trips_including_failures() {
        for r in [entry(3), failure(9)] {
            let bytes = r.encode();
            assert_eq!(bytes.len(), RECORD_BYTES);
            let back = StoreRecord::decode(&bytes, 0).unwrap();
            assert_eq!(r, back);
        }
    }

    #[test]
    fn long_causes_truncate_at_char_boundaries() {
        let long_cause = "é".repeat(CAUSE_CAP); // 2 bytes per char
        let r = StoreRecord::Failure(FailureRecord {
            index: 0,
            omega: [1.0; OMEGA_DIM],
            stage: FailureStage::Fit,
            cause: long_cause,
        });
        let bytes = r.encode();
        assert_eq!(bytes.len(), RECORD_BYTES);
        let StoreRecord::Failure(back) = StoreRecord::decode(&bytes, 0).unwrap() else {
            panic!("expected a failure record");
        };
        assert!(back.cause.len() <= CAUSE_CAP);
        assert!(back.cause.chars().all(|c| c == 'é'));
    }

    #[test]
    fn create_append_read_round_trip() {
        let path = std::env::temp_dir().join("pnc_store_round_trip.pncds");
        let mut store = DatasetStore::create(&path, &meta()).unwrap();
        store
            .append_chunk(&[entry(0), failure(1), entry(2)])
            .unwrap();
        store.append_chunk(&[entry(3), entry(4)]).unwrap();
        assert_eq!(store.committed_chunks(), 2);
        assert_eq!(store.committed_records(), 5);

        let read = DatasetStore::open_readonly(&path).unwrap();
        assert_eq!(read.meta(), &meta());
        let (entries, failures) = read.load_all().unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_committed_chunk_is_a_typed_error() {
        let path = std::env::temp_dir().join("pnc_store_corrupt.pncds");
        let mut store = DatasetStore::create(&path, &meta()).unwrap();
        store.append_chunk(&[entry(0), entry(1)]).unwrap();
        drop(store);
        // Flip a byte inside the committed frame's records.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = StoreMeta::encoded_len() + FRAME_PREFIX + 20;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = DatasetStore::open_resumable(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::ChunkCorrupt { chunk: 0, .. }),
            "{err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn readonly_open_surfaces_torn_tail() {
        let path = std::env::temp_dir().join("pnc_store_torn_readonly.pncds");
        let mut store = DatasetStore::create(&path, &meta()).unwrap();
        store.append_chunk(&[entry(0)]).unwrap();
        store.append_chunk(&[entry(1)]).unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let err = DatasetStore::open_readonly(&path).unwrap_err();
        assert!(matches!(err, StoreError::TornTail { trailing_bytes } if trailing_bytes > 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_and_magic_are_checked() {
        let m = meta();
        let mut bytes = m.encode();
        bytes[0] = b'X';
        assert!(matches!(
            StoreMeta::decode(&bytes),
            Err(StoreError::BadMagic)
        ));

        let mut versioned = m.encode();
        versioned[8] = 99; // version little-endian low byte
                           // Fix the checksum so only the version differs.
        let body_len = StoreMeta::encoded_len() - 8;
        let sum = fnv1a64(&versioned[..body_len]).to_le_bytes();
        versioned[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            StoreMeta::decode(&versioned),
            Err(StoreError::Version { found: 99, .. })
        ));
    }
}
