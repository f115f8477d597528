//! The Hayat compact run format (`.runfmt`): a versioned columnar binary
//! encoding of campaign run metrics.
//!
//! Fleet-scale campaigns (10⁵–10⁶ chips) produce one [`RunMetrics`] per
//! chip × policy cell. Serialized as JSON that is ~3 KB per run — tens of
//! gigabytes per fleet, dominated by repeated field names. This crate stores
//! the same data *columnar*: values of one field sit contiguously, fixed
//! width, with field names written once in the file header. The result is
//! roughly an order of magnitude smaller and can be both written and read as
//! a stream in O(row group) memory — no run file is ever fully resident.
//!
//! The byte-level layout is normatively specified in `docs/RUNFORMAT.md`;
//! this crate is the reference implementation. Design points:
//!
//! * **Exact round-trip** — every `f64` is stored as its IEEE-754 bit
//!   pattern ([`f64::to_bits`], little-endian), so a decoded file compares
//!   bit-identical to the encoded metrics. The byte-identical-output CI
//!   gates extend to `.runfmt` files unchanged.
//! * **Row groups** — runs are batched into self-delimiting groups
//!   (default [`DEFAULT_GROUP_CAPACITY`]); each group carries its own policy
//!   dictionary and column chunks. Writers flush group by group; readers
//!   decode group by group.
//! * **Versioned** — the header carries [`FORMAT_VERSION`]. Readers reject
//!   files from a *newer* writer with
//!   [`RunFmtError::UnsupportedVersion`] instead of misparsing them, the
//!   same forward-version discipline as the checkpoint format.
//! * **Self-describing schema** — the header lists every column's name and
//!   type. A version-1 reader requires exactly the version-1 schema
//!   ([`RUN_COLUMNS`], [`EPOCH_COLUMNS`]); the listing exists so foreign
//!   tooling can parse files without this crate.
//! * **Integrity tail** — the end marker repeats the total run count; a
//!   truncated file fails decoding instead of silently yielding a prefix.
//!
//! # Example
//!
//! ```
//! use hayat::RunMetrics;
//! use hayat_runfmt::{RunFileReader, RunFileWriter};
//!
//! # fn main() -> Result<(), hayat_runfmt::RunFmtError> {
//! # let runs: Vec<RunMetrics> = Vec::new();
//! let mut buf = Vec::new();
//! let mut writer = RunFileWriter::new(&mut buf, 0.5)?;
//! for run in &runs {
//!     writer.push(run)?;
//! }
//! writer.finish()?;
//!
//! let reader = RunFileReader::new(buf.as_slice())?;
//! assert_eq!(reader.dark_fraction(), 0.5);
//! let decoded: Result<Vec<_>, _> = reader.collect();
//! assert_eq!(decoded?, runs);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod read;
mod write;

pub use crate::read::{read_path, RunFileReader};
pub use crate::write::{write_path, RunFileWriter};

use hayat::RunMetrics;

/// The 8-byte file signature every `.runfmt` file starts with.
///
/// ```
/// assert_eq!(hayat_runfmt::MAGIC, *b"HAYATRF\0");
/// ```
pub const MAGIC: [u8; 8] = *b"HAYATRF\0";

/// The format version this crate writes and the newest it reads.
///
/// ```
/// assert_eq!(hayat_runfmt::FORMAT_VERSION, 1);
/// ```
pub const FORMAT_VERSION: u32 = 1;

/// Runs per row group unless [`RunFileWriter::with_group_capacity`]
/// overrides it. Larger groups amortize the per-group dictionary; smaller
/// groups bound writer memory tighter.
pub const DEFAULT_GROUP_CAPACITY: usize = 1024;

/// Physical encoding of one column's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ColumnType {
    /// Unsigned 64-bit integer, little-endian.
    U64 = 0,
    /// IEEE-754 binary64 bit pattern ([`f64::to_bits`]), little-endian.
    F64 = 1,
    /// Unsigned 32-bit little-endian index into the row group's policy
    /// dictionary.
    PolicyRef = 2,
}

impl ColumnType {
    /// Decodes a schema type code.
    #[must_use]
    pub const fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ColumnType::U64),
            1 => Some(ColumnType::F64),
            2 => Some(ColumnType::PolicyRef),
            _ => None,
        }
    }
}

/// The version-1 per-run column schema, in on-disk order.
pub const RUN_COLUMNS: &[(&str, ColumnType)] = &[
    ("policy", ColumnType::PolicyRef),
    ("chip_id", ColumnType::U64),
    ("dark_fraction", ColumnType::F64),
    ("ambient_kelvin", ColumnType::F64),
    ("initial_avg_fmax_ghz", ColumnType::F64),
    ("initial_chip_fmax_ghz", ColumnType::F64),
    ("final_health_std", ColumnType::F64),
    ("epoch_count", ColumnType::U64),
];

/// The version-1 per-epoch column schema, in on-disk order. Epoch rows are
/// stored run-major: all epochs of the group's first run, then the second's.
pub const EPOCH_COLUMNS: &[(&str, ColumnType)] = &[
    ("epoch", ColumnType::U64),
    ("years", ColumnType::F64),
    ("avg_fmax_ghz", ColumnType::F64),
    ("chip_fmax_ghz", ColumnType::F64),
    ("mean_health", ColumnType::F64),
    ("min_health", ColumnType::F64),
    ("avg_temp_kelvin", ColumnType::F64),
    ("peak_temp_kelvin", ColumnType::F64),
    ("dtm_migrations", ColumnType::U64),
    ("dtm_throttles", ColumnType::U64),
    ("unplaced_threads", ColumnType::U64),
    ("throughput_fraction", ColumnType::F64),
];

/// Why encoding or decoding a `.runfmt` stream failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunFmtError {
    /// The underlying reader or writer failed.
    Io(std::io::Error),
    /// The stream does not start with [`MAGIC`] — not a run file.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file was written by a newer format version than this crate
    /// reads. Upgrade the reader; the data is not recoverable by guessing.
    UnsupportedVersion {
        /// Version recorded in the file header.
        found: u32,
        /// Newest version this crate decodes.
        supported: u32,
    },
    /// Header flags contain bits this version does not define.
    UnknownFlags {
        /// The offending flag word.
        flags: u32,
    },
    /// The header's column schema differs from the version-1 schema.
    SchemaMismatch {
        /// Which schema table disagreed (`"run"` or `"epoch"`).
        table: &'static str,
        /// Human-readable difference.
        detail: String,
    },
    /// The stream ended inside a structure, or the end marker's total
    /// disagrees with the number of runs decoded.
    Truncated {
        /// What was being decoded when the stream ran out.
        context: &'static str,
    },
    /// A structurally invalid value (dictionary index out of range,
    /// non-UTF-8 policy name, declared size contradicting the data).
    Corrupt {
        /// Human-readable description.
        detail: String,
    },
}

impl std::fmt::Display for RunFmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFmtError::Io(e) => write!(f, "run-format I/O error: {e}"),
            RunFmtError::BadMagic { found } => {
                write!(f, "not a Hayat run file (magic {found:02x?})")
            }
            RunFmtError::UnsupportedVersion { found, supported } => write!(
                f,
                "run file is format version {found}, newest supported is {supported}"
            ),
            RunFmtError::UnknownFlags { flags } => {
                write!(f, "run file header has unknown flag bits {flags:#010x}")
            }
            RunFmtError::SchemaMismatch { table, detail } => {
                write!(f, "run file {table} schema mismatch: {detail}")
            }
            RunFmtError::Truncated { context } => {
                write!(f, "run file truncated while reading {context}")
            }
            RunFmtError::Corrupt { detail } => write!(f, "run file corrupt: {detail}"),
        }
    }
}

impl std::error::Error for RunFmtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunFmtError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RunFmtError {
    fn from(e: std::io::Error) -> Self {
        RunFmtError::Io(e)
    }
}

/// Extracts the column values of one run in [`RUN_COLUMNS`] order, with the
/// policy resolved through `dict_index`. Shared by the writer (encoding) and
/// the tests (golden expectations).
fn run_scalars(run: &RunMetrics, dict_index: u32) -> [u64; 8] {
    [
        u64::from(dict_index),
        run.chip_id as u64,
        run.dark_fraction.to_bits(),
        run.ambient_kelvin.to_bits(),
        run.initial_avg_fmax_ghz.to_bits(),
        run.initial_chip_fmax_ghz.to_bits(),
        run.final_health_std.to_bits(),
        run.epochs.len() as u64,
    ]
}

/// Extracts the column values of one epoch record in [`EPOCH_COLUMNS`]
/// order.
fn epoch_scalars(e: &hayat::EpochRecord) -> [u64; 12] {
    [
        e.epoch as u64,
        e.years.to_bits(),
        e.avg_fmax_ghz.to_bits(),
        e.chip_fmax_ghz.to_bits(),
        e.mean_health.to_bits(),
        e.min_health.to_bits(),
        e.avg_temp_kelvin.to_bits(),
        e.peak_temp_kelvin.to_bits(),
        e.dtm_migrations,
        e.dtm_throttles,
        e.unplaced_threads as u64,
        e.throughput_fraction.to_bits(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat::EpochRecord;

    fn epoch(i: usize) -> EpochRecord {
        EpochRecord {
            epoch: i,
            years: 0.5 * (i + 1) as f64,
            avg_fmax_ghz: 3.4 - 0.01 * i as f64,
            chip_fmax_ghz: 3.9,
            mean_health: 0.99,
            min_health: 0.97,
            avg_temp_kelvin: 331.2,
            peak_temp_kelvin: 348.9,
            dtm_migrations: 3,
            dtm_throttles: 1,
            unplaced_threads: 0,
            throughput_fraction: 0.995,
        }
    }

    fn run(policy: &str, chip: usize, epochs: usize) -> RunMetrics {
        RunMetrics {
            policy: policy.to_owned(),
            chip_id: chip,
            dark_fraction: 0.25,
            ambient_kelvin: 318.15,
            initial_avg_fmax_ghz: 3.5,
            initial_chip_fmax_ghz: 4.0,
            final_health_std: 0.012,
            epochs: (0..epochs).map(epoch).collect(),
        }
    }

    #[test]
    fn round_trips_bit_identically() {
        let runs = vec![
            run("VAA", 0, 3),
            run("VAA", 1, 3),
            run("Hayat", 0, 3),
            run("Hayat", 1, 0), // zero-epoch run is legal
        ];
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.25).unwrap();
        for r in &runs {
            w.push(r).unwrap();
        }
        let written = w.finish().unwrap();
        assert_eq!(written, 4);
        let r = RunFileReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.dark_fraction(), 0.25);
        let decoded: Vec<RunMetrics> = r.collect::<Result<_, _>>().unwrap();
        assert_eq!(decoded, runs);
    }

    #[test]
    fn empty_file_round_trips() {
        let mut buf = Vec::new();
        let w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let r = RunFileReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn group_boundaries_are_invisible_to_the_reader() {
        let runs: Vec<RunMetrics> = (0..7).map(|i| run("Hayat", i, 2)).collect();
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.5)
            .unwrap()
            .with_group_capacity(3); // groups of 3, 3, 1
        for r in &runs {
            w.push(r).unwrap();
        }
        w.finish().unwrap();
        let decoded: Vec<RunMetrics> = RunFileReader::new(buf.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(decoded, runs);
    }

    #[test]
    fn special_floats_survive() {
        let mut r0 = run("Hayat", 0, 1);
        r0.final_health_std = -0.0;
        r0.epochs[0].throughput_fraction = f64::NAN;
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        w.push(&r0).unwrap();
        w.finish().unwrap();
        let decoded: Vec<RunMetrics> = RunFileReader::new(buf.as_slice())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(decoded[0].final_health_std.to_bits(), (-0.0f64).to_bits());
        assert!(decoded[0].epochs[0].throughput_fraction.is_nan());
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = RunFileReader::new(&b"NOTAFILEerror"[..]).unwrap_err();
        assert!(matches!(err, RunFmtError::BadMagic { found } if &found == b"NOTAFILE"));
    }

    #[test]
    fn rejects_future_version() {
        let mut buf = Vec::new();
        let w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        w.finish().unwrap();
        // Bump the version field (bytes 8..12) past what we support.
        buf[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = RunFileReader::new(buf.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            RunFmtError::UnsupportedVersion { found, supported }
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut buf = Vec::new();
        let w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        w.finish().unwrap();
        buf[12..16].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        let err = RunFileReader::new(buf.as_slice()).unwrap_err();
        assert!(matches!(err, RunFmtError::UnknownFlags { flags } if flags == 0x8000_0000));
    }

    #[test]
    fn truncation_is_detected_not_silently_accepted() {
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        for i in 0..3 {
            w.push(&run("Hayat", i, 2)).unwrap();
        }
        w.finish().unwrap();
        // Chop off the end marker (and some data): decode must error.
        buf.truncate(buf.len() - 24);
        let result: Result<Vec<RunMetrics>, _> =
            RunFileReader::new(buf.as_slice()).unwrap().collect();
        assert!(matches!(result, Err(RunFmtError::Truncated { .. })));
    }

    #[test]
    fn end_marker_total_is_checked() {
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        w.push(&run("Hayat", 0, 1)).unwrap();
        w.finish().unwrap();
        // Corrupt the trailing total-run count.
        let n = buf.len();
        buf[n - 8..].copy_from_slice(&99u64.to_le_bytes());
        let result: Result<Vec<RunMetrics>, _> =
            RunFileReader::new(buf.as_slice()).unwrap().collect();
        assert!(matches!(result, Err(RunFmtError::Corrupt { .. })));
    }

    #[test]
    fn hostile_epoch_count_is_corrupt_not_an_overflow() {
        let mut buf = Vec::new();
        let mut w = RunFileWriter::new(&mut buf, 0.5).unwrap();
        w.push(&run("Hayat", 0, 3)).unwrap();
        w.push(&run("Hayat", 1, 5)).unwrap();
        w.finish().unwrap();
        // The per-run epoch-count column holds [3, 5]; claim u64::MAX
        // epochs for the second run.
        let column: Vec<u8> = [3u64, 5].iter().flat_map(|n| n.to_le_bytes()).collect();
        let at = buf
            .windows(column.len())
            .position(|window| window == column.as_slice())
            .expect("epoch-count column");
        buf[at + 8..at + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let result: Result<Vec<RunMetrics>, _> =
            RunFileReader::new(buf.as_slice()).unwrap().collect();
        assert!(matches!(result, Err(RunFmtError::Corrupt { .. })));
    }

    #[test]
    fn path_helpers_round_trip() {
        let dir = std::env::temp_dir().join("hayat-runfmt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.runfmt");
        let runs = vec![run("VAA", 0, 2), run("Hayat", 0, 2)];
        write_path(&path, 0.5, runs.iter()).unwrap();
        let (decoded, dark) = read_path(&path).unwrap();
        assert_eq!(decoded, runs);
        assert_eq!(dark, 0.5);
        std::fs::remove_file(&path).unwrap();
    }
}
