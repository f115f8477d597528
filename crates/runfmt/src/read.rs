//! Streaming decoder: validates the header eagerly, then yields runs group
//! by group through the [`Iterator`] impl.

use crate::{ColumnType, RunFmtError, EPOCH_COLUMNS, FORMAT_VERSION, MAGIC, RUN_COLUMNS};
use hayat::{EpochRecord, RunMetrics};
use std::collections::VecDeque;
use std::io::Read;
use std::path::Path;

/// Streaming `.runfmt` decoder over any [`Read`] source.
///
/// Construction parses and validates the header (magic, version, flags,
/// schemas); iteration then decodes one row group at a time, so memory is
/// O(group) however large the file. Iteration ends at the end marker after
/// verifying its total-run integrity count; a stream that stops early
/// yields [`RunFmtError::Truncated`].
#[derive(Debug)]
pub struct RunFileReader<R: Read> {
    source: R,
    dark_fraction: f64,
    decoded: VecDeque<RunMetrics>,
    runs_seen: u64,
    finished: bool,
    failed: bool,
}

impl<R: Read> RunFileReader<R> {
    /// Parses the header and returns a reader positioned at the first row
    /// group.
    ///
    /// # Errors
    ///
    /// [`RunFmtError::BadMagic`] for non-run-files,
    /// [`RunFmtError::UnsupportedVersion`] for files from a newer writer,
    /// [`RunFmtError::UnknownFlags`] / [`RunFmtError::SchemaMismatch`] for
    /// incompatible headers, [`RunFmtError::Io`] /
    /// [`RunFmtError::Truncated`] for unreadable ones.
    pub fn new(mut source: R) -> Result<Self, RunFmtError> {
        let mut magic = [0u8; 8];
        read_exact(&mut source, &mut magic, "magic")?;
        if magic != MAGIC {
            return Err(RunFmtError::BadMagic { found: magic });
        }
        let version = read_u32(&mut source, "version")?;
        if version > FORMAT_VERSION {
            return Err(RunFmtError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let flags = read_u32(&mut source, "flags")?;
        if flags != 0 {
            return Err(RunFmtError::UnknownFlags { flags });
        }
        let dark_fraction = f64::from_bits(read_u64(&mut source, "dark fraction")?);
        check_schema(&mut source, "run", RUN_COLUMNS)?;
        check_schema(&mut source, "epoch", EPOCH_COLUMNS)?;
        Ok(RunFileReader {
            source,
            dark_fraction,
            decoded: VecDeque::new(),
            runs_seen: 0,
            finished: false,
            failed: false,
        })
    }

    /// The campaign dark fraction recorded in the header.
    #[must_use]
    pub const fn dark_fraction(&self) -> f64 {
        self.dark_fraction
    }

    /// Decodes the next row group into the ready queue, or handles the end
    /// marker. Returns `false` once the stream is exhausted.
    fn refill(&mut self) -> Result<bool, RunFmtError> {
        let run_count = read_u64(&mut self.source, "group run count")?;
        if run_count == 0 {
            let total = read_u64(&mut self.source, "end-marker total")?;
            if total != self.runs_seen {
                return Err(RunFmtError::Corrupt {
                    detail: format!(
                        "end marker claims {total} runs, file yielded {}",
                        self.runs_seen
                    ),
                });
            }
            self.finished = true;
            return Ok(false);
        }
        let runs = usize::try_from(run_count).map_err(|_| RunFmtError::Corrupt {
            detail: format!("group run count {run_count} overflows usize"),
        })?;
        let epochs_total = usize::try_from(read_u64(&mut self.source, "group epoch count")?)
            .map_err(|_| RunFmtError::Corrupt {
                detail: "group epoch count overflows usize".to_owned(),
            })?;

        let dict_len = read_u32(&mut self.source, "dictionary length")?;
        let dict: Vec<String> = (0..dict_len)
            .map(|_| read_str(&mut self.source, "policy name"))
            .collect::<Result<_, _>>()?;

        let run_cols = read_columns(&mut self.source, RUN_COLUMNS, runs, "run column")?;
        let epoch_cols = read_columns(
            &mut self.source,
            EPOCH_COLUMNS,
            epochs_total,
            "epoch column",
        )?;

        let mut epoch_at = 0usize;
        // Columnar storage: one row index strides across every column
        // chunk, so an iterator over any single column can't replace it.
        #[allow(clippy::needless_range_loop)]
        for row in 0..runs {
            let code = run_cols[0][row];
            let policy = dict
                .get(usize::try_from(code).unwrap_or(usize::MAX))
                .ok_or_else(|| RunFmtError::Corrupt {
                    detail: format!("policy code {code} outside dictionary of {dict_len}"),
                })?
                .clone();
            let epoch_count =
                usize::try_from(run_cols[7][row]).map_err(|_| RunFmtError::Corrupt {
                    detail: "per-run epoch count overflows usize".to_owned(),
                })?;
            let epoch_end = epoch_at
                .checked_add(epoch_count)
                .filter(|&end| end <= epochs_total)
                .ok_or_else(|| RunFmtError::Corrupt {
                    detail: format!(
                        "per-run epoch counts exceed the group total of {epochs_total}"
                    ),
                })?;
            let epochs = (epoch_at..epoch_end)
                .map(|e| EpochRecord {
                    epoch: epoch_cols[0][e] as usize,
                    years: f64::from_bits(epoch_cols[1][e]),
                    avg_fmax_ghz: f64::from_bits(epoch_cols[2][e]),
                    chip_fmax_ghz: f64::from_bits(epoch_cols[3][e]),
                    mean_health: f64::from_bits(epoch_cols[4][e]),
                    min_health: f64::from_bits(epoch_cols[5][e]),
                    avg_temp_kelvin: f64::from_bits(epoch_cols[6][e]),
                    peak_temp_kelvin: f64::from_bits(epoch_cols[7][e]),
                    dtm_migrations: epoch_cols[8][e],
                    dtm_throttles: epoch_cols[9][e],
                    unplaced_threads: epoch_cols[10][e] as usize,
                    throughput_fraction: f64::from_bits(epoch_cols[11][e]),
                })
                .collect();
            epoch_at = epoch_end;
            self.decoded.push_back(RunMetrics {
                policy,
                chip_id: run_cols[1][row] as usize,
                dark_fraction: f64::from_bits(run_cols[2][row]),
                ambient_kelvin: f64::from_bits(run_cols[3][row]),
                initial_avg_fmax_ghz: f64::from_bits(run_cols[4][row]),
                initial_chip_fmax_ghz: f64::from_bits(run_cols[5][row]),
                final_health_std: f64::from_bits(run_cols[6][row]),
                epochs,
            });
        }
        if epoch_at != epochs_total {
            return Err(RunFmtError::Corrupt {
                detail: format!(
                    "group declared {epochs_total} epochs but runs account for {epoch_at}"
                ),
            });
        }
        self.runs_seen += run_count;
        Ok(true)
    }
}

impl<R: Read> Iterator for RunFileReader<R> {
    type Item = Result<RunMetrics, RunFmtError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        while self.decoded.is_empty() {
            if self.finished {
                return None;
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        self.decoded.pop_front().map(Ok)
    }
}

/// Reads every run of the file at `path` into memory; returns the runs and
/// the header dark fraction. For fleet-scale files prefer iterating a
/// [`RunFileReader`] over a [`std::io::BufReader`] instead.
///
/// # Errors
///
/// Any [`RunFmtError`] from opening, validating, or decoding the file.
pub fn read_path(path: &Path) -> Result<(Vec<RunMetrics>, f64), RunFmtError> {
    let file = std::fs::File::open(path)?;
    let reader = RunFileReader::new(std::io::BufReader::new(file))?;
    let dark = reader.dark_fraction();
    let runs = reader.collect::<Result<Vec<_>, _>>()?;
    Ok((runs, dark))
}

/// `read_exact` with truncation mapped to [`RunFmtError::Truncated`].
fn read_exact<R: Read>(
    source: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), RunFmtError> {
    source.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            RunFmtError::Truncated { context }
        } else {
            RunFmtError::Io(e)
        }
    })
}

fn read_u32<R: Read>(source: &mut R, context: &'static str) -> Result<u32, RunFmtError> {
    let mut buf = [0u8; 4];
    read_exact(source, &mut buf, context)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(source: &mut R, context: &'static str) -> Result<u64, RunFmtError> {
    let mut buf = [0u8; 8];
    read_exact(source, &mut buf, context)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads a length-prefixed (u16 LE) UTF-8 string.
fn read_str<R: Read>(source: &mut R, context: &'static str) -> Result<String, RunFmtError> {
    let mut len = [0u8; 2];
    read_exact(source, &mut len, context)?;
    let mut bytes = vec![0u8; usize::from(u16::from_le_bytes(len))];
    read_exact(source, &mut bytes, context)?;
    String::from_utf8(bytes).map_err(|_| RunFmtError::Corrupt {
        detail: format!("{context} is not UTF-8"),
    })
}

/// Reads a schema table and requires it to match `expected` exactly.
fn check_schema<R: Read>(
    source: &mut R,
    table: &'static str,
    expected: &[(&str, ColumnType)],
) -> Result<(), RunFmtError> {
    let count = read_u32(source, "schema column count")?;
    if count as usize != expected.len() {
        return Err(RunFmtError::SchemaMismatch {
            table,
            detail: format!("{count} columns, expected {}", expected.len()),
        });
    }
    for &(name, ty) in expected {
        let found_name = read_str(source, "schema column name")?;
        let mut code = [0u8; 1];
        read_exact(source, &mut code, "schema column type")?;
        let found_ty = ColumnType::from_code(code[0]).ok_or_else(|| RunFmtError::Corrupt {
            detail: format!("unknown column type code {}", code[0]),
        })?;
        if found_name != name || found_ty != ty {
            return Err(RunFmtError::SchemaMismatch {
                table,
                detail: format!("column `{found_name}` ({found_ty:?}), expected `{name}` ({ty:?})"),
            });
        }
    }
    Ok(())
}

/// Reads the column chunks of one schema table: `rows` values per column,
/// widened to `u64` for uniform in-memory handling.
fn read_columns<R: Read>(
    source: &mut R,
    schema: &[(&str, ColumnType)],
    rows: usize,
    context: &'static str,
) -> Result<Vec<Vec<u64>>, RunFmtError> {
    schema
        .iter()
        .map(|&(_, ty)| {
            (0..rows)
                .map(|_| match ty {
                    ColumnType::U64 | ColumnType::F64 => read_u64(source, context),
                    ColumnType::PolicyRef => read_u32(source, context).map(u64::from),
                })
                .collect()
        })
        .collect()
}
