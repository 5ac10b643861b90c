//! Plain-text persistence for named parameter collections.
//!
//! The workspace is hermetic (no external serialization crates), so
//! checkpoints use a minimal line format:
//!
//! ```text
//! # optional comments
//! param <index> <rows> <cols>
//! <row of values>
//! ...
//! ```
//!
//! [`write_params`]/[`read_params`] round-trip exactly (values are printed
//! with full precision via Rust's shortest-round-trip float formatting).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::Matrix;

/// Serializes an ordered parameter list to the checkpoint text format.
pub fn params_to_string(params: &[Matrix]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# tensor checkpoint v1: {} parameters", params.len());
    for (i, m) in params.iter().enumerate() {
        let _ = writeln!(out, "param {} {} {}", i, m.rows(), m.cols());
        for r in 0..m.rows() {
            let row: Vec<String> = m.row(r).iter().map(|v| format!("{v}")).collect();
            let _ = writeln!(out, "{}", row.join(" "));
        }
    }
    out
}

/// Error from parsing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCheckpointError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseCheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseCheckpointError {}

/// Parses a checkpoint produced by [`params_to_string`].
///
/// # Errors
///
/// Returns [`ParseCheckpointError`] with a line number on malformed input,
/// including out-of-order indices and dimension mismatches.
pub fn params_from_str(text: &str) -> Result<Vec<Matrix>, ParseCheckpointError> {
    let mut params: Vec<Matrix> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("param") {
            return Err(ParseCheckpointError {
                line: lineno,
                message: format!("expected 'param' header, got '{line}'"),
            });
        }
        let parse = |tok: Option<&str>, what: &str, lineno: usize| {
            tok.ok_or_else(|| ParseCheckpointError {
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse::<usize>()
            .map_err(|_| ParseCheckpointError {
                line: lineno,
                message: format!("invalid {what}"),
            })
        };
        let index = parse(parts.next(), "index", lineno)?;
        if index != params.len() {
            return Err(ParseCheckpointError {
                line: lineno,
                message: format!("expected index {}, got {index}", params.len()),
            });
        }
        let rows = parse(parts.next(), "rows", lineno)?;
        let cols = parse(parts.next(), "cols", lineno)?;
        if rows == 0 || cols == 0 {
            return Err(ParseCheckpointError {
                line: lineno,
                message: "dimensions must be positive".into(),
            });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let Some((ridx, row_raw)) = lines.next() else {
                return Err(ParseCheckpointError {
                    line: lineno,
                    message: "unexpected end of file inside parameter".into(),
                });
            };
            let row_lineno = ridx + 1;
            let values: Result<Vec<f64>, _> = row_raw
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<f64>().map_err(|_| ParseCheckpointError {
                        line: row_lineno,
                        message: format!("invalid value '{tok}'"),
                    })
                })
                .collect();
            let values = values?;
            if values.len() != cols {
                return Err(ParseCheckpointError {
                    line: row_lineno,
                    message: format!("expected {cols} values, got {}", values.len()),
                });
            }
            data.extend(values);
        }
        params.push(Matrix::from_flat(rows, cols, data));
    }
    Ok(params)
}

/// Writes a checkpoint file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_params<P: AsRef<Path>>(params: &[Matrix], path: P) -> io::Result<()> {
    fs::write(path, params_to_string(params))
}

/// Reads a checkpoint file.
///
/// # Errors
///
/// Returns filesystem errors as-is; parse failures are wrapped into
/// [`io::ErrorKind::InvalidData`].
pub fn read_params<P: AsRef<Path>>(path: P) -> io::Result<Vec<Matrix>> {
    let text = fs::read_to_string(path)?;
    params_from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrand::rngs::StdRng;
    use qrand::SeedableRng;

    #[test]
    fn round_trip_exact() {
        let mut rng = StdRng::seed_from_u64(55);
        let params = vec![
            Matrix::xavier_uniform(3, 4, &mut rng),
            Matrix::zeros(1, 2),
            Matrix::from_rows(&[&[1.0 / 3.0, f64::MIN_POSITIVE, -1e308]]),
        ];
        let text = params_to_string(&params);
        let back = params_from_str(&text).unwrap();
        assert_eq!(params, back, "round trip must be bit-exact");
    }

    #[test]
    fn empty_checkpoint() {
        assert_eq!(params_from_str("# nothing\n").unwrap(), vec![]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = params_from_str("garbage\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = params_from_str("param 1 1 1\n0\n").unwrap_err();
        assert!(err.message.contains("expected index 0"));
        let err = params_from_str("param 0 1 3\n1 2\n").unwrap_err();
        assert!(err.message.contains("expected 3 values"));
        let err = params_from_str("param 0 2 1\n1\n").unwrap_err();
        assert!(err.message.contains("end of file"));
        let err = params_from_str("param 0 0 1\n").unwrap_err();
        assert!(err.message.contains("positive"));
        let err = params_from_str("param 0 1 1\nxyz\n").unwrap_err();
        assert!(err.message.contains("invalid value"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("tensor_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.txt");
        let params = vec![Matrix::full(2, 2, 0.125)];
        write_params(&params, &path).unwrap();
        assert_eq!(read_params(&path).unwrap(), params);
        fs::remove_file(path).unwrap();
    }
}
