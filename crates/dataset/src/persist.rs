//! The plain-text dataset format: one point per line, attributes
//! space-separated, after an `n d` header line — what `p3c generate`
//! writes and `--input` reads. (The binary block layout is
//! [`Dataset::to_bytes`].)

use crate::data::Dataset;
use std::fmt::Write as _;

/// Errors when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The text input had no `n d` header line.
    MissingHeader,
    /// The header line did not parse as two integers.
    BadHeader(String),
    /// A value token failed to parse as `f64`.
    BadValue {
        /// 1-based line of the bad token.
        line: usize,
        /// The token that failed to parse.
        token: String,
    },
    /// The input held a different number of values than the header claims.
    WrongCount {
        /// `n · d` per the header.
        expected: usize,
        /// Values actually present.
        got: usize,
    },
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::MissingHeader => write!(f, "missing header line"),
            TextError::BadHeader(h) => write!(f, "unparsable header: {h:?}"),
            TextError::BadValue { line, token } => {
                write!(f, "unparsable value {token:?} on line {line}")
            }
            TextError::WrongCount { expected, got } => {
                write!(f, "expected {expected} values, found {got}")
            }
        }
    }
}

impl std::error::Error for TextError {}

/// Encodes a dataset as text (`n d` header + one row per line).
pub fn to_text(ds: &Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", ds.len(), ds.dim());
    for row in ds.rows() {
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{v}");
        }
        out.push('\n');
    }
    out
}

/// Decodes the text format produced by [`to_text`].
pub fn from_text(text: &str) -> Result<Dataset, TextError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(TextError::MissingHeader)?;
    let mut parts = header.split_whitespace();
    let parse_dim = |s: Option<&str>| -> Result<usize, TextError> {
        s.and_then(|t| t.parse().ok())
            .ok_or_else(|| TextError::BadHeader(header.to_string()))
    };
    let n = parse_dim(parts.next())?;
    let d = parse_dim(parts.next())?;
    let mut data = Vec::with_capacity(n * d);
    for (lineno, line) in lines {
        for token in line.split_whitespace() {
            let v: f64 = token.parse().map_err(|_| TextError::BadValue {
                line: lineno + 1,
                token: token.to_string(),
            })?;
            data.push(v);
        }
    }
    if data.len() != n * d {
        return Err(TextError::WrongCount {
            expected: n * d,
            got: data.len(),
        });
    }
    Ok(Dataset::new(n, d, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![vec![0.25, 0.5], vec![0.75, 1.0], vec![0.0, 0.125]])
    }

    #[test]
    fn text_roundtrip() {
        let ds = sample();
        let text = to_text(&ds);
        let back = from_text(&text).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn text_errors() {
        assert_eq!(from_text("").unwrap_err(), TextError::MissingHeader);
        assert!(matches!(
            from_text("x y\n").unwrap_err(),
            TextError::BadHeader(_)
        ));
        assert!(matches!(
            from_text("1 2\n0.5 oops\n").unwrap_err(),
            TextError::BadValue { .. }
        ));
        assert!(matches!(
            from_text("2 2\n0.5 0.5\n").unwrap_err(),
            TextError::WrongCount {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::from_rows(vec![]);
        assert_eq!(from_text(&to_text(&ds)).unwrap(), ds);
    }
}
