//! Minimal CSV import/export for relations and databases.
//!
//! The format is intentionally simple (no external dependency, no quoting):
//! one tuple per line, fields separated by commas, each field one of
//!
//! * `lo..hi` — a closed interval,
//! * `«bits»` or `b:bits` — a bitstring (e.g. `b:0110`; `b:` is the empty
//!   bitstring),
//! * anything else parseable as `f64` — a point value.
//!
//! Points and interval endpoints must be finite: `NaN` and `inf` parse as
//! `f64` but are rejected, not loaded.
//!
//! This is enough to ship example datasets with the repository, to dump
//! transformed databases for inspection, and to round-trip workloads between
//! runs of the benchmark harness.

use crate::{Database, Relation, SharedDictionary, Value};
use ij_segtree::{BitString, Interval, IntervalError};
use std::fmt::Write as _;

/// Errors raised by the CSV reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// Serialises a single value.
pub fn value_to_field(v: &Value) -> String {
    match v {
        Value::Point(p) => format!("{p}"),
        Value::Interval(iv) => format!("{}..{}", iv.lo(), iv.hi()),
        Value::Bits(b) => {
            if b.is_empty() {
                "b:".to_string()
            } else {
                format!("b:{b}")
            }
        }
    }
}

/// Parses a single value.
pub fn field_to_value(field: &str, line: usize) -> Result<Value, CsvError> {
    let field = field.trim();
    if let Some(bits) = field.strip_prefix("b:") {
        let b = BitString::parse(bits).ok_or_else(|| CsvError {
            line,
            message: format!("invalid bitstring `{bits}`"),
        })?;
        return Ok(Value::Bits(b));
    }
    if let Some((lo, hi)) = field.split_once("..") {
        let lo: f64 = lo.trim().parse().map_err(|_| CsvError {
            line,
            message: format!("invalid interval endpoint `{lo}`"),
        })?;
        let hi: f64 = hi.trim().parse().map_err(|_| CsvError {
            line,
            message: format!("invalid interval endpoint `{hi}`"),
        })?;
        let interval = Interval::try_new(lo, hi).map_err(|e| CsvError {
            line,
            message: match e {
                IntervalError::Reversed { .. } => format!("inverted interval `{field}`"),
                IntervalError::NonFinite { .. } => format!("non-finite endpoint in `{field}`"),
            },
        })?;
        return Ok(Value::Interval(interval));
    }
    match field.parse::<f64>() {
        Ok(p) if p.is_finite() => Ok(Value::point(p)),
        Ok(_) => Err(CsvError {
            line,
            message: format!("non-finite value `{field}`"),
        }),
        Err(_) => Err(CsvError {
            line,
            message: format!("invalid value `{field}`"),
        }),
    }
}

/// Parses one data line into a tuple of `arity` values; `None` for a blank
/// line or a `#` comment.  `line_no` is the line's 1-based number in the
/// text the caller was handed.
fn parse_row(raw_line: &str, arity: usize, line_no: usize) -> Result<Option<Vec<Value>>, CsvError> {
    let line = raw_line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != arity {
        return Err(CsvError {
            line: line_no,
            message: format!("expected {arity} fields, found {}", fields.len()),
        });
    }
    fields
        .iter()
        .map(|f| field_to_value(f, line_no))
        .collect::<Result<_, _>>()
        .map(Some)
}

impl Relation {
    /// Serialises the relation to CSV (one tuple per line, no header).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for t in self.tuples() {
            let fields: Vec<String> = t.iter().map(value_to_field).collect();
            let _ = writeln!(out, "{}", fields.join(","));
        }
        out
    }

    /// Parses a relation from CSV text, interning into `dict`.  Every line
    /// must have exactly `arity` fields; blank lines and lines starting with
    /// `#` are skipped.
    pub fn from_csv(
        name: impl Into<String>,
        arity: usize,
        text: &str,
        dict: &SharedDictionary,
    ) -> Result<Relation, CsvError> {
        let mut rel = Relation::new(name, arity, dict);
        for (idx, raw_line) in text.lines().enumerate() {
            if let Some(values) = parse_row(raw_line, arity, idx + 1)? {
                rel.push(values);
            }
        }
        Ok(rel)
    }
}

impl Database {
    /// Serialises the whole database: every relation is preceded by a header
    /// line `## <name> <arity>`.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for rel in self.relations() {
            let _ = writeln!(out, "## {} {}", rel.name(), rel.arity());
            out.push_str(&rel.to_csv());
        }
        out
    }

    /// Parses a database serialised with [`Database::to_csv`] into a database
    /// with a fresh dictionary of its own.  Rows are
    /// parsed where they are read, so a [`CsvError`] carries the line number
    /// of `text`, not of the relation's body.
    pub fn from_csv(text: &str) -> Result<Database, CsvError> {
        let mut db = Database::new();
        let mut current: Option<Relation> = None;
        for (idx, raw_line) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw_line.trim();
            if let Some(header) = line.strip_prefix("## ") {
                let mut parts = header.split_whitespace();
                let name = parts.next().ok_or_else(|| CsvError {
                    line: line_no,
                    message: "missing relation name".into(),
                })?;
                let arity: usize =
                    parts
                        .next()
                        .and_then(|a| a.parse().ok())
                        .ok_or_else(|| CsvError {
                            line: line_no,
                            message: "missing or invalid arity".into(),
                        })?;
                if let Some(done) = current.replace(Relation::new(name, arity, db.dictionary())) {
                    db.insert(done);
                }
            } else if !line.is_empty() {
                let rel = current.as_mut().ok_or_else(|| CsvError {
                    line: line_no,
                    message: "data before the first `## name arity` header".into(),
                })?;
                if let Some(values) = parse_row(line, rel.arity(), line_no)? {
                    rel.push(values);
                }
            }
        }
        if let Some(done) = current {
            db.insert(done);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip() {
        let values = vec![
            Value::point(3.5),
            Value::point(-2.0),
            Value::interval(1.0, 4.25),
            Value::Bits(BitString::parse("0101").unwrap()),
            Value::Bits(BitString::empty()),
        ];
        for v in values {
            let field = value_to_field(&v);
            assert_eq!(field_to_value(&field, 1).unwrap(), v, "field `{field}`");
        }
    }

    #[test]
    fn relation_round_trip() {
        let rel = Relation::from_tuples(
            "R",
            2,
            vec![
                vec![Value::interval(0.0, 2.0), Value::point(7.0)],
                vec![Value::interval(-1.5, 3.5), Value::point(8.0)],
            ],
            &SharedDictionary::new(),
        );
        let csv = rel.to_csv();
        let parsed = Relation::from_csv("R", 2, &csv, &SharedDictionary::new()).unwrap();
        assert_eq!(parsed, rel);
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            2,
            vec![vec![Value::interval(0.0, 1.0), Value::interval(2.0, 3.0)]],
        );
        db.insert_tuples(
            "S",
            1,
            vec![vec![Value::Bits(BitString::parse("10").unwrap())]],
        );
        let csv = db.to_csv();
        let parsed = Database::from_csv(&csv).unwrap();
        assert_eq!(parsed, db);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header comment\n\n0..1,5\n";
        let rel = Relation::from_csv("R", 2, text, &SharedDictionary::new()).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel.tuples()[0],
            vec![Value::interval(0.0, 1.0), Value::point(5.0)]
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Relation::from_csv("R", 2, "0..1\n", &SharedDictionary::new()).unwrap_err();
        assert_eq!(err.line, 1);
        let err = Relation::from_csv("R", 1, "zzz\n", &SharedDictionary::new()).unwrap_err();
        assert!(err.message.contains("invalid value"));
        let err = Relation::from_csv("R", 1, "5..1\n", &SharedDictionary::new()).unwrap_err();
        assert!(err.message.contains("inverted"));
        let err = Database::from_csv("1,2\n").unwrap_err();
        assert!(err.message.contains("header"));
        // `NaN` and `inf` parse as `f64`; they are rejected, not loaded (and
        // never reach the NaN panic of `OrdF64::new`).
        for text in ["NaN\n", "nan..1\n", "1..NaN\n", "inf\n", "-inf..inf\n"] {
            let err = Relation::from_csv("R", 1, text, &SharedDictionary::new()).unwrap_err();
            assert_eq!(err.line, 1, "{text:?}");
            assert!(err.message.contains("non-finite"), "{text:?}: {err}");
        }
        // A database reports the line of the file, not of the relation body.
        let err = Database::from_csv("## R 1\n1\n2\n## S 1\n3\nzzz\n").unwrap_err();
        assert_eq!(err.line, 6);
        let err = Database::from_csv("## R 1\n\n1\n\n## S 2\n3\n").unwrap_err();
        assert_eq!(err.line, 6, "blank lines still count");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// `Relation::from_csv` and `Database::from_csv` return `Ok` or
        /// `Err` on any text — never unwind — and what they accept survives
        /// `to_csv` → `from_csv`.
        #[test]
        fn csv_parsers_reject_or_round_trip(
            text in crate::arb_parser_text(10),
            arity in 0usize..3,
        ) {
            if let Ok(rel) = Relation::from_csv("R", arity, &text, &SharedDictionary::new()) {
                let again = Relation::from_csv("R", arity, &rel.to_csv(), &SharedDictionary::new());
                proptest::prop_assert_eq!(again.as_ref(), Ok(&rel), "{:?}", text);
            }
            if let Ok(db) = Database::from_csv(&text) {
                let again = Database::from_csv(&db.to_csv());
                proptest::prop_assert_eq!(again.as_ref(), Ok(&db), "{:?}", text);
            }
        }
    }
}
