//! Plain-text serialization of instances and schemes.
//!
//! A small line-oriented format (no external parser dependencies) so the
//! CLI and scripts can exchange problems and solutions:
//!
//! ```text
//! drp-instance v1
//! sites 3
//! objects 2
//! costs 0 1 2  1 0 1  2 1 0
//! capacities 30 30 30
//! sizes 10 5
//! primaries 0 2
//! reads 0 3  4 0  6 0
//! writes 1 0  2 0  0 1
//! ```
//!
//! `costs` is the `M × M` matrix row-major; `reads`/`writes` are `M × N`
//! row-major (one row per site). Blank lines and `#` comments are ignored.
//! The scheme format lists, for every object, its replicator sites:
//!
//! ```text
//! drp-scheme v1
//! sites 3
//! objects 2
//! object 0 replicas 0 2
//! object 1 replicas 2
//! ```

use std::error::Error;
use std::fmt;

use drp_net::CostMatrix;

use crate::{DenseMatrix, ObjectId, Problem, ReplicationScheme, SiteId};

/// Errors produced when parsing the text formats.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FormatError {
    /// The header line was missing or wrong.
    BadHeader {
        /// What was expected.
        expected: &'static str,
    },
    /// A required field was missing.
    MissingField {
        /// Field keyword.
        field: &'static str,
    },
    /// A line failed to parse.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The parsed data failed instance/scheme validation.
    Invalid {
        /// Underlying reason.
        reason: String,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadHeader { expected } => {
                write!(f, "bad header: expected `{expected}`")
            }
            FormatError::MissingField { field } => write!(f, "missing field `{field}`"),
            FormatError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            FormatError::Invalid { reason } => write!(f, "invalid data: {reason}"),
        }
    }
}

impl Error for FormatError {}

/// Renders a problem in the `drp-instance v1` format.
pub fn write_instance(problem: &Problem) -> String {
    use std::fmt::Write;
    let m = problem.num_sites();
    let n = problem.num_objects();
    let mut out = String::new();
    let _ = writeln!(out, "drp-instance v1");
    let _ = writeln!(out, "sites {m}");
    let _ = writeln!(out, "objects {n}");
    let mut costs = Vec::with_capacity(m * m);
    for i in 0..m {
        costs.extend(problem.costs().row(i).iter().map(|c| c.to_string()));
    }
    let _ = writeln!(out, "costs {}", costs.join(" "));
    let _ = writeln!(
        out,
        "capacities {}",
        problem
            .sites()
            .map(|i| problem.capacity(i).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "sizes {}",
        problem
            .objects()
            .map(|k| problem.object_size(k).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "primaries {}",
        problem
            .objects()
            .map(|k| problem.primary(k).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let flat = |table: &DenseMatrix<u64>| -> String {
        table
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "reads {}", flat(problem.read_matrix()));
    let _ = writeln!(out, "writes {}", flat(problem.write_matrix()));
    out
}

struct FieldParser<'a> {
    lines: Vec<(usize, &'a str)>,
}

impl<'a> FieldParser<'a> {
    fn new(text: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        Self { lines }
    }

    fn header(&self, expected: &'static str) -> Result<(), FormatError> {
        match self.lines.first() {
            Some((_, line)) if *line == expected => Ok(()),
            _ => Err(FormatError::BadHeader { expected }),
        }
    }

    fn field(&self, keyword: &'static str) -> Result<(usize, &'a str), FormatError> {
        self.lines
            .iter()
            .find_map(|&(num, line)| {
                line.strip_prefix(keyword).and_then(|rest| {
                    rest.starts_with(char::is_whitespace)
                        .then(|| (num, rest.trim()))
                })
            })
            .ok_or(FormatError::MissingField { field: keyword })
    }

    fn numbers(&self, keyword: &'static str, expected_len: usize) -> Result<Vec<u64>, FormatError> {
        let (line, body) = self.field(keyword)?;
        let values: Result<Vec<u64>, _> = body.split_whitespace().map(str::parse).collect();
        let values = values.map_err(|e| FormatError::BadLine {
            line,
            reason: format!("bad number in `{keyword}`: {e}"),
        })?;
        if values.len() != expected_len {
            return Err(FormatError::BadLine {
                line,
                reason: format!(
                    "`{keyword}` expected {expected_len} values, got {}",
                    values.len()
                ),
            });
        }
        Ok(values)
    }

    fn scalar(&self, keyword: &'static str) -> Result<usize, FormatError> {
        let values = self.numbers(keyword, 1)?;
        Ok(values[0] as usize)
    }
}

/// Parses the `drp-instance v1` format.
///
/// # Errors
///
/// Returns a [`FormatError`] describing the first syntactic or semantic
/// problem (including cost-matrix and capacity validation).
pub fn read_instance(text: &str) -> Result<Problem, FormatError> {
    let parser = FieldParser::new(text);
    parser.header("drp-instance v1")?;
    let m = parser.scalar("sites")?;
    let n = parser.scalar("objects")?;
    let (Some(cells), Some(traffic)) = (m.checked_mul(m), m.checked_mul(n)) else {
        return Err(FormatError::Invalid {
            reason: format!("a {m}x{n} instance is too large"),
        });
    };
    let costs = parser.numbers("costs", cells)?;
    let capacities = parser.numbers("capacities", m)?;
    let sizes = parser.numbers("sizes", n)?;
    let primaries = parser.numbers("primaries", n)?;
    let reads = parser.numbers("reads", traffic)?;
    let writes = parser.numbers("writes", traffic)?;

    let costs = CostMatrix::from_rows(m, costs).map_err(|e| FormatError::Invalid {
        reason: e.to_string(),
    })?;
    let reads = DenseMatrix::from_rows(m, n, reads).expect("length checked");
    let writes = DenseMatrix::from_rows(m, n, writes).expect("length checked");
    let mut builder = Problem::builder(costs);
    builder.objects_bulk(
        sizes,
        primaries
            .into_iter()
            .map(|p| SiteId::new(p as usize))
            .collect(),
    );
    builder.capacities(capacities);
    builder.read_matrix(reads);
    builder.write_matrix(writes);
    builder.build().map_err(|e| FormatError::Invalid {
        reason: e.to_string(),
    })
}

/// Renders a scheme in the `drp-scheme v1` format.
pub fn write_scheme(scheme: &ReplicationScheme) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "drp-scheme v1");
    let _ = writeln!(out, "sites {}", scheme.num_sites());
    let _ = writeln!(out, "objects {}", scheme.num_objects());
    for k in 0..scheme.num_objects() {
        let object = ObjectId::new(k);
        let replicas: Vec<String> = scheme.replicators(object).map(|s| s.to_string()).collect();
        let _ = writeln!(out, "object {k} replicas {}", replicas.join(" "));
    }
    out
}

/// Parses the `drp-scheme v1` format against an instance, revalidating
/// every invariant.
///
/// # Errors
///
/// Returns a [`FormatError`] on syntax errors, dimension mismatches,
/// missing primaries or capacity violations.
pub fn read_scheme(text: &str, problem: &Problem) -> Result<ReplicationScheme, FormatError> {
    let parser = FieldParser::new(text);
    parser.header("drp-scheme v1")?;
    let m = parser.scalar("sites")?;
    let n = parser.scalar("objects")?;
    if m != problem.num_sites() || n != problem.num_objects() {
        return Err(FormatError::Invalid {
            reason: format!(
                "scheme is {m}x{n}, instance is {}x{}",
                problem.num_sites(),
                problem.num_objects()
            ),
        });
    }
    let mut replicas: Vec<Option<Vec<usize>>> = vec![None; n];
    for &(line, body) in &parser.lines {
        let Some(rest) = body.strip_prefix("object ") else {
            continue;
        };
        let mut parts = rest.split_whitespace();
        let object: usize =
            parts
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or(FormatError::BadLine {
                    line,
                    reason: "bad object id".into(),
                })?;
        if object >= n {
            return Err(FormatError::BadLine {
                line,
                reason: format!("object {object} out of range for {n} objects"),
            });
        }
        if parts.next() != Some("replicas") {
            return Err(FormatError::BadLine {
                line,
                reason: "expected `replicas` keyword".into(),
            });
        }
        let sites: Result<Vec<usize>, _> = parts.map(str::parse).collect();
        let sites = sites.map_err(|e| FormatError::BadLine {
            line,
            reason: format!("bad site id: {e}"),
        })?;
        replicas[object] = Some(sites);
    }
    for (k, slot) in replicas.iter().enumerate() {
        if slot.is_none() {
            return Err(FormatError::Invalid {
                reason: format!("object {k} has no `object {k} replicas ...` line"),
            });
        }
    }

    let scheme = ReplicationScheme::from_fn(problem, |site, object| {
        replicas[object.index()]
            .as_ref()
            .is_some_and(|sites| sites.contains(&site.index()))
    })
    .map_err(|e| FormatError::Invalid {
        reason: e.to_string(),
    })?;

    // Every listed site must be in range (from_fn silently ignores ids ≥ M,
    // so check explicitly) and the primary must have been listed.
    for (k, sites) in replicas.iter().enumerate() {
        let sites = sites.as_ref().expect("checked above");
        for &site in sites {
            if site >= m {
                return Err(FormatError::Invalid {
                    reason: format!("object {k} lists site {site}, network has {m} sites"),
                });
            }
        }
        let primary = problem.primary(ObjectId::new(k)).index();
        if !sites.contains(&primary) {
            return Err(FormatError::Invalid {
                reason: format!("object {k} is missing its primary site {primary}"),
            });
        }
    }
    Ok(scheme)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_problem() -> Problem {
        let costs = CostMatrix::from_rows(3, vec![0, 1, 2, 1, 0, 1, 2, 1, 0]).unwrap();
        Problem::builder(costs)
            .capacities(vec![30, 30, 30])
            .object(10, SiteId::new(0))
            .reads(vec![0, 4, 6])
            .writes(vec![1, 2, 0])
            .object(5, SiteId::new(2))
            .reads(vec![3, 0, 0])
            .writes(vec![0, 0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn instance_round_trips() {
        let p = sample_problem();
        let text = write_instance(&p);
        let back = read_instance(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn scheme_round_trips() {
        let p = sample_problem();
        let mut s = ReplicationScheme::primary_only(&p);
        s.add_replica(&p, SiteId::new(1), ObjectId::new(1)).unwrap();
        let text = write_scheme(&s);
        let back = read_scheme(&text, &p).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let p = sample_problem();
        let mut text = String::from("# a comment\n\n");
        text.push_str(&write_instance(&p));
        text.push_str("\n# trailing\n");
        assert_eq!(read_instance(&text).unwrap(), p);
    }

    #[test]
    fn header_is_required() {
        assert!(matches!(
            read_instance("sites 3\n"),
            Err(FormatError::BadHeader { .. })
        ));
        let p = sample_problem();
        assert!(matches!(
            read_scheme("drp-instance v1\n", &p),
            Err(FormatError::BadHeader { .. })
        ));
    }

    #[test]
    fn missing_and_malformed_fields_are_reported() {
        let text = "drp-instance v1\nsites 2\nobjects 1\n";
        assert!(matches!(
            read_instance(text),
            Err(FormatError::MissingField { field: "costs" })
        ));
        let text = "drp-instance v1\nsites 2\nobjects 1\ncosts 0 x 1 0\n";
        assert!(matches!(
            read_instance(text),
            Err(FormatError::BadLine { .. })
        ));
        let text = "drp-instance v1\nsites 2\nobjects 1\ncosts 0 1 1\n";
        assert!(matches!(
            read_instance(text),
            Err(FormatError::BadLine { .. })
        ));
    }

    #[test]
    fn semantic_validation_applies() {
        // Asymmetric cost matrix is rejected by CostMatrix validation.
        let text = "drp-instance v1\nsites 2\nobjects 1\ncosts 0 1 2 0\n\
                    capacities 10 10\nsizes 5\nprimaries 0\nreads 1 1\nwrites 0 0\n";
        assert!(matches!(
            read_instance(text),
            Err(FormatError::Invalid { .. })
        ));
    }

    #[test]
    fn scheme_validation_catches_bad_data() {
        let p = sample_problem();
        // Missing object line.
        let text = "drp-scheme v1\nsites 3\nobjects 2\nobject 0 replicas 0\n";
        assert!(matches!(
            read_scheme(text, &p),
            Err(FormatError::Invalid { .. })
        ));
        // Replica set missing the primary.
        let text = "drp-scheme v1\nsites 3\nobjects 2\nobject 0 replicas 1\nobject 1 replicas 2\n";
        assert!(matches!(
            read_scheme(text, &p),
            Err(FormatError::Invalid { .. })
        ));
        // Site out of range.
        let text =
            "drp-scheme v1\nsites 3\nobjects 2\nobject 0 replicas 0 9\nobject 1 replicas 2\n";
        assert!(matches!(
            read_scheme(text, &p),
            Err(FormatError::Invalid { .. })
        ));
        // Dimension mismatch.
        let text = "drp-scheme v1\nsites 5\nobjects 2\nobject 0 replicas 0\nobject 1 replicas 2\n";
        assert!(matches!(
            read_scheme(text, &p),
            Err(FormatError::Invalid { .. })
        ));
    }

    #[test]
    fn near_max_costs_give_a_result_or_a_typed_error() {
        let instance = |costs: [u64; 9]| {
            let costs: Vec<String> = costs.iter().map(u64::to_string).collect();
            format!(
                "drp-instance v1\nsites 3\nobjects 1\ncosts {}\ncapacities 9 9 9\n\
                 sizes 1\nprimaries 0\nreads 1 1 1\nwrites 0 0 0\n",
                costs.join(" ")
            )
        };
        // A metric whose pairwise sums overflow u64.
        let x = u64::MAX - 1;
        match read_instance(&instance([0, x, x, x, 0, x, x, x, 0])) {
            Ok(p) => assert_eq!(p.costs().cost(0, 2), x),
            Err(FormatError::Invalid { reason }) => {
                assert!(!reason.contains("triangle"), "{reason}");
            }
            Err(other) => panic!("unexpected error {other}"),
        }
        // C(0,2) exceeds C(0,1) + C(1,2) = u64::MAX - 2 by one.
        let (a, b) = (u64::MAX / 2, u64::MAX / 2 - 1);
        match read_instance(&instance([0, a, x, a, 0, b, x, b, 0])) {
            Err(FormatError::Invalid { reason }) => assert!(
                reason.ends_with("triangle inequality violated: C(0,2) > C(0,1) + C(1,2)"),
                "{reason}"
            ),
            other => panic!("expected a triangle violation, got {other:?}"),
        }
        // A site count whose cost table overflows usize.
        let huge = "drp-instance v1\nsites 18446744073709551615\nobjects 3\ncosts 0\n";
        assert!(matches!(
            read_instance(huge),
            Err(FormatError::Invalid { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = FormatError::BadLine {
            line: 4,
            reason: "boom".into(),
        };
        assert_eq!(e.to_string(), "line 4: boom");
        assert!(FormatError::MissingField { field: "reads" }
            .to_string()
            .contains("reads"));
    }
}
