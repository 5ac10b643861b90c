//! Graph text format.
//!
//! §3.1: "Each graph is stored in a text file, which is then inputted into
//! the QAOA algorithm." The format used here is a minimal edge-list file:
//!
//! ```text
//! # optional comments
//! n <node-count>
//! e <u> <v> [weight]
//! e <u> <v> [weight]
//! ```
//!
//! Weights default to `1.0` when omitted, so unweighted dataset files stay
//! terse. [`write_graph`]/[`read_graph`] round-trip exactly.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::{Graph, GraphError, ParseError, ParseErrorKind};

/// Resource caps enforced while parsing untrusted graph text.
///
/// The parser is total — it never panics — but without caps a hostile
/// input can still declare a billion-node graph and make the caller
/// allocate it. `ParseLimits` bounds the input size, the declared node
/// count, and the edge count *before* any allocation proportional to them
/// happens. [`ParseLimits::default`] is sized for offline dataset files;
/// [`ParseLimits::serving`] is the strict profile a request path should
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum raw input length in bytes.
    pub max_bytes: usize,
    /// Maximum declared node count.
    pub max_nodes: usize,
    /// Maximum edge-record count.
    pub max_edges: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_bytes: 64 << 20,
            max_nodes: 1 << 20,
            max_edges: 1 << 24,
        }
    }
}

impl ParseLimits {
    /// Strict limits for parsing request payloads on a serving path:
    /// 1 MiB of text, 4096 nodes, 1M edges.
    pub fn serving() -> Self {
        ParseLimits {
            max_bytes: 1 << 20,
            max_nodes: 4096,
            max_edges: 1 << 20,
        }
    }
}

/// Serializes a graph to the text format.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), qgraph::GraphError> {
/// let g = qgraph::Graph::from_edges(3, &[(0, 1), (1, 2)])?;
/// let text = qgraph::io::graph_to_string(&g);
/// let back = qgraph::io::graph_from_str(&text)?;
/// assert_eq!(g, back);
/// # Ok(())
/// # }
/// ```
pub fn graph_to_string(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "n {}", graph.n());
    for e in graph.edges() {
        if e.weight == 1.0 {
            let _ = writeln!(out, "e {} {}", e.u, e.v);
        } else {
            let _ = writeln!(out, "e {} {} {}", e.u, e.v, e.weight);
        }
    }
    out
}

/// Parses a graph from the text format with [`ParseLimits::default`] caps.
///
/// # Errors
///
/// Returns a typed [`ParseError`] anchored to a 1-based line number.
/// Structural problems — self-loops, duplicate edges, non-finite weights,
/// out-of-range endpoints — are reported against the line that introduced
/// them, not as bare construction errors.
pub fn graph_from_str(text: &str) -> Result<Graph, ParseError> {
    graph_from_str_limited(text, &ParseLimits::default())
}

/// [`graph_from_str`] with caller-chosen resource caps — the entry point
/// for untrusted request payloads.
///
/// # Errors
///
/// Typed [`ParseError`]s; cap violations surface as
/// [`ParseErrorKind::InputTooLarge`], [`ParseErrorKind::TooManyNodes`] or
/// [`ParseErrorKind::TooManyEdges`] before any proportional allocation.
pub fn graph_from_str_limited(text: &str, limits: &ParseLimits) -> Result<Graph, ParseError> {
    if text.len() > limits.max_bytes {
        return Err(ParseError::new(
            0,
            ParseErrorKind::InputTooLarge {
                bytes: text.len(),
                cap: limits.max_bytes,
            },
        ));
    }
    let mut graph: Option<Graph> = None;
    let mut edges = 0usize;
    let mut pending: Vec<(usize, usize, f64, usize)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("n") => {
                let n: usize = parse_field(parts.next(), lineno, "node count")?;
                if graph.is_some() {
                    return Err(ParseError::new(lineno, ParseErrorKind::DuplicateHeader));
                }
                if n > limits.max_nodes {
                    return Err(ParseError::new(
                        lineno,
                        ParseErrorKind::TooManyNodes {
                            n,
                            cap: limits.max_nodes,
                        },
                    ));
                }
                if n == 0 {
                    return Err(ParseError::new(
                        lineno,
                        ParseErrorKind::Syntax("node count must be positive".into()),
                    ));
                }
                graph = Some(Graph::empty(n).expect("positive node count"));
            }
            Some("e") => {
                let u: usize = parse_field(parts.next(), lineno, "edge endpoint u")?;
                let v: usize = parse_field(parts.next(), lineno, "edge endpoint v")?;
                let w: f64 = match parts.next() {
                    Some(tok) => tok.parse().map_err(|_| {
                        ParseError::new(
                            lineno,
                            ParseErrorKind::Syntax(format!("invalid weight '{tok}'")),
                        )
                    })?,
                    None => 1.0,
                };
                if !w.is_finite() {
                    return Err(ParseError::new(lineno, ParseErrorKind::NonFiniteWeight(w)));
                }
                edges += 1;
                if edges > limits.max_edges {
                    return Err(ParseError::new(
                        lineno,
                        ParseErrorKind::TooManyEdges {
                            m: edges,
                            cap: limits.max_edges,
                        },
                    ));
                }
                pending.push((u, v, w, lineno));
            }
            Some(other) => {
                return Err(ParseError::new(
                    lineno,
                    ParseErrorKind::UnknownRecord(other.to_string()),
                ));
            }
            None => unreachable!("blank lines are skipped"),
        }
    }
    let mut graph = graph.ok_or(ParseError::new(0, ParseErrorKind::MissingHeader))?;
    for (u, v, w, lineno) in pending {
        graph.add_edge(u, v, w).map_err(|e| {
            let kind = match e {
                GraphError::SelfLoop(v) => ParseErrorKind::SelfLoop(v),
                GraphError::DuplicateEdge(u, v) => ParseErrorKind::DuplicateEdge(u, v),
                GraphError::NodeOutOfRange { node, n } => {
                    ParseErrorKind::NodeOutOfRange { node, n }
                }
                GraphError::InvalidWeight(w) => ParseErrorKind::NonFiniteWeight(w),
                other => ParseErrorKind::Syntax(other.to_string()),
            };
            ParseError::new(lineno, kind)
        })?;
    }
    Ok(graph)
}

fn parse_field<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    let tok = tok
        .ok_or_else(|| ParseError::new(line, ParseErrorKind::Syntax(format!("missing {what}"))))?;
    tok.parse().map_err(|_| {
        ParseError::new(
            line,
            ParseErrorKind::Syntax(format!("invalid {what} '{tok}'")),
        )
    })
}

/// Writes a graph to `path` in the text format.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_graph<P: AsRef<Path>>(graph: &Graph, path: P) -> io::Result<()> {
    fs::write(path, graph_to_string(graph))
}

/// Reads a graph from a text-format file.
///
/// # Errors
///
/// Returns an I/O error for filesystem failures; parse failures are wrapped
/// into [`io::ErrorKind::InvalidData`].
pub fn read_graph<P: AsRef<Path>>(path: P) -> io::Result<Graph> {
    let text = fs::read_to_string(path)?;
    graph_from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_unweighted() {
        let g = Graph::cycle(5).unwrap();
        let s = graph_to_string(&g);
        assert!(s.starts_with("n 5\n"));
        assert!(s.contains("e 0 1\n"));
        assert_eq!(graph_from_str(&s).unwrap(), g);
    }

    #[test]
    fn round_trip_weighted() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 2.5), (1, 2, 1.0)]).unwrap();
        let s = graph_to_string(&g);
        assert!(s.contains("e 0 1 2.5"));
        assert!(s.contains("e 1 2\n")); // weight-1 edges stay terse
        assert_eq!(graph_from_str(&s).unwrap(), g);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a graph\n\nn 2\n# edge below\ne 0 1\n";
        let g = graph_from_str(text).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = graph_from_str("n 2\ne 0\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Syntax(_)));
        assert_eq!(err.line, 2);
        let err = graph_from_str("x 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::new(1, ParseErrorKind::UnknownRecord("x".into()))
        );
        let err = graph_from_str("e 0 1\n").unwrap_err();
        assert_eq!(err, ParseError::new(0, ParseErrorKind::MissingHeader));
        let err = graph_from_str("n 2\nn 3\n").unwrap_err();
        assert_eq!(err, ParseError::new(2, ParseErrorKind::DuplicateHeader));
        let err = graph_from_str("n 2\ne 0 1 abc\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Syntax(_)));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn structural_errors_are_typed_with_line_numbers() {
        let err = graph_from_str("n 2\ne 0 5\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::new(2, ParseErrorKind::NodeOutOfRange { node: 5, n: 2 })
        );
        let err = graph_from_str("n 2\ne 0 0\n").unwrap_err();
        assert_eq!(err, ParseError::new(2, ParseErrorKind::SelfLoop(0)));
        let err = graph_from_str("n 3\ne 0 1\n# comment\ne 1 0 2.0\n").unwrap_err();
        assert_eq!(err, ParseError::new(4, ParseErrorKind::DuplicateEdge(0, 1)));
        // Legacy conversion keeps the line number.
        let legacy: GraphError = err.into();
        assert!(matches!(legacy, GraphError::Parse { line: 4, .. }));
    }

    #[test]
    fn non_finite_weights_rejected_at_parse_time() {
        for tok in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("n 2\ne 0 1 {tok}\n");
            let err = graph_from_str(&text).unwrap_err();
            assert!(
                matches!(err.kind, ParseErrorKind::NonFiniteWeight(_)),
                "token {tok} gave {err:?}"
            );
            assert_eq!(err.line, 2, "token {tok}");
        }
    }

    #[test]
    fn zero_node_header_rejected() {
        let err = graph_from_str("n 0\n").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Syntax(_)));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn limits_are_enforced_before_allocation() {
        let limits = ParseLimits {
            max_bytes: 64,
            max_nodes: 10,
            max_edges: 2,
        };
        let big = "#".repeat(100);
        assert!(matches!(
            graph_from_str_limited(&big, &limits).unwrap_err().kind,
            ParseErrorKind::InputTooLarge {
                bytes: 100,
                cap: 64
            }
        ));
        // A huge declared node count is refused without building the graph.
        assert!(matches!(
            graph_from_str_limited("n 99999999\n", &limits)
                .unwrap_err()
                .kind,
            ParseErrorKind::TooManyNodes {
                n: 99999999,
                cap: 10
            }
        ));
        let err = graph_from_str_limited("n 4\ne 0 1\ne 1 2\ne 2 3\n", &limits).unwrap_err();
        assert_eq!(
            err,
            ParseError::new(4, ParseErrorKind::TooManyEdges { m: 3, cap: 2 })
        );
        // Within limits parses as usual.
        let g = graph_from_str_limited("n 3\ne 0 1\ne 1 2\n", &limits).unwrap();
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn serving_limits_are_stricter_than_default() {
        let d = ParseLimits::default();
        let s = ParseLimits::serving();
        assert!(s.max_bytes < d.max_bytes);
        assert!(s.max_nodes < d.max_nodes);
        assert!(s.max_edges < d.max_edges);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("qgraph_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = Graph::complete(4).unwrap();
        write_graph(&g, &path).unwrap();
        let back = read_graph(&path).unwrap();
        assert_eq!(g, back);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        assert!(read_graph("/nonexistent/definitely/missing.txt").is_err());
    }
}
