//! Hand-rolled JSON encoding and decoding for run artifacts, training
//! checkpoints and the configurations inside them.
//!
//! The workspace is hermetic (no external crates), so the serialization the
//! pipeline needs — a [`PipelineConfig`] with its trained weights and
//! reports in a run artifact, a training checkpoint's state — is
//! implemented here directly: a small [`Json`] value tree, a
//! recursive-descent parser, a writer, and [`ToJson`]/[`FromJson`] impls
//! for every persisted struct.
//!
//! Numbers are kept as parsed ([`Number::U64`]/[`Number::I64`]/
//! [`Number::F64`]) so 64-bit seeds survive a round trip exactly; floats are
//! written with Rust's shortest-round-trip `{:?}` formatting. The matrices
//! of a training checkpoint's state are the exception: they are written as
//! hex strings of their `f64::to_bits`, which copy and parse faster.

use std::fmt::{self, Write as _};

use gnn::train::{DivergenceEvent, EpochStats, TrainConfig, TrainHistory, TrainState};
use gnn::{GnnKind, ModelConfig, ModelWeights, Readout};
use qgraph::features::FeatureConfig;
use qgraph::generate::DatasetSpec;
use tensor::optim::Adam;
use tensor::Matrix;

use crate::dataset::{FailurePolicy, LabelConfig, LabelFailure, LabelFailureReason, LabelReport};
use crate::eval::EvalConfig;
use crate::pipeline::PipelineConfig;
use crate::sdp::SdpConfig;

/// A JSON numeric value, preserving the lexical class it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer without fraction or exponent.
    U64(u64),
    /// Negative integer without fraction or exponent.
    I64(i64),
    /// Anything with a fraction or exponent.
    F64(f64),
}

impl Number {
    /// The value as a float (lossy for integers beyond 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }
}

/// A JSON value tree. Object keys keep insertion order so output is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list.
    Obj(Vec<(String, Json)>),
}

/// Errors from [`Json::parse`] or [`FromJson`] decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Convenience constructor for integer-valued numbers.
    pub fn uint(v: u64) -> Json {
        Json::Num(Number::U64(v))
    }

    /// Convenience constructor for float-valued numbers.
    pub fn float(v: f64) -> Json {
        Json::Num(Number::F64(v))
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(n.as_f64()),
            other => err(format!("expected number, found {other:?}")),
        }
    }

    /// The value as `u64`, if a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(Number::U64(v)) => Ok(*v),
            other => err(format!("expected unsigned integer, found {other:?}")),
        }
    }

    /// The value as `usize`, if a non-negative integer that fits.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| JsonError(format!("{v} does not fit in usize")))
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, found {other:?}")),
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, found {other:?}")),
        }
    }

    /// The value as an object's key–value list.
    pub fn as_obj(&self) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => err(format!("expected object, found {other:?}")),
        }
    }

    /// Looks up a required object field.
    pub fn get(&self, key: &str) -> Result<&Json, JsonError> {
        let fields = self.as_obj()?;
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError(format!("missing field '{key}'")))
    }

    /// Looks up an optional object field (`None` when absent or `null`).
    pub fn get_opt(&self, key: &str) -> Result<Option<&Json>, JsonError> {
        let fields = self.as_obj()?;
        Ok(fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .filter(|v| !matches!(v, Json::Null)))
    }

    /// Parses a JSON document.
    ///
    /// Accepts the standard grammar (objects, arrays, strings with escapes,
    /// numbers, booleans, null); rejects trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes compactly (no whitespace).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Writes this value into `out` at nesting `depth`, pretty-printed with
    /// `indent` spaces per level or compact when `indent` is `None`.
    pub(crate) fn write<S: JsonSink>(&self, out: &mut S, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.token("null"),
            Json::Bool(b) => out.token(if *b { "true" } else { "false" }),
            Json::Num(Number::U64(v)) => {
                let _ = write!(Tokens(out), "{v}");
            }
            Json::Num(Number::I64(v)) => {
                let _ = write!(Tokens(out), "{v}");
            }
            Json::Num(Number::F64(v)) => write_f64(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.token("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.token(",");
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, indent, depth);
                }
                out.token("]");
            }
            Json::Obj(fields) => {
                let mut obj = ObjWriter::begin(out, indent, depth);
                for (key, value) in fields {
                    obj.key(out, key);
                    value.write(out, indent, depth + 1);
                }
                obj.end(out);
            }
        }
    }
}

/// Where [`Json::write`] sends its output. The compact form's bytes arrive
/// through [`JsonSink::token`]; the pretty form adds only layout —
/// newlines, indentation and the space after `:` — which arrives through
/// [`JsonSink::layout`]. So a sink that drops layout sees exactly the
/// compact bytes, even while the pretty form is being written.
pub(crate) trait JsonSink {
    /// Bytes of the compact form.
    fn token(&mut self, s: &str);
    /// Pretty-printing whitespace outside strings.
    fn layout(&mut self, s: &str);
}

impl JsonSink for String {
    fn token(&mut self, s: &str) {
        self.push_str(s);
    }

    fn layout(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// A sink's token stream as `fmt::Write`, so numbers are formatted straight
/// into it.
struct Tokens<'a, S>(&'a mut S);

impl<S: JsonSink> fmt::Write for Tokens<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.token(s);
        Ok(())
    }
}

/// Writes one object field by field in [`Json::write`]'s layout: `begin`,
/// then `key` before each value, then `end`. The sealed-file writer uses it
/// to stream a file whose values are written as they are produced.
pub(crate) struct ObjWriter {
    indent: Option<usize>,
    depth: usize,
    fields: usize,
}

impl ObjWriter {
    /// Opens an object at nesting `depth`.
    pub(crate) fn begin<S: JsonSink>(out: &mut S, indent: Option<usize>, depth: usize) -> Self {
        out.token("{");
        ObjWriter {
            indent,
            depth,
            fields: 0,
        }
    }

    /// Writes the separator and `"key": ` before the next value, which the
    /// caller writes at `depth + 1`.
    pub(crate) fn key<S: JsonSink>(&mut self, out: &mut S, key: &str) {
        if self.fields > 0 {
            out.token(",");
        }
        self.fields += 1;
        newline(out, self.indent, self.depth + 1);
        write_string(out, key);
        out.token(":");
        if self.indent.is_some() {
            out.layout(" ");
        }
    }

    /// Closes the object.
    pub(crate) fn end<S: JsonSink>(self, out: &mut S) {
        if self.fields > 0 {
            newline(out, self.indent, self.depth);
        }
        out.token("}");
    }
}

fn newline<S: JsonSink>(out: &mut S, indent: Option<usize>, depth: usize) {
    const SPACES: &str = "                                ";
    if let Some(width) = indent {
        out.layout("\n");
        let mut left = width * depth;
        while left > 0 {
            let run = left.min(SPACES.len());
            out.layout(&SPACES[..run]);
            left -= run;
        }
    }
}

/// Writes a float with shortest-round-trip formatting; non-finite values
/// (which JSON cannot represent) become `null`.
fn write_f64<S: JsonSink>(out: &mut S, v: f64) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest representation that parses back exactly.
        let _ = write!(Tokens(out), "{v:?}");
    } else {
        out.token("null");
    }
}

fn write_string<S: JsonSink>(out: &mut S, s: &str) {
    out.token("\"");
    // Unescaped runs go out as slices of `s`. Every byte that needs
    // escaping is ASCII, hence a char boundary, so the scans run over
    // bytes. The first has no branch, so it vectorizes: a string with
    // nothing to escape, such as a checkpoint's hex digits, is one token.
    let mut run = 0;
    let needs_escape = |b: u8| (b == b'"') | (b == b'\\') | (b < 0x20);
    let escapes = s.bytes().fold(false, |any, b| any | needs_escape(b));
    let scan = if escapes { s.as_bytes() } else { &[] };
    for (i, &b) in scan.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            b if b < 0x20 => "",
            _ => continue,
        };
        out.token(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(Tokens(out), "\\u{b:04x}");
        } else {
            out.token(escape);
        }
        run = i + 1;
    }
    out.token(&s[run..]);
    out.token("\"");
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes, then handle the interesting one.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape".into()))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("bad codepoint".into()))?,
                            );
                        }
                        other => return err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => return err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        let number = if is_float {
            Number::F64(
                text.parse::<f64>()
                    .map_err(|_| JsonError(format!("bad number '{text}'")))?,
            )
        } else if let Some(rest) = text.strip_prefix('-') {
            let _ = rest;
            Number::I64(
                text.parse::<i64>()
                    .map_err(|_| JsonError(format!("bad integer '{text}'")))?,
            )
        } else {
            Number::U64(
                text.parse::<u64>()
                    .map_err(|_| JsonError(format!("bad integer '{text}'")))?,
            )
        };
        Ok(Json::Num(number))
    }
}

/// Converts a value to its JSON representation.
pub trait ToJson {
    /// Builds the JSON tree for this value.
    fn to_json(&self) -> Json;
}

/// Reconstructs a value from its JSON representation.
pub trait FromJson: Sized {
    /// Decodes the value; unknown fields are ignored, missing ones error.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl ToJson for LabelConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("depth", Json::uint(self.depth as u64)),
            ("iterations", Json::uint(self.iterations as u64)),
            ("threads", Json::uint(self.threads as u64)),
            // A fixed field: simulation is always serial now, but artifacts
            // and `train_identity` hash this object, so its bytes stay.
            ("sim_threads", Json::uint(0)),
            // A fixed field: isomorphic graphs are always labeled on their
            // own, but artifacts and `train_identity` hash this object.
            ("dedupe_isomorphic", Json::Bool(false)),
        ])
    }
}

impl FromJson for LabelConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(LabelConfig {
            depth: json.get("depth")?.as_usize()?,
            iterations: json.get("iterations")?.as_usize()?,
            threads: json.get("threads")?.as_usize()?,
        })
    }
}

impl ToJson for DatasetSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("count", Json::uint(self.count as u64)),
            ("min_nodes", Json::uint(self.min_nodes as u64)),
            ("max_nodes", Json::uint(self.max_nodes as u64)),
            ("min_degree", Json::uint(self.min_degree as u64)),
            ("max_degree", Json::uint(self.max_degree as u64)),
        ])
    }
}

impl FromJson for DatasetSpec {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DatasetSpec {
            count: json.get("count")?.as_usize()?,
            min_nodes: json.get("min_nodes")?.as_usize()?,
            max_nodes: json.get("max_nodes")?.as_usize()?,
            min_degree: json.get("min_degree")?.as_usize()?,
            max_degree: json.get("max_degree")?.as_usize()?,
        })
    }
}

impl ToJson for SdpConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("threshold", Json::float(self.threshold)),
            ("selective_rate", Json::float(self.selective_rate)),
        ])
    }
}

impl FromJson for SdpConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let threshold = json.get("threshold")?.as_f64()?;
        let selective_rate = json.get("selective_rate")?.as_f64()?;
        if !(0.0..=1.0).contains(&threshold) || !(0.0..=1.0).contains(&selective_rate) {
            return err("SdpConfig values must be in [0, 1]");
        }
        Ok(SdpConfig::new(threshold, selective_rate))
    }
}

impl ToJson for FeatureConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("one_hot_dim", Json::uint(self.one_hot_dim as u64)),
            ("include_degree", Json::Bool(self.include_degree)),
        ])
    }
}

impl FromJson for FeatureConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(FeatureConfig {
            one_hot_dim: json.get("one_hot_dim")?.as_usize()?,
            include_degree: json.get("include_degree")?.as_bool()?,
        })
    }
}

impl ToJson for Readout {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Readout::Mean => "mean",
                Readout::Sum => "sum",
                Readout::Max => "max",
            }
            .to_string(),
        )
    }
}

impl FromJson for Readout {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str()? {
            "mean" => Ok(Readout::Mean),
            "sum" => Ok(Readout::Sum),
            "max" => Ok(Readout::Max),
            other => err(format!("unknown readout '{other}'")),
        }
    }
}

impl ToJson for ModelConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("features", self.features.to_json()),
            ("hidden_dim", Json::uint(self.hidden_dim as u64)),
            ("layers", Json::uint(self.layers as u64)),
            ("dropout", Json::float(self.dropout)),
            ("leaky_slope", Json::float(self.leaky_slope)),
            ("gin_eps", Json::float(self.gin_eps)),
            ("readout", self.readout.to_json()),
        ])
    }
}

impl FromJson for ModelConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ModelConfig {
            features: FeatureConfig::from_json(json.get("features")?)?,
            hidden_dim: json.get("hidden_dim")?.as_usize()?,
            layers: json.get("layers")?.as_usize()?,
            dropout: json.get("dropout")?.as_f64()?,
            leaky_slope: json.get("leaky_slope")?.as_f64()?,
            gin_eps: json.get("gin_eps")?.as_f64()?,
            readout: Readout::from_json(json.get("readout")?)?,
        })
    }
}

impl ToJson for GnnKind {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                GnnKind::Gcn => "gcn",
                GnnKind::Gat => "gat",
                GnnKind::Gin => "gin",
                GnnKind::Sage => "sage",
            }
            .to_string(),
        )
    }
}

impl FromJson for GnnKind {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str()? {
            "gcn" => Ok(GnnKind::Gcn),
            "gat" => Ok(GnnKind::Gat),
            "gin" => Ok(GnnKind::Gin),
            "sage" => Ok(GnnKind::Sage),
            other => err(format!("unknown architecture '{other}'")),
        }
    }
}

impl ToJson for Matrix {
    fn to_json(&self) -> Json {
        obj(vec![
            ("rows", Json::uint(self.rows() as u64)),
            ("cols", Json::uint(self.cols() as u64)),
            (
                "data",
                Json::Arr(self.data().iter().map(|&v| Json::float(v)).collect()),
            ),
        ])
    }
}

impl FromJson for Matrix {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let rows = json.get("rows")?.as_usize()?;
        let cols = json.get("cols")?.as_usize()?;
        if rows == 0 || cols == 0 {
            return err(format!(
                "matrix dimensions must be positive, got {rows}x{cols}"
            ));
        }
        let expected = rows
            .checked_mul(cols)
            .ok_or_else(|| JsonError(format!("matrix size {rows}x{cols} overflows")))?;
        let entries = json.get("data")?.as_arr()?;
        if entries.len() != expected {
            return err(format!(
                "matrix {rows}x{cols} needs {expected} entries, found {}",
                entries.len()
            ));
        }
        // Weights must be finite; a `null` here (the encoding of NaN/±∞)
        // or any non-numeric entry is data corruption, not a valid weight.
        let data = entries
            .iter()
            .map(Json::as_f64)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Matrix::from_flat(rows, cols, data))
    }
}

impl ToJson for ModelWeights {
    fn to_json(&self) -> Json {
        obj(vec![
            ("kind", self.kind.to_json()),
            ("config", self.config.to_json()),
            (
                "params",
                Json::Arr(self.params.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for ModelWeights {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ModelWeights {
            kind: GnnKind::from_json(json.get("kind")?)?,
            config: ModelConfig::from_json(json.get("config")?)?,
            params: json
                .get("params")?
                .as_arr()?
                .iter()
                .map(Matrix::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for TrainConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("epochs", Json::uint(self.epochs as u64)),
            ("learning_rate", Json::float(self.learning_rate)),
            ("shuffle", Json::Bool(self.shuffle)),
        ])
    }
}

impl FromJson for TrainConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(TrainConfig {
            epochs: json.get("epochs")?.as_usize()?,
            learning_rate: json.get("learning_rate")?.as_f64()?,
            shuffle: json.get("shuffle")?.as_bool()?,
        })
    }
}

impl ToJson for EvalConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            (
                "refine_iterations",
                Json::uint(self.refine_iterations as u64),
            ),
            ("depth", Json::uint(self.depth as u64)),
        ])
    }
}

impl FromJson for EvalConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EvalConfig {
            refine_iterations: json.get("refine_iterations")?.as_usize()?,
            depth: json.get("depth")?.as_usize()?,
        })
    }
}

/// Lowercase hex digits, by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's value as a lowercase hex digit, or `0xff` when it is not one.
static HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        table[HEX_DIGITS[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// A checkpointed matrix as `{"rows", "cols", "bits"}`: `bits` is every
/// entry's [`f64::to_bits`] as 16 lowercase hex digits, in row-major order.
/// Writing and reading copy exact bits, with no decimal formatting or
/// parsing; the run artifact keeps [`Matrix`]'s decimal form.
fn matrix_bits_to_json(matrix: &Matrix) -> Json {
    let mut bits = Vec::with_capacity(16 * matrix.data().len());
    for v in matrix.data() {
        let word = v.to_bits();
        bits.extend(
            (0..16)
                .rev()
                .map(|i| HEX_DIGITS[(word >> (4 * i)) as usize & 0xf]),
        );
    }
    obj(vec![
        ("rows", Json::uint(matrix.rows() as u64)),
        ("cols", Json::uint(matrix.cols() as u64)),
        (
            "bits",
            Json::Str(String::from_utf8(bits).expect("hex digits are ASCII")),
        ),
    ])
}

/// Decodes [`matrix_bits_to_json`]. Both dimensions must be positive, the
/// digit count must be exactly `16·rows·cols` (checked before allocating),
/// every digit `[0-9a-f]`, and every entry finite: a non-finite weight or
/// moment is data corruption, as the decimal form's `null` is.
fn matrix_bits_from_json(json: &Json) -> Result<Matrix, JsonError> {
    let rows = json.get("rows")?.as_usize()?;
    let cols = json.get("cols")?.as_usize()?;
    if rows == 0 || cols == 0 {
        return err(format!(
            "matrix dimensions must be positive, got {rows}x{cols}"
        ));
    }
    let digits = rows
        .checked_mul(cols)
        .and_then(|entries| entries.checked_mul(16))
        .ok_or_else(|| JsonError(format!("matrix size {rows}x{cols} overflows")))?;
    let bits = json.get("bits")?.as_str()?.as_bytes();
    if bits.len() != digits {
        return err(format!(
            "matrix {rows}x{cols} needs {digits} hex digits, found {}",
            bits.len()
        ));
    }
    let data = bits
        .chunks_exact(16)
        .enumerate()
        .map(|(entry, hex)| {
            // Branch-free per digit; a non-digit sets the high nibble of
            // `invalid`.
            let (word, invalid) = hex.iter().fold((0u64, 0u8), |(word, invalid), &d| {
                let value = HEX_VALUE[usize::from(d)];
                (word << 4 | u64::from(value & 0xf), invalid | value)
            });
            if invalid > 0xf {
                let d = hex.iter().find(|&&d| HEX_VALUE[usize::from(d)] > 0xf);
                let d = char::from(*d.expect("an invalid digit"));
                return err(format!("entry {entry}: {d:?} is not a lowercase hex digit"));
            }
            let v = f64::from_bits(word);
            if !v.is_finite() {
                return err(format!("entry {entry} is not finite ({word:#018x})"));
            }
            Ok(v)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Matrix::from_flat(rows, cols, data))
}

fn matrices_to_json(matrices: &[Matrix]) -> Json {
    Json::Arr(matrices.iter().map(matrix_bits_to_json).collect())
}

fn matrices_from_json(json: &Json) -> Result<Vec<Matrix>, JsonError> {
    json.as_arr()?.iter().map(matrix_bits_from_json).collect()
}

impl ToJson for Adam {
    fn to_json(&self) -> Json {
        obj(vec![
            ("lr", Json::float(self.lr)),
            ("t", Json::uint(self.t)),
            ("m", matrices_to_json(&self.m)),
            ("v", matrices_to_json(&self.v)),
        ])
    }
}

impl FromJson for Adam {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Adam {
            lr: json.get("lr")?.as_f64()?,
            t: json.get("t")?.as_u64()?,
            m: matrices_from_json(json.get("m")?)?,
            v: matrices_from_json(json.get("v")?)?,
        })
    }
}

impl ToJson for TrainState {
    fn to_json(&self) -> Json {
        obj(vec![
            ("next_epoch", Json::uint(self.next_epoch as u64)),
            ("done", Json::Bool(self.done)),
            ("params", matrices_to_json(&self.params)),
            ("optimizer", self.optimizer.to_json()),
            // Bit-pattern encoding: before the first epoch the best loss is
            // `+∞`, which a plain JSON float cannot carry.
            ("best_loss_bits", Json::uint(self.best_loss.to_bits())),
            ("bad_epochs", Json::uint(self.bad_epochs as u64)),
            ("best_params", matrices_to_json(&self.best_params)),
            (
                "order",
                Json::Arr(self.order.iter().map(|&i| Json::uint(i as u64)).collect()),
            ),
            (
                "rng_state",
                Json::Arr(self.rng_state.iter().map(|&w| Json::uint(w)).collect()),
            ),
            ("history", self.history.to_json()),
        ])
    }
}

impl FromJson for TrainState {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let words = json.get("rng_state")?.as_arr()?;
        if words.len() != 4 {
            return err(format!("rng_state needs 4 words, found {}", words.len()));
        }
        let mut rng_state = [0u64; 4];
        for (slot, word) in rng_state.iter_mut().zip(words) {
            *slot = word.as_u64()?;
        }
        Ok(TrainState {
            next_epoch: json.get("next_epoch")?.as_usize()?,
            done: json.get("done")?.as_bool()?,
            params: matrices_from_json(json.get("params")?)?,
            optimizer: Adam::from_json(json.get("optimizer")?)?,
            best_loss: f64::from_bits(json.get("best_loss_bits")?.as_u64()?),
            bad_epochs: json.get("bad_epochs")?.as_usize()?,
            best_params: matrices_from_json(json.get("best_params")?)?,
            order: json
                .get("order")?
                .as_arr()?
                .iter()
                .map(Json::as_usize)
                .collect::<Result<_, _>>()?,
            rng_state,
            history: TrainHistory::from_json(json.get("history")?)?,
        })
    }
}

impl ToJson for EpochStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("epoch", Json::uint(self.epoch as u64)),
            ("train_loss", Json::float(self.train_loss)),
            ("learning_rate", Json::float(self.learning_rate)),
        ])
    }
}

impl FromJson for EpochStats {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EpochStats {
            epoch: json.get("epoch")?.as_usize()?,
            train_loss: json.get("train_loss")?.as_f64()?,
            learning_rate: json.get("learning_rate")?.as_f64()?,
        })
    }
}

impl ToJson for DivergenceEvent {
    fn to_json(&self) -> Json {
        obj(vec![
            ("epoch", Json::uint(self.epoch as u64)),
            // Non-finite (the usual case) serializes as null.
            ("loss", Json::float(self.loss)),
        ])
    }
}

impl FromJson for DivergenceEvent {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DivergenceEvent {
            epoch: json.get("epoch")?.as_usize()?,
            // A null/absent loss decodes as NaN: JSON cannot carry the
            // non-finite value the event recorded.
            loss: json
                .get_opt("loss")?
                .map(Json::as_f64)
                .transpose()?
                .unwrap_or(f64::NAN),
        })
    }
}

impl ToJson for TrainHistory {
    fn to_json(&self) -> Json {
        obj(vec![
            (
                "epochs",
                Json::Arr(self.epochs.iter().map(ToJson::to_json).collect()),
            ),
            (
                "diverged",
                self.diverged
                    .as_ref()
                    .map_or(Json::Null, DivergenceEvent::to_json),
            ),
        ])
    }
}

impl FromJson for TrainHistory {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(TrainHistory {
            epochs: json
                .get("epochs")?
                .as_arr()?
                .iter()
                .map(EpochStats::from_json)
                .collect::<Result<_, _>>()?,
            diverged: json
                .get_opt("diverged")?
                .map(DivergenceEvent::from_json)
                .transpose()?,
        })
    }
}

impl ToJson for LabelFailureReason {
    fn to_json(&self) -> Json {
        let (kind, detail) = match self {
            LabelFailureReason::Panic(msg) => ("panic", msg),
            LabelFailureReason::NonFinite(what) => ("non_finite", what),
        };
        obj(vec![
            ("kind", Json::Str(kind.to_string())),
            ("detail", Json::Str(detail.clone())),
        ])
    }
}

impl FromJson for LabelFailureReason {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let detail = json.get("detail")?.as_str()?.to_string();
        match json.get("kind")?.as_str()? {
            "panic" => Ok(LabelFailureReason::Panic(detail)),
            "non_finite" => Ok(LabelFailureReason::NonFinite(detail)),
            other => err(format!("unknown failure kind '{other}'")),
        }
    }
}

impl ToJson for LabelFailure {
    fn to_json(&self) -> Json {
        obj(vec![
            ("index", Json::uint(self.index as u64)),
            ("reason", self.reason.to_json()),
            ("recovered", Json::Bool(self.recovered)),
        ])
    }
}

impl FromJson for LabelFailure {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(LabelFailure {
            index: json.get("index")?.as_usize()?,
            reason: LabelFailureReason::from_json(json.get("reason")?)?,
            recovered: json.get("recovered")?.as_bool()?,
        })
    }
}

impl ToJson for LabelReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("total", Json::uint(self.total as u64)),
            ("labeled", Json::uint(self.labeled as u64)),
            // A fixed field: no graph's label is copied from an isomorphic
            // one, but the artifact bytes hold this key.
            ("skipped_isomorphic", Json::uint(0)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for LabelReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(LabelReport {
            total: json.get("total")?.as_usize()?,
            labeled: json.get("labeled")?.as_usize()?,
            failures: json
                .get("failures")?
                .as_arr()?
                .iter()
                .map(LabelFailure::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl ToJson for crate::store::TrainingEnvelope {
    fn to_json(&self) -> Json {
        obj(vec![
            ("min_nodes", Json::uint(self.min_nodes as u64)),
            ("max_nodes", Json::uint(self.max_nodes as u64)),
            ("max_degree", Json::uint(self.max_degree as u64)),
            ("feature_dim", Json::uint(self.feature_dim as u64)),
            ("mean_gamma", Json::float(self.mean_gamma)),
            ("mean_beta", Json::float(self.mean_beta)),
        ])
    }
}

impl FromJson for crate::store::TrainingEnvelope {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(crate::store::TrainingEnvelope {
            min_nodes: json.get("min_nodes")?.as_usize()?,
            max_nodes: json.get("max_nodes")?.as_usize()?,
            max_degree: json.get("max_degree")?.as_usize()?,
            feature_dim: json.get("feature_dim")?.as_usize()?,
            mean_gamma: json.get("mean_gamma")?.as_f64()?,
            mean_beta: json.get("mean_beta")?.as_f64()?,
        })
    }
}

impl ToJson for FailurePolicy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                FailurePolicy::Skip => "skip",
                FailurePolicy::Halt => "halt",
            }
            .to_string(),
        )
    }
}

impl FromJson for FailurePolicy {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.as_str()? {
            "skip" => Ok(FailurePolicy::Skip),
            "halt" => Ok(FailurePolicy::Halt),
            other => err(format!("unknown failure policy '{other}'")),
        }
    }
}

impl ToJson for PipelineConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("dataset", self.dataset.to_json()),
            ("labeling", self.labeling.to_json()),
            (
                "sdp",
                self.sdp.as_ref().map_or(Json::Null, SdpConfig::to_json),
            ),
            ("fixed_angles", Json::Bool(self.fixed_angles)),
            ("model", self.model.to_json()),
            ("training", self.training.to_json()),
            ("test_size", Json::uint(self.test_size as u64)),
            ("eval", self.eval.to_json()),
            ("seed", Json::uint(self.seed)),
            (
                "checkpoint_dir",
                self.checkpoint_dir
                    .as_ref()
                    .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
            ),
            ("failure_policy", self.failure_policy.to_json()),
            (
                "artifact_path",
                self.artifact_path
                    .as_ref()
                    .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
            ),
            ("checkpoint_every", Json::uint(self.checkpoint_every as u64)),
        ])
    }
}

impl FromJson for PipelineConfig {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(PipelineConfig {
            dataset: DatasetSpec::from_json(json.get("dataset")?)?,
            labeling: LabelConfig::from_json(json.get("labeling")?)?,
            sdp: json.get_opt("sdp")?.map(SdpConfig::from_json).transpose()?,
            fixed_angles: json.get("fixed_angles")?.as_bool()?,
            model: ModelConfig::from_json(json.get("model")?)?,
            training: TrainConfig::from_json(json.get("training")?)?,
            test_size: json.get("test_size")?.as_usize()?,
            eval: EvalConfig::from_json(json.get("eval")?)?,
            seed: json.get("seed")?.as_u64()?,
            // Both absent in configs written before the fault-tolerance
            // layer existed; default to the old behavior.
            checkpoint_dir: json
                .get_opt("checkpoint_dir")?
                .map(|v| Ok::<_, JsonError>(std::path::PathBuf::from(v.as_str()?)))
                .transpose()?,
            failure_policy: json
                .get_opt("failure_policy")?
                .map(FailurePolicy::from_json)
                .transpose()?
                .unwrap_or_default(),
            artifact_path: json
                .get_opt("artifact_path")?
                .map(|v| Ok::<_, JsonError>(std::path::PathBuf::from(v.as_str()?)))
                .transpose()?,
            // Absent in configs written before training checkpoints
            // existed; every-epoch is the default stride.
            checkpoint_every: json
                .get_opt("checkpoint_every")?
                .map(Json::as_usize)
                .transpose()?
                .unwrap_or(1),
        })
    }
}

impl ToJson for crate::serve_loop::LoopMetrics {
    fn to_json(&self) -> Json {
        obj(vec![
            ("served", Json::uint(self.served)),
            ("shed", Json::uint(self.shed)),
            ("rejected", Json::uint(self.rejected)),
            ("shed_watermark", Json::uint(self.shed_watermark)),
            ("shed_capacity", Json::uint(self.shed_capacity)),
            ("generation", Json::uint(self.generation)),
            ("max_depth", Json::uint(self.max_depth as u64)),
            ("queue_depth", Json::uint(self.queue_depth as u64)),
            ("workers_target", Json::uint(self.workers_target as u64)),
            ("rung_gnn", Json::uint(self.rung_gnn)),
            ("rung_fixed", Json::uint(self.rung_fixed)),
            ("rung_fallback", Json::uint(self.rung_fallback)),
            ("cache_hits", Json::uint(self.cache_hits)),
            ("cache_misses", Json::uint(self.cache_misses)),
            ("cache_inserts", Json::uint(self.cache_inserts)),
            ("cache_evictions", Json::uint(self.cache_evictions)),
            ("cache_invalidations", Json::uint(self.cache_invalidations)),
            ("cache_collisions", Json::uint(self.cache_collisions)),
            ("cache_lookup_faults", Json::uint(self.cache_lookup_faults)),
            ("served_inline", Json::uint(self.served_inline)),
            ("health", Json::Str(self.health.to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: &T) {
        for text in [value.to_json().to_compact(), value.to_json().to_pretty()] {
            let parsed = Json::parse(&text).expect("parse back");
            let decoded = T::from_json(&parsed).expect("decode back");
            assert_eq!(&decoded, value, "round trip through: {text}");
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::uint(42));
        assert_eq!(Json::parse("-17").unwrap(), Json::Num(Number::I64(-17)));
        assert_eq!(Json::parse("2.5e3").unwrap(), Json::float(2500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".to_string()));
    }

    #[test]
    fn parses_structures_and_escapes() {
        let v = Json::parse(r#"{"a": [1, 2.0, "x\nyA"], "b": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str().unwrap(),
            "x\nyA"
        );
        assert_eq!(v.get("b").unwrap().as_obj().unwrap().len(), 0);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "tru", "\"open", "1 2", "{\"a\":}", ""] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn u64_seed_survives_exactly() {
        // Beyond 2^53: would be corrupted by a float-only number type.
        let seed = u64::MAX - 1;
        let text = Json::uint(seed).to_compact();
        assert_eq!(Json::parse(&text).unwrap().as_u64().unwrap(), seed);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for v in [0.1, 1.0 / 3.0, 0.7f64.ln(), f64::MIN_POSITIVE, 1e300] {
            let text = Json::float(v).to_compact();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back, v, "{text}");
        }
    }

    /// Bit-level float round trip through encode → parse. Returns the
    /// re-decoded bits so callers can assert exact equality (plain `==`
    /// would treat -0.0 and 0.0 as equal and hide a lost sign).
    fn round_trip_bits(v: f64) -> u64 {
        let text = Json::float(v).to_compact();
        Json::parse(&text)
            .unwrap_or_else(|e| panic!("reparse {text:?}: {e}"))
            .as_f64()
            .unwrap()
            .to_bits()
    }

    #[test]
    fn f64_edge_cases_round_trip_bit_exactly() {
        for v in [
            0.0,
            -0.0,                           // sign of zero must survive
            f64::from_bits(1),              // smallest positive subnormal (5e-324)
            f64::from_bits(u64::MAX >> 12), // largest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.123_456_789_012_345_68, // 17 significant digits
            1.000_000_000_000_000_2,  // one ulp above 1.0
            std::f64::consts::PI,
            2.225_073_858_507_201e-308, // largest subnormal, decimal form
        ] {
            assert_eq!(round_trip_bits(v), v.to_bits(), "{v:e}");
        }
    }

    #[test]
    fn f64_non_finite_encodes_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::float(v).to_compact();
            assert_eq!(text, "null");
            assert_eq!(Json::parse(&text).unwrap(), Json::Null);
        }
    }

    qcheck::properties! {
        cases = 512;

        fn f64_round_trips_bit_exactly_from_any_bits(bits in qcheck::any_u64()) {
            // Every finite bit pattern — normal, subnormal, either zero —
            // must survive encode → parse with identical bits. (Non-finite
            // patterns encode as null by design; skip them.)
            let v = f64::from_bits(bits);
            qcheck::prop_assume!(v.is_finite());
            qcheck::prop_assert_eq!(round_trip_bits(v), bits);
        }

        fn f64_round_trips_inside_structures(
            values in qcheck::vec(qcheck::any_u64(), 0usize..8),
        ) {
            // The same guarantee when floats are nested in arrays/objects —
            // the path model weights actually take.
            let floats: Vec<f64> = values
                .iter()
                .map(|&b| f64::from_bits(b))
                .filter(|v| v.is_finite())
                .collect();
            let json = Json::Obj(vec![(
                "data".to_string(),
                Json::Arr(floats.iter().map(|&v| Json::float(v)).collect()),
            )]);
            for text in [json.to_compact(), json.to_pretty()] {
                let back = Json::parse(&text).unwrap();
                let arr = back.get("data").unwrap().as_arr().unwrap();
                qcheck::prop_assert_eq!(arr.len(), floats.len());
                for (got, want) in arr.iter().zip(&floats) {
                    qcheck::prop_assert_eq!(
                        got.as_f64().unwrap().to_bits(),
                        want.to_bits()
                    );
                }
            }
        }

        fn f64_uniform_range_round_trips(mantissa in qcheck::any_u64(), exp in 0u32..600) {
            // Decimal-ish magnitudes (1e-300 .. 1e300) rather than raw bit
            // patterns, to cover the values real configs carry.
            let v = (mantissa as f64 / u64::MAX as f64) * 10f64.powi(exp as i32 - 300);
            qcheck::prop_assume!(v.is_finite());
            qcheck::prop_assert_eq!(round_trip_bits(v), v.to_bits());
        }
    }

    /// Encodes one row of raw f64 bit patterns with the checkpoint's bits
    /// codec, reparses the text and decodes it again.
    fn bits_codec_round_trip(bits: &[u64]) -> Result<Vec<u64>, JsonError> {
        let values = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let text = matrix_bits_to_json(&Matrix::from_flat(1, bits.len(), values)).to_compact();
        let matrix = matrix_bits_from_json(&Json::parse(&text)?)?;
        Ok(matrix.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn bits_codec_keeps_zero_signs_and_subnormals() {
        let edge = [
            0.0f64,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(u64::MAX >> 12),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
        ]
        .map(f64::to_bits);
        assert_eq!(bits_codec_round_trip(&edge).unwrap(), edge);
        let text = matrix_bits_to_json(&Matrix::from_flat(1, 2, vec![-0.0, 1.0])).to_compact();
        assert_eq!(
            text,
            r#"{"rows":1,"cols":2,"bits":"80000000000000003ff0000000000000"}"#
        );
    }

    #[test]
    fn bits_codec_rejects_malformed_matrices() {
        let decode = |rows: u64, cols: u64, bits: &str| {
            matrix_bits_from_json(&Json::Obj(vec![
                ("rows".to_string(), Json::uint(rows)),
                ("cols".to_string(), Json::uint(cols)),
                ("bits".to_string(), Json::Str(bits.to_string())),
            ]))
            .unwrap_err()
            .0
        };
        let one = "3ff0000000000000";
        for (rows, cols, bits, needle) in [
            (1, 2, one, "needs 32 hex digits, found 16"),
            (1, 1, "3ff000000000000", "needs 16 hex digits, found 15"),
            (1, 1, "3FF0000000000000", "'F' is not a lowercase hex digit"),
            (1, 1, "3ff000000000000g", "'g' is not a lowercase hex digit"),
            (1, 1, "3ff0 00000000000", "' ' is not a lowercase hex digit"),
            (0, 1, "", "dimensions must be positive, got 0x1"),
            (0, 4, "", "dimensions must be positive, got 0x4"),
            (u64::MAX, 2, one, "overflows"),
            (1, 1, "7ff8000000000000", "entry 0 is not finite"),
        ] {
            let message = decode(rows, cols, bits);
            assert!(
                message.contains(needle),
                "{rows}x{cols} {bits:?}: {message}"
            );
        }
    }

    qcheck::properties! {
        cases = 256;

        fn bits_codec_round_trips_every_finite_pattern(
            words in qcheck::vec(qcheck::any_u64(), 1usize..12),
        ) {
            let finite: Vec<u64> = words
                .into_iter()
                .filter(|&b| f64::from_bits(b).is_finite())
                .collect();
            qcheck::prop_assume!(!finite.is_empty());
            qcheck::prop_assert_eq!(bits_codec_round_trip(&finite).unwrap(), finite);
        }

        fn bits_codec_rejects_every_non_finite_pattern(
            raw in qcheck::any_u64(),
            at in 0usize..4,
        ) {
            // An all-ones exponent is ±∞ (zero mantissa) or a NaN.
            let bad = raw | 0x7ff0_0000_0000_0000;
            let mut words = [1.5f64.to_bits(); 4];
            words[at] = bad;
            let message = bits_codec_round_trip(&words).unwrap_err().0;
            qcheck::prop_assert_eq!(message, format!("entry {at} is not finite ({bad:#018x})"));
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "tab\there \"quoted\" back\\slash\nnew\u{1}line";
        let text = Json::Str(s.to_string()).to_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn configs_round_trip() {
        round_trip(&LabelConfig::default());
        round_trip(&DatasetSpec::default());
        round_trip(&SdpConfig::paper_default());
        round_trip(&ModelConfig::default());
        round_trip(&TrainConfig::default());
        round_trip(&EvalConfig::default());
        round_trip(&PipelineConfig::paper_scale());
        round_trip(&PipelineConfig {
            sdp: None,
            seed: u64::MAX,
            ..PipelineConfig::quick()
        });
    }

    #[test]
    fn readout_variants_round_trip() {
        for r in [Readout::Mean, Readout::Sum, Readout::Max] {
            round_trip(&r);
        }
    }

    #[test]
    fn train_history_round_trips() {
        let history = TrainHistory {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 0.31,
                    learning_rate: 0.01,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.22,
                    learning_rate: 0.005,
                },
            ],
            diverged: None,
        };
        round_trip(&history);
        round_trip(&TrainHistory::default());
    }

    #[test]
    fn divergence_event_survives_with_nan_loss_as_null() {
        let history = TrainHistory {
            epochs: vec![EpochStats {
                epoch: 0,
                train_loss: 0.5,
                learning_rate: 0.01,
            }],
            diverged: Some(DivergenceEvent {
                epoch: 1,
                loss: f64::NAN,
            }),
        };
        let text = history.to_json().to_compact();
        assert!(text.contains("\"loss\":null"), "{text}");
        let back = TrainHistory::from_json(&Json::parse(&text).unwrap()).unwrap();
        let event = back.diverged.expect("event survives");
        assert_eq!(event.epoch, 1);
        assert!(event.loss.is_nan());
        assert_eq!(back.epochs, history.epochs);
    }

    #[test]
    fn label_report_round_trips() {
        let report = LabelReport {
            total: 10,
            labeled: 8,
            failures: vec![
                LabelFailure {
                    index: 3,
                    reason: LabelFailureReason::Panic("index out of bounds".to_string()),
                    recovered: true,
                },
                LabelFailure {
                    index: 7,
                    reason: LabelFailureReason::NonFinite("expectation".to_string()),
                    recovered: false,
                },
            ],
        };
        round_trip(&report);
        round_trip(&LabelReport::clean(5));
    }

    #[test]
    fn failure_policy_round_trips() {
        round_trip(&FailurePolicy::Skip);
        round_trip(&FailurePolicy::Halt);
        assert!(FailurePolicy::from_json(&Json::Str("abort".into())).is_err());
    }

    #[test]
    fn checkpointed_pipeline_config_round_trips() {
        round_trip(&PipelineConfig {
            checkpoint_dir: Some(std::path::PathBuf::from("/tmp/ckpt")),
            failure_policy: FailurePolicy::Halt,
            ..PipelineConfig::quick()
        });
    }

    #[test]
    fn pre_fault_tolerance_config_still_decodes() {
        // A config written before checkpoint_dir/failure_policy existed.
        let mut old = PipelineConfig::quick().to_json();
        if let Json::Obj(fields) = &mut old {
            fields.retain(|(k, _)| k != "checkpoint_dir" && k != "failure_policy");
        }
        let cfg = PipelineConfig::from_json(&Json::parse(&old.to_compact()).unwrap()).unwrap();
        assert_eq!(cfg.checkpoint_dir, None);
        assert_eq!(cfg.failure_policy, FailurePolicy::Skip);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        for text in [
            r#"{"depth": 1, "iterations": 80, "threads": 2, "future": true}"#,
            // Written while sweep-level pooling existed and was on.
            r#"{"depth": 1, "iterations": 80, "threads": 2, "sim_threads": 2}"#,
        ] {
            let cfg = LabelConfig::from_json(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(cfg.iterations, 80);
        }
    }

    #[test]
    fn missing_field_reports_its_name() {
        let text = r#"{"depth": 1}"#;
        let e = LabelConfig::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(e.0.contains("iterations"), "{e}");
    }
}
