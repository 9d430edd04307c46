//! Plain-text import/export of valid-time relations.
//!
//! A simple line format so generated workloads and experiment inputs can
//! be saved, diffed, and reloaded:
//!
//! ```text
//! # vtjoin v1
//! # schema: key:int, name:str, active:bool, pad:bytes
//! 7|alice|true|00ff|10|20
//! ```
//!
//! One row per tuple: the explicit values in schema order, then `Vs` and
//! `Ve`, separated by `|`.
//!
//! # Grammar
//!
//! ```text
//! file   = magic NL header { NL line } [ NL ]
//! magic  = "# vtjoin v1"                     surrounding whitespace ignored
//! header = "# schema: " [ attr { ", " attr } ]
//! attr   = name ":" ( "int" | "bool" | "str" | "bytes" )
//! line   = row | blank | comment
//! row    = { value "|" } int "|" int         one value per attribute; Vs ≤ Ve
//! value  = "\N" | int | bool | str | bytes   "\N" is null in any column
//! int    = [ "+" | "-" ] digit { digit }     must fit an i64
//! bool   = "true" | "false"
//! str    = { char other than "|", "%" and LF | "%" hex hex }
//! bytes  = { hex hex }                       exactly two hex digits per byte
//! ```
//!
//! - `NL` is `\n` or `\r\n`; the newline after the last line is optional.
//! - A *blank* line is empty or whitespace only; a *comment* line starts
//!   with `#`. Both are skipped, but they count in the row numbers of
//!   error messages, which are line numbers (the magic is line 1).
//! - `hex` is `0-9`, `a-f` or `A-F`; the writer emits lowercase bytes.
//! - A string's `%XX` escapes decode to bytes, and the decoded string must
//!   be UTF-8. The writer escapes exactly `%`, `|`, LF, CR, `\` and `#`, as
//!   `%25`, `%7C`, `%0A`, `%0D`, `%5C` and `%23`, and copies every other
//!   character. Escaping `\` keeps the string `\N` apart from null, and
//!   escaping `#` keeps a row whose first value is a string starting with
//!   `#` from reading as a comment.
//! - Malformed input is a [`TextError`], never a panic. Rows are checked
//!   in line order; within a row the field count comes first, then the
//!   values left to right, then the interval.

use std::sync::Arc;
use vtjoin_core::{AttrDef, AttrType, Interval, Relation, Schema, TemporalError, Tuple, Value};

/// Errors raised by the text codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// Malformed header or row.
    Parse(String),
    /// Schema/value mismatch while building the relation.
    Model(String),
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::Parse(m) => write!(f, "parse error: {m}"),
            TextError::Model(m) => write!(f, "model error: {m}"),
        }
    }
}

impl std::error::Error for TextError {}

impl From<TemporalError> for TextError {
    fn from(e: TemporalError) -> Self {
        TextError::Model(e.to_string())
    }
}

fn type_name(ty: AttrType) -> &'static str {
    match ty {
        AttrType::Int => "int",
        AttrType::Bool => "bool",
        AttrType::Str => "str",
        AttrType::Bytes(_) => "bytes",
    }
}

const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Writes `v` in decimal at the front of `buf`, two digits per step, and
/// returns its length. Twenty bytes hold `i64::MIN`: a sign and 19 digits.
fn format_int(v: i64, buf: &mut [u8; 20]) -> usize {
    let mut n = v.unsigned_abs();
    let len = usize::from(v < 0) + n.checked_ilog10().map_or(1, |d| d as usize + 1);
    buf[0] = b'-';
    let mut pos = len;
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        buf[pos - 2..pos].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        buf[pos - 1] = b'0' + n as u8;
    }
    len
}

/// The escape the writer emits for `b`, if `b` is one it escapes.
fn escape_of(b: u8) -> Option<&'static [u8; 3]> {
    match b {
        b'%' => Some(b"%25"),
        b'|' => Some(b"%7C"),
        b'\n' => Some(b"%0A"),
        b'\r' => Some(b"%0D"),
        b'\\' => Some(b"%5C"),
        b'#' => Some(b"%23"),
        _ => None,
    }
}

fn escape(s: &str, out: &mut Vec<u8>) {
    if s.bytes().all(|b| escape_of(b).is_none()) {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    // Every escaped byte is ASCII, so copying the others byte by byte keeps
    // multi-byte characters whole.
    for b in s.bytes() {
        match escape_of(b) {
            Some(esc) => out.extend_from_slice(esc),
            None => out.push(b),
        }
    }
}

/// Bytes staged before they are appended to the output.
const STAGE: usize = 64;

/// Builds the output a row at a time. Everything but strings is staged in
/// a stack buffer that reaches the output in one fixed-size copy, at the
/// row's end or when it fills; a string flushes it and is copied to the
/// output directly.
struct RowWriter {
    out: Vec<u8>,
    stage: [u8; STAGE],
    staged: usize,
}

impl RowWriter {
    /// Appends the staged bytes to the output.
    fn flush(&mut self) {
        let start = self.out.len();
        self.out.extend_from_slice(&self.stage);
        self.out.truncate(start + self.staged);
        self.staged = 0;
    }

    /// The next `N` bytes of the stage, flushing first if they do not fit.
    fn room<const N: usize>(&mut self) -> &mut [u8; N] {
        if self.staged + N > STAGE {
            self.flush();
        }
        let at = self.staged;
        (&mut self.stage[at..at + N]).try_into().expect("N bytes")
    }

    fn put<const N: usize>(&mut self, bytes: &[u8; N]) {
        *self.room() = *bytes;
        self.staged += N;
    }

    fn int(&mut self, v: i64) {
        self.staged += format_int(v, self.room());
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put(b"\\N"),
            Value::Int(i) => self.int(*i),
            Value::Bool(true) => self.put(b"true"),
            Value::Bool(false) => self.put(b"false"),
            Value::Str(s) => {
                self.flush();
                escape(s, &mut self.out);
            }
            Value::Bytes(b) => {
                for &byte in b.iter() {
                    self.put(&[
                        HEX_DIGITS[usize::from(byte >> 4)],
                        HEX_DIGITS[usize::from(byte & 0xf)],
                    ]);
                }
            }
        }
    }
}

/// Serializes a relation to the text format.
pub fn to_text(rel: &Relation) -> String {
    let mut header = String::from("# vtjoin v1\n# schema: ");
    for (i, a) in rel.schema().attrs().iter().enumerate() {
        if i > 0 {
            header.push_str(", ");
        }
        header.push_str(&a.name);
        header.push(':');
        header.push_str(type_name(a.ty));
    }
    header.push('\n');
    let mut w = RowWriter {
        out: header.into_bytes(),
        stage: [0; STAGE],
        staged: 0,
    };
    for t in rel.iter() {
        for v in t.values() {
            w.value(v);
            w.put(b"|");
        }
        w.int(t.valid().start().value());
        w.put(b"|");
        w.int(t.valid().end().value());
        w.put(b"\n");
        w.flush();
    }
    String::from_utf8(w.out).expect("the writer copies whole strings and emits ASCII otherwise")
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// The byte spelled by exactly two hex digits.
fn hex_byte(pair: &[u8]) -> Option<u8> {
    match pair {
        [hi, lo] => Some(hex_digit(*hi)? << 4 | hex_digit(*lo)?),
        _ => None,
    }
}

/// Reads a decimal `i64` from the front of `bytes`: an optional sign, then
/// digits up to the first non-digit. Returns the value and the bytes read,
/// or `None` if there is no digit or the value overflows.
fn int_prefix(bytes: &[u8]) -> Option<(i64, usize)> {
    let (negative, start) = match bytes.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        _ => (false, 0),
    };
    let mut magnitude: u64 = 0;
    let mut end = start;
    while let Some(d) = bytes.get(end).map(|b| b.wrapping_sub(b'0')) {
        if d > 9 {
            break;
        }
        magnitude = magnitude.checked_mul(10)?.checked_add(u64::from(d))?;
        end += 1;
    }
    if end == start {
        return None;
    }
    let v = if negative {
        0i64.checked_sub_unsigned(magnitude)?
    } else {
        i64::try_from(magnitude).ok()?
    };
    Some((v, end))
}

/// Parses a decimal `i64`, accepting exactly what `str::parse::<i64>`
/// accepts: an optional sign, then one or more digits, without overflow.
fn parse_int(field: &str) -> Option<i64> {
    int_prefix(field.as_bytes()).and_then(|(v, len)| (len == field.len()).then_some(v))
}

fn unescape(field: &str) -> Result<Box<str>, TextError> {
    if !field.contains('%') {
        return Ok(field.into());
    }
    let bytes = field.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = field
                .get(i + 1..i + 3)
                .ok_or_else(|| TextError::Parse("truncated escape".into()))?;
            let byte = hex_byte(hex.as_bytes())
                .ok_or_else(|| TextError::Parse(format!("bad escape %{hex}")))?;
            out.push(byte);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out)
        .map(String::into_boxed_str)
        .map_err(|_| TextError::Parse(format!("escapes in `{field}` are not UTF-8")))
}

fn parse_hex(field: &str) -> Result<Box<[u8]>, TextError> {
    if !field.len().is_multiple_of(2) {
        return Err(TextError::Parse("odd-length hex".into()));
    }
    let mut bytes = Vec::with_capacity(field.len() / 2);
    for pair in field.as_bytes().chunks_exact(2) {
        bytes.push(hex_byte(pair).ok_or_else(|| TextError::Parse(format!("bad hex `{field}`")))?);
    }
    Ok(bytes.into_boxed_slice())
}

fn parse_value(field: &str, ty: AttrType) -> Result<Value, TextError> {
    if field == "\\N" {
        return Ok(Value::Null);
    }
    Ok(match ty {
        AttrType::Int => Value::Int(
            parse_int(field).ok_or_else(|| TextError::Parse(format!("bad int `{field}`")))?,
        ),
        AttrType::Bool => Value::Bool(
            field
                .parse()
                .map_err(|_| TextError::Parse(format!("bad bool `{field}`")))?,
        ),
        AttrType::Str => Value::Str(unescape(field)?),
        AttrType::Bytes(_) => Value::Bytes(parse_hex(field)?),
    })
}

/// The line starting at byte `pos` and the position after it, split as
/// `str::lines` splits: at `\n`, dropping a `\r` just before it.
fn line_at(text: &str, pos: usize) -> (&str, usize) {
    let rest = &text[pos..];
    match rest.find('\n') {
        Some(n) => (
            rest[..n].strip_suffix('\r').unwrap_or(&rest[..n]),
            pos + n + 1,
        ),
        None => (rest, text.len()),
    }
}

/// The `|`-separated fields of the line starting at byte `pos`, found in
/// place by one scan that stops at the line's end.
struct Fields<'a> {
    text: &'a str,
    pos: usize,
    line_done: bool,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.line_done {
            return None;
        }
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut end = start;
        while end < bytes.len() && bytes[end] != b'|' && bytes[end] != b'\n' {
            end += 1;
        }
        let field = &self.text[start..end];
        match bytes.get(end) {
            Some(b'|') => {
                self.pos = end + 1;
                Some(field)
            }
            Some(_) => {
                self.line_done = true;
                self.pos = end + 1;
                Some(field.strip_suffix('\r').unwrap_or(field))
            }
            None => {
                self.line_done = true;
                self.pos = end;
                Some(field)
            }
        }
    }
}

impl Fields<'_> {
    /// Reads the next field as an int in the same scan, when it is digits
    /// that end the field. Otherwise leaves the field unread and returns
    /// `None`; [`Fields::next`] and [`parse_int`] then give the answer.
    fn next_int(&mut self) -> Option<i64> {
        if self.line_done {
            return None;
        }
        let bytes = &self.text.as_bytes()[self.pos..];
        let (v, len) = int_prefix(bytes)?;
        match bytes.get(len) {
            Some(b'|') => self.pos += len + 1,
            Some(b'\n') => {
                self.pos += len + 1;
                self.line_done = true;
            }
            None => {
                self.pos += len;
                self.line_done = true;
            }
            Some(_) => return None,
        }
        Some(v)
    }
}

/// Parses the fields of one row, consuming them from `fields`.
fn parse_fields(fields: &mut Fields<'_>, schema: &Schema, row: usize) -> Result<Tuple, TextError> {
    // Running out of fields is reported as a count error by the caller.
    let short = || TextError::Parse(String::new());
    let mut values = Vec::with_capacity(schema.arity());
    for a in schema.attrs() {
        let fast = match a.ty {
            AttrType::Int => fields.next_int().map(Value::Int),
            _ => None,
        };
        values.push(match fast {
            Some(v) => v,
            None => parse_value(fields.next().ok_or_else(short)?, a.ty)?,
        });
    }
    let mut chronon = |what: &str| match fields.next_int() {
        Some(v) => Ok(v),
        None => parse_int(fields.next().ok_or_else(short)?)
            .ok_or_else(|| TextError::Parse(format!("row {row}: bad {what}"))),
    };
    let vs = chronon("Vs")?;
    let ve = chronon("Ve")?;
    Ok(Tuple::new(values, Interval::from_raw(vs, ve)?))
}

/// Parses the row line starting at byte `pos`; returns its tuple and the
/// position after the line.
fn parse_row(
    text: &str,
    pos: usize,
    schema: &Schema,
    row: usize,
) -> Result<(Tuple, usize), TextError> {
    let mut fields = Fields {
        text,
        pos,
        line_done: false,
    };
    let parsed = parse_fields(&mut fields, schema, row);
    if parsed.is_ok() && fields.next().is_none() {
        return parsed.map(|t| (t, fields.pos));
    }
    // A wrong field count outranks any error in the values.
    let count = line_at(text, pos).0.split('|').count();
    let expected = schema.arity() + 2;
    match parsed {
        Err(e) if count == expected => Err(e),
        _ => Err(TextError::Parse(format!(
            "row {row}: {count} fields, expected {expected}"
        ))),
    }
}

/// Parses a relation from the text format.
pub fn from_text(text: &str) -> Result<Relation, TextError> {
    if text.is_empty() {
        return Err(TextError::Parse("empty input".into()));
    }
    let (magic, pos) = line_at(text, 0);
    if magic.trim() != "# vtjoin v1" {
        return Err(TextError::Parse(format!("bad magic `{magic}`")));
    }
    let (header, mut pos) = line_at(text, pos);
    let header = header
        .strip_prefix("# schema: ")
        .ok_or_else(|| TextError::Parse("missing schema header".into()))?;
    let mut attrs = Vec::new();
    if !header.trim().is_empty() {
        for part in header.split(", ") {
            let (name, ty) = part
                .rsplit_once(':')
                .ok_or_else(|| TextError::Parse(format!("bad attr `{part}`")))?;
            let ty = match ty {
                "int" => AttrType::Int,
                "bool" => AttrType::Bool,
                "str" => AttrType::Str,
                "bytes" => AttrType::Bytes(0),
                other => return Err(TextError::Parse(format!("unknown type `{other}`"))),
            };
            attrs.push(AttrDef::new(name, ty));
        }
    }
    let schema: Arc<Schema> = Schema::new(attrs).map_err(TextError::from)?.into_shared();

    let mut tuples = Vec::new();
    let mut row = 2;
    while pos < text.len() {
        row += 1;
        // Only a line that starts with `#`, whitespace or a non-ASCII
        // character can be a comment or blank.
        let first = text.as_bytes()[pos];
        if first == b'#' || !first.is_ascii_graphic() {
            let (line, next) = line_at(text, pos);
            if line.trim().is_empty() || line.starts_with('#') {
                pos = next;
                continue;
            }
        }
        let (tuple, next) = parse_row(text, pos, &schema, row)?;
        tuples.push(tuple);
        pos = next;
    }
    Relation::new(schema, tuples).map_err(TextError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{
        generate, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
        TimeDistribution,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::fmt::Write as _;

    /// The `fmt`-based writer the byte codec replaced, with the current
    /// escape set: the reference the fast writer must match byte for byte.
    fn reference_to_text(rel: &Relation) -> String {
        fn escape(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '%' => out.push_str("%25"),
                    '|' => out.push_str("%7C"),
                    '\n' => out.push_str("%0A"),
                    '\r' => out.push_str("%0D"),
                    '\\' => out.push_str("%5C"),
                    '#' => out.push_str("%23"),
                    _ => out.push(c),
                }
            }
        }
        let mut out = String::new();
        out.push_str("# vtjoin v1\n# schema: ");
        for (i, a) in rel.schema().attrs().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}:{}", a.name, type_name(a.ty));
        }
        out.push('\n');
        for t in rel.iter() {
            for v in t.values() {
                match v {
                    Value::Null => out.push_str("\\N"),
                    Value::Int(i) => {
                        let _ = write!(out, "{i}");
                    }
                    Value::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                    Value::Str(s) => escape(s, &mut out),
                    Value::Bytes(b) => {
                        for byte in b.iter() {
                            let _ = write!(out, "{byte:02x}");
                        }
                    }
                }
                out.push('|');
            }
            let _ = writeln!(
                out,
                "{}|{}",
                t.valid().start().value(),
                t.valid().end().value()
            );
        }
        out
    }

    /// Asserts the writer matches the reference and the reader inverts it.
    fn assert_codec_exact(rel: &Relation) {
        let text = to_text(rel);
        assert_eq!(
            text,
            reference_to_text(rel),
            "writer differs from the reference"
        );
        let back = from_text(&text).unwrap();
        // The format keeps attribute names and types, not a bytes width.
        let attrs = |r: &Relation| -> Vec<(String, &'static str)> {
            let attrs = r.schema().attrs().iter();
            attrs.map(|a| (a.name.clone(), type_name(a.ty))).collect()
        };
        assert_eq!(attrs(&back), attrs(rel));
        assert_eq!(back.tuples(), rel.tuples());
    }

    fn relation(attrs: &[(&str, AttrType)], rows: Vec<(Vec<Value>, i64, i64)>) -> Relation {
        let schema = Schema::new(attrs.iter().map(|(n, t)| AttrDef::new(*n, *t)).collect())
            .unwrap()
            .into_shared();
        let tuples = rows
            .into_iter()
            .map(|(v, s, e)| Tuple::new(v, Interval::from_raw(s, e).unwrap()))
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    fn one_str(s: &str) -> Relation {
        relation(
            &[("name", AttrType::Str), ("k", AttrType::Int)],
            vec![(vec![Value::Str(s.into()), Value::Int(1)], 0, 1)],
        )
    }

    fn parse_err(text: &str) -> String {
        match from_text(text) {
            Err(TextError::Parse(m)) => m,
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        }
    }

    fn sample() -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("name", AttrType::Str),
            AttrDef::new("ok", AttrType::Bool),
            AttrDef::new("pad", AttrType::Bytes(4)),
        ])
        .unwrap()
        .into_shared();
        Relation::new(
            schema,
            vec![
                Tuple::new(
                    vec![
                        Value::Int(-7),
                        Value::Str("pipe|and%percent\nnewline".into()),
                        Value::Bool(true),
                        Value::Bytes(vec![0xde, 0xad].into()),
                    ],
                    Interval::from_raw(0, 99).unwrap(),
                ),
                Tuple::new(
                    vec![
                        Value::Null,
                        Value::Str(String::new().into()),
                        Value::Bool(false),
                        Value::Null,
                    ],
                    Interval::from_raw(-5, -5).unwrap(),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let rel = sample();
        let text = to_text(&rel);
        let back = from_text(&text).unwrap();
        assert_eq!(back.schema().attrs().len(), 4);
        assert_eq!(back.tuples(), rel.tuples());
    }

    #[test]
    fn generated_workloads_round_trip() {
        let cfg = GeneratorConfig {
            tuples: 200,
            long_lived: 40,
            lifespan: 1000,
            keys: 10,
            key_dist: KeyDistribution::Uniform,
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::Instant,
            pad_bytes: 8,
            seed: 9,
        };
        let rel = generate(outer_schema(8), &cfg);
        let back = from_text(&to_text(&rel)).unwrap();
        assert!(back.multiset_eq(&rel) || back.tuples() == rel.tuples());
        assert_eq!(back.tuples(), rel.tuples());
    }

    #[test]
    fn generated_relations_match_the_reference_writer() {
        let base = GeneratorConfig {
            tuples: 3000,
            long_lived: 0,
            lifespan: 100_000,
            keys: 512,
            key_dist: KeyDistribution::Zipf(1.0),
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::UniformUpTo(195),
            pad_bytes: 0,
            seed: 1,
        };
        // The end-to-end benchmark's shape: Zipf keys, short tuples, no padding.
        assert_codec_exact(&generate(outer_schema(0), &base));
        // Padded bytes.
        let padded = GeneratorConfig {
            pad_bytes: 24,
            seed: 2,
            ..base.clone()
        };
        assert_codec_exact(&generate(outer_schema(24), &padded));
        // Long-lived tuples over a wide lifespan.
        let long_lived = GeneratorConfig {
            long_lived: 1500,
            lifespan: 1_000_000_000_000,
            key_dist: KeyDistribution::Uniform,
            duration_dist: DurationDistribution::Geometric(0.9),
            seed: 3,
            ..base
        };
        assert_codec_exact(&generate(outer_schema(0), &long_lived));
    }

    /// A value of the given type drawn from pools that cover every edge of
    /// the format.
    fn arbitrary_value(rng: &mut StdRng, ty: AttrType) -> Value {
        const INTS: [i64; 9] = [i64::MIN, i64::MIN + 1, -100, -1, 0, 1, 99, 100, i64::MAX];
        const PIECES: [&str; 16] = [
            "", "a", "%", "|", "\n", "\r", "#", "\\", "\\N", "%25", "é", "€", "🦀", " ", "\u{a0}",
            "true",
        ];
        if rng.gen_range(0..8) == 0 {
            return Value::Null;
        }
        match ty {
            AttrType::Int => match rng.gen_range(0..3) {
                0 => Value::Int(INTS[rng.gen_range(0..INTS.len())]),
                1 => Value::Int(rng.gen_range(-1_000_000..1_000_000)),
                _ => Value::Int(rng.next_u64() as i64),
            },
            AttrType::Bool => Value::Bool(rng.gen_bool(0.5)),
            AttrType::Str => {
                let mut s = String::new();
                for _ in 0..rng.gen_range(0..6) {
                    s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
                }
                Value::Str(s.into())
            }
            AttrType::Bytes(_) => Value::Bytes(
                (0..rng.gen_range(0..6))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect(),
            ),
        }
    }

    fn arbitrary_relation(rng: &mut StdRng) -> Relation {
        const TYPES: [AttrType; 4] = [
            AttrType::Int,
            AttrType::Bool,
            AttrType::Str,
            AttrType::Bytes(0),
        ];
        let names = ["a", "b", "c", "d", "e"];
        let attrs: Vec<(&str, AttrType)> = (0..rng.gen_range(0..5))
            .map(|i| (names[i], TYPES[rng.gen_range(0..TYPES.len())]))
            .collect();
        let rows = (0..rng.gen_range(0..20))
            .map(|_| {
                let values = attrs
                    .iter()
                    .map(|(_, ty)| arbitrary_value(rng, *ty))
                    .collect();
                let (a, b) = match rng.gen_range(0..3) {
                    0 => (i64::MIN, i64::MAX),
                    1 => (rng.gen_range(-1000..1000), rng.gen_range(-1000..1000)),
                    _ => (rng.next_u64() as i64, rng.next_u64() as i64),
                };
                (values, a.min(b), a.max(b))
            })
            .collect();
        relation(&attrs, rows)
    }

    #[test]
    fn every_value_kind_matches_the_reference_and_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x7e57);
        for _ in 0..500 {
            assert_codec_exact(&arbitrary_relation(&mut rng));
        }
    }

    #[test]
    fn int_parsing_matches_std() {
        for s in [
            "",
            "+",
            "-",
            "0",
            "+0",
            "-0",
            "007",
            "-007",
            "12",
            "+12",
            "-12",
            "1 ",
            " 1",
            "1_0",
            "0x1",
            "1e3",
            "--1",
            "+-1",
            "-+1",
            "١",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
            "00000000000000000000000000042",
            "-00000000000000000000009223372036854775808",
        ] {
            assert_eq!(parse_int(s), s.parse::<i64>().ok(), "{s:?}");
        }
        for v in [i64::MIN, -1, 0, 1, 9, 10, 99, 100, 12345, i64::MAX] {
            let mut buf = [0; 20];
            let len = format_int(v, &mut buf);
            assert_eq!(&buf[..len], v.to_string().as_bytes());
        }
    }

    #[test]
    fn non_ascii_strings_round_trip() {
        for s in ["é", "€", "🦀", "a é|€#🦀\\z"] {
            assert_codec_exact(&one_str(s));
            let escaped: String = s.bytes().map(|b| format!("%{b:02X}")).collect();
            for field in [s.replace('|', "%7C").replace('\\', "%5C"), escaped] {
                let text = format!("# vtjoin v1\n# schema: name:str, k:int\n{field}|1|0|1\n");
                let rel = from_text(&text).unwrap();
                assert_eq!(rel.tuples()[0].value(0), &Value::Str(s.into()), "{field}");
            }
        }
        // Escapes that decode to a split or invalid UTF-8 sequence are refused.
        for field in ["%C3", "%E2%82", "%FF", "%F0%9F%A6"] {
            let text = format!("# vtjoin v1\n# schema: name:str\n{field}|0|1\n");
            assert!(parse_err(&text).contains("not UTF-8"), "{field}");
        }
    }

    #[test]
    fn the_string_backslash_n_is_not_null() {
        let rel = one_str("\\N");
        let text = to_text(&rel);
        assert!(text.contains("%5CN|"), "{text}");
        assert_codec_exact(&rel);
        // A file written before `\` was escaped still reads `\N` as null.
        let old = from_text("# vtjoin v1\n# schema: name:str\n\\N|0|1\n").unwrap();
        assert_eq!(old.tuples()[0].value(0), &Value::Null);
    }

    #[test]
    fn a_first_string_starting_with_hash_is_not_a_comment() {
        let rel = one_str("#tag");
        let text = to_text(&rel);
        assert!(text.ends_with("\n%23tag|1|0|1\n"), "{text}");
        assert_eq!(from_text(&text).unwrap().len(), 1);
        assert_codec_exact(&rel);
        // Raw `#` and `\` inside a later field read as they always did.
        let old = from_text("# vtjoin v1\n# schema: k:int, name:str\n1|a#b\\c|0|1\n").unwrap();
        assert_eq!(old.tuples()[0].value(1), &Value::Str("a#b\\c".into()));
    }

    #[test]
    fn malformed_bytes_fields_are_typed_errors() {
        let text = |field: &str| format!("# vtjoin v1\n# schema: pad:bytes\n{field}|0|1\n");
        for field in ["€x", "+f", "-1", " f", "0g", "é", "🦀🦀", "abc"] {
            let m = parse_err(&text(field));
            assert!(m.contains("hex"), "{field}: {m}");
        }
        let rel = from_text(&text("00fFA9")).unwrap();
        assert_eq!(
            rel.tuples()[0].value(0),
            &Value::Bytes(vec![0, 0xff, 0xa9].into())
        );
        // Escapes take exactly two hex digits too.
        for field in ["%+f", "%-1", "%g0", "%4"] {
            let m = parse_err(&format!("# vtjoin v1\n# schema: s:str\n{field}|0|1\n"));
            assert!(m.contains("escape"), "{field}: {m}");
        }
    }

    #[test]
    fn line_rules_and_row_numbers_are_kept() {
        // CRLF line ends, blank, whitespace-only and comment lines.
        let text = "# vtjoin v1\r\n# schema: k:int, s:str\r\n\r\n \t\n\u{a0}\u{2003}\n# note\r\n5|x|0|1\r\n#\n-3|y\r|2|2";
        let rel = from_text(text).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.tuples()[0].value(1), &Value::Str("x".into()));
        assert_eq!(rel.tuples()[1].value(1), &Value::Str("y\r".into()));
        // A final line without a newline keeps its `\r`.
        assert_eq!(
            parse_err("# vtjoin v1\n# schema: k:int\n1|0|1\r"),
            "row 3: bad Ve"
        );
        // Row numbers are line numbers, skipped lines included.
        assert_eq!(
            parse_err("# vtjoin v1\n# schema: k:int\n\n# c\n1|x|0\n"),
            "row 5: bad Vs"
        );
        assert_eq!(
            parse_err("# vtjoin v1\n# schema: k:int\n1|2|3\n1|2\n"),
            "row 4: 2 fields, expected 3"
        );
        // A wrong field count outranks a bad value in the same row.
        assert_eq!(
            parse_err("# vtjoin v1\n# schema: k:int\nx|y|0|1\n"),
            "row 3: 4 fields, expected 3"
        );
        assert_eq!(
            parse_err("# vtjoin v1\n# schema: k:int\nx|0|1\n"),
            "bad int `x`"
        );
        assert!(matches!(
            from_text("# vtjoin v1\n# schema: k:int\n1|9|3\n"),
            Err(TextError::Model(_))
        ));
    }

    /// Applies one random edit to `text`, keeping it valid UTF-8.
    fn mutate(rng: &mut StdRng, text: &str) -> String {
        const INSERTS: [&str; 16] = [
            "|",
            "%",
            "%4",
            "%zz",
            "\\N",
            "\n",
            "\r\n",
            "#",
            "é",
            "€",
            "🦀",
            "\u{a0}",
            "-",
            "+",
            "99999999999999999999",
            "-9223372036854775809",
        ];
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = boundaries[rng.gen_range(0..boundaries.len())];
        let mut out = text.to_string();
        match rng.gen_range(0..5) {
            // Truncate the text, or cut out the rest of a line.
            0 => out.truncate(at),
            1 => {
                let end = text[at..].find('\n').map_or(text.len(), |n| at + n);
                out.replace_range(at..end, "");
            }
            // Flip an ASCII byte to another printable ASCII byte.
            2 => {
                if let Some(i) = (at..text.len()).find(|&i| text.as_bytes()[i].is_ascii()) {
                    let c = char::from(rng.gen_range(0x20..0x7fu8));
                    out.replace_range(i..i + 1, c.encode_utf8(&mut [0; 4]));
                }
            }
            // Inject a multi-byte character, separator, escape or long int.
            _ => out.insert_str(at, INSERTS[rng.gen_range(0..INSERTS.len())]),
        }
        out
    }

    #[test]
    fn mutated_inputs_never_panic() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut cases = 0;
        let mut accepted = 0;
        while cases < 2000 {
            let text = to_text(&arbitrary_relation(&mut rng));
            let mut mutated = text;
            for _ in 0..rng.gen_range(1..4) {
                mutated = mutate(&mut rng, &mutated);
            }
            if let Ok(rel) = from_text(&mutated) {
                // Whatever reads must write and read back to itself.
                let again = from_text(&to_text(&rel)).unwrap();
                assert_eq!(again.tuples(), rel.tuples(), "{mutated:?}");
                accepted += 1;
            }
            cases += 1;
        }
        assert!(
            accepted > 0 && accepted < cases,
            "{accepted} of {cases} accepted"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_text("").is_err());
        assert!(from_text("nonsense\n").is_err());
        assert!(from_text("# vtjoin v1\nno header\n").is_err());
        assert!(from_text("# vtjoin v1\n# schema: k:int\n1|2\n1|2|3|4\n").is_err());
        assert!(from_text("# vtjoin v1\n# schema: k:int\nx|0|1\n").is_err());
        assert!(from_text("# vtjoin v1\n# schema: k:wat\n").is_err());
        // end before start
        assert!(from_text("# vtjoin v1\n# schema: k:int\n1|9|3\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# vtjoin v1\n# schema: k:int\n\n# a comment\n5|0|1\n";
        let rel = from_text(text).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples()[0].value(0), &Value::Int(5));
    }

    #[test]
    fn empty_relation_round_trips() {
        let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared();
        let rel = Relation::empty(schema);
        let back = from_text(&to_text(&rel)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.schema().arity(), 1);
    }
}
