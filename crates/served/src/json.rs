//! Hand-rolled JSON, matching the workspace's offline-only dependency
//! policy: a [`Json`] value type with a recursive-descent parser, plus the
//! daemon's wire codecs (tables in, annotations out).
//!
//! Encoding floats uses Rust's shortest-round-trip `Display`, so two `f32`
//! scores render to the same bytes iff they are bit-identical — which is
//! what lets the serve smoke assert *byte*-equality between daemon
//! responses and offline [`Annotator::annotate`](doduo_core::Annotator)
//! output.

use doduo_core::TableAnnotation;
use doduo_table::{Column, Table};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects preserve no duplicate keys (last wins) and
/// are stored sorted, which is fine for the daemon's schemas.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { s: text, i: 0, depth: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != text.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Encodes this value back to compact JSON text. Numbers use Rust's
    /// shortest-round-trip `Display`, so `parse(encode(v)) == v` and
    /// `encode(parse(s))` is a canonical form that is byte-stable under
    /// further round trips (the property the daemon's byte-identity
    /// contract rests on).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                write!(out, "{n}").expect("write to String");
            }
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_escaped(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Splits a byte stream into complete top-level JSON objects, fed
/// incrementally in arbitrarily small pieces (the `/annotate_stream` body
/// arrives in whatever chunks the client sent). Purely structural: it
/// tracks brace/bracket depth and string/escape state, leaving validation
/// of each completed document to [`Json::parse`]. Documents may be
/// separated by any amount of whitespace (newline-delimited JSON works).
#[derive(Debug)]
pub struct StreamSplitter {
    buf: Vec<u8>,
    depth: usize,
    in_str: bool,
    escaped: bool,
    max_doc: usize,
}

impl StreamSplitter {
    /// A splitter rejecting any single document larger than `max_doc`
    /// bytes.
    pub fn new(max_doc: usize) -> StreamSplitter {
        StreamSplitter { buf: Vec::new(), depth: 0, in_str: false, escaped: false, max_doc }
    }

    /// Feeds more bytes; returns every document completed by them, in
    /// order. Errors (non-object top level, oversized document, invalid
    /// UTF-8) are fatal for the stream.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for &b in bytes {
            if self.depth == 0 {
                if b.is_ascii_whitespace() {
                    continue;
                }
                if b != b'{' {
                    return Err(format!(
                        "stream elements must be JSON objects (got {:?})",
                        b as char
                    ));
                }
                self.buf.push(b);
                self.depth = 1;
                continue;
            }
            self.buf.push(b);
            if self.buf.len() > self.max_doc {
                return Err(format!("stream element exceeds {} bytes", self.max_doc));
            }
            if self.in_str {
                if self.escaped {
                    self.escaped = false;
                } else if b == b'\\' {
                    self.escaped = true;
                } else if b == b'"' {
                    self.in_str = false;
                }
            } else {
                match b {
                    b'"' => self.in_str = true,
                    b'{' | b'[' => self.depth += 1,
                    b'}' | b']' => {
                        // Mismatched closers (e.g. `{]`) still balance here;
                        // Json::parse rejects the completed document.
                        self.depth -= 1;
                        if self.depth == 0 {
                            let doc = String::from_utf8(std::mem::take(&mut self.buf))
                                .map_err(|_| "stream element is not valid UTF-8".to_string())?;
                            out.push(doc);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(out)
    }

    /// True when bytes of an unfinished document are pending — EOF in this
    /// state means the stream was truncated.
    pub fn mid_document(&self) -> bool {
        self.depth > 0
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    depth: usize,
}

/// Nesting bound for untrusted documents: recursion is O(depth), so without
/// a cap a body of a few hundred KB of `[` would overflow the handler
/// thread's stack and abort the whole process.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Json, String>,
    ) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    /// RFC 8259's grammar, `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`,
    /// before `f64::from_str`, which also takes `1.`, `.5` and `007`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let bad = || format!("bad number at byte {start}");
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(bad()),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        self.s[start..self.i].parse::<f64>().map(Json::Num).map_err(|_| bad())
    }

    /// Skips a run of ASCII digits; returns its length.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("bad \\u escape")?
                            };
                            out.push(ch);
                        }
                        c => return Err(format!("bad escape '\\{}'", c as char)),
                    }
                }
                Some(c) if c < 0x20 => return Err("unescaped control character in string".into()),
                Some(_) => {
                    // One run up to the next quote, backslash or control
                    // byte. All three are ASCII, so both ends of the run
                    // are char boundaries of the input `&str`.
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20) {
                        self.i += 1;
                    }
                    out.push_str(&self.s[start..self.i]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.s.len() {
            return Err("truncated \\u escape".into());
        }
        // Exactly four hex digits: `from_str_radix` alone also takes a sign.
        let s = self
            .s
            .get(self.i..self.i + 4)
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or("bad \\u escape")?;
        let v = u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.i += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            out.insert(key, val);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("write to String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------ wire codecs

/// Decodes one table object:
/// `{"id": "...", "columns": [{"name": "...", "values": ["...", ...]}, ...]}`.
/// `id` and `name` are optional; a column may also be a bare array of cell
/// strings.
pub fn table_from_json(v: &Json) -> Result<Table, String> {
    let id = match v.get("id") {
        None | Some(Json::Null) => "request",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err("table \"id\" must be a string".into()),
    };
    let cols =
        v.get("columns").and_then(Json::as_array).ok_or("table must have a \"columns\" array")?;
    if cols.is_empty() {
        return Err("table must have at least one column".into());
    }
    let mut columns = Vec::with_capacity(cols.len());
    for (i, c) in cols.iter().enumerate() {
        let (name, values) = match c {
            Json::Arr(_) => (None, c),
            Json::Obj(_) => {
                let name = match c.get("name") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(_) => return Err(format!("column {i} \"name\" must be a string")),
                };
                let values = c
                    .get("values")
                    .ok_or_else(|| format!("column {i} must have a \"values\" array"))?;
                (name, values)
            }
            _ => return Err(format!("column {i} must be an object or an array")),
        };
        let values = values
            .as_array()
            .ok_or_else(|| format!("column {i} \"values\" must be an array"))?
            .iter()
            .map(|v| match v {
                Json::Str(s) => Ok(s.clone()),
                Json::Num(n) => Ok(format!("{n}")),
                Json::Bool(b) => Ok(format!("{b}")),
                _ => Err(format!("column {i} cells must be strings, numbers or booleans")),
            })
            .collect::<Result<Vec<String>, String>>()?;
        columns.push(Column { name, values });
    }
    Ok(Table::new(id, columns))
}

/// Encodes one table as an `/annotate` request body —
/// [`table_from_json`]'s inverse (up to the `id` default). The load bench
/// and the integration tests build their requests with this, so they
/// exercise exactly the codec the daemon decodes.
pub fn table_to_json(t: &Table) -> String {
    let mut out = String::from("{\"id\":");
    push_escaped(&mut out, &t.id);
    out.push_str(",\"columns\":[");
    for (i, c) in t.columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        if let Some(name) = &c.name {
            out.push_str("\"name\":");
            push_escaped(&mut out, name);
            out.push(',');
        }
        out.push_str("\"values\":[");
        for (j, v) in c.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_escaped(&mut out, v);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Decodes an `/annotate` request body: either one table object or
/// `{"tables": [table, ...]}`. The boolean reports which form was used so
/// the response can mirror it.
pub fn tables_from_request(body: &str) -> Result<(Vec<Table>, bool), String> {
    let v = Json::parse(body)?;
    match v.get("tables") {
        Some(ts) => {
            let arr = ts.as_array().ok_or("\"tables\" must be an array")?;
            if arr.is_empty() {
                return Err("\"tables\" must not be empty".into());
            }
            Ok((arr.iter().map(table_from_json).collect::<Result<_, _>>()?, true))
        }
        None => Ok((vec![table_from_json(&v)?], false)),
    }
}

/// Encodes one annotation. The exact same function renders offline
/// (`--oneshot`) and online responses, so equality of annotations implies
/// equality of bytes.
pub fn annotation_to_json(ann: &TableAnnotation) -> String {
    let mut out = String::from("{\"types\":[");
    for (i, t) in ann.types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"column\":{},\"labels\":[", t.column).expect("write to String");
        for (j, (name, score)) in t.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            push_escaped(&mut out, name);
            write!(out, ",\"score\":{score}}}").expect("write to String");
        }
        out.push_str("]}");
    }
    out.push_str("],\"relations\":[");
    for (i, r) in ann.relations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{{\"subject\":{},\"object\":{},\"labels\":[", r.subject, r.object)
            .expect("write to String");
        for (j, (name, score)) in r.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            push_escaped(&mut out, name);
            write!(out, ",\"score\":{score}}}").expect("write to String");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Encodes a full `/annotate` response body: a single annotation object for
/// single-table requests, `{"annotations": [...]}` for multi-table ones.
/// `wrapped` mirrors whether the request used the `{"tables": ...}` form.
pub fn annotations_response(anns: &[TableAnnotation], wrapped: bool) -> String {
    if !wrapped && anns.len() == 1 {
        let mut s = annotation_to_json(&anns[0]);
        s.push('\n');
        return s;
    }
    let mut out = String::from("{\"annotations\":[");
    for (i, a) in anns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&annotation_to_json(a));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(Json::parse("\"a\\nb\\u0041\"").unwrap(), Json::Str("a\nbA".into()));
        let v = Json::parse(r#"{"a": [1, 2], "b": {"c": "d"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\":1,}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// RFC 8259 numbers and `\u` escapes, not whatever `f64::from_str` and
    /// `u32::from_str_radix` would take.
    #[test]
    fn numbers_and_unicode_escapes_follow_the_rfc_grammar() {
        for bad in [
            "1.",
            "-.5",
            ".5",
            "007",
            "-01",
            "00",
            "[1.]",
            "1.e5",
            "1e",
            "1e+",
            "-",
            "+1",
            "01.5",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04g1\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        for (good, v) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.5e-1", -0.05),
            ("1E+2", 100.0),
            ("1e05", 100000.0),
            ("120.250", 120.25),
        ] {
            assert_eq!(Json::parse(good), Ok(Json::Num(v)), "{good:?}");
        }
        assert_eq!(Json::parse("\"\\u00e9\\u00C9\""), Ok(Json::Str("éÉ".into())));
    }

    #[test]
    fn escape_round_trips() {
        let original = "quote \" backslash \\ newline \n tab \t unicode ☃";
        let mut enc = String::new();
        push_escaped(&mut enc, original);
        assert_eq!(Json::parse(&enc).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn table_codec_accepts_both_column_forms() {
        let body = r#"{"id": "t1", "columns": [
            {"name": "film", "values": ["Happy Feet", "Cars"]},
            ["2006", "2006"]
        ]}"#;
        let (tables, wrapped) = tables_from_request(body).unwrap();
        assert_eq!(tables.len(), 1);
        assert!(!wrapped);
        let t = &tables[0];
        assert_eq!(t.id, "t1");
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.columns[0].name.as_deref(), Some("film"));
        assert_eq!(t.columns[1].name, None);
        assert_eq!(t.columns[1].values, vec!["2006".to_string(), "2006".to_string()]);
    }

    #[test]
    fn table_codec_rejects_bad_requests() {
        for bad in [
            "{}",
            r#"{"columns": []}"#,
            r#"{"columns": [{"name": "x"}]}"#,
            r#"{"columns": [{"values": [null]}]}"#,
            r#"{"tables": []}"#,
            "[1,2]",
        ] {
            assert!(tables_from_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashed() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err(), "must reject, not overflow the stack");
        // Sane nesting still parses.
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    /// Decoding is linear in the document: each run of a string is one
    /// slice of the input. A reader that re-checked the rest of the
    /// document for every character took ~22 s on this ~1.2 MB body.
    #[test]
    fn a_mebibyte_of_short_strings_parses_in_linear_time() {
        let n = 1 << 17;
        let doc = format!("[{}\"é\"]", "\"ab\\ncd\",".repeat(n));
        assert!(doc.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).expect("parses");
        let took = start.elapsed();
        assert_eq!(v.as_array().map(|a| a.len()), Some(n + 1));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn table_codec_round_trips() {
        let t = Table::new(
            "t \"quoted\"",
            vec![
                Column { name: Some("film\n".into()), values: vec!["Happy Feet".into()] },
                Column { name: None, values: vec!["2006".into(), "\\".into()] },
            ],
        );
        let body = table_to_json(&t);
        let (parsed, wrapped) = tables_from_request(&body).unwrap();
        assert!(!wrapped);
        assert_eq!(parsed, vec![t]);
    }

    #[test]
    fn multi_table_request_parses() {
        let body = r#"{"tables": [{"columns": [["a"]]}, {"columns": [["b"], ["c"]]}]}"#;
        let (tables, wrapped) = tables_from_request(body).unwrap();
        assert!(wrapped);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[1].n_cols(), 2);
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A finite random double drawn from raw bit patterns, so the whole
    /// representable range (subnormals, extremes, negative zero) stresses
    /// the shortest-round-trip formatter — not just [0, 1) uniforms.
    fn arb_finite_f64(rng: &mut StdRng) -> f64 {
        loop {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                return v;
            }
        }
    }

    fn arb_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0..12usize);
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => char::from(rng.gen_range(0x20u8..0x7f)), // printable ASCII
                1 => ['"', '\\', '/', '\n', '\r', '\t'][rng.gen_range(0..6usize)],
                2 => char::from(rng.gen_range(0u8..0x20)), // control chars
                3 => '☃',
                4 => '𝄞', // astral plane: needs a surrogate pair in \u form
                _ => char::from(rng.gen_range(b'a'..b'z' + 1)),
            })
            .collect()
    }

    fn arb_json(rng: &mut StdRng, depth: usize) -> Json {
        let top = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..top) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen::<bool>()),
            2 => Json::Num(match rng.gen_range(0..3u32) {
                0 => rng.gen_range(-1000i64..1000) as f64,
                1 => rng.gen::<f64>(),
                _ => arb_finite_f64(rng),
            }),
            3 => Json::Str(arb_string(rng)),
            4 => {
                Json::Arr((0..rng.gen_range(0..4usize)).map(|_| arb_json(rng, depth - 1)).collect())
            }
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Property: `parse(encode(v)) == v` for arbitrary value trees, and the
    /// encoding is byte-stable under a second round trip — the foundation
    /// of the daemon's byte-identity contract.
    #[test]
    fn prop_round_trip_is_identity_and_byte_stable() {
        let mut rng = StdRng::seed_from_u64(0xD0D0);
        for case in 0..256 {
            let v = arb_json(&mut rng, 3);
            let enc = v.encode();
            let back = Json::parse(&enc).unwrap_or_else(|e| panic!("case {case}: {e}\n{enc}"));
            assert_eq!(back, v, "case {case}: round trip changed the value\n{enc}");
            assert_eq!(back.encode(), enc, "case {case}: re-encoding changed bytes\n{enc}");
        }
    }

    /// Property: shortest-round-trip float formatting is bit-faithful for
    /// arbitrary finite doubles (not just friendly ones).
    #[test]
    fn prop_float_format_round_trips_bits() {
        let mut rng = StdRng::seed_from_u64(0xF10A7);
        for _ in 0..512 {
            let x = arb_finite_f64(&mut rng);
            let s = format!("{x}");
            let y: f64 = s.parse().expect("formatted float parses");
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} -> {s} -> {y:?}");
        }
    }

    /// Property: every strict prefix of a well-formed top-level object
    /// document is rejected with an error — never accepted, never a panic.
    /// (Truncation mid-stream must surface as a clean 400/stream error.)
    #[test]
    fn prop_truncated_documents_error_at_every_prefix() {
        let mut rng = StdRng::seed_from_u64(0x7245);
        for case in 0..64 {
            // Top-level object: strict prefixes cannot themselves be
            // complete documents (unbalanced brace).
            let v = Json::Obj(
                (0..rng.gen_range(1..4usize))
                    .map(|_| (arb_string(&mut rng), arb_json(&mut rng, 2)))
                    .collect(),
            );
            let enc = v.encode();
            for (i, _) in enc.char_indices() {
                assert!(
                    Json::parse(&enc[..i]).is_err(),
                    "case {case}: prefix of {i} bytes of {enc:?} parsed"
                );
            }
            assert!(Json::parse(&enc).is_ok(), "case {case}: full document parses");
        }
    }

    #[test]
    fn stream_splitter_handles_arbitrary_chunking() {
        let mut rng = StdRng::seed_from_u64(0x57EA);
        for case in 0..64 {
            // A stream of 1–5 random top-level objects with random
            // whitespace between, pushed in random-size pieces.
            let n = rng.gen_range(1..6usize);
            let docs: Vec<String> = (0..n)
                .map(|_| {
                    Json::Obj(
                        (0..rng.gen_range(0..3usize))
                            .map(|_| (arb_string(&mut rng), arb_json(&mut rng, 2)))
                            .collect(),
                    )
                    .encode()
                })
                .collect();
            let mut wire = String::new();
            for d in &docs {
                wire.push_str(d);
                wire.push_str([" ", "\n", "\r\n", "\t"][rng.gen_range(0..4usize)]);
            }
            let mut splitter = StreamSplitter::new(1 << 20);
            let mut got: Vec<String> = Vec::new();
            let bytes = wire.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let step = rng.gen_range(1..8usize).min(bytes.len() - i);
                got.extend(splitter.push(&bytes[i..i + step]).expect("split ok"));
                i += step;
            }
            assert!(!splitter.mid_document(), "case {case}: stream ended cleanly");
            assert_eq!(got, docs, "case {case}: split documents match");
        }
    }

    #[test]
    fn stream_splitter_rejects_garbage_and_oversize() {
        let mut s = StreamSplitter::new(1 << 20);
        assert!(s.push(b"[1, 2]").is_err(), "top-level arrays are not tables");
        let mut s = StreamSplitter::new(16);
        assert!(s.push(b"{\"k\": \"0123456789abcdef...\"}").is_err(), "oversized doc");
        // Braces inside strings never affect depth.
        let mut s = StreamSplitter::new(1 << 20);
        let docs = s.push(b"{\"k\": \"}}{{\"} {\"j\": 1}").expect("split ok");
        assert_eq!(docs, vec!["{\"k\": \"}}{{\"}".to_string(), "{\"j\": 1}".to_string()]);
    }

    #[test]
    fn float_display_is_bit_faithful() {
        // Two different bit patterns that print differently, and a pair of
        // equal bits that must print identically.
        let a = 0.1f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert_ne!(format!("{a}"), format!("{b}"));
        assert_eq!(format!("{a}"), format!("{}", f32::from_bits(a.to_bits())));
    }
}
