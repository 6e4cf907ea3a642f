//! A minimal self-contained JSON value with an emitter and a parser.
//!
//! The build container has no crates.io access, so the crate carries its own
//! JSON support instead of serde. Round-tripping through [`Json::parse`] is
//! what the CI schema check relies on: every profile the exporters emit must
//! parse back into the same structure.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; integers up to 2^53 round-trip
    /// exactly, which covers every counter this crate produces.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object. [`Json::parse`] refuses a repeated key, so
    /// a parsed object has none.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub msg: String,
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric member interpreted as a non-negative integer counter. A
    /// number above 2⁵³ is refused: it is not exact in an `f64`, and `as u64`
    /// would saturate a forged `1e300` to `u64::MAX`, which the first sum
    /// over such counters overflows.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if (0.0..=MAX_EXACT).contains(n) && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Serialize compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(*n, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected). Input from outside the program gets an
    /// error, never a panic: nesting beyond [`MAX_DEPTH`], a repeated
    /// object key and a number outside the finite `f64` range are refused.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err("trailing characters after document", pos));
        }
        Ok(value)
    }
}

/// Deepest array/object nesting [`Json::parse`] follows: the parser
/// recurses once per level, so an unbounded `[[[[…` would overflow the
/// stack. The deepest document this workspace writes nests four levels.
pub const MAX_DEPTH: usize = 128;

fn render_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; degrade to null rather than emit an
        // unparseable token.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(msg: &str, at: usize) -> JsonError {
    JsonError {
        msg: msg.to_string(),
        at,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(&format!("expected `{lit}`"), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if depth > MAX_DEPTH {
        return Err(err(
            &format!("nesting deeper than {MAX_DEPTH} levels"),
            *pos,
        ));
    }
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected `,` or `]` in array", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        reject_repeated_keys(&members, *pos)?;
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err("expected `,` or `}` in object", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(_) => Err(err("unexpected character", *pos)),
    }
}

/// Sorted once per object, so a hostile object of n keys costs n log n.
fn reject_repeated_keys(members: &[(String, Json)], at: usize) -> Result<(), JsonError> {
    let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    match keys.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(err(&format!("repeated object key `{}`", w[0]), at)),
        None => Ok(()),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad number", start))?;
    // `1e999` parses to infinity, which renders as `null` and equals
    // itself in a comparison: not a number a document may carry.
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        Ok(_) => Err(err("number outside the finite f64 range", start)),
        Err(_) => Err(err("bad number", start)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err("truncated \\u escape", *pos))?;
                        // Exactly four hex digits: `from_str_radix` alone
                        // would take a sign (`\u+041`).
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(err("bad \\u escape", *pos));
                        }
                        let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                        let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(&lead) => {
                // Consume one UTF-8 scalar. The input is a &str and every
                // other byte consumed is ASCII, so `pos` is on a boundary
                // and the lead byte gives the length (re-validating the
                // rest of the document per character would be quadratic).
                let len = match lead {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let scalar = bytes
                    .get(*pos..*pos + len)
                    .and_then(|b| std::str::from_utf8(b).ok());
                out.push_str(scalar.ok_or_else(|| err("bad UTF-8 in string", *pos))?);
                *pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("qcd-trace/v1".into())),
            (
                "regions".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("path".into(), Json::Str("solver/cg \"quoted\"".into())),
                    ("wall_ns".into(), Json::Num(123456789.0)),
                    ("ai".into(), Json::Num(0.71875)),
                    ("converged".into(), Json::Bool(true)),
                    ("note".into(), Json::Null),
                ])]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-7.0).render(), "-7");
        assert_eq!(Json::Num(1320.0 * 4096.0).render(), "5406720");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let v = Json::parse(" { \"a\\n\\u0041\" : [ 1.5e2 , true , null ] } ").unwrap();
        let arr = v.get("a\nA").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(150.0));
        assert_eq!(arr[1], Json::Bool(true));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        // 200 KB of `[`: the parent commit died of SIGABRT here.
        let e = Json::parse(&"[".repeat(200_000)).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        let e = Json::parse(&"{\"a\":".repeat(200_000)).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        // The cap is on depth, not on size.
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep).is_ok());
        let deeper = format!("[{deep}]");
        assert!(Json::parse(&deeper).is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04""#,
            r#""\u00é""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn numbers_outside_the_finite_range_are_refused() {
        for bad in ["1e999", "-1e999", "[1, 1e400]"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.msg.contains("finite"), "{bad}: {e}");
        }
        assert_eq!(Json::parse("1e308").unwrap(), Json::Num(1e308));
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn integers_beyond_f64_exactness_are_not_counters() {
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), Some(1 << 53));
        for bad in [9_007_199_254_740_994.0, 1e300, -1.0, 0.5] {
            assert_eq!(Json::Num(bad).as_u64(), None, "{bad}");
        }
    }

    #[test]
    fn a_repeated_key_is_an_error_not_last_wins() {
        let e = Json::parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert!(e.msg.contains("repeated object key `a`"), "{e}");
        // The same key in two different objects is not a repeat.
        assert!(Json::parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
    }

    #[test]
    fn multibyte_scalars_survive_a_round_trip() {
        let doc = Json::Str("⟨e^−ΔH⟩ 𝛽 é".into());
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
