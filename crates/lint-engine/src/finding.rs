//! Findings and the machine-readable report.
//!
//! The report serializer is deterministic by construction: findings are
//! sorted by `(file, line, rule, message)`, rule counts live in a
//! `BTreeMap`, and nothing timestamped ever enters the document — so
//! `results/lint_report.json` is byte-identical across repeated runs.
//! There is no baseline of accepted findings and no way to silence one in
//! place: a finding is fixed in the code.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Every rule family the engine knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No exact float equality with zero on physics quantities.
    FloatEq,
    /// RNG/stream constructions must derive from a seed parameter.
    SeedDataflow,
    /// No ad-hoc float accumulation in cross-trial merge code.
    MergeCommutativity,
    /// Wrapping-arithmetic inventory in numeric simulation code.
    WrappingAudit,
    /// Unreferenced `pub` items across the workspace.
    PubLiveness,
}

impl Rule {
    /// Stable kebab-case name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FloatEq => "float-eq",
            Self::SeedDataflow => "seed-dataflow",
            Self::MergeCommutativity => "merge-commutativity",
            Self::WrappingAudit => "wrapping-audit",
            Self::PubLiveness => "pub-liveness",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of one engine run over the workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted for stable output.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_checked: usize,
}

impl Report {
    /// Sorts findings into the canonical report order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    }

    /// Serializes the report as deterministic pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule.name()).or_insert(0) += 1;
        }
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"flashmark-lint/1\",\n");
        let _ = writeln!(out, "  \"files_checked\": {},", self.files_checked);
        out.push_str("  \"rule_counts\": {");
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{rule}\": {n}");
        }
        if counts.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, " \"rule\": {},", json_string(f.rule.name()));
            let _ = write!(out, " \"file\": {},", json_string(&f.file));
            let _ = write!(out, " \"line\": {},", f.line);
            let _ = write!(out, " \"message\": {} }}", json_string(&f.message));
        }
        if self.findings.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// Escapes a string into a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal, strict recursive-descent JSON parser for offline builds (no
/// serde available).
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any number (f64 precision is plenty for line counts).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object with source-ordered keys.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The string payload, if this is a string.
        #[must_use]
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Self::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The element list, if this is an array.
        #[must_use]
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Self::Arr(a) => Some(a),
                _ => None,
            }
        }

        /// The key/value list, if this is an object.
        #[must_use]
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Self::Obj(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parses one JSON document (RFC 8259).
    ///
    /// # Errors
    ///
    /// A message naming the offset of the first token that is not valid
    /// JSON, including bad escapes, unpaired surrogates, raw control
    /// characters in strings and numbers with leading zeros.
    pub fn parse(text: &str) -> Result<Value, String> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = Parser { chars, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing characters at offset {}", p.pos));
        }
        Ok(v)
    }

    struct Parser {
        chars: Vec<char>,
        pos: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<char> {
            self.chars.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
                self.pos += 1;
            }
        }

        /// Consumes `c` if it is next.
        fn eat(&mut self, c: char) -> bool {
            let hit = self.peek() == Some(c);
            if hit {
                self.pos += 1;
            }
            hit
        }

        /// Consumes a run of ASCII digits and returns its length.
        fn digits(&mut self) -> usize {
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            self.pos - start
        }

        fn expect(&mut self, c: char) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{c}` at offset {}", self.pos))
            }
        }

        fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
            for c in word.chars() {
                self.expect(c)?;
            }
            Ok(value)
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.peek() {
                Some('{') => self.object(),
                Some('[') => self.array(),
                Some('"') => self.string().map(Value::Str),
                Some('t') => self.literal("true", Value::Bool(true)),
                Some('f') => self.literal("false", Value::Bool(false)),
                Some('n') => self.literal("null", Value::Null),
                Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
                other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect('{')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some('}') {
                self.pos += 1;
                return Ok(Value::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(':')?;
                let val = self.value()?;
                out.push((key, val));
                self.skip_ws();
                match self.peek() {
                    Some(',') => self.pos += 1,
                    Some('}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(out));
                    }
                    other => return Err(format!("expected `,` or `}}`, got {other:?}")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect('[')?;
            let mut out = Vec::new();
            self.skip_ws();
            if self.peek() == Some(']') {
                self.pos += 1;
                return Ok(Value::Arr(out));
            }
            loop {
                out.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(',') => self.pos += 1,
                    Some(']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(out));
                    }
                    other => return Err(format!("expected `,` or `]`, got {other:?}")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                let c = self.peek().ok_or("unterminated string")?;
                self.pos += 1;
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let esc = self.peek().ok_or("dangling escape")?;
                        self.pos += 1;
                        out.push(match esc {
                            '"' | '\\' | '/' => esc,
                            'b' => '\u{8}',
                            'f' => '\u{c}',
                            'n' => '\n',
                            'r' => '\r',
                            't' => '\t',
                            'u' => self.unicode_escape()?,
                            other => {
                                return Err(format!(
                                    "invalid escape `\\{other}` at offset {}",
                                    self.pos - 1
                                ))
                            }
                        });
                    }
                    c if c < ' ' => {
                        return Err(format!(
                            "raw control character {c:?} in string at offset {}",
                            self.pos - 1
                        ))
                    }
                    c => out.push(c),
                }
            }
        }

        /// The four hex digits of a `\u` escape.
        fn hex4(&mut self) -> Result<u32, String> {
            let end = self.pos + 4;
            match self.chars.get(self.pos..end) {
                Some(hex) if hex.iter().all(char::is_ascii_hexdigit) => {
                    let code = hex
                        .iter()
                        .fold(0, |acc, c| acc * 16 + c.to_digit(16).unwrap_or(0));
                    self.pos = end;
                    Ok(code)
                }
                _ => Err(format!("bad \\u escape at offset {}", self.pos)),
            }
        }

        /// A `\u` escape after its `u`: one code point, where a high
        /// surrogate must be followed by an escaped low one.
        fn unicode_escape(&mut self) -> Result<char, String> {
            let at = self.pos;
            let high = self.hex4()?;
            let code = if (0xD800..0xDC00).contains(&high) {
                if !(self.eat('\\') && self.eat('u')) {
                    return Err(format!("unpaired surrogate at offset {at}"));
                }
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(format!("unpaired surrogate at offset {at}"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            } else {
                high
            };
            char::from_u32(code).ok_or_else(|| format!("unpaired surrogate at offset {at}"))
        }

        /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            self.eat('-');
            let int_digits = if self.eat('0') { 1 } else { self.digits() };
            let frac_ok = !self.eat('.') || self.digits() > 0;
            let exp_ok = !(self.eat('e') || self.eat('E')) || {
                let _ = self.eat('+') || self.eat('-');
                self.digits() > 0
            };
            let text: String = self.chars[start..self.pos].iter().collect();
            if int_digits == 0 || !frac_ok || !exp_ok {
                return Err(format!("bad number `{text}` at offset {start}"));
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: Rule, msg: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn report_json_is_deterministic_and_sorted() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 9, Rule::WrappingAudit, "z"),
                finding("a.rs", 3, Rule::FloatEq, "y"),
                finding("a.rs", 1, Rule::FloatEq, "x"),
            ],
            files_checked: 2,
        };
        r.normalize();
        let one = r.to_json();
        let two = r.to_json();
        assert_eq!(one, two);
        let a1 = one.find("\"a.rs\", \"line\": 1").unwrap();
        let a3 = one.find("\"a.rs\", \"line\": 3").unwrap();
        let b9 = one.find("\"b.rs\"").unwrap();
        assert!(a1 < a3 && a3 < b9);
        assert!(one.contains("\"float-eq\": 2"));
        assert!(one.ends_with("}\n"));
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let r = Report::default();
        let json = r.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"rule_counts\": {}"));
    }

    #[test]
    fn json_escaping_round_trips() {
        let file = "a \"b\"\\c.rs";
        let message = "line1\nline2\ttabbed \"quoted\" \\ end";
        let r = Report {
            findings: vec![finding(file, 4, Rule::FloatEq, message)],
            files_checked: 1,
        };
        let doc = json::parse(&r.to_json()).unwrap();
        let field = |v: &json::Value, key: &str| {
            let obj = v.as_object().unwrap();
            obj.iter().find(|(k, _)| k == key).unwrap().1.clone()
        };
        let only = field(&doc, "findings").as_array().unwrap()[0].clone();
        assert_eq!(field(&only, "file").as_str(), Some(file));
        assert_eq!(field(&only, "message").as_str(), Some(message));
        assert_eq!(field(&only, "rule").as_str(), Some("float-eq"));
    }

    #[test]
    fn mini_json_parses_nested_documents() {
        let v = json::parse(r#"{"a": [1, 2.5, "s"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[2].as_str(), Some("s"));
        assert!(json::parse("{").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("1 2").is_err());
    }

    #[test]
    fn mini_json_is_strict_rfc_8259() {
        use json::Value::{Num, Str};
        let s = |v: &str| Some(Str(v.to_string()));
        let table: [(&str, Option<json::Value>); 16] = [
            (r#""a\bz""#, s("a\u{8}z")),
            (r#""a\fz""#, s("a\u{c}z")),
            (r#""\"\\\/\n\r\t""#, s("\"\\/\n\r\t")),
            (r#""\u00e9""#, s("\u{e9}")),
            (r#""\ud83d\ude00""#, s("\u{1F600}")),
            (r#""a\xz""#, None),
            (r#""\ud83d""#, None),
            (r#""\ude00""#, None),
            (r#""\u12g4""#, None),
            ("\"a\u{1}b\"", None),
            ("01", None),
            ("-0.5e+3", Some(Num(-500.0))),
            ("1.", None),
            ("1e", None),
            ("-", None),
            ("\u{a0}1", None),
        ];
        for (text, want) in table {
            assert_eq!(json::parse(text).ok(), want, "{text:?}");
        }
    }
}
