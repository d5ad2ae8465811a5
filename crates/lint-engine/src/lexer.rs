//! A lossless-enough Rust lexer for static analysis.
//!
//! Produces a flat token stream with 1-based line numbers. Comments and
//! string literals are kept as *tokens* (so the suppression parser can read
//! `// flashmark-lint: ...` comments) but rule passes that scan for code
//! patterns simply skip non-code token kinds — which is what makes the engine immune to
//! `.unwrap()` appearing inside a raw string or a comment.
//!
//! Handled: line and nested block comments, doc comments (`///`, `//!`,
//! `/** */`), string literals with escapes, byte strings, raw strings
//! `r"…"` / `r#"…"#` at any hash depth, char literals vs lifetimes,
//! numeric literals (with float detection), multi-character operators.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `SplitMix64`, `r#match`).
    Ident,
    /// A lifetime such as `'a` (including `'static`).
    Lifetime,
    /// Any string literal: `"…"`, `b"…"`, `r"…"`, `r#"…"#`, `c"…"`.
    Str,
    /// A character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// An integer literal.
    Int,
    /// A floating-point literal (`1.0`, `1e5`, `0.5e-3`).
    Float,
    /// An operator or punctuation token, possibly multi-character (`==`,
    /// `+=`, `::`, `->`).
    Punct,
    /// A `//` comment that is *not* a doc comment.
    LineComment,
    /// A `///` or `//!` doc comment line.
    DocComment,
    /// A `/* … */` comment (nested blocks folded into one token); doc
    /// block comments (`/** … */`, `/*! … */`) also land here with their
    /// doc flag carried in the text.
    BlockComment,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// Source text. For comments this includes the comment markers; for
    /// strings it is the *full literal* including quotes (rules never scan
    /// inside it); for everything else it is the exact slice.
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: u32,
}

impl Token {
    /// Whether this token participates in code-pattern scanning.
    #[must_use]
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokenKind::LineComment | TokenKind::DocComment | TokenKind::BlockComment
        )
    }

    /// Whether this is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Multi-character operators joined into single `Punct` tokens, longest
/// first so maximal munch wins (`..=` before `..` before `.`).
const MULTI_PUNCT: [&str; 25] = [
    "..=", "...", "<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "::", "->", "=>", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..", ".",
];

/// Lexes one source file into a token stream.
///
/// The lexer never fails: malformed input degrades to punct/ident tokens,
/// which at worst makes a rule miss a pattern on a line that would not
/// compile anyway.
#[must_use]
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    tokens: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Advances one char, tracking newlines.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                ch if ch.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line, String::new()),
                'r' if matches!(self.peek(1), Some('"' | '#')) && self.raw_string_ahead(1) => {
                    self.bump();
                    self.raw_string(line, "r".to_string());
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line, "b".to_string());
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(line, "b".to_string());
                }
                'b' if self.peek(1) == Some('r') && self.raw_string_ahead(2) => {
                    self.bump();
                    self.bump();
                    self.raw_string(line, "br".to_string());
                }
                'c' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line, "c".to_string());
                }
                '\'' => self.quote(line),
                ch if ch.is_ascii_digit() => self.number(line),
                ch if ch == '_' || ch.is_alphabetic() => self.ident(line),
                _ => self.punct(line),
            }
        }
        self.tokens
    }

    /// Whether `r`/`br` at the current position starts a raw string: `r`
    /// followed by zero or more `#` then `"`. (`offset` points just past
    /// the `r`.) Distinguishes `r"…"` from an identifier like `r#match`
    /// (raw identifier — `#` then a letter).
    fn raw_string_ahead(&self, offset: usize) -> bool {
        let mut i = offset;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        let is_doc =
            (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        let kind = if is_doc {
            TokenKind::DocComment
        } else {
            TokenKind::LineComment
        };
        self.push(kind, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokenKind::BlockComment, text, line);
    }

    /// A `"…"` string with escape handling; `prefix` carries `b`/`c`.
    fn string(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
                continue;
            }
            text.push(c);
            if c == '"' {
                break;
            }
        }
        self.push(TokenKind::Str, text, line);
    }

    /// A raw string `r##"…"##` at any hash depth; no escapes inside.
    fn raw_string(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        text.push('"');
        self.bump(); // opening quote
        let closer: String = std::iter::once('"')
            .chain("#".repeat(hashes).chars())
            .collect();
        let mut tail = String::new();
        while let Some(c) = self.bump() {
            tail.push(c);
            if tail.ends_with(&closer) {
                break;
            }
        }
        text.push_str(&tail);
        self.push(TokenKind::Str, text, line);
    }

    /// A `'…'` token: lifetime or char literal.
    fn quote(&mut self, line: u32) {
        // Lifetime: `'` + ident char(s) NOT followed by a closing `'`.
        // Char literal: `'x'`, `'\n'`, `'\u{1F600}'`.
        let c1 = self.peek(1);
        let is_lifetime = match c1 {
            Some(c) if c == '_' || c.is_alphabetic() => self.peek(2) != Some('\''),
            _ => false,
        };
        if is_lifetime {
            let mut text = String::from("'");
            self.bump();
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line);
        } else {
            self.char_literal(line, String::new());
        }
    }

    fn char_literal(&mut self, line: u32, prefix: String) {
        let mut text = prefix;
        text.push('\'');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '\\' {
                text.push(c);
                if let Some(esc) = self.bump() {
                    text.push(esc);
                }
                continue;
            }
            text.push(c);
            if c == '\'' {
                break;
            }
        }
        self.push(TokenKind::Char, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        let mut is_float = false;
        // Radix prefixes are integer-only.
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            text.push(self.bump().unwrap_or('0'));
            text.push(self.bump().unwrap_or('x'));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, text, line);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // A fractional part: `.` followed by a digit (not `..` or a method
        // call like `1.max(2)`).
        if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            text.push('.');
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // A trailing `1.` (float with empty fraction) — only when not `..`.
        else if self.peek(0) == Some('.')
            && self.peek(1) != Some('.')
            && !self.peek(1).is_some_and(|c| c == '_' || c.is_alphabetic())
        {
            is_float = true;
            text.push('.');
            self.bump();
        }
        // Exponent: `e`/`E` with optional sign and at least one digit.
        if matches!(self.peek(0), Some('e' | 'E')) {
            let sign = usize::from(matches!(self.peek(1), Some('+' | '-')));
            if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..=sign {
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Type suffix (`u64`, `f64`, `usize`) — glued to the literal.
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_ascii_alphanumeric() {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix.starts_with('f') {
            is_float = true;
        }
        text.push_str(&suffix);
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        // Raw identifier `r#keyword`.
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            text.push_str("r#");
            self.bump();
            self.bump();
        }
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line);
    }

    fn punct(&mut self, line: u32) {
        let remaining: String = self.chars[self.pos..self.pos + 3.min(self.chars.len() - self.pos)]
            .iter()
            .collect();
        for op in MULTI_PUNCT {
            if remaining.starts_with(op) {
                for _ in 0..op.chars().count() {
                    self.bump();
                }
                self.push(TokenKind::Punct, op.to_string(), line);
                return;
            }
        }
        if let Some(c) = self.bump() {
            self.push(TokenKind::Punct, c.to_string(), line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("fn f(x: u64) -> u64 { x == 0 }");
        assert!(toks.contains(&(TokenKind::Punct, "->".into())));
        assert!(toks.contains(&(TokenKind::Punct, "==".into())));
        assert!(toks.contains(&(TokenKind::Ident, "u64".into())));
    }

    #[test]
    fn raw_string_hides_patterns() {
        let toks = lex(r##"let s = r#"x.unwrap() panic!"#;"##);
        let strs: Vec<&Token> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unwrap"));
        // No Ident token named `unwrap` escapes the literal.
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn raw_string_with_hash_in_body() {
        let toks = lex(r###"let s = r##"end "# not yet"##; done"###);
        assert!(toks.iter().any(|t| t.is_ident("done")));
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert!(s.text.contains("not yet"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert!(toks[1].is_ident("code"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
        assert_eq!(lifetimes[0].text, "'a");
        assert_eq!(chars[0].text, "'x'");
    }

    #[test]
    fn static_lifetime_is_a_lifetime() {
        let toks = lex("x: &'static str");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'static"));
    }

    #[test]
    fn float_vs_int_vs_range() {
        assert_eq!(kinds("1.5")[0].0, TokenKind::Float);
        assert_eq!(kinds("1e5")[0].0, TokenKind::Float);
        assert_eq!(kinds("1.5e-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("42")[0].0, TokenKind::Int);
        assert_eq!(kinds("0xFF_u64")[0].0, TokenKind::Int);
        assert_eq!(kinds("3f64")[0].0, TokenKind::Float);
        // `0..5` is Int Punct(..) Int, not a float.
        let r = kinds("0..5");
        assert_eq!(r[0].0, TokenKind::Int);
        assert_eq!(r[1], (TokenKind::Punct, "..".into()));
        assert_eq!(r[2].0, TokenKind::Int);
        // `1.max(2)` keeps 1 as an int (method call on a literal).
        let m = kinds("1.max(2)");
        assert_eq!(m[0].0, TokenKind::Int);
        assert!(m.iter().any(|(k, t)| *k == TokenKind::Ident && t == "max"));
    }

    #[test]
    fn doc_vs_plain_comments() {
        let toks = lex("/// doc\n//! inner\n// plain\n//// not doc\ncode");
        assert_eq!(toks[0].kind, TokenKind::DocComment);
        assert_eq!(toks[1].kind, TokenKind::DocComment);
        assert_eq!(toks[2].kind, TokenKind::LineComment);
        assert_eq!(toks[3].kind, TokenKind::LineComment);
        assert!(toks[4].is_ident("code"));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn multiline_string_keeps_line_of_start_and_resumes() {
        let toks = lex("let s = \"one\ntwo\";\nnext");
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.line, 1);
        let next = toks.iter().find(|t| t.is_ident("next")).unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn string_escapes() {
        let toks = lex(r#"let s = "quote \" inside"; after"#);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert!(s.text.contains("inside"));
    }

    #[test]
    fn byte_and_c_strings() {
        let toks = lex(r##"let a = b"bytes"; let b = br#"raw"#; let c = c"cstr";"##);
        let strs = toks.iter().filter(|t| t.kind == TokenKind::Str).count();
        assert_eq!(strs, 3);
    }

    #[test]
    fn raw_ident_is_not_raw_string() {
        let toks = lex("let r#match = 1; r#\"s\"#");
        assert!(toks.iter().any(|t| t.is_ident("r#match")));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn compound_assign_ops() {
        let toks = kinds("a += 1.0; b -= 2; c *= 3;");
        assert!(toks.contains(&(TokenKind::Punct, "+=".into())));
        assert!(toks.contains(&(TokenKind::Punct, "-=".into())));
        assert!(toks.contains(&(TokenKind::Punct, "*=".into())));
    }
}
