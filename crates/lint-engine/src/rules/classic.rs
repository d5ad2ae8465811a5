//! The six rule families ported from the original line-oriented scanner,
//! re-expressed over the token stream. Comments, strings (raw strings
//! included), test regions, and macro templates can no longer produce
//! false positives — the tokens simply are not code.

use crate::finding::{Finding, Rule};
use crate::lexer::{Token, TokenKind};
use crate::scope::Structure;

fn push(findings: &mut Vec<Finding>, file: &str, line: u32, rule: Rule, message: String) {
    findings.push(Finding {
        file: file.to_string(),
        line,
        rule,
        message,
    });
}

/// Iterator over indices of live (non-test, non-macro-template) code tokens.
fn live_code<'a>(
    tokens: &'a [Token],
    structure: &'a Structure,
) -> impl Iterator<Item = usize> + 'a {
    (0..tokens.len()).filter(move |&i| tokens[i].is_code() && structure.is_live_code(i))
}

/// `.unwrap()` / `.expect(...)` / `panic!`-family macros in non-test code.
pub fn panic_free(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let prev_is_dot = i > 0 && tokens[i - 1].is_punct(".");
        let next = tokens.get(i + 1);
        match t.text.as_str() {
            "unwrap" if prev_is_dot && next.is_some_and(|n| n.is_punct("(")) => push(
                findings,
                file,
                t.line,
                Rule::PanicFree,
                "`.unwrap()` in non-test code: use a typed error (`?` / `ok_or`) instead".into(),
            ),
            "expect" if prev_is_dot && next.is_some_and(|n| n.is_punct("(")) => push(
                findings,
                file,
                t.line,
                Rule::PanicFree,
                "`.expect(...)` in non-test code: use a typed error instead".into(),
            ),
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next.is_some_and(|n| n.is_punct("!")) =>
            {
                push(
                    findings,
                    file,
                    t.line,
                    Rule::PanicFree,
                    format!(
                        "`{}!` in non-test code: return a typed error instead",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Tokens allowed inside a comparison operand chain.
fn operand_token(t: &Token) -> bool {
    matches!(t.kind, TokenKind::Ident | TokenKind::Int | TokenKind::Float)
        || (t.kind == TokenKind::Punct
            && matches!(t.text.as_str(), "." | "::" | "(" | ")" | "[" | "]"))
}

/// Whether an operand token slice reads as an f64 quantity: a float
/// literal, a unit-wrapper `.get()` read, or an `f64::` constant.
fn operand_is_float(ops: &[&Token]) -> bool {
    for (i, t) in ops.iter().enumerate() {
        if t.kind == TokenKind::Float {
            return true;
        }
        if t.is_ident("f64") && ops.get(i + 1).is_some_and(|n| n.is_punct("::")) {
            return true;
        }
        if t.is_ident("get")
            && i > 0
            && ops[i - 1].is_punct(".")
            && ops.get(i + 1).is_some_and(|n| n.is_punct("("))
            && ops.get(i + 2).is_some_and(|n| n.is_punct(")"))
        {
            return true;
        }
    }
    false
}

/// Exact `==` / `!=` with a float operand.
pub fn float_eq(file: &str, tokens: &[Token], structure: &Structure, findings: &mut Vec<Finding>) {
    let live: Vec<usize> = live_code(tokens, structure).collect();
    for (pos, &i) in live.iter().enumerate() {
        let t = &tokens[i];
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        // Collect up to 8 operand tokens on each side.
        let left: Vec<&Token> = live[..pos]
            .iter()
            .rev()
            .map(|&j| &tokens[j])
            .take_while(|t| operand_token(t))
            .take(8)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        let right: Vec<&Token> = live[pos + 1..]
            .iter()
            .map(|&j| &tokens[j])
            .take_while(|t| operand_token(t))
            .take(8)
            .collect();
        if operand_is_float(&left) || operand_is_float(&right) {
            let render = |ops: &[&Token]| {
                ops.iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join("")
            };
            push(
                findings,
                file,
                t.line,
                Rule::FloatEq,
                format!(
                    "exact f64 comparison `{} {} {}`: compare with a tolerance or restructure",
                    render(&left),
                    t.text,
                    render(&right)
                ),
            );
        }
    }
}

/// Wall clock or OS randomness in simulation code.
pub fn nondeterminism(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next_colons = tokens.get(i + 1).is_some_and(|n| n.is_punct("::"));
        let flagged = match t.text.as_str() {
            "SystemTime" | "Instant" | "thread_rng" => true,
            "rand" if next_colons => true,
            "std" if next_colons && tokens.get(i + 2).is_some_and(|n| n.is_ident("time")) => true,
            _ => false,
        };
        if flagged {
            push(
                findings,
                file,
                t.line,
                Rule::Nondeterminism,
                format!(
                    "`{}` in a simulation crate: all entropy must flow through crates/physics/src/rng.rs and all timing through the bench layer",
                    t.text
                ),
            );
        }
    }
}

/// Keywords introducing public items that must carry a doc comment.
const DOC_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
];

/// Undocumented `pub` items; attributes between the docs and the item are
/// transparent, and `#[doc...]` attributes count as documentation.
pub fn missing_docs(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        if !tokens[i].is_ident("pub") {
            continue;
        }
        // `pub(crate)` / `pub(super)` items are not public API.
        let Some(kw_idx) = next_code(tokens, i) else {
            continue;
        };
        let kw = &tokens[kw_idx];
        if kw.kind != TokenKind::Ident || !DOC_KEYWORDS.contains(&kw.text.as_str()) {
            continue;
        }
        let name = next_code(tokens, kw_idx)
            .map(|j| tokens[j].text.clone())
            .unwrap_or_default();
        // `pub mod foo;` documents itself with `//!` inner docs inside the
        // module file, which rustc's `missing_docs` covers.
        if kw.text == "mod"
            && next_code(tokens, kw_idx)
                .and_then(|j| next_code(tokens, j))
                .is_some_and(|j| tokens[j].is_punct(";"))
        {
            continue;
        }
        if !has_doc_above(tokens, i) {
            push(
                findings,
                file,
                tokens[i].line,
                Rule::MissingDocs,
                format!(
                    "public item without a doc comment: `pub {} {name}`",
                    kw.text
                ),
            );
        }
    }
}

/// Index of the next code token after `i`.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    ((i + 1)..tokens.len()).find(|&j| tokens[j].is_code())
}

/// Walks upward from a `pub` token over attributes looking for docs.
fn has_doc_above(tokens: &[Token], pub_idx: usize) -> bool {
    let mut k = pub_idx;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        match t.kind {
            TokenKind::DocComment => {
                // Inner docs (`//!`, `/*!`) document the enclosing module,
                // not the item below them.
                if !t.text.starts_with("//!") && !t.text.starts_with("/*!") {
                    return true;
                }
            }
            TokenKind::LineComment | TokenKind::BlockComment => {
                if t.text.starts_with("/**") {
                    return true;
                }
            }
            TokenKind::Punct if t.text == "]" => {
                // Walk back over one attribute; `#[doc = "..."]` counts.
                let mut depth = 1usize;
                let mut saw_doc = false;
                while k > 0 && depth > 0 {
                    k -= 1;
                    if tokens[k].is_punct("]") {
                        depth += 1;
                    } else if tokens[k].is_punct("[") {
                        depth -= 1;
                    } else if tokens[k].is_ident("doc") {
                        saw_doc = true;
                    }
                }
                if saw_doc {
                    return true;
                }
                // Step over the leading `#` (and `!` for inner attrs).
                while k > 0 && (tokens[k - 1].is_punct("#") || tokens[k - 1].is_punct("!")) {
                    k -= 1;
                }
            }
            _ => return false,
        }
    }
    false
}

/// Raw thread spawning outside `crates/par`.
pub fn thread_discipline(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        let t = &tokens[i];
        if !t.is_ident("thread") {
            continue;
        }
        let Some(j) = next_code(tokens, i) else {
            continue;
        };
        if !tokens[j].is_punct("::") {
            continue;
        }
        let Some(k) = next_code(tokens, j) else {
            continue;
        };
        let target = &tokens[k];
        if target.is_ident("spawn") || target.is_ident("Builder") || target.is_ident("scope") {
            push(
                findings,
                file,
                t.line,
                Rule::ThreadDiscipline,
                format!(
                    "`thread::{}` outside crates/par: fan work out through `flashmark_par::TrialRunner` so parallel runs stay bit-identical to serial ones",
                    target.text
                ),
            );
        }
    }
}

/// `println!` / `eprintln!` from library code.
pub fn print_discipline(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                findings,
                file,
                t.line,
                Rule::PrintDiscipline,
                format!(
                    "`{}!` in a library crate: report through typed results or emit a `flashmark_obs` event; only binary targets own stdout",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::Structure;

    fn run(rule: fn(&str, &[Token], &Structure, &mut Vec<Finding>), src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let structure = Structure::analyze(&tokens);
        let mut findings = Vec::new();
        rule("x.rs", &tokens, &structure, &mut findings);
        findings
    }

    #[test]
    fn panic_family_flagged_variants_clean() {
        let f = run(
            panic_free,
            "fn f() { y.unwrap(); w.expect(\"no\"); panic!(\"b\"); unreachable!(); }",
        );
        assert_eq!(f.len(), 4);
        let ok = run(
            panic_free,
            "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); d.expect_err(\"e\"); }",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn panic_inside_raw_string_or_test_is_clean() {
        assert!(run(
            panic_free,
            r##"fn f() { let s = r#"x.unwrap() panic!"#; }"##
        )
        .is_empty());
        assert!(run(panic_free, "#[cfg(test)]\nmod t { fn g() { x.unwrap(); } }").is_empty());
    }

    #[test]
    fn float_eq_detection() {
        let f = run(
            float_eq,
            "fn f(x: f64, s: usize) { if x == 0.0 {} if t.get() != limit.get() {} if s == 0 {} if w == 0xFFFF {} for i in 0..=5 {} if s >= 3 {} }",
        );
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("0.0"));
    }

    #[test]
    fn float_eq_f64_constants() {
        let f = run(float_eq, "fn f(x: f64) { if x == f64::NAN {} }");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn nondeterminism_detection() {
        let f = run(
            nondeterminism,
            "fn f() { let t = std::time::Instant::now(); let r = rand::random(); }",
        );
        assert!(f.len() >= 2);
        assert!(run(nondeterminism, "fn f() { let standard = 1; }").is_empty());
    }

    #[test]
    fn missing_docs_through_attributes() {
        let f = run(
            missing_docs,
            "#[derive(Debug)]\npub struct S;\n\n/// Documented.\n#[derive(Debug)]\npub struct T;\n\npub use other::Thing;\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn missing_docs_exemptions() {
        assert!(run(
            missing_docs,
            "/// Doc'd.\npub mod inline { }\npub mod file;"
        )
        .is_empty());
        assert!(run(missing_docs, "pub(crate) fn internal() {}").is_empty());
        assert!(
            run(missing_docs, "#[doc = \"macro docs\"]\npub fn f() {}").is_empty(),
            "#[doc] attributes count as documentation"
        );
        assert!(
            run(
                missing_docs,
                "macro_rules! m { () => { pub fn gen() {} }; }"
            )
            .is_empty(),
            "macro templates are not items"
        );
    }

    #[test]
    fn thread_discipline_detection() {
        let f = run(
            thread_discipline,
            "fn f() { std::thread::spawn(|| {}); let b = thread::Builder::new(); }",
        );
        assert_eq!(f.len(), 2);
        assert!(run(thread_discipline, "fn g(r: &TrialRunner) { r.threads(); }").is_empty());
    }

    #[test]
    fn print_discipline_detection() {
        let f = run(
            print_discipline,
            "fn f() { println!(\"x\"); eprintln!(\"y\"); }",
        );
        assert_eq!(f.len(), 2);
        assert!(run(
            print_discipline,
            "fn g(out: &mut String) { writeln!(out, \"z\"); }"
        )
        .is_empty());
        assert!(
            run(print_discipline, "/// Call `println!` never.\nfn h() {}").is_empty(),
            "doc comments are not code"
        );
    }
}
