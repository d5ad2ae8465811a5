//! The token-pattern rules: panic-free hot paths, exact float equality,
//! library printing and the wrapping-arithmetic inventory. Comments,
//! strings (raw strings included), test regions, and macro templates
//! cannot produce false positives — the tokens simply are not code.

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

/// Wrapping-arithmetic inventory for numeric simulation code.
pub fn wrapping_audit(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for i in live_code(tokens, structure) {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && t.text.starts_with("wrapping_") {
            push(
                findings,
                file,
                t.line,
                Rule::WrappingAudit,
                format!(
                    "`{}` in numeric simulation code: silent wraparound corrupts physics — use checked/saturating arithmetic or suppress with a justification",
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

    #[test]
    fn wrapping_calls_are_inventoried() {
        let f = run(
            wrapping_audit,
            "fn f(a: u64) -> u64 { a.wrapping_mul(3).saturating_add(1) }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WrappingAudit);
    }
}
