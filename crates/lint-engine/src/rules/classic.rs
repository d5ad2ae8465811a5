//! The token-pattern rules: exact float equality with zero and the
//! wrapping-arithmetic inventory. Comments, strings (raw strings
//! included), test regions, and macro templates cannot produce false
//! positives — the tokens simply are not code.

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

/// Whether `t` is a float literal whose value is zero (`0.0`, `0.`, `0e3`,
/// `0.0_f64`, `0f32`): every mantissa digit is a `0`.
fn is_zero_float(t: Option<&Token>) -> bool {
    t.is_some_and(|t| {
        t.kind == TokenKind::Float
            && t.text
                .split(['e', 'E', 'f'])
                .next()
                .is_some_and(|mantissa| mantissa.chars().all(|c| matches!(c, '0' | '.' | '_')))
    })
}

/// Whether `t` binds tighter than `==`, so a literal beside it is only part
/// of an operand (`x == 0.0 * y`, `t.0.0 == y`).
fn binds_tighter(t: Option<&Token>) -> bool {
    t.is_some_and(|t| {
        t.is_ident("as") || [".", "*", "/", "%", "+", "-"].iter().any(|p| t.is_punct(p))
    })
}

/// Exact `==` / `!=` against a zero float literal (`x == 0.0`,
/// `x != -0.0`, `0.0 == x`). Clippy's `float_cmp` checks every other float
/// comparison but skips this one.
pub fn float_eq(file: &str, tokens: &[Token], structure: &Structure, findings: &mut Vec<Finding>) {
    let live: Vec<&Token> = live_code(tokens, structure).map(|i| &tokens[i]).collect();
    for (pos, t) in live.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let next = |k: usize| live.get(pos + k).copied();
        let prev = |k: usize| pos.checked_sub(k).and_then(|i| live.get(i)).copied();
        // A unary minus keeps a right-hand zero zero.
        let k = 1 + usize::from(next(1).is_some_and(|n| n.is_punct("-")));
        let zero = if is_zero_float(next(k)) && !binds_tighter(next(k + 1)) {
            next(k)
        } else if is_zero_float(prev(1)) && !binds_tighter(prev(2)) {
            prev(1)
        } else {
            None
        };
        if let Some(zero) = zero {
            push(
                findings,
                file,
                t.line,
                Rule::FloatEq,
                format!(
                    "exact float comparison `{} {}`: compare with a tolerance or restructure",
                    t.text, zero.text
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
                    "`{}` in numeric simulation code: silent wraparound corrupts physics — use checked or saturating arithmetic",
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
    fn float_eq_flags_only_zero_compares() {
        let f = run(
            float_eq,
            "fn f(x: f64, s: usize) { if x == 0.0 {} if 0.0_f64 != x {} if x == -0. {} if x.get() != 0e3 {} }",
        );
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f[0].message.contains("== 0.0"));
        let clean = run(
            float_eq,
            "fn f(x: f64, s: usize) { if x == 0.5 {} if t.get() != limit.get() {} if x == f64::EPSILON {} if s == 0 {} if x == 0.0 * y {} if p.0.0 == y {} if x == 10.0 {} }",
        );
        assert!(clean.is_empty(), "clippy's float_cmp owns these: {clean:?}");
    }

    #[test]
    fn float_eq_skips_strings_and_tests() {
        assert!(run(float_eq, r#"fn f() { let s = "x == 0.0"; }"#).is_empty());
        assert!(run(
            float_eq,
            "#[cfg(test)]\nmod t { fn g(x: f64) -> bool { x == 0.0 } }"
        )
        .is_empty());
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
