//! Suppression comments.
//!
//! Syntax: `// flashmark-lint: allow(rule-a, rule-b) -- justification`
//!
//! A suppression silences findings of the listed rules on its own line
//! (trailing-comment style) and on the following line (comment-above
//! style). The justification after `--` is **mandatory and non-empty**: a
//! suppression without one is itself reported under the `suppression`
//! rule and has no effect, so the gate cannot be waved through silently.

use crate::finding::{Finding, Rule};
use crate::lexer::{Token, TokenKind};

/// The marker every suppression comment starts with (after `//`).
const MARKER: &str = "flashmark-lint:";

/// One parsed suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The silenced rules.
    pub rules: Vec<Rule>,
    /// The 1-based line the comment sits on (it also covers `line + 1`).
    pub line: u32,
    /// The justification text (guaranteed non-empty).
    pub justification: String,
}

impl Suppression {
    /// Whether this suppression covers a finding of `rule` at `line`.
    #[must_use]
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        (line == self.line || line == self.line + 1) && self.rules.contains(&rule)
    }
}

/// Extracts suppressions from a token stream. Malformed or unjustified
/// suppressions are returned as findings instead of suppressions.
#[must_use]
pub fn parse(file: &str, tokens: &[Token]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut suppressions = Vec::new();
    let mut findings = Vec::new();
    for token in tokens {
        if token.kind != TokenKind::LineComment {
            continue;
        }
        let body = token.text.trim_start_matches('/').trim_start();
        let Some(rest) = body.strip_prefix(MARKER) else {
            continue;
        };
        match parse_body(rest.trim()) {
            Ok((rules, justification)) => suppressions.push(Suppression {
                rules,
                line: token.line,
                justification,
            }),
            Err(problem) => findings.push(Finding {
                file: file.to_string(),
                line: token.line,
                rule: Rule::Suppression,
                message: problem,
            }),
        }
    }
    (suppressions, findings)
}

/// Parses `allow(rule, ...) -- justification`, returning the rules and the
/// justification or a description of what is wrong.
fn parse_body(body: &str) -> Result<(Vec<Rule>, String), String> {
    let Some(rest) = body.strip_prefix("allow(") else {
        return Err(format!(
            "malformed suppression: expected `{MARKER} allow(<rule>, ...) -- <justification>`"
        ));
    };
    let Some(close) = rest.find(')') else {
        return Err("malformed suppression: unclosed `allow(`".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        match Rule::parse(name) {
            Some(rule) => rules.push(rule),
            None => return Err(format!("suppression names unknown rule `{name}`")),
        }
    }
    if rules.is_empty() {
        return Err("suppression allows no rules".to_string());
    }
    let after = rest[close + 1..].trim();
    let Some(justification) = after.strip_prefix("--") else {
        return Err(
            "suppression without justification: append `-- <why this is sound>`".to_string(),
        );
    };
    let justification = justification.trim();
    if justification.is_empty() {
        return Err(
            "suppression without justification: append `-- <why this is sound>`".to_string(),
        );
    }
    Ok((rules, justification.to_string()))
}

/// Applies suppressions to a finding list, returning the surviving
/// findings and the number silenced.
#[must_use]
pub fn apply(findings: Vec<Finding>, suppressions: &[Suppression]) -> (Vec<Finding>, usize) {
    let before = findings.len();
    let kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| {
            // The suppression meta-rule can never silence itself.
            f.rule == Rule::Suppression || !suppressions.iter().any(|s| s.covers(f.rule, f.line))
        })
        .collect();
    let silenced = before - kept.len();
    (kept, silenced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn finding(line: u32, rule: Rule) -> Finding {
        Finding {
            file: "x.rs".to_string(),
            line,
            rule,
            message: "m".to_string(),
        }
    }

    #[test]
    fn justified_suppression_parses_and_covers() {
        let src = "// flashmark-lint: allow(float-eq) -- sentinel carried through unchanged\nif x == 0.0 {}";
        let (sups, probs) = parse("x.rs", &lex(src));
        assert!(probs.is_empty());
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].rules, vec![Rule::FloatEq]);
        assert_eq!(sups[0].justification, "sentinel carried through unchanged");
        assert!(sups[0].covers(Rule::FloatEq, 1));
        assert!(sups[0].covers(Rule::FloatEq, 2));
        assert!(!sups[0].covers(Rule::FloatEq, 3));
        assert!(!sups[0].covers(Rule::PanicFree, 2));
    }

    #[test]
    fn unjustified_suppression_is_a_finding_and_inert() {
        let src = "// flashmark-lint: allow(panic-free)\nx.unwrap();";
        let (sups, probs) = parse("x.rs", &lex(src));
        assert!(sups.is_empty());
        assert_eq!(probs.len(), 1);
        assert_eq!(probs[0].rule, Rule::Suppression);
        assert!(probs[0].message.contains("without justification"));
        // Empty justification is equally rejected.
        let src = "// flashmark-lint: allow(panic-free) --   \nx.unwrap();";
        let (sups, probs) = parse("x.rs", &lex(src));
        assert!(sups.is_empty());
        assert_eq!(probs.len(), 1);
    }

    #[test]
    fn unknown_rule_is_a_finding() {
        let src = "// flashmark-lint: allow(made-up) -- because";
        let (sups, probs) = parse("x.rs", &lex(src));
        assert!(sups.is_empty());
        assert!(probs[0].message.contains("unknown rule `made-up`"));
    }

    #[test]
    fn multiple_rules_in_one_allow() {
        let src = "// flashmark-lint: allow(float-eq, print-discipline) -- harness output path";
        let (sups, _) = parse("x.rs", &lex(src));
        assert_eq!(sups[0].rules, vec![Rule::FloatEq, Rule::PrintDiscipline]);
    }

    #[test]
    fn apply_silences_only_covered_findings() {
        let sups = vec![Suppression {
            rules: vec![Rule::FloatEq],
            line: 4,
            justification: "j".to_string(),
        }];
        let findings = vec![
            finding(4, Rule::FloatEq),
            finding(5, Rule::FloatEq),
            finding(6, Rule::FloatEq),
            finding(5, Rule::PanicFree),
        ];
        let (kept, silenced) = apply(findings, &sups);
        assert_eq!(silenced, 2);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn suppression_rule_cannot_suppress_itself() {
        let sups = vec![Suppression {
            rules: vec![Rule::Suppression],
            line: 1,
            justification: "nice try".to_string(),
        }];
        let findings = vec![finding(1, Rule::Suppression)];
        let (kept, silenced) = apply(findings, &sups);
        assert_eq!(silenced, 0);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn suppressions_inside_raw_strings_are_ignored() {
        let src = r##"let s = r#"// flashmark-lint: allow(panic-free) -- fake"#;"##;
        let (sups, probs) = parse("x.rs", &lex(src));
        assert!(sups.is_empty() && probs.is_empty());
    }
}
