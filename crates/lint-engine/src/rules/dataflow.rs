//! Intra-function dataflow rules.
//!
//! * [`seed_dataflow`] — every RNG/stream construction in simulation code
//!   must derive from a function parameter or a seed-carrying value,
//!   traced forward through `let` chains. `SplitMix64::new(42)` in a
//!   library is exactly the bug class that silently collapses a
//!   million-trial campaign onto one stream.
//! * [`merge_commutativity`] — cross-trial merge/absorb functions must
//!   not accumulate floats ad hoc (`f64 +=` is order-sensitive under
//!   re-association); aggregates go through the `flashmark_obs`
//!   counter/histogram types, whose merge is pointwise integer addition.

use std::collections::BTreeSet;

use crate::finding::{Finding, Rule};
use crate::lexer::{Token, TokenKind};
use crate::scope::{FnScope, Structure};

/// RNG construction entry points the rule recognizes.
const RNG_CONSTRUCTORS: [&str; 5] = [
    "SplitMix64",
    "CounterStream",
    "cell_uniform",
    "cell_normal",
    "cell_stream",
];

/// Identifier names that inherently carry seed provenance (field reads
/// like `self.seed`, `config.chip_seed`, `t.seed` keep their last path
/// segment).
fn is_seedful_name(name: &str) -> bool {
    name.to_ascii_lowercase().contains("seed")
}

/// Collects the parameter names of a function: identifiers directly
/// followed by `:` inside the parameter list, plus `self`.
fn param_names(tokens: &[Token], f: &FnScope) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let range = f.params.clone();
    let code: Vec<usize> = range.filter(|&i| tokens[i].is_code()).collect();
    for (pos, &i) in code.iter().enumerate() {
        let t = &tokens[i];
        if t.is_ident("self") {
            names.insert("self".to_string());
        }
        if t.kind == TokenKind::Ident && code.get(pos + 1).is_some_and(|&j| tokens[j].is_punct(":"))
        {
            names.insert(t.text.clone());
        }
    }
    names
}

/// Forward taint propagation through `let` statements: a binding whose
/// initializer mentions a tainted identifier taints its pattern names.
fn propagate_lets(tokens: &[Token], body: std::ops::Range<usize>, taint: &mut BTreeSet<String>) {
    let code: Vec<usize> = body.filter(|&i| tokens[i].is_code()).collect();
    let mut pos = 0;
    while pos < code.len() {
        if !tokens[code[pos]].is_ident("let") {
            pos += 1;
            continue;
        }
        // Pattern: idents up to `=` (skipping a `==`-free zone; type
        // annotations contribute harmless extra names).
        let mut pattern: Vec<String> = Vec::new();
        let mut j = pos + 1;
        while j < code.len() && !tokens[code[j]].is_punct("=") {
            if tokens[code[j]].is_punct(";") {
                break;
            }
            if tokens[code[j]].kind == TokenKind::Ident {
                pattern.push(tokens[code[j]].text.clone());
            }
            j += 1;
        }
        if j >= code.len() || !tokens[code[j]].is_punct("=") {
            pos = j;
            continue;
        }
        // Initializer: tokens up to the statement-ending `;` at depth 0.
        let init_start = j + 1;
        let mut depth = 0i32;
        let mut k = init_start;
        while k < code.len() {
            let t = &tokens[code[k]];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if t.is_punct(";") && depth <= 0 {
                break;
            }
            k += 1;
        }
        let init_tainted = (init_start..k).any(|p| {
            let t = &tokens[code[p]];
            t.kind == TokenKind::Ident && (taint.contains(&t.text) || is_seedful_name(&t.text))
        });
        if init_tainted {
            taint.extend(pattern);
        }
        pos = k + 1;
    }
}

/// RNG constructions whose arguments carry no seed provenance.
pub fn seed_dataflow(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for f in &structure.fns {
        if f.in_test || f.body.is_empty() {
            continue;
        }
        let mut taint = param_names(tokens, f);
        propagate_lets(tokens, f.body.clone(), &mut taint);
        let code: Vec<usize> = f.body.clone().filter(|&i| tokens[i].is_code()).collect();
        for (pos, &i) in code.iter().enumerate() {
            let t = &tokens[i];
            if t.kind != TokenKind::Ident || !RNG_CONSTRUCTORS.contains(&t.text.as_str()) {
                continue;
            }
            // `SplitMix64::new(args)` / `CounterStream::new(args)` or
            // `cell_uniform(args)`.
            let open = if t.text == "SplitMix64" || t.text == "CounterStream" {
                let Some(&c1) = code.get(pos + 1) else {
                    continue;
                };
                let Some(&c2) = code.get(pos + 2) else {
                    continue;
                };
                if !(tokens[c1].is_punct("::") && tokens[c2].is_ident("new")) {
                    continue;
                }
                pos + 3
            } else {
                pos + 1
            };
            if !code.get(open).is_some_and(|&j| tokens[j].is_punct("(")) {
                continue;
            }
            // Argument token span to the matching close paren.
            let mut depth = 0i32;
            let mut end = open;
            while end < code.len() {
                let a = &tokens[code[end]];
                if a.is_punct("(") {
                    depth += 1;
                } else if a.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                end += 1;
            }
            let args_tainted = (open + 1..end).any(|p| {
                let a = &tokens[code[p]];
                a.kind == TokenKind::Ident && (taint.contains(&a.text) || is_seedful_name(&a.text))
            });
            if !args_tainted {
                let ctor = if t.text == "SplitMix64" || t.text == "CounterStream" {
                    format!("{}::new", t.text)
                } else {
                    t.text.clone()
                };
                findings.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: Rule::SeedDataflow,
                    message: format!(
                        "`{ctor}` constructed from a constant in fn `{}`: derive every stream from a per-trial seed parameter (trace: no argument reaches a parameter or seed-carrying binding)",
                        f.name
                    ),
                });
            }
        }
    }
}

/// Function names that mark cross-trial aggregation code.
fn is_merge_fn(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("merge") || n.contains("absorb") || n == "merged"
}

/// Collects identifiers with float evidence: params annotated `f64`/`f32`
/// and `let` bindings whose annotation or initializer is float-typed.
fn float_idents(tokens: &[Token], f: &FnScope) -> BTreeSet<String> {
    let mut floats = BTreeSet::new();
    let collect = |range: std::ops::Range<usize>, floats: &mut BTreeSet<String>| {
        let code: Vec<usize> = range.filter(|&i| tokens[i].is_code()).collect();
        for (pos, &i) in code.iter().enumerate() {
            let t = &tokens[i];
            // `name : f64` (possibly through `&`/`mut`).
            if t.kind == TokenKind::Ident
                && code.get(pos + 1).is_some_and(|&j| tokens[j].is_punct(":"))
            {
                let is_float_ty = (pos + 2..(pos + 5).min(code.len()))
                    .any(|q| tokens[code[q]].is_ident("f64") || tokens[code[q]].is_ident("f32"));
                if is_float_ty {
                    floats.insert(t.text.clone());
                }
            }
            // `let name = <float literal or cast>` — nearest let-pattern
            // ident before an initializer with float evidence.
            if t.is_ident("let") {
                if let Some(&name_j) = code.get(pos + 1) {
                    if tokens[name_j].kind == TokenKind::Ident && tokens[name_j].text != "mut" {
                        let until_semi: Vec<usize> = code[pos..]
                            .iter()
                            .copied()
                            .take_while(|&j| !tokens[j].is_punct(";"))
                            .collect();
                        if float_evidence(tokens, &until_semi, floats) {
                            floats.insert(tokens[name_j].text.clone());
                        }
                    } else if tokens[name_j].is_ident("mut") {
                        if let Some(&name_k) = code.get(pos + 2) {
                            let until_semi: Vec<usize> = code[pos..]
                                .iter()
                                .copied()
                                .take_while(|&j| !tokens[j].is_punct(";"))
                                .collect();
                            if float_evidence(tokens, &until_semi, floats) {
                                floats.insert(tokens[name_k].text.clone());
                            }
                        }
                    }
                }
            }
        }
    };
    collect(f.params.clone(), &mut floats);
    collect(f.body.clone(), &mut floats);
    floats
}

/// Whether a token span carries float evidence.
fn float_evidence(tokens: &[Token], span: &[usize], known_floats: &BTreeSet<String>) -> bool {
    for (pos, &i) in span.iter().enumerate() {
        let t = &tokens[i];
        if t.kind == TokenKind::Float {
            return true;
        }
        if t.kind == TokenKind::Ident {
            if matches!(t.text.as_str(), "f64" | "f32") {
                return true;
            }
            if matches!(t.text.as_str(), "next_f64" | "as_secs_f64" | "ber") {
                return true;
            }
            if known_floats.contains(&t.text) {
                return true;
            }
            // `.sum::<f64>()` caught by the `f64` ident above already.
            let _ = pos;
        }
    }
    false
}

/// Ad-hoc float accumulation inside merge/absorb functions.
pub fn merge_commutativity(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for f in &structure.fns {
        if f.in_test || f.body.is_empty() || !is_merge_fn(&f.name) {
            continue;
        }
        let floats = float_idents(tokens, f);
        let code: Vec<usize> = f.body.clone().filter(|&i| tokens[i].is_code()).collect();
        for (pos, &i) in code.iter().enumerate() {
            let t = &tokens[i];
            if !(t.is_punct("+=") || t.is_punct("-=") || t.is_punct("*=") || t.is_punct("/=")) {
                continue;
            }
            // LHS: nearest ident left of the operator.
            let lhs_float = code[..pos]
                .iter()
                .rev()
                .take(6)
                .find(|&&j| tokens[j].kind == TokenKind::Ident)
                .is_some_and(|&j| floats.contains(&tokens[j].text));
            // RHS: tokens to the statement-ending `;`.
            let rhs: Vec<usize> = code[pos + 1..]
                .iter()
                .copied()
                .take_while(|&j| !tokens[j].is_punct(";"))
                .collect();
            if lhs_float || float_evidence(tokens, &rhs, &floats) {
                findings.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: Rule::MergeCommutativity,
                    message: format!(
                        "float accumulation `{}` in merge fn `{}`: cross-trial float aggregation is order-sensitive — route it through the flashmark_obs counter/histogram types (pointwise integer merge)",
                        t.text, f.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule: fn(&str, &[Token], &Structure, &mut Vec<Finding>), src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let structure = Structure::analyze(&tokens);
        let mut findings = Vec::new();
        rule("x.rs", &tokens, &structure, &mut findings);
        findings
    }

    #[test]
    fn constant_seeded_rng_is_flagged() {
        let f = run(seed_dataflow, "fn f() { let rng = SplitMix64::new(42); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("fn `f`"));
        let f = run(
            seed_dataflow,
            "fn f() { let rng = SplitMix64::new(0xDEAD_BEEF); }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn param_seeded_rng_is_clean() {
        assert!(run(
            seed_dataflow,
            "fn f(seed: u64) { let rng = SplitMix64::new(seed); }"
        )
        .is_empty());
        assert!(
            run(
                seed_dataflow,
                "fn f(chip: u64) { let rng = SplitMix64::new(mix2(chip, 0x0505)); }"
            )
            .is_empty(),
            "any parameter counts: the caller owns the provenance"
        );
        assert!(run(
            seed_dataflow,
            "fn f(&self) { let rng = SplitMix64::new(self.seed); }"
        )
        .is_empty());
        assert!(run(
            seed_dataflow,
            "fn f(cfg: &Config) { let r = SplitMix64::new(cfg.seed); }"
        )
        .is_empty());
    }

    #[test]
    fn taint_flows_through_let_chains() {
        let src = "fn f(seed: u64) { let a = mix2(seed, 1); let b = a ^ 7; let rng = SplitMix64::new(b); }";
        assert!(run(seed_dataflow, src).is_empty());
        let bad = "fn f(seed: u64) { let a = 7; let rng = SplitMix64::new(a); }";
        assert_eq!(run(seed_dataflow, bad).len(), 1);
    }

    #[test]
    fn cell_draws_need_seeds_too() {
        let bad = "fn f(i: u64) { let v = cell_normal(77, i, Channel::EraseSpeed); }";
        // `i` is a parameter, so this is clean; a fully-constant call is not.
        assert!(run(seed_dataflow, bad).is_empty());
        let worse = "fn f() { let v = cell_normal(77, 3, Channel::EraseSpeed); }";
        // `Channel` / `EraseSpeed` are idents but carry no taint... they do
        // count as idents; ensure enum paths do not accidentally launder.
        assert_eq!(run(seed_dataflow, worse).len(), 1);
    }

    #[test]
    fn counter_stream_constructor_is_traced() {
        let bad = "fn f() { let s = CounterStream::new(7, 3, 1); }";
        let f = run(seed_dataflow, bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("CounterStream::new"));
        let clean =
            "fn f(trial_seed: u64, cell: u64) { let s = CounterStream::new(trial_seed, cell, 1); }";
        assert!(run(seed_dataflow, clean).is_empty());
        let chained =
            "fn f(chip: u64) { let op_seed = mix2(chip, 5); let s = CounterStream::new(op_seed, 0, 0); }";
        assert!(run(seed_dataflow, chained).is_empty());
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f() { let rng = SplitMix64::new(42); } }";
        assert!(run(seed_dataflow, src).is_empty());
    }

    #[test]
    fn float_accumulation_in_merge_is_flagged() {
        let f = run(
            merge_commutativity,
            "fn merge(&mut self, x: f64) { self.total += x; }",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("fn `merge`"));
        let f = run(
            merge_commutativity,
            "fn absorb(&mut self) { self.mean += 0.5; }",
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn integer_merge_is_clean() {
        assert!(run(
            merge_commutativity,
            "fn merge(&mut self, c: &Collector) { self.trials += 1; self.ops += c.ops(); }"
        )
        .is_empty());
    }

    #[test]
    fn float_math_outside_merge_fns_is_fine() {
        assert!(run(
            merge_commutativity,
            "fn ber(&self) -> f64 { let mut acc = 0.0; acc += self.x; acc }"
        )
        .is_empty());
    }

    #[test]
    fn sum_into_float_let_then_accumulate() {
        let src = "fn merge_all(&mut self, xs: &[f64]) { let s = xs.iter().sum::<f64>(); self.acc += s; }";
        let f = run(merge_commutativity, src);
        assert_eq!(f.len(), 1);
    }
}
