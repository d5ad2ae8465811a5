//! Map-order determinism.
//!
//! `HashMap`/`HashSet` iteration order is randomized per process; one
//! stray iteration feeding a report, artifact, or serialization path
//! breaks the byte-identical guarantee the whole harness is built on.
//! The repo-wide rule is therefore structural: hash-ordered containers
//! are banned outright in workspace code — `BTreeMap`/`BTreeSet` provide
//! the same API with deterministic order (as `crates/obs` already
//! demonstrates), and genuinely order-free hot paths can carry a
//! justified suppression.
//!
//! [`wall_clock`] is the same family applied to time: `Instant` /
//! `SystemTime` reads are banned outside the two quarantined timing
//! modules, so wall-clock data can only ever reach the `*_timings.json`
//! quarantine artifacts, never the deterministic ones.

use crate::finding::{Finding, Rule};
use crate::lexer::{Token, TokenKind};
use crate::scope::Structure;

/// Banned hash-ordered container type names.
const HASH_CONTAINERS: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

/// Flags every mention of a hash-ordered container in live code.
pub fn map_order(file: &str, tokens: &[Token], structure: &Structure, findings: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_code() || !structure.is_live_code(i) {
            continue;
        }
        if t.kind == TokenKind::Ident && HASH_CONTAINERS.contains(&t.text.as_str()) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::MapOrder,
                message: format!(
                    "`{}` in workspace code: hash iteration order is nondeterministic and can reach artifact/report paths — use `BTreeMap`/`BTreeSet` (pattern: crates/obs metrics)",
                    t.text
                ),
            });
        }
    }
}

/// Wall-clock sources whose mere mention in quarantine-free code means a
/// timing read is (or is about to be) feeding a deterministic path.
const WALL_CLOCK_SOURCES: [&str; 2] = ["Instant", "SystemTime"];

/// Flags every wall-clock read (`Instant`, `SystemTime`) in live code.
///
/// Same structural shape as [`map_order`]: the telemetry/trend layer's
/// byte-identical guarantee dies the moment a wall-clock value reaches a
/// snapshot, trend record, or exposition line, so outside the two
/// quarantined timing modules (`crates/bench/src/suite.rs`,
/// `crates/bench/src/microbench.rs` — which may *only* write the
/// `*_timings.json` quarantine artifacts) the types are banned outright.
pub fn wall_clock(
    file: &str,
    tokens: &[Token],
    structure: &Structure,
    findings: &mut Vec<Finding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_code() || !structure.is_live_code(i) {
            continue;
        }
        if t.kind == TokenKind::Ident && WALL_CLOCK_SOURCES.contains(&t.text.as_str()) {
            findings.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: Rule::WallClock,
                message: format!(
                    "`{}` outside a quarantined timing module: wall-clock reads poison byte-identical artifacts — measure in suite.rs/microbench.rs and route the value into a `*_timings.json` quarantine file",
                    t.text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let structure = Structure::analyze(&tokens);
        let mut findings = Vec::new();
        map_order("x.rs", &tokens, &structure, &mut findings);
        findings
    }

    fn run_clock(src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let structure = Structure::analyze(&tokens);
        let mut findings = Vec::new();
        wall_clock("x.rs", &tokens, &structure, &mut findings);
        findings
    }

    #[test]
    fn wall_clock_reads_are_flagged() {
        let f = run_clock(
            "use std::time::Instant;\nfn f() { let t = Instant::now(); let s = std::time::SystemTime::now(); }",
        );
        assert_eq!(f.len(), 3, "import, now() read, SystemTime read");
        assert!(f[0].message.contains("quarantine"));
    }

    #[test]
    fn virtual_time_is_clean() {
        assert!(run_clock("fn f(cost: u64) -> u64 { cost * 8 }").is_empty());
    }

    #[test]
    fn wall_clock_in_tests_and_strings_is_exempt() {
        assert!(run_clock("#[cfg(test)]\nmod t { use std::time::Instant; }").is_empty());
        assert!(run_clock("fn f() { let s = \"Instant::now\"; }").is_empty());
    }

    #[test]
    fn hash_containers_are_flagged() {
        let f = run(
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }",
        );
        assert_eq!(
            f.len(),
            3,
            "import, annotation, and constructor each flagged"
        );
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn btree_containers_are_clean() {
        assert!(
            run("use std::collections::BTreeMap;\nfn f() { let m = BTreeMap::new(); }").is_empty()
        );
    }

    #[test]
    fn tests_and_strings_are_exempt() {
        assert!(run("#[cfg(test)]\nmod t { use std::collections::HashSet; }").is_empty());
        assert!(run("fn f() { let s = \"HashMap\"; }").is_empty());
    }
}
