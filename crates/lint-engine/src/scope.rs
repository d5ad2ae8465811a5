//! File classification and structural analysis.
//!
//! Two layers:
//!
//! * [`FileScope::classify`] — which rule families apply to a file, derived
//!   from its workspace-relative path. This is the successor of the old
//!   `rules_for` in `crates/xtask/src/lint.rs`, with the scoping bug fixed:
//!   **binary targets** (`src/bin/*.rs`, `src/main.rs`) are classified as
//!   drivers that own their stdout, while **library** sources — including
//!   the bench crate's library and the root `src/lib.rs` facade — carry
//!   full library discipline.
//! * [`Structure::analyze`] — a lightweight item/scope parse over the token
//!   stream: `#[cfg(test)]` regions (nested mods included), `macro_rules!`
//!   bodies, and per-function scopes with parameter and body token ranges
//!   for the dataflow rules.

use crate::lexer::{Token, TokenKind};
use crate::rules::RuleSet;

/// Classification of one workspace source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScope {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The crate directory under `crates/` (empty for the root package).
    pub crate_name: String,
    /// Whether this is a binary target (`src/bin/*.rs` or `src/main.rs`).
    pub is_bin: bool,
    /// The rule families that apply.
    pub rules: RuleSet,
}

/// Crates whose sources are the analysis tooling itself: they spell the
/// forbidden patterns as data and print diagnostics by design.
fn is_tooling(crate_name: &str) -> bool {
    matches!(crate_name, "xtask" | "lint-engine")
}

/// The one sanctioned entropy-source module.
const SANCTIONED_RNG: &str = "crates/physics/src/rng.rs";

impl FileScope {
    /// Classifies a workspace-relative path; `None` for files the engine
    /// skips entirely (tests, benches, examples, non-Rust files).
    #[must_use]
    pub fn classify(path: &str) -> Option<Self> {
        let path = path.replace('\\', "/");
        let in_src =
            path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
        if !in_src || std::path::Path::new(&path).extension() != Some("rs".as_ref()) {
            return None;
        }
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next())
            .unwrap_or("")
            .to_string();
        let c = crate_name.as_str();
        // Binary targets are top-level drivers: they own stdout/stderr and
        // may panic on startup misconfiguration. Library discipline does
        // not apply.
        let is_bin = path.contains("/src/bin/") || path.ends_with("src/main.rs");
        let tooling = is_tooling(c);
        let sanctioned_rng = path == SANCTIONED_RNG;
        // The root package (`src/lib.rs`) is the public facade: full
        // library discipline, including the hot-path families.
        let root_lib = c.is_empty();
        let rules = RuleSet {
            panic_free: !is_bin && (matches!(c, "nor" | "core" | "reram") || root_lib),
            float_eq: !is_bin && (matches!(c, "physics" | "nor" | "core" | "reram") || root_lib),
            // Only binary targets own stdout; the bench *library* reports
            // through its output/markdown layer (sanctioned prints carry
            // justified suppressions). The tooling prints diagnostics.
            print_discipline: !is_bin && !tooling,
            // The RNG module is the sanctioned entropy source; the tooling
            // spells the forbidden patterns.
            seed_dataflow: !is_bin && !tooling && !sanctioned_rng,
            merge_commutativity: !is_bin && !tooling,
            // Wrapping-arithmetic inventory only where silent wraparound
            // could corrupt simulated physics, not in checksum/hash code.
            wrapping_audit: !sanctioned_rng && matches!(c, "physics" | "core"),
            pub_liveness: !is_bin,
        };
        Some(Self {
            path,
            crate_name,
            is_bin,
            rules,
        })
    }
}

/// One function scope found in the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnScope {
    /// The function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the parameter list (excluding the parentheses).
    pub params: std::ops::Range<usize>,
    /// Token range of the body (excluding the braces); empty for
    /// body-less trait method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether the function lives inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Structural facts about one file's token stream.
#[derive(Debug, Clone)]
pub struct Structure {
    /// Per-token flag: inside a `#[cfg(test)]` item (attribute included).
    pub test_mask: Vec<bool>,
    /// Per-token flag: inside a `macro_rules!` body (templates are not
    /// items; rustc checks expansion sites).
    pub macro_mask: Vec<bool>,
    /// Every function scope, in source order.
    pub fns: Vec<FnScope>,
}

impl Structure {
    /// Analyzes a token stream.
    #[must_use]
    pub fn analyze(tokens: &[Token]) -> Self {
        let test_mask = cfg_test_mask(tokens);
        let macro_mask = macro_rules_mask(tokens);
        let fns = fn_scopes(tokens, &test_mask);
        Self {
            test_mask,
            macro_mask,
            fns,
        }
    }

    /// Whether the token at `idx` is non-test, non-macro-template code.
    #[must_use]
    pub fn is_live_code(&self, idx: usize) -> bool {
        !self.test_mask.get(idx).copied().unwrap_or(false)
            && !self.macro_mask.get(idx).copied().unwrap_or(false)
    }
}

/// Returns the token index just past an attribute starting at `i` (which
/// must point at `#`), or `None` if it is not an attribute.
pub(crate) fn attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !tokens.get(i)?.is_punct("#") {
        return None;
    }
    let mut j = i + 1;
    // Inner attribute `#![...]`.
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return None;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    Some(tokens.len())
}

/// Whether the attribute tokens in `[start, end)` gate on `test`
/// (`#[cfg(test)]`, `#[cfg(all(test, …))]`, …).
pub(crate) fn attr_is_cfg_test(tokens: &[Token], start: usize, end: usize) -> bool {
    let has_cfg = tokens[start..end].iter().any(|t| t.is_ident("cfg"));
    let has_test = tokens[start..end].iter().any(|t| t.is_ident("test"));
    has_cfg && has_test
}

/// Finds the end (exclusive token index) of the item starting at `i`:
/// skips leading attributes and doc comments, then runs to the matching
/// close of the first `{` block, or to a `;` outside every bracket if no
/// block opens first (so `const X: [u8; 4] = [0; 4];` is one item).
pub(crate) fn item_end(tokens: &[Token], mut i: usize) -> usize {
    // Skip any further attributes / doc comments between the cfg attr and
    // the item keyword.
    loop {
        match tokens.get(i) {
            Some(t) if t.kind == TokenKind::DocComment => i += 1,
            Some(t) if t.is_punct("#") => match attr_end(tokens, i) {
                Some(end) => i = end,
                None => break,
            },
            _ => break,
        }
    }
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth = depth.saturating_sub(1);
            if depth == 0 && t.is_punct("}") {
                return i + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    tokens.len()
}

/// Marks every token belonging to a `#[cfg(test)]`-gated item. Handles
/// nested `#[cfg(test)] mod` blocks naturally (the outer region already
/// covers them).
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        let Some(end_attr) = attr_end(tokens, i) else {
            i += 1;
            continue;
        };
        if attr_is_cfg_test(tokens, i, end_attr) {
            let end = item_end(tokens, end_attr);
            for m in &mut mask[i..end] {
                *m = true;
            }
            i = end;
        } else {
            i = end_attr;
        }
    }
    mask
}

/// Marks every token inside a `macro_rules! name { … }` body.
fn macro_rules_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("macro_rules") {
            let end = item_end(tokens, i);
            for m in &mut mask[i..end] {
                *m = true;
            }
            i = end;
        } else {
            i += 1;
        }
    }
    mask
}

/// Extracts every `fn` scope: name, parameter token range, body token
/// range. Works at any nesting depth (free fns, impl methods, nested fns).
fn fn_scopes(tokens: &[Token], test_mask: &[bool]) -> Vec<FnScope> {
    let mut fns = Vec::new();
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
    let mut ci = 0;
    while ci < code.len() {
        let i = code[ci];
        if !tokens[i].is_ident("fn") {
            ci += 1;
            continue;
        }
        // Name is the next code token (skip nothing else: `fn` is always
        // followed by the name in valid Rust, generics come after).
        let Some(&name_i) = code.get(ci + 1) else {
            break;
        };
        if tokens[name_i].kind != TokenKind::Ident {
            ci += 1;
            continue;
        }
        let name = tokens[name_i].text.clone();
        let line = tokens[i].line;
        // Find the opening paren of the parameter list, skipping generics
        // `<…>` (angle depth tracked; `->`/`=>` already lexed as single
        // puncts so they cannot desync it).
        let mut j = ci + 2;
        let mut angle = 0i32;
        let mut params = 0..0;
        while let Some(&k) = code.get(j) {
            let t = &tokens[k];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct("<<") {
                angle += 2;
            } else if t.is_punct(">>") {
                // `Vec<Vec<u8>>` lexes its closer as one `>>` token.
                angle -= 2;
            } else if t.is_punct("(") && angle <= 0 {
                // Match the parens.
                let mut depth = 0usize;
                let start = k + 1;
                while let Some(&p) = code.get(j) {
                    if tokens[p].is_punct("(") {
                        depth += 1;
                    } else if tokens[p].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            params = start..p;
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        // Scan to the body `{` (or `;` for a declaration).
        let mut body = 0..0;
        while let Some(&k) = code.get(j) {
            let t = &tokens[k];
            if t.is_punct(";") {
                break;
            }
            if t.is_punct("{") {
                let mut depth = 0usize;
                let start = k + 1;
                while let Some(&p) = code.get(j) {
                    if tokens[p].is_punct("{") {
                        depth += 1;
                    } else if tokens[p].is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            body = start..p;
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        fns.push(FnScope {
            name,
            line,
            params,
            body,
            in_test: test_mask.get(i).copied().unwrap_or(false),
        });
        ci += 2;
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn bin_targets_are_drivers() {
        let bin = FileScope::classify("crates/bench/src/bin/run_all.rs").unwrap();
        assert!(bin.is_bin);
        assert!(!bin.rules.print_discipline, "bins own their stdout");
        assert!(!bin.rules.panic_free);
    }

    #[test]
    fn root_facade_gets_full_library_discipline() {
        let root = FileScope::classify("src/lib.rs").unwrap();
        assert!(!root.is_bin);
        assert!(root.rules.panic_free && root.rules.float_eq);
        assert!(root.rules.print_discipline);
        assert!(root.rules.seed_dataflow);
    }

    #[test]
    fn bench_library_is_print_disciplined() {
        let lib = FileScope::classify("crates/bench/src/suite.rs").unwrap();
        assert!(
            lib.rules.print_discipline,
            "the bench library reports through its output layer; only bins own stdout"
        );
    }

    #[test]
    fn sanctioned_scopes() {
        let rng = FileScope::classify("crates/physics/src/rng.rs").unwrap();
        assert!(!rng.rules.seed_dataflow);
        assert!(!rng.rules.wrapping_audit, "the mixer is wrapping by design");
        let xtask = FileScope::classify("crates/xtask/src/main.rs").unwrap();
        assert!(xtask.is_bin);
        assert!(!xtask.rules.print_discipline);
        let engine = FileScope::classify("crates/lint-engine/src/lexer.rs").unwrap();
        assert!(!engine.rules.seed_dataflow && !engine.rules.print_discipline);
    }

    #[test]
    fn reram_backend_gets_library_discipline() {
        let chip = FileScope::classify("crates/reram/src/chip.rs").unwrap();
        assert!(chip.rules.panic_free, "reram is a simulation backend");
        assert!(chip.rules.float_eq, "reram carries analog physics");
        assert!(chip.rules.pub_liveness && chip.rules.seed_dataflow);
    }

    #[test]
    fn skipped_files() {
        assert!(FileScope::classify("crates/nor/tests/properties.rs").is_none());
        assert!(FileScope::classify("examples/quickstart.rs").is_none());
        assert!(FileScope::classify("tests/determinism.rs").is_none());
        assert!(FileScope::classify("README.md").is_none());
    }

    #[test]
    fn wrapping_audit_scope() {
        assert!(
            FileScope::classify("crates/physics/src/erase.rs")
                .unwrap()
                .rules
                .wrapping_audit
        );
        assert!(
            !FileScope::classify("crates/msp430/src/info_memory.rs")
                .unwrap()
                .rules
                .wrapping_audit,
            "checksum code wraps by design"
        );
    }

    #[test]
    fn cfg_test_regions_cover_nested_mods() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  mod inner {\n    fn t() { x.unwrap(); }\n  }\n}\nfn after() {}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        let unwrap_idx = tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(s.test_mask[unwrap_idx]);
        let after_idx = tokens.iter().position(|t| t.is_ident("after")).unwrap();
        assert!(!s.test_mask[after_idx]);
        let fns: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(fns, ["live", "t", "after"]);
        assert!(s.fns[1].in_test && !s.fns[2].in_test);
    }

    #[test]
    fn cfg_test_single_item_with_semicolon() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn live() {}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        let live = tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!s.test_mask[live]);
        let thing = tokens.iter().position(|t| t.is_ident("thing")).unwrap();
        assert!(s.test_mask[thing]);
        // A `;` inside brackets does not end the item.
        let tokens = lex("#[cfg(test)]\nconst T: [u8; 2] = [ZERO; 2];\nfn live() {}");
        let s = Structure::analyze(&tokens);
        let zero = tokens.iter().position(|t| t.is_ident("ZERO")).unwrap();
        assert!(s.test_mask[zero]);
        let live = tokens.iter().position(|t| t.is_ident("live")).unwrap();
        assert!(!s.test_mask[live]);
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { fn f() {} }\nfn live() {}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        let f = tokens.iter().position(|t| t.is_ident("f")).unwrap();
        assert!(s.test_mask[f]);
    }

    #[test]
    fn fn_scope_params_and_body() {
        let src =
            "fn seed_me(trial_seed: u64, n: usize) -> u64 {\n  let x = trial_seed + 1;\n  x\n}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "seed_me");
        let param_text: Vec<&str> = tokens[f.params.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(param_text.contains(&"trial_seed"));
        let body_text: Vec<&str> = tokens[f.body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(body_text.contains(&"let"));
    }

    #[test]
    fn generic_fn_with_closure_param() {
        let src = "fn run<F: Fn(u64) -> u64>(f: F) { f(1); }\nfn next() {}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "run");
        assert_eq!(s.fns[1].name, "next");
    }

    #[test]
    fn macro_rules_bodies_are_masked() {
        let src = "macro_rules! m {\n  ($x:ident) => { pub fn $x() {} };\n}\npub fn real() {}";
        let tokens = lex(src);
        let s = Structure::analyze(&tokens);
        let dollar = tokens.iter().position(|t| t.is_punct("$")).unwrap();
        assert!(s.macro_mask[dollar]);
        let real = tokens.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(!s.macro_mask[real]);
    }
}
