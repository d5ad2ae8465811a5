//! Pub-API liveness: `pub` items that no entry point reaches.
//!
//! The roots are every item of a non-library target: binaries,
//! integration tests, examples, bench targets and the `benchmark/`
//! package. A reached item reaches every item its identifiers name,
//! matched by bare name. `use` declarations and comments (doc comments
//! included) name nothing, and a library's own `#[cfg(test)]` code is
//! neither a root nor an item, so a `pub` item mentioned only by its
//! re-export, its `impl` header, its docs or its module's unit tests is
//! reported. Three refinements keep bare-name matching honest:
//!
//! * an inherent method is reached only once its self type is reached
//!   too, so `pub fn new` on an unused type is reported while every other
//!   type's `new` stays live;
//! * the items of a trait impl are reached with its self type, or with
//!   its trait when the self type is not a library type (blanket impls);
//! * a trait is reached through its own name or its items' names, since
//!   callers bring it in with a `use` and then name only its methods.
//!
//! Module-level macro calls (`impl_to_json!(…)`) are references: they
//! expand to items nothing else names, so they count as roots.

use std::collections::BTreeSet;

use crate::finding::{Finding, Rule};
use crate::lexer::{Token, TokenKind};
use crate::scope::{attr_end, attr_is_cfg_test, item_end};

/// When an item counts as reached.
#[derive(Debug)]
enum Gate {
    /// Always: an item of a non-library target, or a module-level macro call.
    Root,
    /// Once a reached item says one of these names (a trait's item names
    /// follow its own).
    Names(Vec<String>),
    /// An inherent method: once both its name and its self type are named.
    Method { name: String, self_ty: String },
    /// A trait impl: with its self type, or with its trait when the self
    /// type is no library type.
    TraitImpl { self_ty: String, trait_name: String },
}

/// One node of the reachability graph.
#[derive(Debug)]
struct Item {
    gate: Gate,
    /// The identifiers the item's code names.
    refs: Vec<String>,
    /// `(file, line, keyword, name)` of a `pub` library item, which is a
    /// finding if nothing reaches it.
    report: Option<(String, u32, String, String)>,
}

/// The workspace reachability graph, fed one file at a time.
#[derive(Debug, Default)]
pub struct Graph {
    items: Vec<Item>,
    /// Names of every type and trait defined in a library file.
    types: BTreeSet<String>,
}

/// Where a library walk is: the file, and the self type while inside an
/// inherent impl body.
#[derive(Clone, Copy)]
struct Cx<'a> {
    file: &'a str,
    self_ty: Option<&'a str>,
}

impl Graph {
    /// Adds a file of a non-library target: the whole file is one root.
    pub fn add_root(&mut self, tokens: &[Token]) {
        let code = code_tokens(tokens);
        self.push(&code, 0, code.len(), Gate::Root, None);
    }

    /// Adds a linted library file: its items, `pub` ones reportable.
    pub fn add_library(&mut self, file: &str, tokens: &[Token]) {
        let code = code_tokens(tokens);
        let cx = Cx {
            file,
            self_ty: None,
        };
        self.walk(&code, 0, code.len(), cx);
    }

    /// Walks the items in `tokens[i..end]`, skipping `#[cfg(test)]` ones.
    fn walk(&mut self, t: &[Token], mut i: usize, end: usize, cx: Cx<'_>) {
        while i < end {
            let mut test = false;
            while let Some(after) = attr_end(t, i) {
                test |= attr_is_cfg_test(t, i, after);
                i = after;
            }
            if i >= end {
                break;
            }
            let stop = item_end(t, i).min(end);
            if !test {
                self.item(t, i, stop, cx);
            }
            i = stop;
        }
    }

    /// Records the item in `t[start..stop]` (attributes already skipped).
    fn item(&mut self, t: &[Token], start: usize, stop: usize, cx: Cx<'_>) {
        let word = |k: usize| t.get(k).map_or("", |tok| tok.text.as_str());
        let mut i = start;
        let is_pub = word(i) == "pub" && word(i + 1) != "(";
        if word(i) == "pub" {
            i += 1;
            if word(i) == "(" {
                while i < stop && word(i) != ")" {
                    i += 1;
                }
                i += 1;
            }
        }
        // Qualifiers: `pub const unsafe extern "C" fn x` defines `x`.
        loop {
            match word(i) {
                "async" | "unsafe" | "default" => i += 1,
                "const" if matches!(word(i + 1), "fn" | "unsafe" | "async" | "extern") => i += 1,
                "extern" if t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Str) => i += 2,
                _ => break,
            }
        }
        let kw = word(i);
        match kw {
            "use" | "extern" => {}
            "mod" if word(i + 2) == "{" => self.walk(t, i + 3, stop.saturating_sub(1), cx),
            "impl" => self.impl_block(t, i, stop, cx),
            "macro_rules" => {
                self.push(
                    t,
                    start,
                    stop,
                    Gate::Names(vec![word(i + 2).to_string()]),
                    None,
                );
            }
            "fn" | "struct" | "enum" | "union" | "trait" | "type" | "const" | "static" => {
                let name_at = if word(i + 1) == "mut" { i + 2 } else { i + 1 };
                let name = word(name_at).to_string();
                if matches!(kw, "struct" | "enum" | "union" | "trait" | "type") {
                    self.types.insert(name.clone());
                }
                let gate = if name == "_" {
                    Gate::Root
                } else if let Some(self_ty) = cx.self_ty {
                    Gate::Method {
                        name: name.clone(),
                        self_ty: self_ty.to_string(),
                    }
                } else {
                    let mut names = vec![name.clone()];
                    if kw == "trait" {
                        names.extend(
                            (i..stop)
                                .filter(|&k| matches!(word(k), "fn" | "type" | "const"))
                                .map(|k| word(k + 1).to_string()),
                        );
                    }
                    Gate::Names(names)
                };
                let report = (is_pub && name != "main" && !name.starts_with('_'))
                    .then(|| (cx.file.to_string(), t[start].line, kw.to_string(), name));
                self.push(t, start, stop, gate, report);
            }
            _ if word(i + 1) == "!" && t[i].kind == TokenKind::Ident => {
                self.push(t, start, stop, Gate::Root, None);
            }
            _ => {}
        }
    }

    /// Records an `impl` block starting at the `impl` keyword `t[i]`.
    fn impl_block(&mut self, t: &[Token], i: usize, stop: usize, cx: Cx<'_>) {
        let Some(open) = (i..stop).find(|&k| t[k].is_punct("{")) else {
            return;
        };
        // Header: `impl<G> Trait for SelfTy where … {`; the self type and
        // the trait are the last path segments outside generic arguments.
        let mut depth = 0i32;
        let (mut first, mut second, mut has_for) = ("", "", false);
        for tok in &t[i + 1..open] {
            match tok.text.as_str() {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "where" if depth == 0 => break,
                "for" if depth == 0 => has_for = true,
                "dyn" | "mut" => {}
                name if depth == 0 && tok.kind == TokenKind::Ident => {
                    if has_for {
                        second = name;
                    } else {
                        first = name;
                    }
                }
                _ => {}
            }
        }
        if has_for {
            let gate = Gate::TraitImpl {
                self_ty: second.to_string(),
                trait_name: first.to_string(),
            };
            self.push(t, i, stop, gate, None);
        } else {
            let inner = Cx {
                self_ty: Some(first),
                ..cx
            };
            self.walk(t, open + 1, stop.saturating_sub(1), inner);
        }
    }

    /// Adds an item whose code is `t[start..stop]`, minus `use` declarations.
    fn push(
        &mut self,
        t: &[Token],
        start: usize,
        stop: usize,
        gate: Gate,
        report: Option<(String, u32, String, String)>,
    ) {
        let mut refs = BTreeSet::new();
        let mut k = start;
        while k < stop {
            if t[k].is_ident("use") {
                k = item_end(t, k);
            } else {
                if t[k].kind == TokenKind::Ident {
                    refs.insert(t[k].text.clone());
                }
                k += 1;
            }
        }
        self.items.push(Item {
            gate,
            refs: refs.into_iter().collect(),
            report,
        });
    }

    /// Propagates reach from the roots to a fixpoint and reports every
    /// `pub` library item left unreached.
    pub fn check(&self, findings: &mut Vec<Finding>) {
        let mut names: BTreeSet<&str> = BTreeSet::new();
        let mut reached = vec![false; self.items.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (item, done) in self.items.iter().zip(&mut reached) {
                let said = |n: &String| names.contains(n.as_str());
                let open = match &item.gate {
                    Gate::Root => true,
                    Gate::Names(own) => own.iter().any(said),
                    Gate::Method { name, self_ty } => said(name) && said(self_ty),
                    Gate::TraitImpl {
                        self_ty,
                        trait_name,
                    } => {
                        if self.types.contains(self_ty) {
                            said(self_ty)
                        } else {
                            !self.types.contains(trait_name) || said(trait_name)
                        }
                    }
                };
                if open && !*done {
                    *done = true;
                    changed = true;
                    names.extend(item.refs.iter().map(String::as_str));
                }
            }
        }
        for (item, done) in self.items.iter().zip(&reached) {
            if let (Some((file, line, kw, name)), false) = (&item.report, done) {
                findings.push(Finding {
                    file: file.clone(),
                    line: *line,
                    rule: Rule::PubLiveness,
                    message: format!(
                        "pub {kw} `{name}` is not reached from any bin, test, example, bench or benchmark entry point — remove it or move it behind #[cfg(test)]"
                    ),
                });
            }
        }
    }
}

/// The tokens that are code, comments (doc comments included) dropped.
fn code_tokens(tokens: &[Token]) -> Vec<Token> {
    tokens.iter().filter(|t| t.is_code()).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Names reported for `files`; library paths are those under `src/`
    /// that are not `src/bin/` or `main.rs`.
    fn reported(files: &[(&str, &str)]) -> Vec<String> {
        let mut graph = Graph::default();
        for (path, src) in files {
            if crate::FileScope::classify(path).is_some_and(|s| s.rules.pub_liveness) {
                graph.add_library(path, &lex(src));
            } else {
                graph.add_root(&lex(src));
            }
        }
        let mut findings = Vec::new();
        graph.check(&mut findings);
        findings
            .iter()
            .map(|f| f.message.split('`').nth(1).unwrap_or("").to_string())
            .collect()
    }

    #[test]
    fn reexport_impl_header_and_unit_tests_do_not_reach() {
        let multi = "/// D.\npub struct Multi;\nimpl Multi {\n    /// D.\n    pub fn spread(&self) {}\n}\n#[cfg(test)]\nmod tests {\n    use super::*;\n    #[test]\n    fn t() { Multi.spread(); }\n}\n";
        let lib = "pub mod multi;\npub use multi::Multi;\n";
        let bin = "fn main() { println!(\"spread\"); }\n";
        let found = reported(&[
            ("crates/core/src/multi.rs", multi),
            ("crates/core/src/lib.rs", lib),
            ("crates/core/src/bin/run.rs", bin),
        ]);
        assert_eq!(found, ["Multi", "spread"]);
    }

    #[test]
    fn const_fn_is_reported_under_its_own_name() {
        let src = "/// D.\npub const fn orphan() -> u32 { 1 }\n/// D.\npub const LIMIT: u32 = 2;\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", src)]),
            ["orphan", "LIMIT"]
        );
    }

    #[test]
    fn reach_is_transitive_from_the_roots() {
        let lib = "pub fn a() { b() }\npub fn b() {}\npub fn c() {}\npub fn d() { c() }\n";
        let bin = "fn main() { a(); }\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["c", "d"]
        );
    }

    #[test]
    fn integration_tests_examples_and_benchmark_are_roots() {
        let lib = "pub fn by_test() {}\npub fn by_example() {}\npub fn by_bench() {}\npub fn by_nothing() {}\n";
        assert_eq!(
            reported(&[
                ("crates/nor/src/a.rs", lib),
                ("crates/nor/tests/t.rs", "#[test]\nfn t() { by_test(); }\n"),
                ("examples/e.rs", "fn main() { by_example(); }\n"),
                ("benchmark/src/run.rs", "pub fn go() { by_bench(); }\n"),
            ]),
            ["by_nothing"]
        );
    }

    #[test]
    fn new_on_an_unreached_type_is_reported() {
        let lib = "pub struct Used;\nimpl Used {\n    pub fn new() -> Self { Self }\n}\npub struct Unused;\nimpl Unused {\n    pub fn new() -> Self { Self }\n}\n";
        let bin = "fn main() { let _ = Used::new(); }\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["Unused", "new"]
        );
    }

    #[test]
    fn trait_impl_items_follow_their_type() {
        let lib = "pub trait Render { fn render(&self) -> u32; }\npub struct A;\nimpl Render for A {\n    fn render(&self) -> u32 { helper_a() }\n}\npub struct B;\nimpl Render for B {\n    fn render(&self) -> u32 { helper_b() }\n}\npub fn helper_a() -> u32 { 1 }\npub fn helper_b() -> u32 { 2 }\n";
        let bin = "fn main() { A.render(); }\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["B", "helper_b"]
        );
    }

    #[test]
    fn doc_mentions_do_not_keep_an_item_live() {
        let lib = "/// Use [`special_entry`] for this.\npub fn special_entry() {}\n";
        let bin = "//! Calls `special_entry`.\nfn main() {}\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["special_entry"]
        );
    }

    #[test]
    fn restricted_visibility_is_not_reported() {
        assert!(reported(&[(
            "crates/nor/src/a.rs",
            "pub(crate) fn internal() {}\npub(super) struct Up;\n"
        )])
        .is_empty());
    }
}
