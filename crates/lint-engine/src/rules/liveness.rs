//! Pub-API liveness: `pub` items that no entry point reaches.
//!
//! The roots are every item of a non-library target: binaries,
//! integration tests, examples, bench targets and the `benchmark/`
//! package. A reached item reaches what its code *uses*. `use`
//! declarations and comments (doc comments included) use nothing, and a
//! library's own `#[cfg(test)]` code is neither a root nor an item, so a
//! `pub` item mentioned only by its re-export, its `impl` header, its docs
//! or its module's unit tests is reported. How an item is used depends on
//! its kind:
//!
//! * a free function, type, const, static, trait or macro: by its bare
//!   name; a trait also by its items' names, since callers bring it in
//!   with a `use` and then name only its methods;
//! * an inherent method or associated item, once its self type is named:
//!   by a call (`.m(`, `.m::<`) or a path (`Type::m`, `Self::m`), so a
//!   local or a field that shares its name does not keep it live;
//! * a `pub` field of a `pub struct`, once its owner is named: by a read
//!   (`.f` followed by neither `(` nor a plain `=`), by a struct pattern
//!   (`Owner { f, .. }`, or braces followed by `=>`, `=`, `|`, `if` or
//!   `in`), or by a macro call's arguments;
//! * a variant of a `pub enum`: by a construction, the path `Owner::V` or
//!   `Self::V` outside a pattern; a `#[default]` variant with its enum;
//! * the items of a trait impl: with its self type, or with its trait
//!   when the self type is not a library type (blanket impls).
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
    /// An inherent method: once its self type is named and it is called
    /// or named by path.
    Method { name: String, self_ty: String },
    /// A `pub` field: once its owner is named and the field is read.
    Field { owner: String, name: String },
    /// A variant, as `Owner::V`: once it is constructed.
    Variant(String),
    /// A trait impl: with its self type, or with its trait when the self
    /// type is no library type.
    TraitImpl { self_ty: String, trait_name: String },
}

/// What a stretch of code uses, by kind of use.
#[derive(Debug, Default)]
struct Uses {
    /// Every identifier.
    names: BTreeSet<String>,
    /// Method calls (`.m(`, `.m::<`) and path segments (`X::m`).
    calls: BTreeSet<String>,
    /// Field reads: `.f`, struct-pattern fields and macro arguments.
    reads: BTreeSet<String>,
    /// Constructed variants as `Owner::V`, `Self` resolved.
    builds: BTreeSet<String>,
}

/// One node of the reachability graph.
#[derive(Debug)]
struct Item {
    gate: Gate,
    /// What the item's code uses.
    uses: Uses,
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

/// The text of `t[k]`, or `""` past either end.
fn word(t: &[Token], k: usize) -> &str {
    t.get(k).map_or("", |tok| tok.text.as_str())
}

/// The index of the bracket that closes the one opened at `t[open]`, or
/// `t.len()` if it is never closed.
fn close(t: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, tok) in t.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" | "[" | "{" if tok.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if tok.kind == TokenKind::Punct => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    t.len()
}

/// Whether the tokens from `t[j]` on, after any `)`, continue a pattern.
fn pattern_follows(t: &[Token], mut j: usize) -> bool {
    while word(t, j) == ")" {
        j += 1;
    }
    matches!(word(t, j), "=>" | "|" | "=" | "if" | "in")
}

impl Uses {
    /// Collects what `t[start..stop]` uses, skipping `use` declarations;
    /// `self_ty` stands for `Self`.
    fn scan(t: &[Token], start: usize, stop: usize, self_ty: Option<&str>) -> Self {
        let mut uses = Self::default();
        // Ends (exclusive) of the macro-call arguments and the
        // `matches!(…)` arguments the scan is inside.
        let (mut in_macro, mut in_matches) = (start, start);
        let mut k = start;
        while k < stop {
            if t[k].is_ident("use") {
                k = item_end(t, k);
                continue;
            }
            if t[k].kind == TokenKind::Ident {
                let name = t[k].text.as_str();
                let before = if k > start { word(t, k - 1) } else { "" };
                let next = word(t, k + 1);
                uses.names.insert(name.to_string());
                if next == "!" && matches!(word(t, k + 2), "(" | "[" | "{") {
                    let end = close(t, k + 2);
                    in_macro = in_macro.max(end);
                    if name == "matches" {
                        in_matches = in_matches.max(end);
                    }
                } else if before == "." {
                    if next == "(" || (next == "::" && word(t, k + 2) == "<") {
                        uses.calls.insert(name.to_string());
                    } else if next != "=" {
                        uses.reads.insert(name.to_string());
                    }
                } else if before == "::" {
                    uses.calls.insert(name.to_string());
                    let payload_end = match next {
                        "(" | "{" => close(t, k + 1) + 1,
                        _ => k + 1,
                    };
                    if k >= in_matches && !pattern_follows(t, payload_end) {
                        let owner = match word(t, k.saturating_sub(2)) {
                            "Self" => self_ty.unwrap_or("Self"),
                            owner => owner,
                        };
                        uses.builds.insert(format!("{owner}::{name}"));
                    }
                }
                if next == "{" && name.starts_with(|c: char| c.is_ascii_uppercase()) {
                    uses.pattern_fields(t, k + 1, k < in_macro);
                }
            }
            k += 1;
        }
        uses
    }

    /// Reads the fields named in the braces that open at `t[open]` after
    /// an `Owner` path, if they are a struct pattern (ending in `..`, or
    /// followed by a pattern's continuation) or sit in a macro call's
    /// arguments (`impl_to_json!(Owner { f, g })`). A struct literal
    /// reads nothing.
    fn pattern_fields(&mut self, t: &[Token], open: usize, in_macro: bool) {
        let end = close(t, open);
        if !in_macro && word(t, end - 1) != ".." && !pattern_follows(t, end + 1) {
            return;
        }
        let mut depth = 0usize;
        for k in open + 1..end {
            match word(t, k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            if depth == 0
                && t[k].kind == TokenKind::Ident
                && matches!(word(t, k + 1), "," | "}" | ":")
            {
                self.reads.insert(t[k].text.clone());
            }
        }
    }
}

impl Graph {
    /// Adds a file of a non-library target: the whole file is one root.
    pub fn add_root(&mut self, tokens: &[Token]) {
        let code = code_tokens(tokens);
        self.push(&code, 0, code.len(), Gate::Root, None, None);
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
        let word = |k: usize| word(t, k);
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
                let gate = Gate::Names(vec![word(i + 2).to_string()]);
                self.push(t, start, stop, gate, None, cx.self_ty);
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
                let report = (is_pub && name != "main" && !name.starts_with('_')).then(|| {
                    (
                        cx.file.to_string(),
                        t[start].line,
                        kw.to_string(),
                        name.clone(),
                    )
                });
                self.push(t, start, stop, gate, report, cx.self_ty);
                if is_pub && matches!(kw, "struct" | "enum") {
                    if let Some(open) = (name_at..stop).find(|&k| word(k) == "{") {
                        self.members(t, open, kw, &name, cx.file);
                    }
                }
            }
            _ if word(i + 1) == "!" && t[i].kind == TokenKind::Ident => {
                self.push(t, start, stop, Gate::Root, None, cx.self_ty);
            }
            _ => {}
        }
    }

    /// Records the `pub` fields of a `pub struct`, or the variants of a
    /// `pub enum`, whose body opens at `t[open]`.
    fn members(&mut self, t: &[Token], open: usize, kw: &str, owner: &str, file: &str) {
        let end = close(t, open);
        let mut k = open + 1;
        while k < end {
            let (mut test, mut default) = (false, false);
            while let Some(after) = attr_end(t, k) {
                test |= attr_is_cfg_test(t, k, after);
                default |= after == k + 4 && word(t, k + 2) == "default";
                k = after;
            }
            let (at, gate, label) = if kw == "struct" {
                let name = word(t, k + 1);
                let field = word(t, k) == "pub" && word(t, k + 2) == ":";
                let gate = Gate::Field {
                    owner: owner.to_string(),
                    name: name.to_string(),
                };
                (field.then_some(k), gate, format!("{owner}.{name}"))
            } else {
                let path = format!("{owner}::{}", word(t, k));
                let variant = t.get(k).is_some_and(|tok| tok.kind == TokenKind::Ident);
                let gate = if default {
                    Gate::Names(vec![owner.to_string()])
                } else {
                    Gate::Variant(path.clone())
                };
                (variant.then_some(k), gate, path)
            };
            if let (false, Some(at)) = (test, at) {
                let kind = if kw == "struct" { "field" } else { "variant" };
                self.items.push(Item {
                    gate,
                    uses: Uses::default(),
                    report: Some((file.to_string(), t[at].line, kind.to_string(), label)),
                });
            }
            // On to the next member, past the `,` that ends this one.
            let mut depth = 0usize;
            while k < end && !(depth == 0 && word(t, k) == ",") {
                match word(t, k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    _ => {}
                }
                k += 1;
            }
            k += 1;
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
            self.push(t, i, stop, gate, None, Some(second));
        } else {
            let inner = Cx {
                self_ty: Some(first),
                ..cx
            };
            self.walk(t, open + 1, stop.saturating_sub(1), inner);
        }
    }

    /// Adds an item whose code is `t[start..stop]`; `self_ty` stands for
    /// `Self` in it.
    fn push(
        &mut self,
        t: &[Token],
        start: usize,
        stop: usize,
        gate: Gate,
        report: Option<(String, u32, String, String)>,
        self_ty: Option<&str>,
    ) {
        self.items.push(Item {
            gate,
            uses: Uses::scan(t, start, stop, self_ty),
            report,
        });
    }

    /// Propagates reach from the roots to a fixpoint and reports every
    /// `pub` library item left unreached.
    pub fn check(&self, findings: &mut Vec<Finding>) {
        let mut seen = Uses::default();
        let mut reached = vec![false; self.items.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for (item, done) in self.items.iter().zip(&mut reached) {
                if *done {
                    continue;
                }
                let said = |n: &String| seen.names.contains(n);
                let open = match &item.gate {
                    Gate::Root => true,
                    Gate::Names(own) => own.iter().any(said),
                    Gate::Method { name, self_ty } => said(self_ty) && seen.calls.contains(name),
                    Gate::Field { owner, name } => said(owner) && seen.reads.contains(name),
                    Gate::Variant(path) => seen.builds.contains(path),
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
                if open {
                    *done = true;
                    changed = true;
                    let uses = &item.uses;
                    seen.names.extend(uses.names.iter().cloned());
                    seen.calls.extend(uses.calls.iter().cloned());
                    seen.reads.extend(uses.reads.iter().cloned());
                    seen.builds.extend(uses.builds.iter().cloned());
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
    fn methods_are_reached_by_calls_and_paths_not_by_name() {
        let lib = "pub struct Meter;\nimpl Meter {\n    pub fn new() -> Self { Self }\n    pub fn gauge(&self) -> u32 { 1 }\n    pub fn read(&self) -> u32 { 2 }\n    pub fn reset(&self) {}\n}\npub struct Panel {\n    pub gauge: u32,\n}\n";
        // `gauge` is only a local, a struct-literal key and a field here.
        let bin = "fn main() {\n    let m = Meter::new();\n    let gauge = m.read();\n    let p = Panel { gauge };\n    let _ = p.gauge;\n    Meter::reset(&m);\n}\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["gauge"]
        );
    }

    #[test]
    fn fields_are_reached_by_reads_patterns_and_macro_listings() {
        let lib = "pub struct Report {\n    pub written: u32,\n    pub read: u32,\n    pub destructured: u32,\n    pub listed: u32,\n}\nimpl_to_json!(Report { listed });\npub fn make() -> Report {\n    Report { written: 0, read: 1, destructured: 2, listed: 3 }\n}\n";
        let bin = "fn main() {\n    let mut r = make();\n    r.written = 5;\n    let _ = r.read;\n    let Report { destructured, .. } = r;\n}\n";
        assert_eq!(
            reported(&[("crates/bench/src/a.rs", lib), ("src/main.rs", bin)]),
            ["Report.written"]
        );
    }

    #[test]
    fn variants_are_reached_by_construction_not_by_patterns() {
        let lib = "#[derive(Default)]\npub enum Mode {\n    Matched,\n    Built,\n    #[default]\n    Fallback,\n}\npub fn classify(m: &Mode) -> u32 {\n    match m { Mode::Matched => 1, _ => 0 }\n}\npub fn is_matched(m: &Mode) -> bool { matches!(m, Mode::Matched) }\npub fn check(m: Mode) -> Result<(), Mode> {\n    if let Mode::Matched = m { return Ok(()); }\n    Err(Mode::Built)\n}\n";
        let bin = "fn main() {\n    let m = Mode::default();\n    classify(&m);\n    is_matched(&m);\n    let _ = check(m);\n}\n";
        assert_eq!(
            reported(&[("crates/nor/src/a.rs", lib), ("src/main.rs", bin)]),
            ["Mode::Matched"]
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
