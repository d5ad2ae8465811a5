//! Rule passes.
//!
//! Each pass walks the token stream (plus the [`Structure`] facts) of one
//! file; [`liveness`] instead runs as a workspace-level pass over a
//! cross-file reachability graph. Every per-file pass skips comment/string
//! tokens and `#[cfg(test)]` / `macro_rules!` regions through
//! [`Structure`], which is what the old line-oriented scanner could only
//! approximate.
//!
//! The engine holds only the rules no compiler lint matches: missing docs
//! and `unsafe` are rustc's (`missing_docs`, `unreachable_pub`,
//! `unsafe_code`), and hash-ordered containers, wall-clock reads, OS
//! randomness and raw threads are clippy's `disallowed_types` /
//! `disallowed_methods` (see `clippy.toml`).

pub mod classic;
pub mod dataflow;
pub mod liveness;

use crate::finding::Finding;
use crate::lexer::Token;
use crate::scope::{FileScope, Structure};

/// Which rule families apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuleSet {
    /// Panic-free hot paths.
    pub panic_free: bool,
    /// No exact f64 equality.
    pub float_eq: bool,
    /// No library printing.
    pub print_discipline: bool,
    /// RNG constructions derive from seed parameters.
    pub seed_dataflow: bool,
    /// No ad-hoc float accumulation in merge code.
    pub merge_commutativity: bool,
    /// Wrapping-arithmetic inventory (physics/core numeric code).
    pub wrapping_audit: bool,
    /// Definitions participate in the workspace pub-liveness pass.
    pub pub_liveness: bool,
}

/// Runs every per-file pass enabled for the file.
#[must_use]
pub fn run_file(scope: &FileScope, tokens: &[Token], structure: &Structure) -> Vec<Finding> {
    let mut findings = Vec::new();
    let r = scope.rules;
    let path = scope.path.as_str();
    if r.panic_free {
        classic::panic_free(path, tokens, structure, &mut findings);
    }
    if r.float_eq {
        classic::float_eq(path, tokens, structure, &mut findings);
    }
    if r.print_discipline {
        classic::print_discipline(path, tokens, structure, &mut findings);
    }
    if r.seed_dataflow {
        dataflow::seed_dataflow(path, tokens, structure, &mut findings);
    }
    if r.merge_commutativity {
        dataflow::merge_commutativity(path, tokens, structure, &mut findings);
    }
    if r.wrapping_audit {
        classic::wrapping_audit(path, tokens, structure, &mut findings);
    }
    findings
}
