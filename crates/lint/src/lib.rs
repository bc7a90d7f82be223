//! `pisa-lint`: secret-hygiene and panic-freedom static analysis for
//! the PISA workspace.
//!
//! PISA's security argument (PAPER.md §IV–V) requires that the SDC and
//! STP never observe PU reception data, SU locations, or decisions.
//! That argument quietly assumes three code-level invariants that the
//! type system does not enforce: key material is never printed or
//! serialized, adversarial frames cannot turn library panics into an
//! oracle, and constant-time-sensitive arithmetic does not branch on
//! secrets. This crate machine-checks all three (plus some workspace
//! conventions) on every run; see [`rules`] for the four families.
//!
//! The tool parses the workspace with the vendored `syn` shim
//! (`shims/syn`), so it needs no network and no rustc internals.

#![forbid(unsafe_code)]

pub mod allow;
pub mod callgraph;
pub mod config;
pub mod dataflow;
pub mod findings;
pub mod ir;
pub mod rules;
pub mod scan;

use std::path::Path;

pub use config::{parse_config, serialize_config, Config};
pub use findings::{Finding, Level, Report, RULES};

/// Per-rule severity overrides from the CLI.
#[derive(Debug, Clone, Default)]
pub struct LevelOverrides {
    /// Rules forced to deny (`"all"` matches every rule).
    pub deny: Vec<String>,
    /// Rules downgraded to warn (`"all"` matches every rule).
    pub warn: Vec<String>,
}

impl LevelOverrides {
    fn level_for(&self, rule: &str) -> Level {
        // Default is deny (this is a gate); --warn downgrades, --deny
        // re-upgrades (so `--warn all --deny secret-hygiene` works).
        let mut level = Level::Deny;
        if self.warn.iter().any(|r| r == rule || r == "all") {
            level = Level::Warn;
        }
        if self.deny.iter().any(|r| r == rule || r == "all") {
            level = Level::Deny;
        }
        level
    }
}

/// Runs all rule families over the workspace rooted at `root` and
/// returns the report (allowlists already applied).
pub fn run_lint(root: &Path, cfg: &Config, levels: &LevelOverrides) -> Report {
    let ws = scan::scan_workspace(root);
    let mut findings: Vec<Finding> = Vec::new();

    // v1 item-level families.
    rules::secret::run(&ws, cfg, &mut findings);
    rules::panics::run(&ws, cfg, &mut findings);
    rules::branching::run(&ws, cfg, &mut findings);
    rules::conventions::run(&ws, cfg, &mut findings);

    // v2 interprocedural families, sharing one lowered program and
    // call graph.
    let prog = ir::build(&ws);
    let graph = callgraph::CallGraph::build(&prog);
    let conc = dataflow::conc_summaries(&prog, &graph);
    rules::locks::run(&prog, &graph, &conc, cfg, &mut findings);
    rules::blocking::run(&prog, &graph, &conc, cfg, &mut findings);
    let vocab = dataflow::secret_vocab(&ws, cfg);
    let (_sums, witnesses) = dataflow::flow_analysis(&prog, &graph, &vocab, cfg);
    rules::flow::run(&witnesses, cfg, &mut findings);
    let test_only = rules::dead_api::run(&ws, &prog, &graph, &mut findings);

    let usage = allow::apply_allows(&ws, cfg, &mut findings);
    allow::dead_allow_findings(&ws, cfg, &usage, &mut findings);

    for f in &mut findings {
        f.level = levels.level_for(f.rule);
    }
    // Deterministic order: (file, line, rule) primary, message as the
    // tiebreaker so text and JSON reports are byte-stable across runs.
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });

    let mut parse_failures = ws.failures;
    parse_failures.sort();

    Report {
        findings,
        files_scanned: ws.files.len(),
        parse_failures,
        test_only,
    }
}
