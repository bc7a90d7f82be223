//! `dead-api`: public functions that nothing calls.
//!
//! A plain `pub` free fn or inherent method in a crate's non-test source
//! is a finding when no reference anywhere resolves to it: not in the
//! workspace's non-test code, not in `examples/` or `perfbench/src`, not
//! in `tests/`, `crates/*/tests` or any `#[cfg(test)]` module. A fn
//! whose only references are in test code is not a finding; the report
//! lists it under `test_only`, with its callers.
//!
//! A reference is a call (`name(…)`, `recv.name(…)`, `Qual::name(…)`,
//! with or without a turbofish), a path used as a value
//! (`.map(Ubig::from_be_bytes)`), or a bare fn name in argument, field or
//! initializer position (`.map(parse)`, `run: cmd_serve`). `use` items
//! are not references. References resolve through [`CallGraph::resolve`],
//! so a method call keeps every method of that name alive: a dead method
//! that shares its name with a live one is not reported (DESIGN.md §13).
//!
//! The rule runs on the workspace layout only. A lone crate's public API
//! exists for callers outside it.

use std::collections::{BTreeMap, BTreeSet};

use syn::{Item, Token, TokenKind};

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Level};
use crate::ir::{EventKind, Program};
use crate::scan::{is_test_scope, Workspace};

const RULE: &str = "dead-api";

/// A public fn that only test code references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestOnly {
    /// `Type::name` or `name`.
    pub name: String,
    pub file: String,
    pub line: u32,
    /// Each referencing site as `file::fn` (or `file:line` for a
    /// reference outside any fn, such as a `proptest!` block).
    pub callers: Vec<String>,
}

/// Reports every dead public fn into `out` and returns the test-only
/// ones in (file, line) order; `None` on a single-crate layout, where
/// the rule does not run.
pub fn run(
    ws: &Workspace,
    prog: &Program<'_>,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) -> Option<Vec<TestOnly>> {
    if ws.crates.iter().any(String::is_empty) {
        return None;
    }
    let candidate: Vec<bool> = prog
        .fns
        .iter()
        .map(|f| f.is_pub && f.trait_.is_none() && f.name != "main")
        .collect();
    // Per candidate: referenced by non-test code, and the test sites
    // that reference it.
    let mut live = vec![false; prog.fns.len()];
    let mut test_callers: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();

    let mut visit = |site: Site<'_>| {
        for call in references(site.tokens) {
            for &idx in graph.resolve(&call, site.self_ty) {
                let f = &prog.fns[idx];
                if !candidate[idx] || (f.file == site.file && f.line == site.line) {
                    continue;
                }
                if site.test {
                    test_callers.entry(idx).or_default().insert(site.label());
                } else {
                    live[idx] = true;
                }
            }
        }
    };
    for file in &ws.files {
        walk(&file.rel_path, &file.ast.items, false, &mut visit);
    }
    for file in &ws.callers {
        walk(&file.rel_path, &file.ast.items, file.test, &mut visit);
    }

    let mut test_only = Vec::new();
    for (idx, f) in prog.fns.iter().enumerate() {
        if !candidate[idx] || live[idx] {
            continue;
        }
        let name = match &f.self_ty {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        };
        match test_callers.remove(&idx) {
            Some(callers) => test_only.push(TestOnly {
                name,
                file: f.file.clone(),
                line: f.line,
                callers: callers.into_iter().collect(),
            }),
            None => out.push(Finding {
                rule: RULE,
                file: f.file.clone(),
                line: f.line,
                message: format!("public fn `{name}` is never called"),
                notes: vec!["no call or path in the workspace, its tests, examples/ or \
                     perfbench/src resolves to it; delete it, or allow it with the \
                     reason its callers are invisible to name resolution"
                    .to_string()],
                level: Level::Deny,
                allowed: None,
            }),
        }
    }
    Some(test_only)
}

/// A token stream that may reference workspace fns: a fn body, or the
/// tokens of an item the parser does not model (a const, a trait's
/// default bodies, a macro invocation such as `proptest! { … }`).
struct Site<'a> {
    file: &'a str,
    /// The fn's name, qualified by its impl type; `None` for an item.
    fn_name: Option<String>,
    line: u32,
    self_ty: Option<&'a str>,
    test: bool,
    tokens: &'a [Token],
}

impl Site<'_> {
    fn label(&self) -> String {
        match &self.fn_name {
            Some(name) => format!("{}::{name}", self.file),
            None => format!("{}:{}", self.file, self.line),
        }
    }
}

/// Visits every site in `items`; `test` marks code under `#[cfg(test)]`
/// or `#[test]`, and is inherited by everything nested in it.
fn walk<'a>(file: &'a str, items: &'a [Item], test: bool, visit: &mut dyn FnMut(Site<'a>)) {
    for item in items {
        match item {
            Item::Fn(f) => visit(Site {
                file,
                fn_name: Some(f.sig.ident.clone()),
                line: f.line,
                self_ty: None,
                test: test || is_test_scope(&f.attrs),
                tokens: &f.body,
            }),
            Item::Impl(i) => {
                for f in &i.fns {
                    visit(Site {
                        file,
                        fn_name: Some(format!("{}::{}", i.self_ty, f.sig.ident)),
                        line: f.line,
                        self_ty: Some(&i.self_ty),
                        test: test || is_test_scope(&i.attrs) || is_test_scope(&f.attrs),
                        tokens: &f.body,
                    });
                }
            }
            Item::Mod(m) => walk(file, &m.items, test || is_test_scope(&m.attrs), visit),
            Item::Other(tokens) => visit(Site {
                file,
                fn_name: None,
                line: tokens.first().map_or(0, |t| t.line),
                self_ty: None,
                test,
                tokens,
            }),
            _ => {}
        }
    }
}

/// The references in `body`, as call events for [`CallGraph::resolve`].
fn references(body: &[Token]) -> Vec<EventKind> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        if t.is_ident("use") {
            // A nested `use` names items without referencing them.
            while i < body.len() && !body[i].is_punct(';') {
                i += 1;
            }
            continue;
        }
        let prev = |k: usize| i.checked_sub(k).and_then(|j| body.get(j));
        if t.kind != TokenKind::Ident || prev(1).is_some_and(|p| p.is_ident("fn")) {
            i += 1;
            continue;
        }
        let next = body.get(i + 1);
        let called = next.is_some_and(|n| n.kind == TokenKind::Open('('))
            || (next.is_some_and(|n| n.is_punct(':'))
                && body.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && body.get(i + 3).is_some_and(|n| n.is_punct('<')));
        let method = prev(1).is_some_and(|p| p.is_punct('.'));
        let pathed =
            prev(1).is_some_and(|p| p.is_punct(':')) && prev(2).is_some_and(|p| p.is_punct(':'));
        let as_value = !pathed
            && !method
            && matches!(
                (
                    prev(1).map(|p| p.text.as_str()),
                    next.map(|n| n.text.as_str())
                ),
                (Some("(" | ","), Some(")" | ","))
                    | (Some(":"), Some("," | "}"))
                    | (Some("="), Some(";"))
            );
        if called || pathed || as_value {
            out.push(EventKind::Call {
                name: t.text.clone(),
                method,
                qualifier: if pathed { qualifier(body, i) } else { None },
                no_args: false,
            });
        }
        i += 1;
    }
    out
}

/// The path segment that qualifies the name at `body[at]`: `Qual` in
/// `Qual::name` and in `Qual::<T>::name`.
fn qualifier(body: &[Token], at: usize) -> Option<String> {
    let mut j = at.checked_sub(3)?;
    if body[j].is_punct('>') {
        // Skip the turbofish `::<…>` backwards.
        let mut depth = 0i32;
        while !(body[j].is_punct('<') && depth == 1) {
            depth += i32::from(body[j].is_punct('>')) - i32::from(body[j].is_punct('<'));
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(3)?;
    }
    (body[j].kind == TokenKind::Ident).then(|| body[j].text.clone())
}
