//! Name-based call resolution over the lowered workspace.
//!
//! The token-level parser has no type information, so calls resolve by
//! name with three precision tiers:
//!
//! * `Qual::name(…)` — resolved inside `Qual`'s impl blocks when
//!   `Qual` is a workspace type (or `Self`, using the caller's impl
//!   type); a qualifier that names no workspace type falls back to
//!   module-path resolution: the free fns named `name` in the module
//!   file `Qual` (`qual.rs` or `qual/mod.rs`), or, when no such file
//!   defines one, every free fn named `name`. An unknown qualifier
//!   (`Vec`, `std`, …) makes the call *external* — no workspace
//!   summary is charged to it;
//! * `recv.name(…)` — resolved to **every** workspace method named
//!   `name` (conservative over-approximation, see DESIGN.md §13);
//! * `name(…)` — resolved to free fns named `name`.

use std::collections::{BTreeMap, BTreeSet};

use crate::ir::{EventKind, Program};

pub struct CallGraph {
    /// Impl-block fns by (self type, name).
    assoc: BTreeMap<(String, String), Vec<usize>>,
    /// Fns with a `self` receiver, by name.
    methods: BTreeMap<String, Vec<usize>>,
    /// Free fns by name.
    free: BTreeMap<String, Vec<usize>>,
    /// Free fns by (module file, name): `divsteps` for `divsteps.rs`
    /// and `divsteps/mod.rs`.
    free_in_module: BTreeMap<(String, String), Vec<usize>>,
    /// Workspace type names with impl blocks (qualifier disambiguation).
    types: BTreeSet<String>,
}

impl CallGraph {
    pub fn build(prog: &Program<'_>) -> Self {
        let mut g = CallGraph {
            assoc: BTreeMap::new(),
            methods: BTreeMap::new(),
            free: BTreeMap::new(),
            free_in_module: BTreeMap::new(),
            types: BTreeSet::new(),
        };
        for (idx, f) in prog.fns.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    g.types.insert(ty.clone());
                    g.assoc
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(idx);
                    if f.has_self {
                        g.methods.entry(f.name.clone()).or_default().push(idx);
                    }
                }
                None => {
                    g.free.entry(f.name.clone()).or_default().push(idx);
                    if let Some(module) = module_of(&f.file) {
                        g.free_in_module
                            .entry((module.to_string(), f.name.clone()))
                            .or_default()
                            .push(idx);
                    }
                }
            }
        }
        g
    }

    /// Candidate workspace callees for a call event made from a fn whose
    /// impl type is `caller_self_ty`. Empty means external.
    pub fn resolve(&self, call: &EventKind, caller_self_ty: Option<&str>) -> &[usize] {
        const NONE: &[usize] = &[];
        let EventKind::Call {
            name,
            method,
            qualifier,
            ..
        } = call
        else {
            return NONE;
        };
        if let Some(q) = qualifier {
            let q = if q == "Self" {
                match caller_self_ty {
                    Some(ty) => ty,
                    None => return NONE,
                }
            } else {
                q.as_str()
            };
            if let Some(v) = self.assoc.get(&(q.to_string(), name.clone())) {
                return v;
            }
            if self.types.contains(q) {
                // Known workspace type but no such assoc fn: external
                // (e.g. a derived or std trait method).
                return NONE;
            }
            // Module-path call like `frame::write_frame(…)`.
            if let Some(v) = self.free_in_module.get(&(q.to_string(), name.clone())) {
                return v;
            }
            return self.free.get(name).map(Vec::as_slice).unwrap_or(NONE);
        }
        if *method {
            return self.methods.get(name).map(Vec::as_slice).unwrap_or(NONE);
        }
        self.free.get(name).map(Vec::as_slice).unwrap_or(NONE)
    }
}

/// The module a source file defines, as a path qualifier names it:
/// `inv` for `…/inv.rs`, `socket` for `…/socket/mod.rs`; `None` for a
/// crate root.
fn module_of(file: &str) -> Option<&str> {
    let mut parts = file.rsplit('/');
    let stem = parts.next()?.strip_suffix(".rs")?;
    match stem {
        "lib" | "main" => None,
        "mod" => parts.next(),
        _ => Some(stem),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir;
    use crate::scan::scan_workspace;

    #[test]
    fn resolves_by_tier() {
        let dir = std::env::temp_dir().join(format!("pisa-lint-cg-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("src/lib.rs"),
            "pub struct Node;\n\
             impl Node {\n\
                 pub fn new() -> Node { Node }\n\
                 pub fn send(&self) { helper(); }\n\
             }\n\
             fn helper() {}\n\
             fn caller(n: &Node) { n.send(); Node::new(); helper(); Vec::new(); \
                 divsteps::inverse(); other::inverse(); }\n",
        )
        .unwrap();
        // Two free fns share a name in different module files.
        std::fs::write(dir.join("src/divsteps.rs"), "pub fn inverse() {}\n").unwrap();
        std::fs::create_dir_all(dir.join("src/field")).unwrap();
        std::fs::write(dir.join("src/field/mod.rs"), "pub fn inverse() {}\n").unwrap();
        let ws = scan_workspace(&dir);
        let prog = ir::build(&ws);
        let g = CallGraph::build(&prog);
        let caller = prog.fns.iter().find(|f| f.name == "caller").unwrap();
        let mut resolved: Vec<(String, usize)> = Vec::new();
        for ev in &caller.events {
            if let EventKind::Call { name, .. } = &ev.kind {
                resolved.push((name.clone(), g.resolve(&ev.kind, None).len()));
            }
        }
        // n.send() → Node::send; Node::new() → Node::new (not Vec::new);
        // helper() → free helper; Vec::new() → external;
        // divsteps::inverse() → the one in divsteps.rs; other::inverse()
        // names no module file, so it may be either.
        assert_eq!(
            resolved,
            vec![
                ("send".to_string(), 1),
                ("new".to_string(), 1),
                ("helper".to_string(), 1),
                ("new".to_string(), 0),
                ("inverse".to_string(), 1),
                ("inverse".to_string(), 2),
            ]
        );
        let divsteps_call = caller
            .events
            .iter()
            .find(|ev| matches!(&ev.kind, EventKind::Call { qualifier: Some(q), .. } if q == "divsteps"))
            .unwrap();
        let [target] = g.resolve(&divsteps_call.kind, None) else {
            panic!("divsteps::inverse must resolve to one fn");
        };
        assert!(prog.fns[*target].file.ends_with("src/divsteps.rs"));
        assert_eq!(module_of("crates/net/src/socket/mod.rs"), Some("socket"));
        assert_eq!(module_of("crates/net/src/lib.rs"), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
