//! Rule family 5: lock-discipline (v2, interprocedural).
//!
//! Within the configured concurrency-sensitive paths (`[locks] paths`),
//! the threaded services must keep their guards short-lived and ordered:
//!
//! * **guard across blocking I/O** — a `Mutex`/`RwLock` guard held at a
//!   direct unbounded-blocking call (`recv()`, `join()`, socket
//!   `read`/`write`/`write_all`, …) stalls every other thread needing
//!   that lock for as long as the peer feels like. A slow or
//!   adversarial peer turns it into a denial of service.
//! * **double acquisition** — re-acquiring a lock already held on the
//!   same path self-deadlocks with `std::sync` primitives.
//! * **lock-order inversion** — two locks acquired in both orders
//!   (directly or through callees, using the interprocedural acquire
//!   summaries) can deadlock two threads against each other.
//! * **poisoning panic** — `.lock().unwrap()` / `.expect(…)` converts a
//!   panic on one thread into a cascading panic on every other, an
//!   adversary-visible crash oracle in message paths.
//!
//! Lock identity is name-based (see DESIGN.md §13 for the soundness
//! trade-offs: same-named fields conflate, closures are charged to the
//! spawning scope).

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::dataflow::ConcSummary;
use crate::findings::{Finding, Level};
use crate::ir::{blocking_kind, Bound, EventKind, Program};

const RULE: &str = "lock-discipline";

pub fn run(
    prog: &Program<'_>,
    graph: &CallGraph,
    conc: &[ConcSummary],
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    // Ordered acquisition edges (first, second) → witness, collected
    // from every in-scope fn, both direct and through callee summaries.
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();

    for (idx, f) in prog.fns.iter().enumerate() {
        if !in_scope(cfg, &f.file) {
            continue;
        }
        for ev in &f.events {
            match &ev.kind {
                EventKind::Acquire { lock, unwrapped } => {
                    if *unwrapped {
                        out.push(finding(
                            &f.file,
                            ev.line,
                            format!(
                                "`.{}().unwrap()`-style acquisition of `{lock}` in fn `{}`",
                                acquire_verb(prog, lock),
                                f.name
                            ),
                            vec![
                                "a panic on any other thread holding this lock poisons it and \
                                 cascades the crash here — an adversary-visible oracle"
                                    .to_string(),
                                "use a non-poisoning wrapper or handle the `Err` arm explicitly"
                                    .to_string(),
                            ],
                        ));
                    }
                    if ev.held.iter().any(|h| h.lock == *lock) {
                        out.push(finding(
                            &f.file,
                            ev.line,
                            format!(
                                "lock `{lock}` re-acquired while already held in fn `{}`",
                                f.name
                            ),
                            vec!["re-entrant acquisition of a std-style mutex self-deadlocks"
                                .to_string()],
                        ));
                    }
                    for h in &ev.held {
                        if h.lock != *lock {
                            edges.entry((h.lock.clone(), lock.clone())).or_insert((
                                f.file.clone(),
                                ev.line,
                                format!(
                                    "fn `{}` acquires `{lock}` at {}:{} while holding `{}` \
                                     (acquired line {})",
                                    f.name, f.file, ev.line, h.lock, h.line
                                ),
                            ));
                        }
                    }
                }
                call @ EventKind::Call { name, .. } => {
                    if !ev.held.is_empty() && blocking_kind(call) == Some(Bound::Unbounded) {
                        let held: Vec<String> =
                            ev.held.iter().map(|h| format!("`{}`", h.lock)).collect();
                        out.push(finding(
                            &f.file,
                            ev.line,
                            format!(
                                "guard on {} held across blocking `{name}` in fn `{}`",
                                held.join(", "),
                                f.name
                            ),
                            vec![
                                format!(
                                    "`{name}` can block indefinitely on a slow or adversarial \
                                     peer; every thread contending on {} stalls with it",
                                    held.join(", ")
                                ),
                                "copy what you need out of the guard and drop it before \
                                 blocking"
                                    .to_string(),
                            ],
                        ));
                    }
                    // Interprocedural acquisition edges: held locks
                    // order-before anything the callee may acquire.
                    if !ev.held.is_empty() {
                        for &callee in graph.resolve(call, f.self_ty.as_deref()) {
                            if callee == idx {
                                continue;
                            }
                            for (lock, wit) in &conc[callee].acquires {
                                for h in &ev.held {
                                    if h.lock != *lock {
                                        edges.entry((h.lock.clone(), lock.clone())).or_insert((
                                            f.file.clone(),
                                            ev.line,
                                            format!(
                                                "fn `{}` calls `{name}` at {}:{} while \
                                                     holding `{}`; callee path: {wit}",
                                                f.name, f.file, ev.line, h.lock
                                            ),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Inversions: (a, b) and (b, a) both present. Report once per
    // unordered pair, anchored at the lexicographically-first edge.
    for ((a, b), (file, line, wit_ab)) in &edges {
        if a < b {
            if let Some((_, _, wit_ba)) = edges.get(&(b.clone(), a.clone())) {
                out.push(finding(
                    file,
                    *line,
                    format!("lock-order inversion between `{a}` and `{b}`"),
                    vec![
                        format!("order `{a}` → `{b}`: {wit_ab}"),
                        format!("order `{b}` → `{a}`: {wit_ba}"),
                        "two threads taking these paths concurrently deadlock; pick one \
                         global order and stick to it"
                            .to_string(),
                    ],
                ));
            }
        }
    }
}

fn in_scope(cfg: &Config, file: &str) -> bool {
    cfg.locks_paths.iter().any(|p| file.starts_with(p.as_str()))
}

/// `lock` for a Mutex name, `read`/`write` collapsed to `lock` is wrong
/// for RwLock — report the verb that matches the primitive.
fn acquire_verb(prog: &Program<'_>, lock: &str) -> &'static str {
    match prog.locks.kinds.get(lock) {
        Some(crate::ir::LockKind::RwLock) => "read",
        _ => "lock",
    }
}

fn finding(file: &str, line: u32, message: String, notes: Vec<String>) -> Finding {
    Finding {
        rule: RULE,
        file: file.to_string(),
        line,
        message,
        notes,
        level: Level::Deny,
        allowed: None,
    }
}
