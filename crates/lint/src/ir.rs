//! Function-level IR for the interprocedural analyses.
//!
//! Each non-test function in the workspace is lowered to a linear
//! *event stream*: lock acquisitions and call sites, each annotated
//! with the set of guards held at that point and whether the event
//! sits inside a loop. The lowering is a single guarded walk over the
//! raw body token stream (the `shims/syn` parser keeps bodies as
//! balanced token slices, not statement trees), tracking:
//!
//! * brace depth, so guards die at the end of their lexical block;
//! * `let`-bound guards (live until `drop(name)` or end of block) vs
//!   temporary guards (live until the end of the statement);
//! * loop nesting (`loop` / `while` / `for` bodies).
//!
//! Lock identity is *name-based*: the workspace-wide
//! [`LockUniverse`] collects every struct field typed `Mutex<…>` /
//! `RwLock<…>` and every fn returning a lock handle; `.lock()` /
//! `.read()` / `.write()` with **empty** parentheses on one of those
//! names is an acquisition. The empty-parens requirement is what keeps
//! `io::Read::read(&mut buf)` from being misread as an `RwLock` read
//! acquisition. Two locks with the same field name in different types
//! are conflated — a documented soundness trade (DESIGN.md §13).

use std::collections::BTreeMap;

use crate::scan::{for_each_fn, for_each_type, ty_mentions, Workspace};
use syn::{Token, TokenKind};

/// Which primitive a lock name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockKind {
    Mutex,
    RwLock,
}

/// Workspace-wide map from lock names (struct fields typed
/// `Mutex<…>`/`RwLock<…>`, fns returning lock handles) to their kind.
#[derive(Debug, Default)]
pub struct LockUniverse {
    pub kinds: BTreeMap<String, LockKind>,
}

impl LockUniverse {
    pub fn build(ws: &Workspace) -> Self {
        let mut kinds = BTreeMap::new();
        for file in &ws.files {
            for_each_type(&file.ast, &mut |td| {
                for f in td.fields() {
                    if ty_mentions(&f.ty, "Mutex") {
                        kinds.insert(f.name.clone(), LockKind::Mutex);
                    } else if ty_mentions(&f.ty, "RwLock") {
                        kinds.insert(f.name.clone(), LockKind::RwLock);
                    }
                }
            });
            for_each_fn(&file.ast, &mut |ctx| {
                let ret = &ctx.func.sig.ret_ty;
                if ty_mentions(ret, "Mutex") {
                    kinds.insert(ctx.func.sig.ident.clone(), LockKind::Mutex);
                } else if ty_mentions(ret, "RwLock") {
                    kinds.insert(ctx.func.sig.ident.clone(), LockKind::RwLock);
                }
            });
        }
        LockUniverse { kinds }
    }
}

/// A guard held at an event, by lock name and acquisition line.
#[derive(Debug, Clone)]
pub struct Held {
    pub lock: String,
    pub line: u32,
}

/// One lowered event.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// `.lock()` / `.read()` / `.write()` on a known lock name.
    Acquire {
        lock: String,
        /// `.lock().unwrap()` / `.expect(…)` — a poisoning panic site.
        unwrapped: bool,
    },
    /// A call site: `name(…)`, `recv.name(…)` or `Qual::name(…)`.
    Call {
        name: String,
        /// `true` for `.name(…)` method syntax.
        method: bool,
        /// `Qual` in `Qual::name(…)` (type or module path segment).
        qualifier: Option<String>,
        /// `true` when the argument list is empty (`name()`).
        no_args: bool,
    },
}

#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    pub line: u32,
    /// Guards held when this event executes, in acquisition order.
    pub held: Vec<Held>,
    /// `true` when the event sits inside a `loop`/`while`/`for` body.
    pub in_loop: bool,
}

/// One lowered function.
pub struct FnIr<'a> {
    pub file: String,
    pub crate_path: String,
    pub name: String,
    pub self_ty: Option<String>,
    pub trait_: Option<String>,
    pub has_self: bool,
    /// Declared plain `pub`.
    pub is_pub: bool,
    pub line: u32,
    pub sig: &'a syn::Signature,
    pub body: &'a [Token],
    pub events: Vec<Event>,
}

/// The lowered workspace.
pub struct Program<'a> {
    pub fns: Vec<FnIr<'a>>,
    pub locks: LockUniverse,
}

pub fn build(ws: &Workspace) -> Program<'_> {
    let locks = LockUniverse::build(ws);
    let mut fns = Vec::new();
    for file in &ws.files {
        for_each_fn(&file.ast, &mut |ctx| {
            let events = lower_body(&ctx.func.body, &locks);
            fns.push(FnIr {
                file: file.rel_path.clone(),
                crate_path: file.crate_path.clone(),
                name: ctx.func.sig.ident.clone(),
                self_ty: ctx.self_ty.map(|s| s.to_string()),
                trait_: ctx.trait_.map(|s| s.to_string()),
                has_self: ctx.func.sig.has_self,
                is_pub: ctx.func.is_pub,
                line: ctx.func.line,
                sig: &ctx.func.sig,
                body: &ctx.func.body,
                events,
            });
        });
    }
    Program { fns, locks }
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "in",
    "as", "ref", "mut", "move", "fn", "unsafe", "impl", "dyn", "where", "struct", "enum", "const",
    "static", "use", "pub", "true", "false",
];

struct Guard {
    lock: String,
    name: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops below.
    brace: i32,
    line: u32,
}

struct PendingLet {
    names: Vec<String>,
    brace: i32,
    bound: bool,
}

fn lower_body(body: &[Token], locks: &LockUniverse) -> Vec<Event> {
    let mut events = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    // Brace depth just outside each active loop body.
    let mut loops: Vec<i32> = Vec::new();
    let mut pending_loop = false;
    let mut pending_let: Option<PendingLet> = None;

    let held_snapshot = |guards: &[Guard]| -> Vec<Held> {
        guards
            .iter()
            .map(|g| Held {
                lock: g.lock.clone(),
                line: g.line,
            })
            .collect()
    };

    let mut i = 0usize;
    while i < body.len() {
        let t = &body[i];
        match t.kind {
            TokenKind::Open('{') => {
                if pending_loop {
                    loops.push(brace);
                    pending_loop = false;
                }
                // `while let pat = expr {` — the binding scopes to the
                // condition, not the body; stop waiting for a `;`.
                if let Some(pl) = &pending_let {
                    if pl.brace == brace {
                        pending_let = None;
                    }
                }
                brace += 1;
                i += 1;
            }
            TokenKind::Close('}') => {
                brace -= 1;
                while loops.last().copied() == Some(brace) {
                    loops.pop();
                }
                // Inner-scope guards die; so do unnamed temporaries at
                // the depth we return to — an `if let`/`match` scrutinee
                // temporary (`routes.lock().get(..)`) lives through the
                // arms and drops when the statement's block closes.
                guards.retain(|g| g.brace < brace || (g.brace == brace && g.name.is_some()));
                if let Some(pl) = &pending_let {
                    if pl.brace > brace {
                        pending_let = None;
                    }
                }
                i += 1;
            }
            TokenKind::Open(_) => {
                paren += 1;
                i += 1;
            }
            TokenKind::Close(_) => {
                paren -= 1;
                i += 1;
            }
            TokenKind::Punct if t.text == ";" && paren == 0 => {
                // Statement end: temporaries die, a pending `let` closes.
                guards.retain(|g| g.name.is_some() || g.brace < brace);
                if let Some(pl) = &pending_let {
                    if pl.brace >= brace {
                        pending_let = None;
                    }
                }
                i += 1;
            }
            TokenKind::Ident if t.text == "let" => {
                let (names, resume) = let_pattern(body, i);
                match resume {
                    LetResume::AtInit(j) => {
                        pending_let = Some(PendingLet {
                            names,
                            brace,
                            bound: false,
                        });
                        i = j;
                    }
                    LetResume::NoInit(j) => {
                        i = j;
                    }
                }
            }
            TokenKind::Ident if t.text == "loop" || t.text == "while" || t.text == "for" => {
                pending_loop = true;
                i += 1;
            }
            TokenKind::Ident
                if t.text == "drop"
                    && matches!(body.get(i + 1), Some(n) if n.kind == TokenKind::Open('('))
                    && matches!(body.get(i + 2), Some(n) if n.kind == TokenKind::Ident)
                    && matches!(body.get(i + 3), Some(n) if n.kind == TokenKind::Close(')')) =>
            {
                let name = &body[i + 2].text;
                guards.retain(|g| g.name.as_deref() != Some(name.as_str()));
                i += 4;
            }
            TokenKind::Ident
                if (t.text == "lock" || t.text == "read" || t.text == "write")
                    && is_acquire(body, i, locks) =>
            {
                let lock = receiver_ident(body, i).unwrap_or_default();
                let unwrapped = matches!(body.get(i + 3), Some(n) if n.is_punct('.'))
                    && matches!(
                        body.get(i + 4),
                        Some(n) if n.is_ident("unwrap") || n.is_ident("expect")
                    );
                events.push(Event {
                    kind: EventKind::Acquire {
                        lock: lock.clone(),
                        unwrapped,
                    },
                    line: t.line,
                    held: held_snapshot(&guards),
                    in_loop: !loops.is_empty(),
                });
                // The `let` name binds the *guard* only when the lock
                // call is the whole initializer (`let g = x.lock();`,
                // optionally `.unwrap()`). In a longer chain
                // (`let v = x.lock().get(k).cloned()`) the name binds
                // the chain's result and the guard is a temporary.
                let name = match &mut pending_let {
                    Some(pl) if !pl.bound && pl.names.len() == 1 && whole_initializer(body, i) => {
                        pl.bound = true;
                        Some(pl.names[0].clone())
                    }
                    _ => None,
                };
                guards.push(Guard {
                    lock,
                    name,
                    brace,
                    line: t.line,
                });
                i += 3; // past `lock ( )`
            }
            TokenKind::Ident
                if matches!(body.get(i + 1), Some(n) if n.kind == TokenKind::Open('('))
                    && !KEYWORDS.contains(&t.text.as_str()) =>
            {
                let method =
                    matches!(body.get(i.wrapping_sub(1)), Some(p) if i > 0 && p.is_punct('.'));
                let qualifier = if i >= 3
                    && body[i - 1].is_punct(':')
                    && body[i - 2].is_punct(':')
                    && body[i - 3].kind == TokenKind::Ident
                {
                    Some(body[i - 3].text.clone())
                } else {
                    None
                };
                let no_args = matches!(body.get(i + 2), Some(n) if n.kind == TokenKind::Close(')'));
                events.push(Event {
                    kind: EventKind::Call {
                        name: t.text.clone(),
                        method,
                        qualifier,
                        no_args,
                    },
                    line: t.line,
                    held: held_snapshot(&guards),
                    in_loop: !loops.is_empty(),
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    events
}

enum LetResume {
    /// Resume just after the `=` (initializer start).
    AtInit(usize),
    /// Uninitialized `let x;` — resume after the `;`.
    NoInit(usize),
}

/// Extracts binding names from a `let` pattern starting at `body[start]`
/// (the `let` keyword), stopping at the `=` or `;`.
fn let_pattern(body: &[Token], start: usize) -> (Vec<String>, LetResume) {
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut in_ty = false;
    let mut i = start + 1;
    while i < body.len() {
        let t = &body[i];
        match t.kind {
            TokenKind::Punct if t.text == "=" && depth == 0 => {
                // `==` can't appear in a pattern; a plain `=` ends it.
                return (names, LetResume::AtInit(i + 1));
            }
            TokenKind::Punct if t.text == ";" && depth == 0 => {
                return (names, LetResume::NoInit(i + 1));
            }
            TokenKind::Punct if t.text == ":" && depth == 0 => in_ty = true,
            TokenKind::Open(_) => depth += 1,
            TokenKind::Close(_) => {
                depth -= 1;
                if depth < 0 {
                    return (names, LetResume::NoInit(i));
                }
            }
            TokenKind::Ident if !in_ty && t.text != "mut" && t.text != "ref" => {
                let ctor = matches!(body.get(i + 1), Some(n) if n.kind == TokenKind::Open('('));
                if !ctor {
                    names.push(t.text.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (names, LetResume::NoInit(i))
}

/// `true` when the acquisition at `body[i]` is the whole `let`
/// initializer: after `lock ( )` and an optional `.unwrap()` /
/// `.expect(…)`, the next token is the statement's `;`.
fn whole_initializer(body: &[Token], i: usize) -> bool {
    let mut j = i + 3; // past `lock ( )`
    if matches!(body.get(j), Some(n) if n.is_punct('.'))
        && matches!(
            body.get(j + 1),
            Some(n) if n.is_ident("unwrap") || n.is_ident("expect")
        )
        && matches!(body.get(j + 2), Some(n) if n.kind == TokenKind::Open('('))
    {
        let mut depth = 0i32;
        j += 2;
        while j < body.len() {
            match body[j].kind {
                TokenKind::Open('(') => depth += 1,
                TokenKind::Close(')') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    matches!(body.get(j), Some(n) if n.is_punct(';'))
}

/// `true` when `body[i]` (`lock`/`read`/`write`) is a lock acquisition:
/// method syntax, **empty** parens, receiver in the lock universe with a
/// compatible kind.
fn is_acquire(body: &[Token], i: usize, locks: &LockUniverse) -> bool {
    if i == 0 || !body[i - 1].is_punct('.') {
        return false;
    }
    if !matches!(body.get(i + 1), Some(n) if n.kind == TokenKind::Open('('))
        || !matches!(body.get(i + 2), Some(n) if n.kind == TokenKind::Close(')'))
    {
        return false;
    }
    let Some(recv) = receiver_ident(body, i) else {
        return false;
    };
    match locks.kinds.get(&recv) {
        Some(LockKind::Mutex) => body[i].text == "lock",
        Some(LockKind::RwLock) => body[i].text == "read" || body[i].text == "write",
        None => false,
    }
}

/// The identifier naming the receiver of the method at `body[i]`:
/// the last path/field segment before the `.`, skipping one balanced
/// call-group (`state().lock()` → `state`, `self.inner.routes.lock()`
/// → `routes`).
fn receiver_ident(body: &[Token], i: usize) -> Option<String> {
    if i < 2 || !body[i - 1].is_punct('.') {
        return None;
    }
    let mut j = i - 2;
    if body[j].kind == TokenKind::Close(')') {
        // Skip the balanced `(…)` backwards.
        let mut depth = 0i32;
        loop {
            match body[j].kind {
                TokenKind::Close(')') => depth += 1,
                TokenKind::Open('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if body[j].kind == TokenKind::Ident {
        Some(body[j].text.clone())
    } else {
        None
    }
}

/// Classification of a call by blocking behaviour, from its name and
/// shape. `None` means not a known blocking primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Can block with no intrinsic bound (`recv()`, `join()`, io).
    Unbounded,
    /// Blocks but with a caller-supplied bound (`recv_timeout`, `sleep`).
    Bounded,
}

pub fn blocking_kind(call: &EventKind) -> Option<Bound> {
    let EventKind::Call {
        name,
        method,
        no_args,
        ..
    } = call
    else {
        return None;
    };
    match name.as_str() {
        // Empty-parens requirement keeps `Path::join(p)` / `Vec::join(sep)`
        // and condvar-free `wait(ms)` helpers out.
        "recv" | "join" | "wait" | "accept" | "flush" if *no_args => Some(Bound::Unbounded),
        "read_exact" | "write_all" | "read_to_end" | "connect" => Some(Bound::Unbounded),
        // io::Read/Write with a buffer argument, method syntax.
        "read" | "write" if *method && !*no_args => Some(Bound::Unbounded),
        "recv_timeout" | "recv_deadline" | "wait_timeout" | "sleep" | "park_timeout" => {
            Some(Bound::Bounded)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_workspace;

    fn lower(src: &str) -> Vec<Event> {
        let ast = syn::parse_file(src).unwrap();
        let mut locks = LockUniverse::default();
        locks.kinds.insert("a".into(), LockKind::Mutex);
        locks.kinds.insert("b".into(), LockKind::Mutex);
        locks.kinds.insert("shared".into(), LockKind::RwLock);
        let mut out = Vec::new();
        crate::scan::for_each_fn(&ast, &mut |ctx| {
            out = lower_body(&ctx.func.body, &locks);
        });
        out
    }

    #[test]
    fn let_bound_guard_extends_to_drop() {
        let ev =
            lower("fn f(&self) { let g = self.a.lock(); self.helper(); drop(g); self.helper2(); }");
        // helper runs with `a` held, helper2 after drop(g) with nothing.
        let helper = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "helper"))
            .unwrap();
        assert_eq!(helper.held.len(), 1);
        assert_eq!(helper.held[0].lock, "a");
        let helper2 = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "helper2"))
            .unwrap();
        assert!(helper2.held.is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let ev = lower("fn f(&self) { self.a.lock().insert(1); self.helper(); }");
        let helper = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "helper"))
            .unwrap();
        assert!(helper.held.is_empty());
    }

    #[test]
    fn chained_let_initializer_is_a_temporary() {
        // `let v = a.lock().get(1).cloned();` binds the chain result,
        // not the guard — the guard dies at the `;`.
        let ev = lower("fn f(&self) { let v = self.a.lock().get(1).cloned(); self.helper(); }");
        let helper = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "helper"))
            .unwrap();
        assert!(helper.held.is_empty());
    }

    #[test]
    fn if_let_scrutinee_guard_spans_arms_then_dies() {
        let ev = lower(
            "fn f(&self) { if let Some(v) = self.a.lock().get(1) { self.inside(); } self.after(); }",
        );
        let inside = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "inside"))
            .unwrap();
        assert_eq!(inside.held.len(), 1);
        assert_eq!(inside.held[0].lock, "a");
        let after = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "after"))
            .unwrap();
        assert!(after.held.is_empty());
    }

    #[test]
    fn nested_acquire_sees_outer_guard() {
        let ev = lower("fn f(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }");
        let acquires: Vec<_> = ev
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .collect();
        assert_eq!(acquires.len(), 2);
        assert!(acquires[0].held.is_empty());
        assert_eq!(acquires[1].held.len(), 1);
        assert_eq!(acquires[1].held[0].lock, "a");
    }

    #[test]
    fn block_scope_releases_guard() {
        let ev = lower("fn f(&self) { { let g = self.a.lock(); } self.helper(); }");
        let helper = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "helper"))
            .unwrap();
        assert!(helper.held.is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let ev = lower("fn f(&self, s: &mut TcpStream) { let shared = 0; s.read(&mut buf); }");
        assert!(!ev
            .iter()
            .any(|e| matches!(e.kind, EventKind::Acquire { .. })));
    }

    #[test]
    fn rwlock_read_empty_parens_is_acquisition() {
        let ev = lower("fn f(&self) { let g = self.shared.read(); }");
        assert!(ev
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Acquire { lock, .. } if lock == "shared")));
    }

    #[test]
    fn loop_and_unwrap_flags() {
        let ev = lower("fn f(&self) { loop { let g = self.a.lock().unwrap(); self.rx.recv(); } }");
        let acq = ev
            .iter()
            .find(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .unwrap();
        assert!(acq.in_loop);
        assert!(matches!(
            acq.kind,
            EventKind::Acquire {
                unwrapped: true,
                ..
            }
        ));
        let recv = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "recv"))
            .unwrap();
        assert!(recv.in_loop);
        assert_eq!(recv.held.len(), 1);
        assert_eq!(blocking_kind(&recv.kind), Some(Bound::Unbounded));
    }

    #[test]
    fn qualified_call_captures_qualifier() {
        let ev = lower("fn f() { frame::write_frame(&mut s, &env); }");
        let call = ev
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "write_frame"))
            .unwrap();
        assert!(matches!(&call.kind, EventKind::Call { qualifier: Some(q), .. } if q == "frame"));
    }

    #[test]
    fn universe_finds_fields_and_lock_returning_fns() {
        let dir = tempdir();
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("src/lib.rs"),
            "pub struct S { routes: Mutex<u32>, cache: RwLock<u32> }\n\
             fn state() -> &'static Mutex<State> { loop {} }\n",
        )
        .unwrap();
        let ws = scan_workspace(&dir);
        let uni = LockUniverse::build(&ws);
        assert_eq!(uni.kinds.get("routes"), Some(&LockKind::Mutex));
        assert_eq!(uni.kinds.get("cache"), Some(&LockKind::RwLock));
        assert_eq!(uni.kinds.get("state"), Some(&LockKind::Mutex));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pisa-lint-ir-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
