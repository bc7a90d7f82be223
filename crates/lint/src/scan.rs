//! Workspace discovery and the parsed-source model rules operate on.

use std::fs;
use std::path::{Path, PathBuf};

use syn::{Attribute, File, Item, ItemFn};

/// One parsed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across OSes).
    pub rel_path: String,
    /// Crate path prefix, e.g. `crates/core` (empty in single-crate mode).
    pub crate_path: String,
    /// `true` for the crate root (`src/lib.rs` or `src/main.rs`).
    pub is_crate_root: bool,
    /// Raw source text (used for inline allow-comment scanning).
    pub source: String,
    /// Parsed item-level view.
    pub ast: File,
}

/// The scanned workspace: all parsed files plus the crate list.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// Crate path prefixes found (e.g. `crates/core`).
    pub crates: Vec<String>,
    /// Code outside `crates/*/src` that calls into it (workspace layout
    /// only); no rule checks these files, the dead-api rule counts their
    /// calls.
    pub callers: Vec<CallerFile>,
    /// Files that failed to read or parse.
    pub failures: Vec<(String, String)>,
}

/// A parsed file of callers: an integration test, an example or the
/// benchmark harness.
pub struct CallerFile {
    pub rel_path: String,
    /// `true` for test code (`tests/*.rs`, `crates/*/tests/*.rs`).
    pub test: bool,
    pub ast: File,
}

/// Scans `root`. Two layouts are understood:
///
/// * a workspace root containing `crates/*/src/**.rs` (the real repo),
/// * a single crate containing `src/**.rs` (fixture mini-crates).
pub fn scan_workspace(root: &Path) -> Workspace {
    let mut ws = Workspace {
        files: Vec::new(),
        crates: Vec::new(),
        callers: Vec::new(),
        failures: Vec::new(),
    };
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.is_dir())
                    .collect()
            })
            .unwrap_or_default();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let crate_path = format!("crates/{name}");
            ws.crates.push(crate_path.clone());
            scan_crate(&dir, root, &crate_path, &mut ws);
            scan_callers(&dir.join("tests"), root, true, &mut ws);
        }
        scan_callers(&root.join("tests"), root, true, &mut ws);
        scan_callers(&root.join("examples"), root, false, &mut ws);
        scan_callers(&root.join("perfbench/src"), root, false, &mut ws);
    } else if root.join("src").is_dir() {
        ws.crates.push(String::new());
        scan_crate(root, root, "", &mut ws);
    }
    ws.files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    ws
}

fn scan_crate(dir: &Path, root: &Path, crate_path: &str, ws: &mut Workspace) {
    let src = dir.join("src");
    if !src.is_dir() {
        return;
    }
    let mut rs_files = Vec::new();
    collect_rs(&src, &mut rs_files);
    rs_files.sort();
    for path in rs_files {
        if let Some((rel_path, source, ast)) = parse(&path, root, ws) {
            let is_crate_root =
                rel_path.ends_with("src/lib.rs") || rel_path.ends_with("src/main.rs");
            ws.files.push(SourceFile {
                rel_path,
                crate_path: crate_path.to_string(),
                is_crate_root,
                source,
                ast,
            });
        }
    }
}

/// Parses the top-level `.rs` files of `dir` as caller files (Cargo
/// finds integration tests and examples there).
fn scan_callers(dir: &Path, root: &Path, test: bool, ws: &mut Workspace) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = rd
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    for path in paths {
        if let Some((rel_path, _, ast)) = parse(&path, root, ws) {
            ws.callers.push(CallerFile {
                rel_path,
                test,
                ast,
            });
        }
    }
}

/// Reads and parses `path` into (workspace-relative path, source, AST);
/// a failure is recorded in `ws.failures`.
fn parse(path: &Path, root: &Path, ws: &mut Workspace) -> Option<(String, String, File)> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let parsed = fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|source| {
            syn::parse_file(&source)
                .map(|ast| (source, ast))
                .map_err(|e| e.to_string())
        });
    match parsed {
        Ok((source, ast)) => Some((rel, source, ast)),
        Err(e) => {
            ws.failures.push((rel, e));
            None
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
}

/// `true` if any of `attrs` puts the item in test-only code
/// (`#[cfg(test)]`, `#[test]`).
pub fn is_test_scope(attrs: &[Attribute]) -> bool {
    attrs.iter().any(|a| {
        a.path == "test"
            || (a.path == "cfg" && a.tokens.iter().any(|t| t == "test"))
            || (a.path == "cfg_attr" && a.tokens.iter().any(|t| t == "test"))
    })
}

/// A function together with the impl context it appeared in.
pub struct FnInContext<'a> {
    pub func: &'a ItemFn,
    /// `Some(self_ty)` when the fn lives in an impl block.
    pub self_ty: Option<&'a str>,
    /// Trait being implemented, if any (`Debug`, `Drop`, …).
    pub trait_: Option<&'a str>,
}

/// Visits every non-test function in `file` (free fns and impl fns,
/// recursing into non-test inline modules).
pub fn for_each_fn<'a>(file: &'a File, visit: &mut dyn FnMut(FnInContext<'a>)) {
    for_each_fn_in(&file.items, visit);
}

fn for_each_fn_in<'a>(items: &'a [Item], visit: &mut dyn FnMut(FnInContext<'a>)) {
    for item in items {
        match item {
            Item::Fn(f) if !is_test_scope(&f.attrs) => {
                visit(FnInContext {
                    func: f,
                    self_ty: None,
                    trait_: None,
                });
            }
            Item::Impl(i) => {
                if is_test_scope(&i.attrs) {
                    continue;
                }
                for f in &i.fns {
                    if !is_test_scope(&f.attrs) {
                        visit(FnInContext {
                            func: f,
                            self_ty: Some(&i.self_ty),
                            trait_: i.trait_.as_deref(),
                        });
                    }
                }
            }
            Item::Mod(m) if !is_test_scope(&m.attrs) => {
                for_each_fn_in(&m.items, visit);
            }
            _ => {}
        }
    }
}

/// Visits every struct and enum (including ones inside non-test inline
/// modules; test-only types are skipped).
pub enum TypeDef<'a> {
    Struct(&'a syn::ItemStruct),
    Enum(&'a syn::ItemEnum),
}

impl<'a> TypeDef<'a> {
    pub fn ident(&self) -> &'a str {
        match self {
            TypeDef::Struct(s) => &s.ident,
            TypeDef::Enum(e) => &e.ident,
        }
    }

    pub fn attrs(&self) -> &'a [Attribute] {
        match self {
            TypeDef::Struct(s) => &s.attrs,
            TypeDef::Enum(e) => &e.attrs,
        }
    }

    pub fn fields(&self) -> &'a [syn::Field] {
        match self {
            TypeDef::Struct(s) => &s.fields,
            TypeDef::Enum(e) => &e.fields,
        }
    }

    pub fn line(&self) -> u32 {
        match self {
            TypeDef::Struct(s) => s.line,
            TypeDef::Enum(e) => e.line,
        }
    }
}

pub fn for_each_type<'a>(file: &'a File, visit: &mut dyn FnMut(TypeDef<'a>)) {
    for_each_type_in(&file.items, visit);
}

fn for_each_type_in<'a>(items: &'a [Item], visit: &mut dyn FnMut(TypeDef<'a>)) {
    for item in items {
        match item {
            Item::Struct(s) if !is_test_scope(&s.attrs) => {
                visit(TypeDef::Struct(s));
            }
            Item::Enum(e) if !is_test_scope(&e.attrs) => {
                visit(TypeDef::Enum(e));
            }
            Item::Mod(m) if !is_test_scope(&m.attrs) => {
                for_each_type_in(&m.items, visit);
            }
            _ => {}
        }
    }
}

/// Visits every impl block outside test scope.
pub fn for_each_impl<'a>(file: &'a File, visit: &mut dyn FnMut(&'a syn::ItemImpl)) {
    for_each_impl_in(&file.items, visit);
}

fn for_each_impl_in<'a>(items: &'a [Item], visit: &mut dyn FnMut(&'a syn::ItemImpl)) {
    for item in items {
        match item {
            Item::Impl(i) if !is_test_scope(&i.attrs) => {
                visit(i);
            }
            Item::Mod(m) if !is_test_scope(&m.attrs) => {
                for_each_impl_in(&m.items, visit);
            }
            _ => {}
        }
    }
}

/// `true` if `ty_text` mentions `name` as a whole word (so `Ubig`
/// matches `Vec<Ubig>` but not `UbigLike`).
pub fn ty_mentions(ty_text: &str, name: &str) -> bool {
    let bytes = ty_text.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = ty_text[start..].find(name) {
        let at = start + pos;
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let after = at + name.len();
        let after_ok = after >= bytes.len() || {
            let c = bytes[after] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_mentions_word_boundaries() {
        assert!(ty_mentions("Vec<Ubig>", "Ubig"));
        assert!(ty_mentions("&Ubig", "Ubig"));
        assert!(ty_mentions("Option<CrtParams>", "CrtParams"));
        assert!(!ty_mentions("UbigLike", "Ubig"));
        assert!(!ty_mentions("MyUbig", "Ubig"));
    }

    #[test]
    fn fn_visitor_skips_tests() {
        let src = r#"
            fn keep() {}
            #[test]
            fn dropped() {}
            #[cfg(test)]
            mod tests { fn also_dropped() {} }
            impl Foo { fn method(&self) {} }
        "#;
        let ast = syn::parse_file(src).unwrap();
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |ctx| names.push(ctx.func.sig.ident.clone()));
        assert_eq!(names, vec!["keep", "method"]);
    }
}
