//! Offline in-repo stand-in for the `syn` crate.
//!
//! `pisa-lint` needs an *item-level* view of Rust source: structs and
//! their field types, derive attributes, impl blocks (which trait, for
//! which type), function signatures, and raw token streams for function
//! bodies. This shim provides exactly that subset, built on its own
//! tokenizer ([`lexer`]) — no proc-macro machinery, no full grammar.
//!
//! The parser is deliberately *resilient*: constructs it does not model
//! (macros, traits, consts, uses, …) are skipped as balanced token
//! groups rather than rejected, so any compiling workspace file parses.

#![forbid(unsafe_code)]

pub mod lexer;

pub use lexer::{lex, Token, TokenKind};

use std::fmt;

/// Parse failure (only produced for pathological inputs, e.g. an
/// unbalanced delimiter stream).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
    /// 1-based line where the problem was detected.
    pub line: u32,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for Error {}

/// A parsed source file: inner attributes plus top-level items.
#[derive(Debug, Clone)]
pub struct File {
    /// Inner attributes (`#![…]`), e.g. `#![forbid(unsafe_code)]`.
    pub attrs: Vec<Attribute>,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// An outer or inner attribute, stored as a path plus its raw argument
/// tokens: `#[derive(Debug, Clone)]` → path `derive`, tokens
/// `["Debug", ",", "Clone"]`.
#[derive(Debug, Clone)]
pub struct Attribute {
    /// The attribute path (`derive`, `doc`, `cfg`, `cfg_attr`, …).
    pub path: String,
    /// The raw token texts inside the attribute's delimiters (empty for
    /// bare attributes like `#[test]`).
    pub tokens: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

impl Attribute {
    /// For a `derive` attribute, the list of derived trait names (last
    /// path segment each); empty otherwise.
    pub fn derives(&self) -> Vec<String> {
        if self.path != "derive" {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut last: Option<&str> = None;
        for t in &self.tokens {
            match t.as_str() {
                "," => {
                    if let Some(name) = last.take() {
                        out.push(name.to_string());
                    }
                }
                ":" | "(" | ")" | "[" | "]" | "{" | "}" => {}
                s => last = Some(s),
            }
        }
        if let Some(name) = last {
            out.push(name.to_string());
        }
        out
    }

    /// `true` if any token inside the attribute contains `needle`
    /// (used for marker attributes like `#[doc(alias = "pisa_secret")]`).
    pub fn contains(&self, needle: &str) -> bool {
        self.path.contains(needle) || self.tokens.iter().any(|t| t.contains(needle))
    }
}

/// A named or tuple struct field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name (`"0"`, `"1"`, … for tuple structs).
    pub name: String,
    /// The field's type, as flattened source text (e.g. `Vec<u64>`).
    pub ty: String,
    /// 1-based source line.
    pub line: u32,
}

/// A `struct` item with its attributes and fields.
#[derive(Debug, Clone)]
pub struct ItemStruct {
    pub attrs: Vec<Attribute>,
    pub ident: String,
    pub fields: Vec<Field>,
    pub line: u32,
}

/// An `enum` item. Variant payload types are flattened into `fields`
/// (the lint only needs "does this type transitively contain X").
#[derive(Debug, Clone)]
pub struct ItemEnum {
    pub attrs: Vec<Attribute>,
    pub ident: String,
    /// Variant payload types, flattened across all variants.
    pub fields: Vec<Field>,
    pub line: u32,
}

/// One function argument: name (or `self`) and flattened type text.
#[derive(Debug, Clone)]
pub struct FnArg {
    pub name: String,
    pub ty: String,
}

/// A function signature: name, inputs, whether it takes `self`, and the
/// flattened return-type text (empty for `()`-returning functions).
#[derive(Debug, Clone)]
pub struct Signature {
    pub ident: String,
    pub inputs: Vec<FnArg>,
    pub has_self: bool,
    /// Return type as flattened source text (`Result<Ubig, Error>`);
    /// empty when the function has no `->` clause.
    pub ret_ty: String,
}

/// A free or associated function, with its body kept as a raw balanced
/// token slice (no statement-level parse).
#[derive(Debug, Clone)]
pub struct ItemFn {
    pub attrs: Vec<Attribute>,
    /// `true` for a plain `pub` (not `pub(crate)`, `pub(super)`, …).
    pub is_pub: bool,
    pub sig: Signature,
    /// Body tokens, *excluding* the outer braces.
    pub body: Vec<Token>,
    pub line: u32,
}

/// An `impl` block: optional trait, self type (last path segment), and
/// the functions it contains.
#[derive(Debug, Clone)]
pub struct ItemImpl {
    pub attrs: Vec<Attribute>,
    /// Trait name for `impl Trait for Ty` (last path segment), else None.
    pub trait_: Option<String>,
    /// The `Self` type's base name (`Ubig` for `impl Ubig`, `Foo` for
    /// `impl<T> Foo<T>`).
    pub self_ty: String,
    pub fns: Vec<ItemFn>,
    pub line: u32,
}

/// An inline module `mod name { … }` (out-of-line `mod name;` produces
/// an empty item list).
#[derive(Debug, Clone)]
pub struct ItemMod {
    pub attrs: Vec<Attribute>,
    pub ident: String,
    pub items: Vec<Item>,
    pub line: u32,
}

/// A top-level item. Constructs the lint does not inspect are folded
/// into `Other`.
#[derive(Debug, Clone)]
pub enum Item {
    Struct(ItemStruct),
    Enum(ItemEnum),
    Impl(ItemImpl),
    Fn(ItemFn),
    Mod(ItemMod),
    /// Anything else (use, const, trait, macro invocation, …), kept as
    /// its raw tokens.
    Other(Vec<Token>),
}

/// Parses `src` into a [`File`]. Resilient: unknown constructs are
/// skipped, not rejected.
pub fn parse_file(src: &str) -> Result<File, Error> {
    let tokens = lex(src);
    let mut p = Parser { tokens, pos: 0 };
    let attrs = p.inner_attrs();
    let items = p.items_until_end()?;
    Ok(File { attrs, items })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self, ahead: usize) -> Option<&Token> {
        self.tokens.get(self.pos + ahead)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> u32 {
        self.peek(0).map(|t| t.line).unwrap_or(0)
    }

    fn at_ident(&self, word: &str) -> bool {
        self.peek(0).map(|t| t.is_ident(word)).unwrap_or(false)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).map(|t| t.is_punct(c)).unwrap_or(false)
    }

    fn at_open(&self, c: char) -> bool {
        matches!(self.peek(0), Some(t) if t.kind == TokenKind::Open(c))
    }

    fn at_close(&self, c: char) -> bool {
        matches!(self.peek(0), Some(t) if t.kind == TokenKind::Close(c))
    }

    /// Consumes `#![…]` inner attributes at the current position.
    fn inner_attrs(&mut self) -> Vec<Attribute> {
        let mut out = Vec::new();
        while self.at_punct('#')
            && self.peek(1).map(|t| t.is_punct('!')).unwrap_or(false)
            && matches!(self.peek(2), Some(t) if t.kind == TokenKind::Open('['))
        {
            let line = self.line();
            self.bump(); // #
            self.bump(); // !
            if let Some(a) = self.attr_body(line) {
                out.push(a);
            }
        }
        out
    }

    /// Consumes `#[…]` outer attributes at the current position.
    fn outer_attrs(&mut self) -> Vec<Attribute> {
        let mut out = Vec::new();
        while self.at_punct('#')
            && matches!(self.peek(1), Some(t) if t.kind == TokenKind::Open('['))
        {
            let line = self.line();
            self.bump(); // #
            if let Some(a) = self.attr_body(line) {
                out.push(a);
            }
        }
        out
    }

    /// Parses `[path(tokens…)]` / `[path = value]` / `[path]` after the
    /// leading `#` (and optional `!`) have been consumed.
    fn attr_body(&mut self, line: u32) -> Option<Attribute> {
        if !self.at_open('[') {
            return None;
        }
        let group = self.balanced_group('[');
        // group excludes the outer brackets. First ident(s) form the path.
        let mut path = String::new();
        let mut rest = Vec::new();
        let mut in_path = true;
        let mut i = 0usize;
        while i < group.len() {
            let t = &group[i];
            if in_path {
                match t.kind {
                    TokenKind::Ident => path.push_str(&t.text),
                    TokenKind::Punct if t.text == ":" => path.push(':'),
                    _ => {
                        in_path = false;
                        if !matches!(t.kind, TokenKind::Open(_) | TokenKind::Close(_)) {
                            rest.push(t.text.clone());
                        }
                    }
                }
            } else if !matches!(t.kind, TokenKind::Open(_) | TokenKind::Close(_)) {
                rest.push(t.text.clone());
            } else {
                // keep nested delimiter texts too, flattened
                rest.push(t.text.clone());
            }
            i += 1;
        }
        // Normalize `foo::bar` paths to last segment for matching, but
        // keep the full path if it has no `::`.
        let path = path.rsplit("::").next().unwrap_or(&path).to_string();
        Some(Attribute {
            path,
            tokens: rest,
            line,
        })
    }

    /// Consumes a balanced group opened by `open` (the opener must be the
    /// current token) and returns the tokens strictly inside it.
    fn balanced_group(&mut self, open: char) -> Vec<Token> {
        let close = match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        };
        let mut out = Vec::new();
        if !self.at_open(open) {
            return out;
        }
        self.bump();
        let mut depth = 1usize;
        while let Some(t) = self.bump() {
            match t.kind {
                TokenKind::Open(c) if c == open => {
                    depth += 1;
                    out.push(t);
                }
                TokenKind::Close(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    out.push(t);
                }
                _ => out.push(t),
            }
        }
        out
    }

    fn items_until_end(&mut self) -> Result<Vec<Item>, Error> {
        let mut items = Vec::new();
        while self.peek(0).is_some() {
            if self.at_close('}') || self.at_close(')') || self.at_close(']') {
                // Stray closer at top level: tolerate and skip.
                self.bump();
                continue;
            }
            items.push(self.item()?);
        }
        Ok(items)
    }

    fn items_in_brace_group(&mut self, tokens: Vec<Token>) -> Result<Vec<Item>, Error> {
        let mut sub = Parser { tokens, pos: 0 };
        sub.items_until_end()
    }

    fn item(&mut self) -> Result<Item, Error> {
        let attrs = self.outer_attrs();
        // Visibility: `pub`, `pub(crate)`, `pub(in …)`.
        let mut is_pub = false;
        if self.at_ident("pub") {
            self.bump();
            is_pub = true;
            if self.at_open('(') {
                self.balanced_group('(');
                is_pub = false;
            }
        }
        // Skip qualifiers that may precede fn/struct keywords.
        while self.at_ident("const")
            || self.at_ident("async")
            || self.at_ident("unsafe")
            || self.at_ident("extern")
        {
            // `const` may start a const item rather than qualify `fn`;
            // disambiguate: `const fn` vs `const NAME`.
            if self.at_ident("const") && !matches!(self.peek(1), Some(t) if t.is_ident("fn")) {
                return Ok(self.skip_to_item_end());
            }
            self.bump();
            // `extern "C"` string
            if matches!(self.peek(0), Some(t) if t.kind == TokenKind::Literal) {
                self.bump();
            }
        }

        if self.at_ident("struct") {
            return self.item_struct(attrs).map(Item::Struct);
        }
        if self.at_ident("enum") {
            return self.item_enum(attrs).map(Item::Enum);
        }
        if self.at_ident("impl") {
            return self.item_impl(attrs).map(Item::Impl);
        }
        if self.at_ident("fn") {
            return self.item_fn(attrs, is_pub).map(Item::Fn);
        }
        if self.at_ident("mod") {
            return self.item_mod(attrs).map(Item::Mod);
        }
        Ok(self.skip_to_item_end())
    }

    /// Skips an unmodelled item: consume tokens until a top-level `;` or
    /// a balanced `{…}` block ends the item.
    fn skip_to_item_end(&mut self) -> Item {
        let start = self.pos;
        while let Some(t) = self.peek(0) {
            match t.kind {
                TokenKind::Punct if t.text == ";" => {
                    self.bump();
                    break;
                }
                TokenKind::Open('{') => {
                    self.balanced_group('{');
                    break;
                }
                TokenKind::Open(c) => {
                    self.balanced_group(c);
                }
                TokenKind::Close(_) => break,
                _ => {
                    self.bump();
                }
            }
        }
        Item::Other(self.tokens[start..self.pos].to_vec())
    }

    /// Skips a generics list `<…>` if present (angle-depth aware).
    fn skip_generics(&mut self) {
        if !self.at_punct('<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek(0) {
            if t.is_punct('<') {
                depth += 1;
                self.bump();
            } else if t.is_punct('>') {
                depth -= 1;
                self.bump();
                if depth <= 0 {
                    break;
                }
            } else if t.is_punct('-') && matches!(self.peek(1), Some(n) if n.is_punct('>')) {
                // `->` inside generics (fn pointer types): consume both
                // without touching depth.
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
    }

    /// Collects flattened type text until a top-level `,` or the end of
    /// the token slice, starting at `i`. Returns (text, next index).
    fn flatten_type(tokens: &[Token], mut i: usize) -> (String, usize) {
        let mut depth = 0i32;
        let mut text = String::new();
        while i < tokens.len() {
            let t = &tokens[i];
            match t.kind {
                TokenKind::Punct if t.text == "," && depth == 0 => break,
                TokenKind::Punct if t.text == "<" => {
                    depth += 1;
                    text.push('<');
                }
                TokenKind::Punct if t.text == ">" => {
                    depth -= 1;
                    text.push('>');
                }
                TokenKind::Punct if t.text == "-" => {
                    // `->` in fn-pointer types: pass through.
                    text.push('-');
                }
                TokenKind::Open(c) => {
                    depth += 1;
                    text.push(c);
                }
                TokenKind::Close(c) => {
                    depth -= 1;
                    text.push(c);
                }
                _ => {
                    if !text.is_empty()
                        && text
                            .chars()
                            .last()
                            .map(|c| c.is_alphanumeric() || c == '_')
                            .unwrap_or(false)
                        && t.kind == TokenKind::Ident
                    {
                        text.push(' ');
                    }
                    text.push_str(&t.text);
                }
            }
            i += 1;
        }
        (text, i)
    }

    fn item_struct(&mut self, attrs: Vec<Attribute>) -> Result<ItemStruct, Error> {
        let line = self.line();
        self.bump(); // struct
        let ident = match self.bump() {
            Some(t) if t.kind == TokenKind::Ident => t.text,
            other => {
                return Err(Error {
                    msg: format!("expected struct name, got {other:?}"),
                    line,
                })
            }
        };
        self.skip_generics();
        // where-clause before the body.
        if self.at_ident("where") {
            while let Some(t) = self.peek(0) {
                if t.kind == TokenKind::Open('{') || t.is_punct(';') {
                    break;
                }
                if let TokenKind::Open(c) = t.kind {
                    self.balanced_group(c);
                } else {
                    self.bump();
                }
            }
        }
        let mut fields = Vec::new();
        if self.at_open('{') {
            let body = self.balanced_group('{');
            fields = Self::named_fields(&body);
        } else if self.at_open('(') {
            let body = self.balanced_group('(');
            fields = Self::tuple_fields(&body);
            if self.at_punct(';') {
                self.bump();
            }
        } else if self.at_punct(';') {
            self.bump(); // unit struct
        }
        Ok(ItemStruct {
            attrs,
            ident,
            fields,
            line,
        })
    }

    /// Parses `name: Type, …` fields from a brace-group token slice,
    /// skipping per-field attributes and visibility.
    fn named_fields(tokens: &[Token]) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut i = 0usize;
        while i < tokens.len() {
            // Skip field attributes `#[…]`.
            while i < tokens.len() && tokens[i].is_punct('#') {
                i += 1;
                if i < tokens.len() && tokens[i].kind == TokenKind::Open('[') {
                    i = Self::skip_balanced_at(tokens, i);
                }
            }
            // Skip visibility.
            if i < tokens.len() && tokens[i].is_ident("pub") {
                i += 1;
                if i < tokens.len() && tokens[i].kind == TokenKind::Open('(') {
                    i = Self::skip_balanced_at(tokens, i);
                }
            }
            if i >= tokens.len() {
                break;
            }
            let (name, line) = (tokens[i].text.clone(), tokens[i].line);
            if tokens[i].kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            i += 1;
            if i < tokens.len() && tokens[i].is_punct(':') {
                i += 1;
                let (ty, next) = Self::flatten_type(tokens, i);
                fields.push(Field { name, ty, line });
                i = next;
            }
            // Skip the separating comma.
            if i < tokens.len() && tokens[i].is_punct(',') {
                i += 1;
            }
        }
        fields
    }

    /// Parses `Type, Type, …` from a paren-group token slice (tuple
    /// struct / enum tuple variant).
    fn tuple_fields(tokens: &[Token]) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut i = 0usize;
        let mut idx = 0usize;
        while i < tokens.len() {
            // Skip attributes and visibility.
            while i < tokens.len() && tokens[i].is_punct('#') {
                i += 1;
                if i < tokens.len() && tokens[i].kind == TokenKind::Open('[') {
                    i = Self::skip_balanced_at(tokens, i);
                }
            }
            if i < tokens.len() && tokens[i].is_ident("pub") {
                i += 1;
                if i < tokens.len() && tokens[i].kind == TokenKind::Open('(') {
                    i = Self::skip_balanced_at(tokens, i);
                }
            }
            if i >= tokens.len() {
                break;
            }
            let line = tokens[i].line;
            let (ty, next) = Self::flatten_type(tokens, i);
            if !ty.is_empty() {
                fields.push(Field {
                    name: idx.to_string(),
                    ty,
                    line,
                });
                idx += 1;
            }
            i = next;
            if i < tokens.len() && tokens[i].is_punct(',') {
                i += 1;
            }
        }
        fields
    }

    /// Given `tokens[i]` an opening delimiter, returns the index just
    /// past its matching closer.
    fn skip_balanced_at(tokens: &[Token], i: usize) -> usize {
        let open = match tokens[i].kind {
            TokenKind::Open(c) => c,
            _ => return i + 1,
        };
        let close = match open {
            '(' => ')',
            '[' => ']',
            _ => '}',
        };
        let mut depth = 0usize;
        let mut j = i;
        while j < tokens.len() {
            match tokens[j].kind {
                TokenKind::Open(c) if c == open => depth += 1,
                TokenKind::Close(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        tokens.len()
    }

    fn item_enum(&mut self, attrs: Vec<Attribute>) -> Result<ItemEnum, Error> {
        let line = self.line();
        self.bump(); // enum
        let ident = match self.bump() {
            Some(t) if t.kind == TokenKind::Ident => t.text,
            other => {
                return Err(Error {
                    msg: format!("expected enum name, got {other:?}"),
                    line,
                })
            }
        };
        self.skip_generics();
        let mut fields = Vec::new();
        if self.at_open('{') {
            let body = self.balanced_group('{');
            // Walk variants: Name, Name(Types), Name { fields }.
            let mut i = 0usize;
            while i < body.len() {
                while i < body.len() && body[i].is_punct('#') {
                    i += 1;
                    if i < body.len() && body[i].kind == TokenKind::Open('[') {
                        i = Self::skip_balanced_at(&body, i);
                    }
                }
                if i >= body.len() {
                    break;
                }
                if body[i].kind != TokenKind::Ident {
                    i += 1;
                    continue;
                }
                i += 1; // variant name
                if i < body.len() {
                    match body[i].kind {
                        TokenKind::Open('(') => {
                            let end = Self::skip_balanced_at(&body, i);
                            fields.extend(Self::tuple_fields(&body[i + 1..end - 1]));
                            i = end;
                        }
                        TokenKind::Open('{') => {
                            let end = Self::skip_balanced_at(&body, i);
                            fields.extend(Self::named_fields(&body[i + 1..end - 1]));
                            i = end;
                        }
                        _ => {}
                    }
                }
                // Skip discriminant `= expr` and trailing comma.
                while i < body.len() && !body[i].is_punct(',') {
                    if let TokenKind::Open(c) = body[i].kind {
                        let _ = c;
                        i = Self::skip_balanced_at(&body, i);
                    } else {
                        i += 1;
                    }
                }
                if i < body.len() {
                    i += 1; // comma
                }
            }
        } else if self.at_punct(';') {
            self.bump();
        }
        Ok(ItemEnum {
            attrs,
            ident,
            fields,
            line,
        })
    }

    fn item_impl(&mut self, attrs: Vec<Attribute>) -> Result<ItemImpl, Error> {
        let line = self.line();
        self.bump(); // impl
        self.skip_generics();
        // Read the first type path (may turn out to be the trait).
        let first = self.type_path();
        let (trait_, self_ty) = if self.at_ident("for") {
            self.bump();
            let ty = self.type_path();
            (Some(first), ty)
        } else {
            (None, first)
        };
        // where-clause.
        while self.peek(0).is_some() && !self.at_open('{') {
            if let Some(TokenKind::Open(c)) = self.peek(0).map(|t| t.kind) {
                if c == '{' {
                    break;
                }
                self.balanced_group(c);
            } else {
                self.bump();
            }
        }
        let body = self.balanced_group('{');
        let mut sub = Parser {
            tokens: body,
            pos: 0,
        };
        let mut fns = Vec::new();
        while sub.peek(0).is_some() {
            if let Item::Fn(f) = sub.item()? {
                fns.push(f);
            }
        }
        Ok(ItemImpl {
            attrs,
            trait_,
            self_ty,
            fns,
            line,
        })
    }

    /// Reads a type path at the current position and returns its base
    /// name (last path segment before any generics): `foo::Bar<T>` →
    /// `Bar`, `&mut Baz` → `Baz`.
    fn type_path(&mut self) -> String {
        let mut last = String::new();
        loop {
            match self.peek(0) {
                Some(t) if t.kind == TokenKind::Ident => {
                    let word = t.text.clone();
                    // Stop at keywords that end a type position.
                    if word == "for" || word == "where" {
                        break;
                    }
                    last = word;
                    self.bump();
                    // `::` continues the path.
                    if self.at_punct(':') && matches!(self.peek(1), Some(n) if n.is_punct(':')) {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    // Generics after the name: skip them, path is done.
                    if self.at_punct('<') {
                        self.skip_generics();
                    }
                    break;
                }
                Some(t)
                    if t.is_punct('&')
                        || t.is_punct('*')
                        || t.is_ident("mut")
                        || t.is_punct('\'') =>
                {
                    self.bump();
                }
                Some(t) if t.kind == TokenKind::Lifetime => {
                    self.bump();
                }
                Some(t) if t.kind == TokenKind::Open('(') => {
                    // Tuple type: flatten to "(tuple)".
                    self.balanced_group('(');
                    last = "(tuple)".to_string();
                    break;
                }
                _ => break,
            }
        }
        last
    }

    fn item_fn(&mut self, attrs: Vec<Attribute>, is_pub: bool) -> Result<ItemFn, Error> {
        let line = self.line();
        self.bump(); // fn
        let ident = match self.bump() {
            Some(t) if t.kind == TokenKind::Ident => t.text,
            other => {
                return Err(Error {
                    msg: format!("expected fn name, got {other:?}"),
                    line,
                })
            }
        };
        self.skip_generics();
        let params = if self.at_open('(') {
            self.balanced_group('(')
        } else {
            Vec::new()
        };
        let (inputs, has_self) = Self::fn_inputs(&params);
        // Return type: flatten `-> …` up to the body, `;`, or `where`.
        let mut ret_ty = String::new();
        if self.at_punct('-') && matches!(self.peek(1), Some(t) if t.is_punct('>')) {
            self.bump();
            self.bump();
            let mut depth = 0i32;
            while let Some(t) = self.peek(0) {
                if depth == 0 && (t.kind == TokenKind::Open('{') || t.is_punct(';')) {
                    break;
                }
                if depth == 0 && t.is_ident("where") {
                    break;
                }
                match t.kind {
                    TokenKind::Open(c) => {
                        depth += 1;
                        ret_ty.push(c);
                    }
                    TokenKind::Close(c) => {
                        depth -= 1;
                        ret_ty.push(c);
                    }
                    _ => {
                        if t.kind == TokenKind::Ident
                            && ret_ty
                                .chars()
                                .last()
                                .map(|c| c.is_alphanumeric() || c == '_')
                                .unwrap_or(false)
                        {
                            ret_ty.push(' ');
                        }
                        ret_ty.push_str(&t.text);
                    }
                }
                self.bump();
            }
        }
        // Where clause / anything left before the body: skip.
        while let Some(t) = self.peek(0) {
            if t.kind == TokenKind::Open('{') || t.is_punct(';') {
                break;
            }
            if t.is_punct('<') {
                self.skip_generics();
            } else if let TokenKind::Open(c) = t.kind {
                self.balanced_group(c);
            } else {
                self.bump();
            }
        }
        let body = if self.at_open('{') {
            self.balanced_group('{')
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            Vec::new()
        };
        Ok(ItemFn {
            attrs,
            is_pub,
            sig: Signature {
                ident,
                inputs,
                has_self,
                ret_ty,
            },
            body,
            line,
        })
    }

    /// Splits a fn parameter token slice into (args, has_self).
    fn fn_inputs(tokens: &[Token]) -> (Vec<FnArg>, bool) {
        let mut args = Vec::new();
        let mut has_self = false;
        let mut i = 0usize;
        while i < tokens.len() {
            // Skip attributes on params.
            while i < tokens.len() && tokens[i].is_punct('#') {
                i += 1;
                if i < tokens.len() && tokens[i].kind == TokenKind::Open('[') {
                    i = Self::skip_balanced_at(tokens, i);
                }
            }
            // Skip `&`, `'a`, `mut` prefixes.
            while i < tokens.len()
                && (tokens[i].is_punct('&')
                    || tokens[i].kind == TokenKind::Lifetime
                    || tokens[i].is_ident("mut"))
            {
                i += 1;
            }
            if i >= tokens.len() {
                break;
            }
            if tokens[i].is_ident("self") {
                has_self = true;
                args.push(FnArg {
                    name: "self".to_string(),
                    ty: "Self".to_string(),
                });
                i += 1;
                // Optional `: Type` (rare explicit self type).
                if i < tokens.len() && tokens[i].is_punct(':') {
                    let (_, next) = Self::flatten_type(tokens, i + 1);
                    i = next;
                }
            } else if tokens[i].kind == TokenKind::Ident || tokens[i].is_ident("_") {
                let name = tokens[i].text.clone();
                i += 1;
                if i < tokens.len() && tokens[i].is_punct(':') {
                    i += 1;
                    let (ty, next) = Self::flatten_type(tokens, i);
                    args.push(FnArg { name, ty });
                    i = next;
                } else {
                    // Pattern arg we don't model; skip to comma.
                    while i < tokens.len() && !tokens[i].is_punct(',') {
                        if matches!(tokens[i].kind, TokenKind::Open(_)) {
                            i = Self::skip_balanced_at(tokens, i);
                        } else {
                            i += 1;
                        }
                    }
                }
            } else {
                // Pattern like `(a, b): (u32, u32)` — skip group then type.
                if matches!(tokens[i].kind, TokenKind::Open(_)) {
                    i = Self::skip_balanced_at(tokens, i);
                } else {
                    i += 1;
                }
                if i < tokens.len() && tokens[i].is_punct(':') {
                    let (_, next) = Self::flatten_type(tokens, i + 1);
                    i = next;
                }
            }
            if i < tokens.len() && tokens[i].is_punct(',') {
                i += 1;
            }
        }
        (args, has_self)
    }

    fn item_mod(&mut self, attrs: Vec<Attribute>) -> Result<ItemMod, Error> {
        let line = self.line();
        self.bump(); // mod
        let ident = match self.bump() {
            Some(t) if t.kind == TokenKind::Ident => t.text,
            other => {
                return Err(Error {
                    msg: format!("expected mod name, got {other:?}"),
                    line,
                })
            }
        };
        let items = if self.at_open('{') {
            let body = self.balanced_group('{');
            self.items_in_brace_group(body)?
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            Vec::new()
        };
        Ok(ItemMod {
            attrs,
            ident,
            items,
            line,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_struct_with_derives_and_fields() {
        let src = r#"
            /// Docs.
            #[derive(Debug, Clone, PartialEq)]
            pub struct Key {
                pub n: Ubig,
                lambda: Ubig,
                crt: Option<CrtParams>,
            }
        "#;
        let f = parse_file(src).unwrap();
        let s = match &f.items[0] {
            Item::Struct(s) => s,
            other => panic!("expected struct, got {other:?}"),
        };
        assert_eq!(s.ident, "Key");
        let derives: Vec<String> = s.attrs.iter().flat_map(|a| a.derives()).collect();
        assert_eq!(derives, vec!["Debug", "Clone", "PartialEq"]);
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0].name, "n");
        assert_eq!(s.fields[2].ty, "Option<CrtParams>");
    }

    #[test]
    fn parses_tuple_struct_and_unit_struct() {
        let f = parse_file("pub struct Sig(pub Ubig); struct Marker;").unwrap();
        let s0 = match &f.items[0] {
            Item::Struct(s) => s,
            _ => panic!(),
        };
        assert_eq!(s0.ident, "Sig");
        assert_eq!(s0.fields[0].ty, "Ubig");
        let s1 = match &f.items[1] {
            Item::Struct(s) => s,
            _ => panic!(),
        };
        assert!(s1.fields.is_empty());
    }

    #[test]
    fn parses_enum_variant_payloads() {
        let src = "enum E { A, B(Ubig, u32), C { key: SecretKey }, D = 3 }";
        let f = parse_file(src).unwrap();
        let e = match &f.items[0] {
            Item::Enum(e) => e,
            _ => panic!(),
        };
        assert_eq!(e.ident, "E");
        let tys: Vec<&str> = e.fields.iter().map(|f| f.ty.as_str()).collect();
        assert_eq!(tys, vec!["Ubig", "u32", "SecretKey"]);
    }

    #[test]
    fn parses_impl_trait_for_type() {
        let src = r#"
            impl fmt::Debug for SecretKey {
                fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                    write!(f, "<redacted>")
                }
            }
            impl SecretKey {
                pub fn decrypt(&self, ct: &Ciphertext) -> Ibig { todo!() }
            }
        "#;
        let f = parse_file(src).unwrap();
        let i0 = match &f.items[0] {
            Item::Impl(i) => i,
            _ => panic!(),
        };
        assert_eq!(i0.trait_.as_deref(), Some("Debug"));
        assert_eq!(i0.self_ty, "SecretKey");
        assert_eq!(i0.fns[0].sig.ident, "fmt");
        assert!(i0.fns[0].sig.has_self);
        let i1 = match &f.items[1] {
            Item::Impl(i) => i,
            _ => panic!(),
        };
        assert!(i1.trait_.is_none());
        assert_eq!(i1.fns[0].sig.inputs[1].name, "ct");
        assert_eq!(i1.fns[0].sig.inputs[1].ty, "&Ciphertext");
    }

    #[test]
    fn parses_generic_impl() {
        let src = "impl<T: Clone> Wrapper<T> { fn get(&self) -> &T { &self.0 } }";
        let f = parse_file(src).unwrap();
        let i = match &f.items[0] {
            Item::Impl(i) => i,
            _ => panic!(),
        };
        assert_eq!(i.self_ty, "Wrapper");
    }

    #[test]
    fn parses_fn_body_tokens_and_inner_attrs() {
        let src = "#![forbid(unsafe_code)]\nfn main() { let x = v.unwrap(); }";
        let f = parse_file(src).unwrap();
        assert_eq!(f.attrs[0].path, "forbid");
        assert!(f.attrs[0].tokens.iter().any(|t| t == "unsafe_code"));
        let func = match &f.items[0] {
            Item::Fn(func) => func,
            _ => panic!(),
        };
        assert!(func.body.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn parses_nested_mods_and_cfg_test() {
        let src = r#"
            mod outer {
                #[cfg(test)]
                mod tests {
                    #[test]
                    fn t() { assert!(true); }
                }
            }
        "#;
        let f = parse_file(src).unwrap();
        let outer = match &f.items[0] {
            Item::Mod(m) => m,
            _ => panic!(),
        };
        let inner = match &outer.items[0] {
            Item::Mod(m) => m,
            _ => panic!(),
        };
        assert_eq!(inner.ident, "tests");
        assert!(inner
            .attrs
            .iter()
            .any(|a| a.path == "cfg" && a.contains("test")));
    }

    #[test]
    fn skips_unmodelled_items() {
        let src = r#"
            use std::fmt;
            const N: usize = 4;
            pub trait T { fn f(&self); }
            macro_rules! m { () => {}; }
            struct After;
        "#;
        let f = parse_file(src).unwrap();
        assert!(f
            .items
            .iter()
            .any(|i| matches!(i, Item::Struct(s) if s.ident == "After")));
    }

    #[test]
    fn marker_attribute_detected() {
        let src = r#"
            #[doc(alias = "pisa_secret")]
            pub struct BlindingFactors { alpha: Ubig }
        "#;
        let f = parse_file(src).unwrap();
        let s = match &f.items[0] {
            Item::Struct(s) => s,
            _ => panic!(),
        };
        assert!(s.attrs.iter().any(|a| a.contains("pisa_secret")));
    }

    #[test]
    fn fn_signature_reference_types_flatten() {
        let src = "fn pow(&self, base: &Ubig, exp: &Ubig) -> Ubig { loop {} }";
        let f = parse_file(src).unwrap();
        let func = match &f.items[0] {
            Item::Fn(func) => func,
            _ => panic!(),
        };
        assert_eq!(func.sig.inputs[2].name, "exp");
        assert!(func.sig.inputs[2].ty.contains("Ubig"));
    }

    #[test]
    fn fn_return_type_captured() {
        let f = parse_file("fn state() -> &'static Mutex<State> { loop {} }").unwrap();
        let func = match &f.items[0] {
            Item::Fn(func) => func,
            _ => panic!(),
        };
        assert!(
            func.sig.ret_ty.contains("Mutex<State>"),
            "{}",
            func.sig.ret_ty
        );

        let f = parse_file("fn nothing(x: u32) { }").unwrap();
        let func = match &f.items[0] {
            Item::Fn(func) => func,
            _ => panic!(),
        };
        assert!(func.sig.ret_ty.is_empty());

        let f = parse_file("fn pair() -> (u32, Result<Ubig, Error>) where Ubig: Clone { loop {} }")
            .unwrap();
        let func = match &f.items[0] {
            Item::Fn(func) => func,
            _ => panic!(),
        };
        assert!(
            func.sig.ret_ty.contains("Result<Ubig,Error>") || func.sig.ret_ty.contains("Result")
        );
        assert!(!func.sig.ret_ty.contains("where"));
    }
}
