//! Item extraction: the lightweight parser the semantic pass is built on.
//!
//! Works line-by-line over [`crate::strip`]-ed source, tracking brace
//! depth and a context stack (module / impl / fn) instead of building a
//! real AST — the registry is unreachable from CI, so `syn` is not an
//! option. The output per file is a [`SourceFile`]: the items it
//! declares (functions with signatures, structs, enums, traits, consts,
//! type aliases), the `use` declarations that bind names into scope, and
//! per-function *facts* (panic sites, RNG constructions, hash-container
//! iterations) plus outgoing *call references* that
//! [`crate::graph::ItemGraph`] later resolves into edges.
//!
//! # Honest limitations
//!
//! This is deliberately not a compiler. Signature parsing flattens
//! whitespace; call references are `identifier(`-shaped tokens resolved
//! by name, so same-named functions in sibling modules can alias, and a
//! method call links to same-named methods of any type (impl methods
//! and trait default bodies alike, see [`crate::graph`]) because
//! receiver types are not inferred. Each rule built on top errs toward
//! reporting (and the allowlist mechanism absorbs intended exceptions)
//! rather than silently missing structure.

use std::path::{Path, PathBuf};

use crate::strip::Stripper;

/// What kind of declaration an [`Item`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ItemKind {
    /// `fn` (free or inside an `impl` block).
    Fn,
    /// `struct`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait`.
    Trait,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `type` alias.
    TypeAlias,
}

/// Declared visibility, reduced to what the rules need.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Visibility {
    /// `pub`: part of the crate's external API.
    Public,
    /// `pub(crate)` / `pub(super)` / `pub(in ...)`: workspace-internal.
    Restricted,
    /// No modifier.
    Private,
}

/// How a panic could be raised at a [`PanicSite`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PanicKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Explicit,
    /// `.unwrap()` / `.expect(..)`.
    Unwrap,
    /// Slice / `Vec` / map indexing (`x[i]`), which panics in release
    /// builds on out-of-bounds. Only propagated in the crates listed in
    /// `panics.index_crates` in `check.toml`.
    Indexing,
}

/// One potential panic inside a function body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    /// 1-based line in the containing file.
    pub line: usize,
    /// Mechanism.
    pub kind: PanicKind,
    /// The offending token, for messages (`.unwrap()`, `panic!`, ...).
    pub token: String,
}

/// Facts collected from one function body, consumed by the rules.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Potential panic sites.
    pub panics: Vec<PanicSite>,
    /// Lines that construct an RNG (`seed_from_u64`, `from_entropy`, ...).
    pub rng_ctors: Vec<usize>,
    /// Lines that iterate a `HashMap`/`HashSet` local in arbitrary order.
    pub hash_iters: Vec<usize>,
}

/// An unresolved outgoing call from a function body.
#[derive(Clone, Debug)]
pub struct CallRef {
    /// Callee identifier (the final path segment).
    pub name: String,
    /// Qualifying path segment directly before `::name(`, when present
    /// (e.g. `Path` in `Path::from_edges(..)`).
    pub qualifier: Option<String>,
    /// Whether this was a `.name(..)` method call.
    pub method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// One declared item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Declaration kind.
    pub kind: ItemKind,
    /// Item name.
    pub name: String,
    /// Declared visibility.
    pub vis: Visibility,
    /// 1-based declaration line.
    pub line: usize,
    /// For `fn`s declared inside `impl Foo {..}` / `impl Tr for Foo {..}`:
    /// the `Foo`; for `fn`s declared inside `trait Tr {..}`: the `Tr`.
    pub self_ty: Option<String>,
    /// Declared inside a `trait` body (a required method or a default
    /// method body) rather than an `impl` block.
    pub in_trait: bool,
    /// For `fn`s: the signature flattened to one line (through `{`/`;`).
    pub signature: String,
    /// For `fn`s: facts found in the body.
    pub facts: Facts,
    /// For `fn`s: outgoing call references.
    pub calls: Vec<CallRef>,
}

impl Item {
    /// `module::name` (or just `name` at crate root), used in reports.
    pub fn path_in(&self, module: &str) -> String {
        let base = match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        };
        if module.is_empty() {
            base
        } else {
            format!("{module}::{base}")
        }
    }
}

/// A `use` declaration, reduced to the names it binds.
#[derive(Clone, Debug)]
pub struct UseDecl {
    /// 1-based line.
    pub line: usize,
    /// Workspace crate the path roots in, in dash form (`sor-graph`),
    /// when it does (`use sor_graph::NodeId` ⇒ `Some("sor-graph")`).
    pub krate: Option<String>,
    /// Leaf identifiers bound into scope (glob imports bind nothing
    /// here; `as` renames bind the rename).
    pub names: Vec<String>,
}

/// Everything extracted from one source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// Owning crate, dash form (`sor-flow`).
    pub krate: String,
    /// Module path within the crate (`""` for the crate root, `gen::wan`
    /// for nested files).
    pub module: String,
    /// Raw source lines (needed for allowlist comments, which live in
    /// comments the stripper removes).
    pub raw: Vec<String>,
    /// Stripped source lines.
    pub stripped: Vec<String>,
    /// Per-line: inside a `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// `use` declarations.
    pub uses: Vec<UseDecl>,
    /// Declared items.
    pub items: Vec<Item>,
}

/// Per-line mask of `#[cfg(test)]` regions over stripped lines: the
/// attribute arms the mask; the next braced item (or `;`-terminated
/// item) is covered until its closing brace.
pub fn test_mask(stripped: &[String]) -> Vec<bool> {
    let mut depth: i32 = 0;
    let mut armed = false;
    let mut skip_until: Option<i32> = None;
    let mut mask = Vec::with_capacity(stripped.len());
    for s in stripped {
        let mut line_in_test = skip_until.is_some();
        if s.contains("#[cfg(test)]") {
            armed = true;
            line_in_test = true;
        }
        for ch in s.chars() {
            match ch {
                '{' => {
                    if armed && skip_until.is_none() {
                        skip_until = Some(depth);
                        armed = false;
                        line_in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_until == Some(depth) {
                        skip_until = None;
                        line_in_test = true; // the closing line itself
                    }
                }
                ';' if armed => {
                    armed = false;
                    line_in_test = true;
                }
                _ => {}
            }
        }
        mask.push(line_in_test || armed);
    }
    mask
}

/// Derive the in-crate module path from a workspace-relative file path:
/// `crates/flow/src/lib.rs` ⇒ `""`, `crates/graph/src/gen/wan.rs` ⇒
/// `gen::wan`, `src/bin/sor.rs` ⇒ `bin::sor`.
pub fn module_path(rel: &Path) -> String {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let after_src = match parts.as_slice() {
        ["crates", _, "src", rest @ ..] => rest,
        ["src", rest @ ..] => rest,
        other => other,
    };
    let mut segs: Vec<String> = Vec::new();
    for (i, part) in after_src.iter().enumerate() {
        let last = i + 1 == after_src.len();
        if last {
            let stem = part.strip_suffix(".rs").unwrap_or(part);
            if stem != "lib" && stem != "mod" && stem != "main" {
                segs.push(stem.to_string());
            }
        } else {
            segs.push((*part).to_string());
        }
    }
    segs.join("::")
}

/// Parser context: what the surrounding braces belong to.
#[derive(Clone, Debug)]
enum Ctx {
    /// `impl Foo {` / `impl Tr for Foo {` — fns inside get `self_ty`.
    Impl { self_ty: String },
    /// `trait Foo {` — default method bodies live here.
    Trait { name: String },
    /// A function body; the payload indexes into `SourceFile::items`.
    Fn { item: usize },
    /// Inline `mod foo {` (non-test; test mods are masked out).
    Mod,
}

/// Parse one file. `krate` is the owning crate in dash form; `rel` is
/// workspace-relative and also determines [`SourceFile::module`].
pub fn parse_file(rel: &Path, krate: &str, text: &str) -> SourceFile {
    let raw: Vec<String> = text.lines().map(str::to_string).collect();
    let mut stripper = Stripper::new();
    let stripped: Vec<String> = raw.iter().map(|l| stripper.strip_line(l)).collect();
    let in_test = test_mask(&stripped);

    let mut file = SourceFile {
        rel: rel.to_path_buf(),
        krate: krate.to_string(),
        module: module_path(rel),
        raw,
        stripped: stripped.clone(),
        in_test: in_test.clone(),
        uses: Vec::new(),
        items: Vec::new(),
    };

    // Context stack entries: (depth the region opened at, context).
    let mut stack: Vec<(i32, Ctx)> = Vec::new();
    let mut depth: i32 = 0;
    let mut idx = 0usize;
    while idx < stripped.len() {
        if in_test[idx] {
            idx += 1;
            continue;
        }
        let line = stripped[idx].trim().to_string();
        let at_item_level = !stack.iter().any(|(_, c)| matches!(c, Ctx::Fn { .. }));
        let in_fn = stack.iter().rev().find_map(|(_, c)| match c {
            Ctx::Fn { item } => Some(*item),
            _ => None,
        });

        // `use` declarations (item level only).
        if at_item_level && (line.starts_with("use ") || line.starts_with("pub use ")) {
            // A use may span lines until `;`.
            let (text, consumed) = join_until(&stripped, &in_test, idx, ';');
            file.uses.push(parse_use(&text, idx + 1));
            advance_depth(
                &mut depth, &mut stack, &stripped, &in_test, idx, consumed, None,
            );
            idx += consumed;
            continue;
        }

        // Item declarations.
        if at_item_level {
            if let Some((vis, rest)) = split_visibility(&line) {
                if let Some(decl) = match_item_decl(rest) {
                    let (sig, consumed) = match decl.kind {
                        ItemKind::Fn => join_signature(&stripped, &in_test, idx),
                        _ => (line.clone(), 1),
                    };
                    let owner = enclosing_owner(&stack);
                    file.items.push(Item {
                        kind: decl.kind,
                        name: decl.name.clone(),
                        vis,
                        line: idx + 1,
                        in_trait: owner.as_ref().is_some_and(|(_, is_trait)| *is_trait),
                        self_ty: owner.map(|(ty, _)| ty),
                        signature: sig,
                        facts: Facts::default(),
                        calls: Vec::new(),
                    });
                    let item_idx = file.items.len() - 1;
                    match decl.kind {
                        ItemKind::Fn => {
                            // One-line bodies: the signature line may carry
                            // body text after `{` that the main loop never
                            // revisits.
                            let last = (idx + consumed - 1).min(stripped.len() - 1);
                            if !in_test[last] {
                                if let Some(pos) = stripped[last].find('{') {
                                    let tail = &stripped[last][pos + 1..];
                                    collect_facts(&mut file.items[item_idx], tail, last + 1);
                                    collect_calls(&mut file.items[item_idx], tail, last + 1);
                                }
                            }
                            let open = Some(Ctx::Fn { item: item_idx });
                            advance_depth(
                                &mut depth, &mut stack, &stripped, &in_test, idx, consumed, open,
                            );
                        }
                        // Default method bodies are methods of the trait.
                        ItemKind::Trait => {
                            let name = decl.name;
                            advance_depth_ctx(
                                &mut depth,
                                &mut stack,
                                &stripped[idx],
                                Ctx::Trait { name },
                            );
                        }
                        _ => advance_depth(
                            &mut depth, &mut stack, &stripped, &in_test, idx, consumed, None,
                        ),
                    }
                    idx += consumed;
                    continue;
                }
                if let Some(imp) = match_impl(rest) {
                    advance_depth_ctx(&mut depth, &mut stack, &stripped[idx], imp);
                    idx += 1;
                    continue;
                }
                if let Some(name) = rest.strip_prefix("mod ") {
                    let _ = name;
                    advance_depth_ctx(&mut depth, &mut stack, &stripped[idx], Ctx::Mod);
                    idx += 1;
                    continue;
                }
            }
        }

        // Body line of the innermost function: collect facts and calls.
        if let Some(item) = in_fn {
            collect_facts(&mut file.items[item], &stripped[idx], idx + 1);
            collect_calls(&mut file.items[item], &stripped[idx], idx + 1);
        }

        advance_depth(&mut depth, &mut stack, &stripped, &in_test, idx, 1, None);
        idx += 1;
    }

    // Hash-iteration facts need whole-body local tracking; do it per fn
    // now that body spans are known implicitly via recorded lines.
    collect_hash_iteration(&mut file);
    file
}

/// Name of the innermost enclosing impl type or trait, and whether it
/// is a trait.
fn enclosing_owner(stack: &[(i32, Ctx)]) -> Option<(String, bool)> {
    stack.iter().rev().find_map(|(_, c)| match c {
        Ctx::Impl { self_ty } => Some((self_ty.clone(), false)),
        Ctx::Trait { name } => Some((name.clone(), true)),
        _ => None,
    })
}

/// Track braces across `count` lines starting at `idx`, popping contexts
/// whose opening depth is reached again. `open`, if any, is pushed at
/// the first `{` of the span (a bodyless `fn` declaration has none, so
/// nothing is pushed).
fn advance_depth(
    depth: &mut i32,
    stack: &mut Vec<(i32, Ctx)>,
    stripped: &[String],
    in_test: &[bool],
    idx: usize,
    count: usize,
    mut open: Option<Ctx>,
) {
    for i in idx..(idx + count).min(stripped.len()) {
        if in_test[i] {
            continue;
        }
        for ch in stripped[i].chars() {
            match ch {
                '{' => {
                    if let Some(ctx) = open.take() {
                        stack.push((*depth, ctx));
                    }
                    *depth += 1;
                }
                '}' => {
                    *depth -= 1;
                    while matches!(stack.last(), Some((d, _)) if *d >= *depth) {
                        stack.pop();
                    }
                }
                _ => {}
            }
        }
    }
}

/// Like [`advance_depth`] but pushes the given context when the first
/// `{` on the line opens it (impl / trait / mod headers).
fn advance_depth_ctx(depth: &mut i32, stack: &mut Vec<(i32, Ctx)>, line: &str, ctx: Ctx) {
    let mut pushed = false;
    for ch in line.chars() {
        match ch {
            '{' => {
                if !pushed {
                    stack.push((*depth, ctx.clone()));
                    pushed = true;
                }
                *depth += 1;
            }
            '}' => {
                *depth -= 1;
                while matches!(stack.last(), Some((d, _)) if *d >= *depth) {
                    stack.pop();
                }
            }
            _ => {}
        }
    }
    if !pushed {
        // Header without `{` on this line (`impl Foo\n{`): arm it by
        // pushing at the current depth; the next `{` seen by
        // advance_depth would not know — so push now. The body opens at
        // the current depth in practice for rustfmt-formatted code.
        stack.push((*depth, ctx));
    }
}

/// Split a declared visibility prefix off an item-level line.
/// Returns `None` when the line cannot begin an item (fast reject).
fn split_visibility(line: &str) -> Option<(Visibility, &str)> {
    if let Some(rest) = line.strip_prefix("pub(") {
        let end = rest.find(')')?;
        return Some((Visibility::Restricted, rest[end + 1..].trim_start()));
    }
    if let Some(rest) = line.strip_prefix("pub ") {
        return Some((Visibility::Public, rest.trim_start()));
    }
    Some((Visibility::Private, line))
}

/// A matched item declaration head.
struct DeclHead {
    kind: ItemKind,
    name: String,
}

/// Match `fn name`, `struct Name`, `const NAME`, ... at the start of a
/// (visibility-stripped) line.
fn match_item_decl(rest: &str) -> Option<DeclHead> {
    // `unsafe fn` / `async fn` / `const fn` / `extern "C" fn` prefixes:
    // normalize away the qualifiers that can precede `fn`.
    let mut r = rest;
    for q in ["unsafe ", "async ", "const ", "extern \"\" "] {
        // `const fn` only: `const NAME:` must stay a const item, so peel
        // the qualifier only when `fn ` follows.
        if let Some(stripped) = r.strip_prefix(q) {
            if stripped.trim_start().starts_with("fn ") || q != "const " {
                r = stripped.trim_start();
            }
        }
    }
    let (kw, kind) = [
        ("fn ", ItemKind::Fn),
        ("struct ", ItemKind::Struct),
        ("enum ", ItemKind::Enum),
        ("trait ", ItemKind::Trait),
        ("const ", ItemKind::Const),
        ("static ", ItemKind::Static),
        ("type ", ItemKind::TypeAlias),
    ]
    .into_iter()
    .find(|(kw, _)| r.starts_with(kw))?;
    let name: String = r[kw.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    Some(DeclHead { kind, name })
}

/// Match an `impl` header and produce its context.
fn match_impl(rest: &str) -> Option<Ctx> {
    let body = rest.strip_prefix("impl")?;
    // `impl<T> ...`: skip the generics
    let body = body.strip_prefix(char::is_whitespace).unwrap_or(body);
    let body = skip_generics(body.trim_start());
    // `Tr for Type {` vs `Type {`
    let head = body.split('{').next().unwrap_or(body);
    let ty_part = match head.find(" for ") {
        Some(pos) => &head[pos + 5..],
        None => head,
    };
    let self_ty = last_path_segment(ty_part.trim());
    Some(Ctx::Impl { self_ty })
}

/// Skip a balanced leading `<...>` generics list.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

/// Final identifier segment of a (possibly generic, possibly
/// referenced) type path: `&mut sor_graph::Graph<T>` ⇒ `Graph`.
fn last_path_segment(s: &str) -> String {
    let s = s.trim_start_matches(['&', ' ']).trim();
    let s = s.strip_prefix("mut ").unwrap_or(s);
    let base = s.split('<').next().unwrap_or(s).trim();
    base.rsplit("::")
        .next()
        .unwrap_or(base)
        .trim()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// Join stripped lines from `idx` until one contains `terminator`
/// (inclusive); returns the flattened text and the number of lines
/// consumed.
fn join_until(
    stripped: &[String],
    in_test: &[bool],
    idx: usize,
    terminator: char,
) -> (String, usize) {
    let mut text = String::new();
    let mut consumed = 0;
    for i in idx..stripped.len() {
        consumed += 1;
        if !in_test[i] {
            text.push_str(stripped[i].trim());
            text.push(' ');
        }
        if stripped[i].contains(terminator) {
            break;
        }
    }
    (text, consumed)
}

/// Join a `fn` signature: lines from the `fn` keyword through the line
/// holding the body `{` (or a terminating `;` for bodyless items), with
/// the body text after `{` excluded.
fn join_signature(stripped: &[String], in_test: &[bool], idx: usize) -> (String, usize) {
    let mut text = String::new();
    let mut consumed = 0;
    for i in idx..stripped.len() {
        consumed += 1;
        let s = if in_test[i] { "" } else { stripped[i].trim() };
        if let Some(pos) = s.find('{') {
            text.push_str(&s[..pos]);
            break;
        }
        text.push_str(s);
        text.push(' ');
        if s.ends_with(';') {
            break;
        }
        if consumed > 40 {
            break; // runaway guard: malformed input
        }
    }
    (text.trim().to_string(), consumed)
}

/// Parse one flattened `use` declaration.
fn parse_use(text: &str, line: usize) -> UseDecl {
    let body = text
        .trim_start()
        .trim_start_matches("pub ")
        .trim_start_matches("use ")
        .trim_end()
        .trim_end_matches(';')
        .trim();
    let krate = body
        .split("::")
        .next()
        .map(str::trim)
        .filter(|seg| seg.starts_with("sor_") || *seg == "semi_oblivious_routing")
        .map(|seg| seg.replace('_', "-"));
    let mut names = Vec::new();
    collect_use_leaves(body, &mut names);
    UseDecl { line, krate, names }
}

/// Recursively collect the leaf names a use-tree binds.
fn collect_use_leaves(body: &str, out: &mut Vec<String>) {
    let body = body.trim();
    if let Some(open) = body.find('{') {
        // `path::{a, b::c, d as e}` — split the brace group at top level.
        let inner = body[open + 1..]
            .rsplit_once('}')
            .map(|(i, _)| i)
            .unwrap_or(&body[open + 1..]);
        let mut depth = 0i32;
        let mut start = 0usize;
        let bytes: Vec<char> = inner.chars().collect();
        let mut segments: Vec<String> = Vec::new();
        for (i, c) in bytes.iter().enumerate() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                ',' if depth == 0 => {
                    segments.push(bytes[start..i].iter().collect());
                    start = i + 1;
                }
                _ => {}
            }
        }
        segments.push(bytes[start..].iter().collect());
        for seg in segments {
            collect_use_leaves(&seg, out);
        }
        return;
    }
    if let Some((_, rename)) = body.split_once(" as ") {
        let name = ident_of(rename);
        if !name.is_empty() {
            out.push(name);
        }
        return;
    }
    let leaf = body.rsplit("::").next().unwrap_or(body).trim();
    if leaf == "*" || leaf.is_empty() {
        return; // glob: binds nothing nameable here
    }
    let name = ident_of(leaf);
    if !name.is_empty() && name != "self" {
        out.push(name);
    }
}

/// Leading identifier of `s`.
fn ident_of(s: &str) -> String {
    s.trim()
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// Tokens that construct an RNG *from ambient entropy* when they appear
/// in a function body. Seeded constructors (`seed_from_u64`, `from_seed`)
/// are deliberately excluded: deriving a stream from a stored seed is
/// deterministic and exactly what the audit wants code to do.
const RNG_CTOR_TOKENS: [&str; 3] = ["from_entropy(", "thread_rng(", "from_os_rng("];

/// Scan one stripped body line into the item's facts.
fn collect_facts(item: &mut Item, s: &str, line: usize) {
    for (token, kind, shown) in [
        ("panic!(", PanicKind::Explicit, "panic!"),
        ("unreachable!(", PanicKind::Explicit, "unreachable!"),
        ("todo!(", PanicKind::Explicit, "todo!"),
        ("unimplemented!(", PanicKind::Explicit, "unimplemented!"),
        (".unwrap()", PanicKind::Unwrap, ".unwrap()"),
        (".expect(", PanicKind::Unwrap, ".expect(..)"),
    ] {
        if s.contains(token) {
            item.facts.panics.push(PanicSite {
                line,
                kind,
                token: shown.to_string(),
            });
        }
    }
    if has_indexing(s) {
        item.facts.panics.push(PanicSite {
            line,
            kind: PanicKind::Indexing,
            token: "[..] indexing".to_string(),
        });
    }
    if RNG_CTOR_TOKENS.iter().any(|t| s.contains(t)) {
        item.facts.rng_ctors.push(line);
    }
}

/// `ident[`, `)[` or `][` — an index expression rather than an array
/// type / attribute / slice pattern.
fn has_indexing(s: &str) -> bool {
    let chars: Vec<char> = s.chars().collect();
    for (i, c) in chars.iter().enumerate() {
        if *c != '[' || i == 0 {
            continue;
        }
        let prev = chars[i - 1];
        if prev.is_ascii_alphanumeric() || prev == '_' || prev == ')' || prev == ']' {
            // `#[attr]` is excluded because `#` precedes `[` directly;
            // `x[` / `)(..)[` / `x[0][1]` are index expressions.
            return true;
        }
    }
    false
}

/// Rust keywords that look like calls when followed by `(`.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "for", "match", "return", "fn", "let", "in", "loop", "move", "as", "else",
];

/// Scan one stripped body line for outgoing call references.
fn collect_calls(item: &mut Item, s: &str, line: usize) {
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] != '(' {
            i += 1;
            continue;
        }
        // Walk back over the identifier directly before `(`.
        let mut end = i;
        while end > 0 && chars[end - 1].is_whitespace() {
            end -= 1;
        }
        let mut start = end;
        while start > 0 && (chars[start - 1].is_ascii_alphanumeric() || chars[start - 1] == '_') {
            start -= 1;
        }
        if start == end {
            i += 1;
            continue;
        }
        let name: String = chars[start..end].iter().collect();
        if NON_CALL_KEYWORDS.contains(&name.as_str()) || name.chars().all(|c| c.is_ascii_digit()) {
            i += 1;
            continue;
        }
        let before: String = chars[..start].iter().collect();
        let before = before.trim_end();
        if before.ends_with('!') {
            i += 1; // macro invocation, not a fn call
            continue;
        }
        let method = before.ends_with('.');
        let qualifier = if before.ends_with("::") {
            let q = before.trim_end_matches("::");
            let qi: String = q
                .chars()
                .rev()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let qi: String = qi.chars().rev().collect();
            if qi.is_empty() {
                None
            } else {
                Some(qi)
            }
        } else {
            None
        };
        item.calls.push(CallRef {
            name,
            qualifier,
            method,
            line,
        });
        i += 1;
    }
}

/// Tokens that declare a hash-ordered local on a `let` line.
const HASH_CTOR_TOKENS: [&str; 4] = ["HashMap::", "HashSet::", ": HashMap<", ": HashSet<"];

/// Iteration adaptors whose order is the hash order.
const HASH_ITER_TOKENS: [&str; 6] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".into_iter()",
    ".drain(",
];

/// Second pass: within each function body, find `HashMap`/`HashSet`
/// locals and record lines that iterate them in hash order.
fn collect_hash_iteration(file: &mut SourceFile) {
    // Recompute body spans cheaply: a function's fact/call lines bound
    // its body; instead, rescan with the same context discipline. We
    // track, per function item (by declaration line), the set of hash
    // locals seen so far in its body, attributing facts as we go.
    let stripped = file.stripped.clone();
    let in_test = file.in_test.clone();
    // Map from declaration line to item index for fns.
    let mut current: Option<(usize, Vec<String>)> = None; // (item idx, hash locals)
    let mut fn_depth: Option<i32> = None;
    let mut depth: i32 = 0;
    for (idx, s) in stripped.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let line_no = idx + 1;
        // Entering a fn item?
        if fn_depth.is_none() {
            if let Some(item_pos) = file
                .items
                .iter()
                .position(|it| it.kind == ItemKind::Fn && it.line == line_no)
            {
                current = Some((item_pos, Vec::new()));
                // Body starts at the first `{` from here; depth tracking
                // below arms fn_depth when it sees it.
                fn_depth = Some(-1); // armed, waiting for `{`
            }
        }
        if let (Some(fd), Some((item_pos, locals))) = (fn_depth, current.as_mut()) {
            if fd >= 0 {
                // Inside the body: track hash locals and iteration.
                let t = s.trim_start();
                if t.starts_with("let ") && HASH_CTOR_TOKENS.iter().any(|tok| s.contains(tok)) {
                    let after_let = t
                        .trim_start_matches("let ")
                        .trim_start_matches("mut ")
                        .trim_start();
                    let name = ident_of(after_let);
                    if !name.is_empty() {
                        locals.push(name);
                    }
                }
                for local in locals.iter() {
                    let iterated = HASH_ITER_TOKENS
                        .iter()
                        .any(|tok| s.contains(&format!("{local}{tok}")))
                        || s.contains(&format!("in {local} "))
                        || s.contains(&format!("in &{local} "))
                        || s.contains(&format!("in &mut {local} "))
                        || s.contains(&format!("in {local}."))
                        || s.contains(&format!("in &{local}."));
                    if iterated {
                        file.items[*item_pos].facts.hash_iters.push(line_no);
                        break;
                    }
                }
            }
        }
        for ch in s.chars() {
            match ch {
                '{' => {
                    if fn_depth == Some(-1) {
                        fn_depth = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if fn_depth.is_some_and(|fd| fd >= 0 && depth <= fd) {
                        fn_depth = None;
                        current = None;
                    }
                }
                _ => {}
            }
        }
        // A bodyless fn (trait method decl) ends at `;` while armed.
        if fn_depth == Some(-1) && s.contains(';') {
            fn_depth = None;
            current = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> SourceFile {
        parse_file(Path::new("crates/flow/src/x.rs"), "sor-flow", text)
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path(Path::new("crates/flow/src/lib.rs")), "");
        assert_eq!(
            module_path(Path::new("crates/graph/src/gen/wan.rs")),
            "gen::wan"
        );
        assert_eq!(module_path(Path::new("crates/graph/src/gen/mod.rs")), "gen");
        assert_eq!(module_path(Path::new("src/bin/sor.rs")), "bin::sor");
        assert_eq!(module_path(Path::new("src/lib.rs")), "");
    }

    #[test]
    fn extracts_fns_and_visibility() {
        let f = parse("pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\n");
        let names: Vec<(&str, Visibility)> =
            f.items.iter().map(|i| (i.name.as_str(), i.vis)).collect();
        assert_eq!(
            names,
            vec![
                ("a", Visibility::Public),
                ("b", Visibility::Private),
                ("c", Visibility::Restricted)
            ]
        );
    }

    #[test]
    fn multiline_signature_is_joined() {
        let f =
            parse("pub fn long(\n    a: usize,\n    rng: &mut impl Rng,\n) -> usize {\n    a\n}\n");
        assert_eq!(f.items.len(), 1);
        assert!(f.items[0].signature.contains("rng: &mut impl Rng"));
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let f = parse("struct S;\nimpl S {\n    pub fn m(&self) {}\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\n");
        let m = f.items.iter().find(|i| i.name == "m").expect("m");
        assert_eq!(m.self_ty.as_deref(), Some("S"));
        let c = f.items.iter().find(|i| i.name == "clone").expect("clone");
        assert_eq!(c.self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn trait_methods_get_the_trait_as_self_ty() {
        let f = parse("pub trait T {\n    fn decl(&self);\n    fn dflt(&self) {\n        helper();\n    }\n}\nfn after() {}\n");
        let self_ty = |name: &str| {
            let item = f.items.iter().find(|i| i.name == name).expect(name);
            item.self_ty.clone()
        };
        assert_eq!(self_ty("decl").as_deref(), Some("T"));
        assert_eq!(self_ty("dflt").as_deref(), Some("T"));
        assert_eq!(self_ty("after"), None);
        let dflt = f.items.iter().find(|i| i.name == "dflt").expect("dflt");
        assert!(dflt.in_trait);
        assert!(dflt.calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn facts_panics_and_rng() {
        let f = parse(
            "fn f(o: Option<u32>) -> u32 {\n    let mut rng = StdRng::from_entropy();\n    let _ = rng;\n    o.unwrap()\n}\n",
        );
        let item = &f.items[0];
        assert!(item
            .facts
            .panics
            .iter()
            .any(|p| p.kind == PanicKind::Unwrap));
        assert_eq!(item.facts.rng_ctors, vec![2]);
        // seeded construction is deterministic, not an rng-ctor fact
        let g = parse("fn g() {\n    let _ = StdRng::seed_from_u64(3);\n}\n");
        assert!(g.items[0].facts.rng_ctors.is_empty());
    }

    #[test]
    fn indexing_fact_but_not_attributes() {
        let f = parse("#[derive(Debug)]\nstruct T;\nfn f(v: &[u32]) -> u32 {\n    v[0]\n}\n");
        let item = f.items.iter().find(|i| i.name == "f").expect("f");
        assert!(item
            .facts
            .panics
            .iter()
            .any(|p| p.kind == PanicKind::Indexing));
    }

    #[test]
    fn calls_free_method_and_qualified() {
        let f = parse("fn f() {\n    helper();\n    x.frob();\n    Path::from_edges(a, b);\n}\n");
        let calls = &f.items[0].calls;
        assert!(calls.iter().any(|c| c.name == "helper" && !c.method));
        assert!(calls.iter().any(|c| c.name == "frob" && c.method));
        assert!(calls
            .iter()
            .any(|c| c.name == "from_edges" && c.qualifier.as_deref() == Some("Path")));
        // macros are not calls
        let g = parse("fn g() { println!(\"x\"); }\n");
        assert!(!g.items[0].calls.iter().any(|c| c.name == "println"));
    }

    #[test]
    fn use_decls_bind_names_and_crates() {
        let f = parse("use sor_graph::{Graph, NodeId as N};\nuse std::collections::HashMap;\n");
        assert_eq!(f.uses.len(), 2);
        assert_eq!(f.uses[0].krate.as_deref(), Some("sor-graph"));
        assert!(f.uses[0].names.contains(&"Graph".to_string()));
        assert!(f.uses[0].names.contains(&"N".to_string()));
        assert_eq!(f.uses[1].krate, None);
    }

    #[test]
    fn test_mod_is_skipped() {
        let f =
            parse("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() { x.unwrap(); }\n}\n");
        assert_eq!(f.items.len(), 1);
        assert_eq!(f.items[0].name, "real");
    }

    #[test]
    fn use_glob_binds_no_names() {
        let f = parse("pub use sor_graph::*;\nuse sor_flow::{self, restricted::*};\n");
        // a glob re-export records the crate but no leaf names, so name
        // resolution falls through to the workspace tier instead of
        // treating `*` as an identifier.
        assert_eq!(f.uses[0].krate.as_deref(), Some("sor-graph"));
        assert!(f.uses[0].names.is_empty(), "{:?}", f.uses[0].names);
        assert_eq!(f.uses[1].krate.as_deref(), Some("sor-flow"));
        assert!(f.uses[1].names.is_empty(), "{:?}", f.uses[1].names);
    }

    #[test]
    fn use_rename_shadows_the_original_name() {
        let f = parse("use sor_graph::shortest_path as sp;\nfn f() {\n    sp(1);\n}\n");
        // only the rename is bound: the original name stays resolvable
        // to a same-file/same-crate item if one exists.
        assert_eq!(f.uses[0].names, vec!["sp".to_string()]);
        assert!(f.items[0].calls.iter().any(|c| c.name == "sp"));
    }

    #[test]
    fn hash_iteration_detected() {
        let text = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1, 2);\n    for (k, v) in m.iter() {\n        let _ = (k, v);\n    }\n}\n";
        let f = parse(text);
        assert_eq!(f.items[0].facts.hash_iters, vec![4]);
        // sorted iteration over a Vec is not flagged
        let g = parse("fn g() {\n    let v = vec![1];\n    for x in v.iter() { let _ = x; }\n}\n");
        assert!(g.items[0].facts.hash_iters.is_empty());
    }
}
