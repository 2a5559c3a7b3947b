//! Workspace item/function index for s2-lint v2.
//!
//! Walks every crate's `src/` tree, lexes each file with
//! [`crate::lexer`], and extracts a lightweight structural index: one
//! [`FnInfo`] per `fn` item (module-path-aware, impl/trait-type-aware,
//! nested fns attributed to themselves, closures to their enclosing
//! fn), plus per-file `use` maps for call resolution. This is the
//! substrate the call graph and taint pass in [`crate::taint`] run on.
//!
//! The index is token-level, not an AST: it understands exactly enough
//! Rust shape (mod/impl/trait/fn nesting by brace matching, generics
//! fences, where clauses) to place every function and count its
//! parameters. Macro-generated functions are invisible; the workspace
//! deliberately avoids fn-generating macros on peer-input paths.

use crate::lexer::{self, Scanned, TokKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One indexed source file.
pub struct FileEntry {
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// Crate the file belongs to (package name, `-` normalized to `_`).
    pub crate_name: String,
    /// Module path within the crate derived from the file path
    /// (`src/lib.rs` → empty, `src/foo.rs` → `[foo]`).
    pub module: Vec<String>,
    /// Lexed contents.
    pub scanned: Scanned,
    /// `use` imports: simple name → full path segments.
    pub uses: BTreeMap<String, Vec<String>>,
}

/// One `fn` item anywhere in the workspace.
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any (last path segment).
    pub impl_type: Option<String>,
    /// The trait this fn is a method of: the `Tr` of an enclosing
    /// `impl Tr for Type` or `trait Tr` block (last path segment).
    pub impl_trait: Option<String>,
    /// Module path: file module plus inline `mod` blocks.
    pub module: Vec<String>,
    /// Crate name (underscored).
    pub crate_name: String,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Line of the `fn` keyword.
    pub sig_line: u32,
    /// Last line of the body (or sig line for bodyless decls).
    pub end_line: u32,
    /// Token index range of the body *inside* the braces, within the
    /// file's token stream; `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Number of explicit parameters (excluding any `self`).
    pub arity: usize,
    /// Binding names of each explicit parameter, in order (a pattern
    /// param like `(a, b): (u32, u32)` contributes several names).
    pub param_names: Vec<Vec<String>>,
    /// Whether the fn takes `self`.
    pub has_self: bool,
    /// Whether the fn declares a return type (`-> ...`).
    pub has_return: bool,
    /// Whether the fn sits inside a `#[cfg(test)]` span.
    pub is_test: bool,
    /// Reason string of an attached `// s2-lint: source(...)` pragma.
    pub source_reason: Option<String>,
    /// Whether a justified `// s2-lint: sanitizer(...)` pragma marks
    /// this fn's return value as clean regardless of argument taint.
    pub is_sanitizer: bool,
}

impl FnInfo {
    /// `crate::module::Type::name`-style display path.
    pub fn display_path(&self) -> String {
        let mut s = self.crate_name.clone();
        for m in &self.module {
            s.push_str("::");
            s.push_str(m);
        }
        if let Some(t) = &self.impl_type {
            s.push_str("::");
            s.push_str(t);
        }
        s.push_str("::");
        s.push_str(&self.name);
        s
    }
}

/// The whole-workspace index.
pub struct Workspace {
    /// All indexed files, sorted by path.
    pub files: Vec<FileEntry>,
    /// All functions; indices are stable ids used by the call graph.
    pub fns: Vec<FnInfo>,
}

impl Workspace {
    /// Functions whose body token range encloses `tok_idx` in `file`,
    /// innermost last.
    pub fn enclosing_fns(&self, file: usize, tok_idx: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                f.file == file
                    && f.body
                        .map(|(a, b)| a <= tok_idx && tok_idx < b)
                        .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        v.sort_by_key(|&i| {
            let (a, b) = self.fns[i].body.unwrap_or((0, usize::MAX));
            b - a
        });
        v.reverse(); // widest first, innermost last
        v
    }

    /// The innermost function containing `tok_idx` in `file`.
    pub fn innermost_fn(&self, file: usize, tok_idx: usize) -> Option<usize> {
        self.enclosing_fns(file, tok_idx).pop()
    }
}

/// Builds the index by walking `root`'s crates.
///
/// Indexes `crates/*/src/**/*.rs` plus the root package's `src/` if
/// present. Returns files sorted by path for determinism.
pub fn build(root: &Path) -> Result<Workspace, String> {
    let mut file_paths: Vec<(String, PathBuf)> = Vec::new(); // (crate, path)

    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let src = dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let name = crate_name(&dir);
            collect_rs(&src, &name, &mut file_paths)?;
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        let name = crate_name(root);
        collect_rs(&root_src, &name, &mut file_paths)?;
    }

    let mut ws = Workspace {
        files: Vec::new(),
        fns: Vec::new(),
    };
    for (crate_name, path) in file_paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        index_file(&mut ws, crate_name, rel, &text);
    }
    // Files were collected in sorted order (crates dir sorted,
    // collect_rs recurses sorted, and "crates/" < "src/"), so file
    // indices are already deterministic; re-sorting here would break
    // FnInfo.file back-references.
    Ok(ws)
}

/// Indexes one in-memory file (exposed for fixture corpora and tests).
pub fn index_file(ws: &mut Workspace, crate_name: String, rel_path: String, text: &str) {
    let scanned = lexer::scan(text);
    let module = module_path_of(&rel_path);
    let uses = parse_uses(&scanned);
    let file_idx = ws.files.len();
    ws.files.push(FileEntry {
        path: rel_path,
        crate_name: crate_name.clone(),
        module: module.clone(),
        scanned,
        uses,
    });
    extract_fns(ws, file_idx);
}

/// Reads the package name from `dir/Cargo.toml`, falling back to the
/// directory name; `-` is normalized to `_` to match path tokens.
fn crate_name(dir: &Path) -> String {
    let manifest = dir.join("Cargo.toml");
    if let Ok(text) = std::fs::read_to_string(&manifest) {
        let mut in_package = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
                continue;
            }
            if in_package {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(rest) = rest.strip_prefix('=') {
                        let v = rest.trim().trim_matches('"');
                        return v.replace('-', "_");
                    }
                }
            }
        }
    }
    dir.file_name()
        .map(|n| n.to_string_lossy().replace('-', "_"))
        .unwrap_or_else(|| "unknown".into())
}

/// Module path from a `src/...` relative path.
fn module_path_of(rel: &str) -> Vec<String> {
    let after_src = match rel.find("src/") {
        Some(i) => &rel[i + 4..],
        None => rel,
    };
    let mut parts: Vec<String> = after_src
        .trim_end_matches(".rs")
        .split('/')
        .map(|s| s.to_string())
        .collect();
    match parts.last().map(|s| s.as_str()) {
        Some("lib") | Some("main") => {
            parts.pop();
        }
        Some("mod") => {
            parts.pop();
        }
        _ => {}
    }
    parts
}

fn collect_rs(
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<(String, PathBuf)>,
) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, crate_name, out)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push((crate_name.to_string(), p));
        }
    }
    Ok(())
}

/// Parses `use` declarations into simple-name → full-path entries.
/// Groups (`use a::{b, c as d}`) are expanded; globs are ignored (the
/// resolver falls back to crate-unique name matching).
fn parse_uses(s: &Scanned) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let toks = &s.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            // Collect the token texts until ';'.
            let mut j = i + 1;
            let mut texts: Vec<&str> = Vec::new();
            while j < toks.len() && toks[j].text != ";" {
                texts.push(toks[j].text.as_str());
                j += 1;
            }
            expand_use(&texts, &mut Vec::new(), &mut 0, &mut map);
            i = j;
        }
        i += 1;
    }
    map
}

/// Recursive-descent expansion of a use tree token list.
fn expand_use<'a>(
    texts: &[&'a str],
    prefix: &mut Vec<&'a str>,
    pos: &mut usize,
    map: &mut BTreeMap<String, Vec<String>>,
) {
    let depth_at_entry = prefix.len();
    let mut last: Option<&str> = None;
    while *pos < texts.len() {
        let t = texts[*pos];
        *pos += 1;
        match t {
            ":" => {}
            "{" => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                expand_use(texts, prefix, pos, map);
            }
            "}" => {
                emit_use(prefix, last.take(), map);
                prefix.truncate(depth_at_entry);
                return;
            }
            "," => {
                emit_use(prefix, last.take(), map);
                prefix.truncate(depth_at_entry);
            }
            // `x as y`: record under alias y with path ..::x. (A
            // trailing `as` with no alias is malformed; let it fall
            // through to the segment arm.)
            "as" if *pos < texts.len() => {
                let alias = texts[*pos];
                *pos += 1;
                if let Some(orig) = last.take() {
                    let mut full: Vec<String> =
                        prefix.iter().map(|s| s.to_string()).collect();
                    full.push(orig.to_string());
                    map.insert(alias.to_string(), full);
                }
            }
            "*" => {
                last = None; // glob: skipped
            }
            seg if seg.chars().next().map(|c| c.is_alphanumeric() || c == '_').unwrap_or(false) => {
                if let Some(prev) = last.take() {
                    prefix.push(prev);
                }
                last = Some(seg);
            }
            _ => {}
        }
    }
    emit_use(prefix, last.take(), map);
    prefix.truncate(depth_at_entry);
}

fn emit_use(prefix: &[&str], last: Option<&str>, map: &mut BTreeMap<String, Vec<String>>) {
    if let Some(name) = last {
        let mut full: Vec<String> = prefix.iter().map(|s| s.to_string()).collect();
        full.push(name.to_string());
        if name == "self" {
            // `use a::b::{self}` imports b.
            full.pop();
            if let Some(seg) = full.last().cloned() {
                map.insert(seg, full);
            }
            return;
        }
        map.insert(name.to_string(), full);
    }
}

/// Scope kinds tracked during fn extraction.
enum Scope {
    Mod(String),
    /// An `impl`/`trait` block: the type name, then the trait if any.
    Type(String, Option<String>),
    Fn(usize),
    Other,
}

/// Extracts all `fn` items from `ws.files[file_idx]` into `ws.fns`.
fn extract_fns(ws: &mut Workspace, file_idx: usize) {
    let (crate_name, base_module) = {
        let f = &ws.files[file_idx];
        (f.crate_name.clone(), f.module.clone())
    };
    let n_toks = ws.files[file_idx].scanned.toks.len();
    // (scope, brace_depth_at_open)
    let mut stack: Vec<(Scope, u32)> = Vec::new();
    let mut depth: u32 = 0;
    let mut i = 0;
    // Pending scope for the next '{' (set by mod/impl/trait/fn headers).
    let mut pending: Option<Scope> = None;

    while i < n_toks {
        let t = |k: usize| -> &lexer::Tok { &ws.files[file_idx].scanned.toks[k] };
        let text = t(i).text.clone();
        match text.as_str() {
            "{" => {
                depth += 1;
                stack.push((pending.take().unwrap_or(Scope::Other), depth));
                i += 1;
            }
            "}" => {
                if let Some((scope, d)) = stack.pop() {
                    debug_assert_eq!(d, depth);
                    if let Scope::Fn(fn_idx) = scope {
                        ws.fns[fn_idx].body = ws.fns[fn_idx].body.map(|(a, _)| (a, i));
                        ws.fns[fn_idx].end_line = t(i).line;
                    }
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            "mod" if t(i).kind == TokKind::Ident => {
                if i + 1 < n_toks && t(i + 1).kind == TokKind::Ident {
                    let name = t(i + 1).text.clone();
                    if i + 2 < n_toks && t(i + 2).text == "{" {
                        pending = Some(Scope::Mod(name));
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            "impl" | "trait" if t(i).kind == TokKind::Ident => {
                // Scan to the body '{' (or ';'), picking out the type
                // name: for `impl Trait for Type` the segment after
                // `for` (the one before it is the trait); for `trait
                // Name: Bounds` the name itself; otherwise the last
                // angle-depth-0 ident before `where`/`{`.
                let is_trait = text == "trait";
                let mut j = i + 1;
                let mut angle: i32 = 0;
                let mut trait_name: Option<String> = None;
                let mut name: Option<String> = None;
                while j < n_toks {
                    let tj = t(j);
                    match tj.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "{" if angle <= 0 => break,
                        ";" if angle <= 0 => break,
                        "where" if angle <= 0 => {
                            // Type name is settled; skip to body.
                            while j < n_toks && t(j).text != "{" && t(j).text != ";" {
                                j += 1;
                            }
                            break;
                        }
                        "for" if angle <= 0 => trait_name = name.take(),
                        _ if tj.kind == TokKind::Ident && angle <= 0 => {
                            let kw = matches!(
                                tj.text.as_str(),
                                "dyn" | "mut" | "const" | "unsafe" | "pub" | "crate"
                            );
                            // A trait's name is its first ident; what
                            // follows (`: Sized + ..`) are bounds.
                            let bound = is_trait && name.is_some();
                            if !kw && !bound {
                                name = Some(tj.text.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < n_toks && t(j).text == "{" {
                    if is_trait {
                        trait_name = name.clone();
                    }
                    pending = Some(match name {
                        Some(n) => Scope::Type(n, trait_name),
                        None => Scope::Other,
                    });
                    i = j;
                } else {
                    i = j + 1;
                }
            }
            "fn" if t(i).kind == TokKind::Ident => {
                // `fn name <generics>? ( params ) (-> ret)? where*? { body }`
                let sig_line = t(i).line;
                if i + 1 >= n_toks || t(i + 1).kind != TokKind::Ident {
                    i += 1;
                    continue;
                }
                let name = t(i + 1).text.clone();
                let mut j = i + 2;
                // Optional generics fence.
                if j < n_toks && t(j).text == "<" {
                    let mut angle = 0i32;
                    while j < n_toks {
                        match t(j).text.as_str() {
                            "<" => angle += 1,
                            ">" => {
                                angle -= 1;
                                if angle == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if j >= n_toks || t(j).text != "(" {
                    i += 1;
                    continue;
                }
                // Parameter list: split top-level commas into segments,
                // collecting each segment's binding names (idents before
                // the `:`) and detecting a `self` receiver.
                let mut paren = 0i32;
                let mut angle = 0i32;
                let mut has_self = false;
                let mut segments: Vec<Vec<String>> = Vec::new();
                let mut cur_names: Vec<String> = Vec::new();
                let mut cur_any = false;
                let mut cur_is_self = false;
                let mut seen_colon = false;
                while j < n_toks {
                    let tj = t(j);
                    match tj.text.as_str() {
                        "(" | "[" => paren += 1,
                        ")" | "]" => {
                            paren -= 1;
                            if paren == 0 {
                                j += 1;
                                break;
                            }
                        }
                        "<" => angle += 1,
                        ">" => angle = (angle - 1).max(0),
                        "," if paren == 1 && angle == 0 => {
                            if cur_is_self {
                                has_self = true;
                            } else if cur_any {
                                segments.push(std::mem::take(&mut cur_names));
                            }
                            cur_names.clear();
                            cur_any = false;
                            cur_is_self = false;
                            seen_colon = false;
                        }
                        ":" if paren == 1 && angle == 0 => seen_colon = true,
                        _ => {
                            if paren >= 1 {
                                cur_any = true;
                                if tj.kind == TokKind::Ident && !seen_colon {
                                    match tj.text.as_str() {
                                        "self" => cur_is_self = true,
                                        "mut" | "ref" => {}
                                        _ => cur_names.push(tj.text.clone()),
                                    }
                                }
                            }
                        }
                    }
                    j += 1;
                }
                if cur_any {
                    if cur_is_self {
                        has_self = true;
                    } else {
                        segments.push(cur_names);
                    }
                }
                let arity = segments.len();
                let param_names = segments;
                // Skip return type / where clause to '{' or ';'.
                let mut brace_j = None;
                let mut has_return = false;
                let mut angle2 = 0i32;
                while j < n_toks {
                    match t(j).text.as_str() {
                        "-" if t(j).kind == TokKind::Punct
                            && j + 1 < n_toks
                            && t(j + 1).text == ">" =>
                        {
                            has_return = true;
                        }
                        "<" => angle2 += 1,
                        ">" => angle2 = (angle2 - 1).max(0),
                        "{" if angle2 == 0 => {
                            brace_j = Some(j);
                            break;
                        }
                        ";" if angle2 == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let (impl_type, impl_trait) = stack
                    .iter()
                    .rev()
                    .find_map(|(s, _)| match s {
                        Scope::Type(n, tr) => Some((Some(n.clone()), tr.clone())),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                let module: Vec<String> = base_module
                    .iter()
                    .cloned()
                    .chain(stack.iter().filter_map(|(s, _)| match s {
                        Scope::Mod(n) => Some(n.clone()),
                        _ => None,
                    }))
                    .collect();
                let is_test = ws.files[file_idx].scanned.in_test_code(sig_line);
                let source_reason = ws.files[file_idx]
                    .scanned
                    .source_for(sig_line)
                    .filter(|p| !p.reason.is_empty())
                    .map(|p| p.reason.clone());
                let is_sanitizer = ws.files[file_idx]
                    .scanned
                    .sanitizer_for(sig_line)
                    .is_some_and(|p| !p.reason.is_empty());
                let fn_idx = ws.fns.len();
                ws.fns.push(FnInfo {
                    name,
                    impl_type,
                    impl_trait,
                    module,
                    crate_name: crate_name.clone(),
                    file: file_idx,
                    sig_line,
                    end_line: sig_line,
                    body: None,
                    arity,
                    param_names,
                    has_self,
                    has_return,
                    is_test,
                    source_reason,
                    is_sanitizer,
                });
                if let Some(bj) = brace_j {
                    ws.fns[fn_idx].body = Some((bj + 1, n_toks));
                    pending = Some(Scope::Fn(fn_idx));
                    i = bj;
                } else {
                    i = j;
                }
            }
            _ => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_of(src: &str) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
        };
        index_file(&mut ws, "test_crate".into(), "crates/test/src/lib.rs".into(), src);
        ws
    }

    #[test]
    fn fns_are_indexed_with_modules_and_impls() {
        let src = "\
pub fn top(a: u32, b: u32) -> u32 { a + b }
mod inner {
    pub struct T;
    impl T {
        pub fn method(&self, x: u8) -> u8 { x }
    }
}
trait Tr {
    fn default_method(&self) -> u32 { 1 }
    fn decl_only(&self);
}
";
        let ws = ws_of(src);
        let shape = |i: usize| {
            let f = &ws.fns[i];
            (f.name.as_str(), f.impl_type.as_deref(), f.module.join("::"), f.arity, f.has_self)
        };
        assert_eq!(ws.fns.len(), 4);
        assert_eq!(shape(0), ("top", None, String::new(), 2, false));
        assert_eq!(shape(1), ("method", Some("T"), "inner".to_string(), 1, true));
        assert_eq!(ws.fns[1].impl_trait, None);
        assert_eq!(shape(2), ("default_method", Some("Tr"), String::new(), 0, true));
        assert_eq!(ws.fns[2].impl_trait, Some("Tr".into()));
        // decl_only has no body.
        assert_eq!(ws.fns[3].name, "decl_only");
        assert!(ws.fns[3].body.is_none());
        // Param names and return types.
        assert_eq!(ws.fns[0].param_names, vec![vec!["a".to_string()], vec!["b".into()]]);
        assert!(ws.fns[0].has_return);
        assert_eq!(ws.fns[1].param_names, vec![vec!["x".to_string()]]);
    }

    #[test]
    fn pattern_params_collect_all_names() {
        let src = "fn f((a, b): (u32, u32), mut c: Vec<u8>) { let _ = (a, b, c); }";
        let ws = ws_of(src);
        assert_eq!(
            ws.fns[0].param_names,
            vec![vec!["a".to_string(), "b".into()], vec!["c".into()]]
        );
        assert_eq!(ws.fns[0].arity, 2);
        assert!(!ws.fns[0].has_return);
    }

    #[test]
    fn impl_trait_for_type_records_the_type() {
        let src = "\
struct Foo;
impl std::fmt::Display for Foo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
impl<T: Clone> From<T> for Foo where T: Copy {
    fn from(_: T) -> Self { Foo }
}
";
        let ws = ws_of(src);
        assert_eq!(ws.fns[0].impl_type, Some("Foo".into()));
        assert_eq!(ws.fns[0].impl_trait, Some("Display".into()));
        assert_eq!(ws.fns[1].impl_type, Some("Foo".into()));
        assert_eq!(ws.fns[1].impl_trait, Some("From".into()));
    }

    #[test]
    fn nested_fns_attribute_innermost() {
        let src = "\
fn outer() {
    fn helper(n: usize) -> usize { n + 1 }
    let _ = helper(2);
}
";
        let ws = ws_of(src);
        assert_eq!(ws.fns.len(), 2);
        let outer = &ws.fns[0];
        let helper = &ws.fns[1];
        assert_eq!(outer.name, "outer");
        assert_eq!(helper.name, "helper");
        // The helper(2) call site lives inside outer but not helper.
        let call_idx = ws.files[0]
            .scanned
            .toks
            .iter()
            .position(|t| t.text == "helper" && t.line == 3)
            .unwrap();
        assert_eq!(ws.innermost_fn(0, call_idx), Some(0));
        // Tokens inside the helper body attribute to helper.
        let n_idx = ws.files[0]
            .scanned
            .toks
            .iter()
            .position(|t| t.text == "n" && t.line == 2 && t.col > 30)
            .unwrap();
        assert_eq!(ws.innermost_fn(0, n_idx), Some(1));
    }

    #[test]
    fn use_maps_expand_groups_and_aliases() {
        let src = "\
use std::collections::{BTreeMap, BTreeSet as Set};
use crate::wire::decode;
use s2_bdd::serialize::*;
fn f() {}
";
        let ws = ws_of(src);
        let uses = &ws.files[0].uses;
        assert_eq!(
            uses.get("BTreeMap").unwrap(),
            &vec!["std".to_string(), "collections".into(), "BTreeMap".into()]
        );
        assert_eq!(
            uses.get("Set").unwrap(),
            &vec!["std".to_string(), "collections".into(), "BTreeSet".into()]
        );
        assert_eq!(
            uses.get("decode").unwrap(),
            &vec!["crate".to_string(), "wire".into(), "decode".into()]
        );
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    #[test]
    fn check() {}
}
";
        let ws = ws_of(src);
        assert!(!ws.fns[0].is_test);
        assert!(ws.fns[1].is_test);
    }

    #[test]
    fn source_pragma_reason_is_attached() {
        let src = "\
// s2-lint: source(peer-input): frames in this inbox were read off peer sockets
pub fn pop(&self) -> Option<Vec<u8>> { None }
";
        let ws = ws_of(src);
        assert_eq!(ws.fns.len(), 1);
        assert!(ws.fns[0].source_reason.as_deref().unwrap().contains("peer sockets"));
    }
}
