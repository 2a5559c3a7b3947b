//! Interprocedural taint analysis over the workspace call graph.
//!
//! Sources are the transport deframe entry points: any non-test
//! function that reads from a socket-backed stream (a `.read_exact` /
//! `.read_line` / `.fill_buf` / … call in a file that names a socket
//! type), plus functions annotated `// s2-lint: source(label): reason`
//! for taint that re-enters through an indirection the call graph
//! cannot see (queue handoffs, channels).
//!
//! Taint propagates two ways:
//!
//! * **expression taint** — an expression is tainted when it mentions a
//!   tainted local outside a validating context, or calls a function
//!   summarized as an *unconditional source* (returns peer bytes with
//!   no tainted inputs, e.g. a deframe wrapper);
//! * **call seeding** — passing a tainted expression as an argument
//!   taints the matching parameter of every resolved callee, worklist
//!   style, with a caller breadcrumb kept for flow traces.
//!
//! Kills (what un-taints a value): a comparison against the value
//! (`len > max`, `i < buf.len()`), `.len()`/`.is_empty()` inspection of
//! a buffer, masking (`x & 0xff`, `x % n`), clamping
//! (`.min` / `.clamp` / `.checked_*` / `.saturating_*`), and laundering
//! lookups (`.get`/`.find`/`.position`/`.binary_search` — a peer key
//! into a trusted structure yields a trusted value). Destructuring
//! `match` arms also drop taint: every decoded struct in this workspace
//! passes the bounds-checked codecs first, so a destructured field is
//! treated as validated. These are optimistic by design — the analysis
//! exists to catch *unvalidated* flows, and each kill is a validation
//! idiom the codebase actually uses.
//!
//! Sinks: panicking macros and `.unwrap()`/`.expect()` fire anywhere in
//! a taint-reached function (peer bytes steer control flow there);
//! slice indexing and allocation sizing (`vec![_; n]`,
//! `with_capacity`, `.reserve`, `.resize`, `.set_len`) fire only when
//! the index/size expression — or the indexed buffer itself — is still
//! tainted at the sink.

use crate::index::Workspace;
use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Socket type names whose presence marks a file as transport-touching.
const SOCKET_TYPES: [&str; 5] = [
    "TcpStream",
    "TcpListener",
    "UdpSocket",
    "UnixStream",
    "UnixListener",
];

/// Reader methods that fill their argument with peer bytes.
const READ_FILLS: [&str; 7] = [
    "read",
    "read_exact",
    "read_to_end",
    "read_line",
    "read_until",
    "recv",
    "recv_from",
];

/// Reader methods that *return* peer bytes.
const READ_RETURNS: [&str; 1] = ["fill_buf"];

/// Methods whose result is considered validated (clean span), covering
/// both clamping of the receiver and laundering lookups by key.
const CLEAN_CALLS: [&str; 9] = [
    "min",
    "clamp",
    "get",
    "get_mut",
    "find",
    "position",
    "binary_search",
    "len",
    "is_empty",
];

/// Panic-family macros.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Byte-emitting calls that mark a function as part of the wire-encode
/// path (the R2 determinism scope).
const EMITTERS: [&str; 10] = [
    "put_u8",
    "put_u16",
    "put_u32",
    "put_u64",
    "put_i64",
    "put_slice",
    "write_all",
    "to_be_bytes",
    "to_le_bytes",
    "extend_from_slice",
];

/// Identifiers that are Rust keywords / non-bindable in expressions.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "let"
            | "mut"
            | "ref"
            | "in"
            | "as"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "struct"
            | "enum"
            | "self"
            | "Self"
            | "true"
            | "false"
            | "break"
            | "continue"
            | "move"
            | "where"
            | "unsafe"
            | "dyn"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "type"
            | "trait"
    )
}

/// One source→sink flow found by the taint pass.
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based position of the sink.
    pub line: u32,
    /// 1-based column of the sink.
    pub col: u32,
    /// Defect description (never embeds line numbers, so finding IDs
    /// stay stable when code moves).
    pub message: String,
    /// Root→sink call chain, one rendered step per entry.
    pub trace: Vec<String>,
}

/// Result of the workspace taint pass.
pub struct Analysis {
    /// Taint roots: (fn id, why it is a source).
    pub roots: Vec<(usize, String)>,
    /// Every function taint reaches (internally or via a parameter).
    pub active: BTreeSet<usize>,
    /// Derived R1 scope: same as `active`.
    pub scope_r1: BTreeSet<usize>,
    /// Derived R2 scope, as file indices: files containing an active fn
    /// or a byte-emitting fn (the wire-encode path).
    pub scope_r2_files: BTreeSet<usize>,
    /// Derived R4 scope: active fns outside the `s2_bdd` crate (the BDD
    /// crate itself legitimately handles node ids).
    pub scope_r4: BTreeSet<usize>,
    /// R1 taint findings (panic-reachability + tainted-data sinks).
    pub findings: Vec<TaintFinding>,
    /// First-seeder breadcrumbs: callee fn → (caller fn, call line).
    pub taint_from: BTreeMap<usize, (usize, u32)>,
}

/// Per-function evaluation output.
#[derive(Default)]
struct EvalOut {
    any_taint: bool,
    root_why: Option<String>,
    /// (callee, call line, callee param names that become tainted)
    seeded: Vec<(usize, u32, BTreeSet<String>)>,
    findings: Vec<TaintFinding>,
}

struct Ctx<'a> {
    ws: &'a Workspace,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    fn_paths: Vec<Vec<String>>,
    socket_file: Vec<bool>,
}

impl<'a> Ctx<'a> {
    fn new(ws: &'a Workspace) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut fn_paths = Vec::with_capacity(ws.fns.len());
        for (i, f) in ws.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
            let mut p = vec![f.crate_name.clone()];
            p.extend(f.module.iter().cloned());
            if let Some(t) = &f.impl_type {
                p.push(t.clone());
            }
            p.push(f.name.clone());
            fn_paths.push(p);
        }
        let socket_file = ws
            .files
            .iter()
            .map(|f| {
                f.scanned.toks.iter().any(|t| {
                    t.kind == TokKind::Ident && SOCKET_TYPES.contains(&t.text.as_str())
                })
            })
            .collect();
        Ctx {
            ws,
            by_name,
            fn_paths,
            socket_file,
        }
    }

    /// Resolves a call site to candidate fn ids.
    ///
    /// Methods match by name + `self` + arity (preferring exact arity,
    /// falling back to name-only when the heuristic arg count matches
    /// nothing); capped at 4 candidates to bound trait-method
    /// over-linking. Free/associated calls resolve the leading path via
    /// the file's `use` map and `crate`/`self`/`super`/`Self`, then
    /// suffix-match against each candidate's full path; a path that
    /// names a trait method goes through [`Ctx::trait_dispatch`].
    fn resolve(
        &self,
        caller: usize,
        path: &[String],
        name: &str,
        argc: usize,
        method: bool,
    ) -> Vec<usize> {
        let Some(all) = self.by_name.get(name) else {
            return Vec::new();
        };
        let caller_fn = &self.ws.fns[caller];
        if method {
            let cands: Vec<usize> = all
                .iter()
                .copied()
                .filter(|&i| self.ws.fns[i].has_self && !self.ws.fns[i].is_test)
                .collect();
            let exact: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.ws.fns[i].arity == argc)
                .collect();
            let picked = if exact.is_empty() { cands } else { exact };
            return if picked.len() > 4 { Vec::new() } else { picked };
        }
        let cands: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| !self.ws.fns[i].is_test)
            .collect();
        let file = &self.ws.files[caller_fn.file];
        if path.is_empty() {
            // Unqualified call: same file, then same crate, then a
            // workspace-unique name.
            let same_file: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| self.ws.fns[i].file == caller_fn.file && !self.ws.fns[i].has_self)
                .collect();
            let picked = if !same_file.is_empty() {
                same_file
            } else {
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.ws.fns[i].crate_name == caller_fn.crate_name
                            && !self.ws.fns[i].has_self
                    })
                    .collect();
                if !same_crate.is_empty() {
                    same_crate
                } else if cands.len() == 1 {
                    cands
                } else {
                    Vec::new()
                }
            };
            return arity_pref(self.ws, picked, argc, 6);
        }
        // `Self::helper` — the caller's impl type.
        if path[0] == "Self" {
            let picked: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| {
                    self.ws.fns[i].impl_type == caller_fn.impl_type
                        && self.ws.fns[i].crate_name == caller_fn.crate_name
                })
                .collect();
            return self.trait_dispatch(arity_pref(self.ws, picked, argc, 4), &cands, path, argc);
        }
        // Expand the head through the use map, then crate/self/super.
        let mut segs: Vec<String> = path.to_vec();
        if let Some(full) = file.uses.get(&segs[0]) {
            let mut expanded = full.clone();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
        match segs[0].as_str() {
            "crate" => {
                segs[0] = caller_fn.crate_name.clone();
            }
            "self" => {
                let mut p = vec![caller_fn.crate_name.clone()];
                p.extend(file.module.iter().cloned());
                p.extend(segs.drain(1..));
                segs = p;
            }
            "super" => {
                let mut p = vec![caller_fn.crate_name.clone()];
                let up = file.module.len().saturating_sub(1);
                p.extend(file.module[..up].iter().cloned());
                p.extend(segs.drain(1..));
                segs = p;
            }
            _ => {}
        }
        let mut want = segs;
        want.push(name.to_string());
        let picked: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| self.fn_paths[i].ends_with(&want) || suffix_of(&want, &self.fn_paths[i]))
            .collect();
        self.trait_dispatch(arity_pref(self.ws, picked, argc, 4), &cands, path, argc)
    }

    /// Trait dispatch. `T::take(..)`, `Self::take(..)`, `u32::take(..)`
    /// and `Wire::take(..)` name a trait method, not one function: the
    /// path match finds nothing (a type parameter or a foreign type
    /// heads the path) or only the trait's bodyless declaration. Such a
    /// call resolves to *every* impl of that method — any of them may
    /// run on the caller's data — and is deliberately uncapped: a codec
    /// trait has one impl per wire type, and dropping the edge is what
    /// would hide a peer-sized allocation inside a generic `Vec<T>`
    /// impl. Multi-segment paths that matched nothing (`std::mem::take`)
    /// stay unresolved.
    fn trait_dispatch(
        &self,
        picked: Vec<usize>,
        cands: &[usize],
        path: &[String],
        argc: usize,
    ) -> Vec<usize> {
        let fns = &self.ws.fns;
        if picked.iter().any(|&i| fns[i].body.is_some()) {
            return picked;
        }
        let declared: BTreeSet<&str> = picked
            .iter()
            .filter_map(|&i| fns[i].impl_trait.as_deref())
            .collect();
        if declared.is_empty() && !(picked.is_empty() && path.len() == 1) {
            return picked;
        }
        let impls: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                fns[i]
                    .impl_trait
                    .as_deref()
                    .is_some_and(|tr| declared.is_empty() || declared.contains(tr))
            })
            .collect();
        arity_pref(self.ws, impls, argc, usize::MAX)
    }
}

/// Whether `want` (possibly partially qualified, e.g. `[admin,
/// read_request]`) is a suffix of `full`.
fn suffix_of(want: &[String], full: &[String]) -> bool {
    want.len() <= full.len() && full[full.len() - want.len()..] == *want
}

fn arity_pref(ws: &Workspace, cands: Vec<usize>, argc: usize, cap: usize) -> Vec<usize> {
    let exact: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| ws.fns[i].arity == argc)
        .collect();
    let picked = if exact.is_empty() { cands } else { exact };
    if picked.len() > cap {
        Vec::new()
    } else {
        picked
    }
}

/// Index of the token matching `open` at `i` (same-pair counting; string
/// and char contents are already stripped by the lexer, so bracket
/// characters only appear as real punctuation).
fn matching(toks: &[Tok], i: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        if toks[j].text == open {
            depth += 1;
        } else if toks[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len() - 1
}

/// Start index of the postfix receiver chain ending just before the
/// token at `dot` (exclusive): walks back over idents, `.`, `::`, and
/// balanced `()`/`[]` groups.
fn receiver_start(toks: &[Tok], dot: usize, floor: usize) -> usize {
    let mut k = dot;
    while k > floor {
        let prev = &toks[k - 1];
        match prev.text.as_str() {
            ")" | "]" => {
                // Walk back to the matching open.
                let close_ch = prev.text.as_str();
                let open_ch = if close_ch == ")" { "(" } else { "[" };
                let mut depth = 0usize;
                let mut j = k - 1;
                loop {
                    if toks[j].text == close_ch {
                        depth += 1;
                    } else if toks[j].text == open_ch {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if j == floor {
                        break;
                    }
                    j -= 1;
                }
                k = j;
            }
            "." | ":" => k -= 1,
            _ if prev.kind == TokKind::Ident && !is_keyword(&prev.text) => k -= 1,
            _ => break,
        }
    }
    k
}

/// Idents of the receiver chain `[a, b)` (e.g. `self.buf` → self, buf).
fn chain_idents(toks: &[Tok], a: usize, b: usize) -> Vec<&str> {
    toks[a..b]
        .iter()
        .filter(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
        .map(|t| t.text.as_str())
        .collect()
}

/// Leading `a::b::` path segments before the call name at `i`.
fn path_before(toks: &[Tok], i: usize, floor: usize) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let mut k = i;
    while k >= floor + 3
        && toks[k - 1].text == ":"
        && toks[k - 2].text == ":"
        && toks[k - 3].kind == TokKind::Ident
    {
        segs.push(toks[k - 3].text.clone());
        k -= 3;
    }
    segs.reverse();
    segs
}

/// Splits the argument tokens of a call group `(a..b)` (exclusive of
/// the parens) into per-argument ranges at top-level commas.
fn arg_ranges(toks: &[Tok], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = a;
    for (j, t) in toks.iter().enumerate().take(b).skip(a) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth == 0 => {
                out.push((start, j));
                start = j + 1;
            }
            _ => {}
        }
    }
    if start < b {
        out.push((start, b));
    }
    out
}

/// End of the statement starting at `i`: the `;` at depth 0, a `{` at
/// depth 0 when `stop_at_brace` (for `if let` / `while let` / `for`
/// heads), or the point where the enclosing block closes.
fn stmt_end(toks: &[Tok], i: usize, end: usize, stop_at_brace: bool) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            "{" => {
                if depth == 0 && stop_at_brace {
                    return j;
                }
                depth += 1;
            }
            ")" | "]" => depth -= 1,
            "}" => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Whether the expression `[a, b)` is tainted: mentions a live tainted
/// ident outside a clean span / mask, or calls an unconditional source.
#[allow(clippy::too_many_arguments)]
fn eval_expr(
    ctx: &Ctx,
    uncond: &BTreeSet<usize>,
    caller: usize,
    toks: &[Tok],
    a: usize,
    b: usize,
    tainted: &BTreeSet<String>,
    socket: bool,
) -> bool {
    // Clean spans: receiver-chain + validated/laundering call group.
    let mut clean: Vec<(usize, usize)> = Vec::new();
    let mut j = a;
    while j + 2 < b {
        if toks[j].text == "."
            && toks[j + 1].kind == TokKind::Ident
            && toks[j + 2].text == "("
        {
            let n = toks[j + 1].text.as_str();
            if CLEAN_CALLS.contains(&n)
                || n.starts_with("checked_")
                || n.starts_with("saturating_")
                || n.starts_with("wrapping_")
            {
                let close = matching(toks, j + 2, "(", ")");
                let rcv = receiver_start(toks, j, a);
                clean.push((rcv, (close + 1).min(b)));
                j = close + 1;
                continue;
            }
        }
        j += 1;
    }
    let in_clean = |k: usize| clean.iter().any(|&(x, y)| x <= k && k < y);

    let mut j = a;
    while j < b {
        if in_clean(j) {
            j += 1;
            continue;
        }
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if tainted.contains(&t.text) && !is_keyword(&t.text) {
                // Masked uses are clean: `x & 0xff`, `x % n`.
                let masked = toks
                    .get(j + 1)
                    .map(|n| {
                        (n.text == "&"
                            && toks.get(j + 2).map(|m| m.kind == TokKind::Literal).unwrap_or(false))
                            || n.text == "%"
                    })
                    .unwrap_or(false);
                if !masked {
                    return true;
                }
            }
            if toks.get(j + 1).map(|n| n.text == "(").unwrap_or(false) && !is_keyword(&t.text) {
                let method = j > 0 && toks[j - 1].text == ".";
                if method && socket && READ_RETURNS.contains(&t.text.as_str()) {
                    return true;
                }
                let close = matching(toks, j + 1, "(", ")");
                let argc = arg_ranges(toks, j + 2, close).len();
                let path = if method {
                    Vec::new()
                } else {
                    path_before(toks, j, a)
                };
                let cands = ctx.resolve(caller, &path, &t.text, argc, method);
                // A declared sanitizer returns clean no matter what goes
                // in: skip its argument group entirely (`cap(len)`).
                if !cands.is_empty() && cands.iter().all(|&c| ctx.ws.fns[c].is_sanitizer) {
                    j = close + 1;
                    continue;
                }
                if cands.iter().any(|c| uncond.contains(c)) {
                    return true;
                }
            }
        }
        j += 1;
    }
    false
}

/// Runs the intra-function pass for `fi` with entry taint `seeds`.
#[allow(clippy::too_many_lines)]
fn eval_fn(
    ctx: &Ctx,
    uncond: &BTreeSet<usize>,
    fi: usize,
    seeds: Option<&BTreeSet<String>>,
    final_mode: bool,
) -> EvalOut {
    let mut out = EvalOut::default();
    let f = &ctx.ws.fns[fi];
    let Some((start, end)) = f.body else {
        return out;
    };
    let file = &ctx.ws.files[f.file];
    let toks = &file.scanned.toks;
    let socket = ctx.socket_file[f.file];
    // Nested fn bodies in range are their own functions; skip them.
    let child_ranges: Vec<(usize, usize)> = ctx
        .ws
        .fns
        .iter()
        .filter(|c| {
            c.file == f.file
                && c.body
                    .map(|(a, b)| a > start && b <= end)
                    .unwrap_or(false)
        })
        .filter_map(|c| c.body)
        .collect();

    let mut tainted: BTreeSet<String> = seeds.cloned().unwrap_or_default();
    let mut fixed_len: BTreeSet<String> = BTreeSet::new();
    let mut any_taint = !tainted.is_empty();
    if f.source_reason.is_some() {
        any_taint = true;
        out.root_why = Some(format!(
            "declared taint source: {}",
            f.source_reason.as_deref().unwrap_or("")
        ));
    }

    let ev = |a: usize, b: usize, tainted: &BTreeSet<String>| {
        eval_expr(ctx, uncond, fi, toks, a, b, tainted, socket)
    };
    let sink = |line: u32, col: u32, message: String, out: &mut EvalOut| {
        out.findings.push(TaintFinding {
            file: f.file,
            line,
            col,
            message,
            trace: Vec::new(),
        });
    };

    let mut i = start;
    while i < end {
        if let Some(&(_, ce)) = child_ranges.iter().find(|&&(ca, ce)| ca <= i && i < ce) {
            i = ce;
            continue;
        }
        let t = &toks[i];

        // ---- bindings -------------------------------------------------
        if t.kind == TokKind::Ident && (t.text == "let" || t.text == "for") {
            let is_for = t.text == "for";
            let head_kw = if is_for { "in" } else { "=" };
            // `if let` / `while let` heads end at `{`, not `;`.
            let cond_ctx = !is_for
                && i > start
                && toks
                    .get(i - 1)
                    .map(|p| p.text == "if" || p.text == "while")
                    .unwrap_or(false);
            let mut names: Vec<String> = Vec::new();
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut after_colon = false;
            let mut eq_pos: Option<usize> = None;
            while j < end {
                let tj = &toks[j];
                match tj.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ":" if depth == 0 => after_colon = true,
                    ";" if depth == 0 => break,
                    s if depth == 0 && !is_for && s == head_kw => {
                        // `=` but not `==` (can't appear in a pattern).
                        eq_pos = Some(j);
                        break;
                    }
                    s if depth == 0
                        && is_for
                        && s == head_kw
                        && tj.kind == TokKind::Ident =>
                    {
                        eq_pos = Some(j);
                        break;
                    }
                    _ => {
                        if tj.kind == TokKind::Ident && !after_colon && !is_keyword(&tj.text) {
                            names.push(tj.text.clone());
                        }
                    }
                }
                j += 1;
            }
            if let Some(eq) = eq_pos {
                let se = stmt_end(toks, eq + 1, end, is_for || cond_ctx);
                let texpr = ev(eq + 1, se, &tainted);
                let fixed = toks.get(eq + 1).map(|t| t.text == "[").unwrap_or(false) && {
                    let close = matching(toks, eq + 1, "[", "]");
                    toks[eq + 1..close].iter().any(|t| t.text == ";")
                };
                for n in &names {
                    if texpr {
                        tainted.insert(n.clone());
                    } else {
                        tainted.remove(n);
                    }
                    if fixed {
                        fixed_len.insert(n.clone());
                    } else {
                        fixed_len.remove(n);
                    }
                }
                if texpr {
                    any_taint = true;
                }
                i = eq + 1;
                continue;
            }
            // Un-initialized `let x;` — the binding is clean.
            for n in &names {
                tainted.remove(n);
            }
            i = j + 1;
            continue;
        }

        // ---- intrinsic reads ------------------------------------------
        if t.text == "."
            && toks
                .get(i + 1)
                .map(|n| n.kind == TokKind::Ident && READ_FILLS.contains(&n.text.as_str()))
                .unwrap_or(false)
            && toks.get(i + 2).map(|n| n.text == "(").unwrap_or(false)
        {
            if socket && !f.is_test {
                let close = matching(toks, i + 2, "(", ")");
                for tk in toks.iter().take(close).skip(i + 3) {
                    if tk.kind == TokKind::Ident && !is_keyword(&tk.text) {
                        tainted.insert(tk.text.clone());
                    }
                }
                any_taint = true;
                if out.root_why.is_none() {
                    out.root_why = Some(format!(
                        "fills a buffer via .{}() on a socket-backed reader",
                        toks[i + 1].text
                    ));
                }
            }
            i += 2;
            continue;
        }
        if t.text == "."
            && toks
                .get(i + 1)
                .map(|n| READ_RETURNS.contains(&n.text.as_str()))
                .unwrap_or(false)
            && toks.get(i + 2).map(|n| n.text == "(").unwrap_or(false)
            && socket
            && !f.is_test
        {
            any_taint = true;
            if out.root_why.is_none() {
                out.root_why = Some(format!(
                    "reads peer bytes via .{}() on a socket-backed reader",
                    toks[i + 1].text
                ));
            }
        }

        // ---- kills ----------------------------------------------------
        if t.kind == TokKind::Ident && tainted.contains(&t.text) {
            let next = toks.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
            let next2 = toks.get(i + 2).map(|n| n.text.as_str()).unwrap_or("");
            let prev = i
                .checked_sub(1)
                .and_then(|k| toks.get(k))
                .map(|n| n.text.as_str())
                .unwrap_or("");
            let prev2 = i
                .checked_sub(2)
                .and_then(|k| toks.get(k))
                .map(|n| n.text.as_str())
                .unwrap_or("");
            let compared = matches!(next, "<" | ">")
                || (next == "=" && next2 == "=")
                || (next == "!" && next2 == "=")
                || matches!(prev, "<" | ">")
                || (prev == "=" && matches!(prev2, "=" | "!" | "<" | ">"));
            let inspected = next == "."
                && matches!(next2, "len" | "is_empty")
                && toks.get(i + 3).map(|n| n.text == "(").unwrap_or(false);
            if compared || inspected {
                tainted.remove(&t.text);
            }
        }

        // ---- sinks ----------------------------------------------------
        if final_mode && any_taint {
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).map(|n| n.text == "!").unwrap_or(false)
            {
                sink(
                    t.line,
                    t.col,
                    format!(
                        "{}! reachable from peer input in {} — peers must not \
                         be able to trigger a panic",
                        t.text,
                        f.display_path()
                    ),
                    &mut out,
                );
            }
            if t.kind == TokKind::Ident
                && (t.text == "unwrap" || t.text == "expect")
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
            {
                sink(
                    t.line,
                    t.col,
                    format!(
                        ".{}() reachable from peer input in {} — convert to the \
                         typed error path",
                        t.text,
                        f.display_path()
                    ),
                    &mut out,
                );
            }
        }
        if final_mode && t.text == "[" && crate::rules::is_index_expression(toks, i) {
            let close = matching(toks, i, "[", "]");
            let idx_tainted = ev(i + 1, close, &tainted);
            let rcv_start = receiver_start(toks, i, start);
            let chain = chain_idents(toks, rcv_start, i);
            let rcv_tainted = chain
                .iter()
                .any(|c| tainted.contains(*c) && !fixed_len.contains(*c));
            if idx_tainted {
                sink(
                    t.line,
                    t.col,
                    format!(
                        "slice index computed from peer input in {} — validate \
                         or use .get()",
                        f.display_path()
                    ),
                    &mut out,
                );
            } else if rcv_tainted {
                sink(
                    t.line,
                    t.col,
                    format!(
                        "indexing into peer-supplied buffer `{}` in {} without \
                         a length check — use .get() or check .len() first",
                        chain.last().copied().unwrap_or("?"),
                        f.display_path()
                    ),
                    &mut out,
                );
            }
        }
        if final_mode {
            // vec![_; n] with tainted n.
            if t.kind == TokKind::Ident
                && t.text == "vec"
                && toks.get(i + 1).map(|n| n.text == "!").unwrap_or(false)
                && toks.get(i + 2).map(|n| n.text == "[").unwrap_or(false)
            {
                let close = matching(toks, i + 2, "[", "]");
                let mut depth = 0i32;
                for (k, tk) in toks.iter().enumerate().take(close).skip(i + 3) {
                    match tk.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => {
                            if ev(k + 1, close, &tainted) {
                                sink(
                                    t.line,
                                    t.col,
                                    format!(
                                        "vec! allocation sized by peer-controlled \
                                         length in {} — bound it against a \
                                         configured maximum first",
                                        f.display_path()
                                    ),
                                    &mut out,
                                );
                            }
                            break;
                        }
                        _ => {}
                    }
                }
            }
            // Vec::with_capacity(n) / .reserve(n) / .resize(n, _) / .set_len(n)
            let alloc_call = if t.kind == TokKind::Ident && t.text == "with_capacity" {
                true
            } else {
                t.kind == TokKind::Ident
                    && matches!(t.text.as_str(), "reserve" | "reserve_exact" | "resize" | "set_len")
                    && i > 0
                    && toks[i - 1].text == "."
            };
            if alloc_call && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false) {
                let close = matching(toks, i + 1, "(", ")");
                if let Some(&(a0, b0)) = arg_ranges(toks, i + 2, close).first() {
                    if ev(a0, b0, &tainted) {
                        sink(
                            t.line,
                            t.col,
                            format!(
                                "{} sized by peer-controlled length in {} — bound \
                                 it against a configured maximum first",
                                t.text,
                                f.display_path()
                            ),
                            &mut out,
                        );
                    }
                }
            }
        }

        // ---- generic assignment --------------------------------------
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).map(|n| n.text == "=").unwrap_or(false)
            && toks.get(i + 2).map(|n| n.text != "=" && n.text != ">").unwrap_or(false)
        {
            let prev_ok = i == 0
                || !matches!(toks[i - 1].text.as_str(), "=" | "<" | ">" | "!" | "." | ":");
            if prev_ok {
                let se = stmt_end(toks, i + 2, end, false);
                let texpr = ev(i + 2, se, &tainted);
                if texpr {
                    tainted.insert(t.text.clone());
                    any_taint = true;
                } else {
                    tainted.remove(&t.text);
                }
            }
        }

        // ---- call sites: seeding + edges ------------------------------
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false)
            && !READ_FILLS.contains(&t.text.as_str())
            && !READ_RETURNS.contains(&t.text.as_str())
        {
            let method = i > 0 && toks[i - 1].text == ".";
            let close = matching(toks, i + 1, "(", ")");
            let args = arg_ranges(toks, i + 2, close);
            let path = if method {
                Vec::new()
            } else {
                path_before(toks, i, start)
            };
            let cands = ctx.resolve(fi, &path, &t.text, args.len(), method);
            if !cands.is_empty() {
                let tainted_pos: Vec<usize> = args
                    .iter()
                    .enumerate()
                    .filter(|(_, &(a0, b0))| ev(a0, b0, &tainted))
                    .map(|(k, _)| k)
                    .collect();
                if !tainted_pos.is_empty() {
                    any_taint = true;
                    for &c in &cands {
                        let mut names: BTreeSet<String> = BTreeSet::new();
                        for &p in &tainted_pos {
                            if let Some(ns) = ctx.ws.fns[c].param_names.get(p) {
                                names.extend(ns.iter().cloned());
                            }
                        }
                        if !names.is_empty() {
                            out.seeded.push((c, t.line, names));
                        }
                    }
                }
            }
        }

        i += 1;
    }

    out.any_taint = any_taint || !tainted.is_empty();
    out
}

/// Renders one trace step.
fn step(ws: &Workspace, fi: usize, note: &str) -> String {
    let f = &ws.fns[fi];
    let file = &ws.files[f.file];
    if note.is_empty() {
        format!("{} ({}:{})", f.display_path(), file.path, f.sig_line)
    } else {
        format!(
            "{} ({}:{}) — {}",
            f.display_path(),
            file.path,
            f.sig_line,
            note
        )
    }
}

/// Runs the full interprocedural analysis over an indexed workspace.
pub fn analyze(ws: &Workspace) -> Analysis {
    let ctx = Ctx::new(ws);
    let body_fns: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.body.is_some() && !f.is_test)
        .map(|(i, _)| i)
        .collect();

    // Phase 1: unconditional-source summaries to a fixpoint. A fn is an
    // unconditional source if, with no tainted parameters, its body
    // still produces taint (an intrinsic read, a declared source, or a
    // call to another unconditional source) and it returns a value.
    let mut uncond: BTreeSet<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.source_reason.is_some() && !f.is_test)
        .map(|(i, _)| i)
        .collect();
    loop {
        let mut changed = false;
        for &fi in &body_fns {
            if uncond.contains(&fi) || !ws.fns[fi].has_return {
                continue;
            }
            let out = eval_fn(&ctx, &uncond, fi, None, false);
            if out.any_taint {
                uncond.insert(fi);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 2: parameter-taint propagation over the call graph.
    let mut seeds: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
    let mut taint_from: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
    let mut work: VecDeque<usize> = body_fns.iter().copied().collect();
    let mut iterations = 0usize;
    while let Some(fi) = work.pop_front() {
        iterations += 1;
        if iterations > body_fns.len() * 64 {
            break; // safety valve; seeds are monotone so this is unreachable
        }
        let out = eval_fn(&ctx, &uncond, fi, seeds.get(&fi), false);
        for (callee, line, names) in out.seeded {
            if ws.fns[callee].is_test || ws.fns[callee].body.is_none() {
                continue;
            }
            let entry = seeds.entry(callee).or_default();
            let before = entry.len();
            entry.extend(names);
            if entry.len() > before {
                taint_from.entry(callee).or_insert((fi, line));
                work.push_back(callee);
            }
        }
    }

    // Phase 3: final pass — active set, roots, sinks, call edges.
    let mut analysis = Analysis {
        roots: Vec::new(),
        active: BTreeSet::new(),
        scope_r1: BTreeSet::new(),
        scope_r2_files: BTreeSet::new(),
        scope_r4: BTreeSet::new(),
        findings: Vec::new(),
        taint_from: taint_from.clone(),
    };
    let mut emitters: BTreeSet<usize> = BTreeSet::new();
    let mut pending: Vec<(usize, TaintFinding)> = Vec::new();
    for &fi in &body_fns {
        let out = eval_fn(&ctx, &uncond, fi, seeds.get(&fi), true);
        if out.any_taint {
            analysis.active.insert(fi);
        }
        if let Some(why) = &out.root_why {
            analysis.roots.push((fi, why.clone()));
        }
        // Byte-emitter detection for the R2 scope.
        if let Some((a, b)) = ws.fns[fi].body {
            let toks = &ws.files[ws.fns[fi].file].scanned.toks;
            if toks[a..b].iter().enumerate().any(|(k, t)| {
                t.kind == TokKind::Ident
                    && EMITTERS.contains(&t.text.as_str())
                    && toks
                        .get(a + k + 1)
                        .map(|n| n.text == "(")
                        .unwrap_or(false)
            }) {
                emitters.insert(fi);
            }
        }
        for fdg in out.findings {
            pending.push((fi, fdg));
        }
    }
    // Attach flow traces now that the root list is complete.
    for (fi, mut fdg) in pending {
        fdg.trace = build_trace(ws, &taint_from, &analysis.roots, fi);
        analysis.findings.push(fdg);
    }

    analysis.scope_r1 = analysis.active.clone();
    analysis.scope_r4 = analysis
        .active
        .iter()
        .copied()
        .filter(|&i| ws.fns[i].crate_name != "s2_bdd")
        .collect();
    for &fi in analysis.active.iter().chain(emitters.iter()) {
        analysis.scope_r2_files.insert(ws.fns[fi].file);
    }
    analysis
}

/// Builds the root→`fi` call-chain trace.
fn build_trace(
    ws: &Workspace,
    taint_from: &BTreeMap<usize, (usize, u32)>,
    roots: &[(usize, String)],
    fi: usize,
) -> Vec<String> {
    let mut chain: Vec<usize> = vec![fi];
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    seen.insert(fi);
    let mut cur = fi;
    while let Some(&(caller, _)) = taint_from.get(&cur) {
        if !seen.insert(caller) {
            break;
        }
        chain.push(caller);
        cur = caller;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&f| {
            let note = roots
                .iter()
                .find(|(r, _)| *r == f)
                .map(|(_, w)| w.as_str())
                .unwrap_or("");
            step(ws, f, note)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index;

    fn ws_files(files: &[(&str, &str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
        };
        for (krate, path, src) in files {
            index::index_file(&mut ws, krate.to_string(), path.to_string(), src);
        }
        ws
    }

    const READER: &str = "\
use std::net::TcpStream;
use std::io::Read;
pub fn read_frame(s: &mut TcpStream) -> Vec<u8> {
    let mut head = [0u8; 4];
    s.read_exact(&mut head).ok();
    let len = u32::from_be_bytes(head) as usize;
    let mut payload = vec![0u8; 16];
    s.read_exact(&mut payload).ok();
    let _ = len;
    payload
}
";

    #[test]
    fn socket_reader_becomes_root_and_unconditional_source() {
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", READER)]);
        let a = analyze(&ws);
        assert_eq!(a.roots.len(), 1, "{:?}", a.roots);
        assert!(a.active.contains(&0));
    }

    #[test]
    fn taint_flows_through_a_cross_module_helper_to_a_sink() {
        let helper = "\
pub fn pick(data: &[u8], idx: usize) -> u8 {
    data[idx]
}
";
        let main = "\
use std::net::TcpStream;
use std::io::Read;
mod helper;
pub fn serve(s: &mut TcpStream) -> u8 {
    let mut buf = [0u8; 8];
    s.read_exact(&mut buf).ok();
    let idx = buf[0] as usize;
    crate::helper::pick(&buf, idx)
}
";
        let ws = ws_files(&[
            ("t", "crates/t/src/lib.rs", main),
            ("t", "crates/t/src/helper.rs", helper),
        ]);
        let a = analyze(&ws);
        // pick's `idx` param is seeded; data[idx] is a tainted-index sink.
        let pick = ws.fns.iter().position(|f| f.name == "pick").unwrap();
        assert!(a.active.contains(&pick), "active: {:?}", a.active);
        assert!(
            a.findings
                .iter()
                .any(|f| f.message.contains("slice index computed from peer input")
                    && f.message.contains("pick")),
            "{:?}",
            a.findings
        );
        // The flow trace names both functions.
        let fdg = a
            .findings
            .iter()
            .find(|f| f.message.contains("pick"))
            .unwrap();
        assert!(fdg.trace.iter().any(|s| s.contains("serve")), "{:?}", fdg.trace);
    }

    #[test]
    fn validation_kills_the_flow() {
        let src = "\
use std::net::TcpStream;
use std::io::Read;
pub fn serve(s: &mut TcpStream, table: &[u8]) -> u8 {
    let mut buf = [0u8; 8];
    s.read_exact(&mut buf).ok();
    let idx = buf[0] as usize;
    if idx >= table.len() {
        return 0;
    }
    table[idx]
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(
            !a.findings.iter().any(|f| f.message.contains("slice index")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn checked_arithmetic_and_min_launder() {
        let src = "\
use std::net::TcpStream;
use std::io::Read;
pub fn serve(s: &mut TcpStream) -> Vec<u8> {
    let mut head = [0u8; 4];
    s.read_exact(&mut head).ok();
    let len = u32::from_be_bytes(head) as usize;
    let capped = len.min(1024);
    vec![0u8; capped]
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(
            !a.findings.iter().any(|f| f.message.contains("allocation")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn unbounded_allocation_from_peer_length_is_flagged() {
        let src = "\
use std::net::TcpStream;
use std::io::Read;
pub fn serve(s: &mut TcpStream) -> Vec<u8> {
    let mut head = [0u8; 4];
    s.read_exact(&mut head).ok();
    let len = u32::from_be_bytes(head) as usize;
    vec![0u8; len]
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(
            a.findings
                .iter()
                .any(|f| f.message.contains("allocation sized by peer-controlled")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn unwrap_in_taint_reached_fn_is_flagged() {
        let src = "\
use std::net::TcpStream;
use std::io::Read;
pub fn serve(s: &mut TcpStream) -> u8 {
    let mut buf = [0u8; 8];
    s.read_exact(&mut buf).ok();
    decode(&buf)
}
fn decode(b: &[u8]) -> u8 {
    b.first().copied().unwrap()
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(
            a.findings
                .iter()
                .any(|f| f.message.contains(".unwrap()") && f.message.contains("decode")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn source_pragma_marks_a_queue_pop_as_root() {
        let src = "\
pub struct Inbox;
impl Inbox {
    // s2-lint: source(peer-input): frames in this queue were read off peer sockets
    pub fn pop(&self) -> Option<Vec<u8>> { None }
}
pub fn drain(inbox: &Inbox) {
    while let Some(frame) = inbox.pop() {
        let _ = frame[0];
    }
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(!a.roots.is_empty(), "pop should be a declared root");
        assert!(
            a.findings
                .iter()
                .any(|f| f.message.contains("peer-supplied buffer `frame`")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn sanitizer_pragma_launders_a_bounded_length() {
        let src = "\
use std::net::TcpStream;
use std::io::Read;
// s2-lint: sanitizer(alloc-bound): result is min-capped at 64 KiB
fn cap(n: usize) -> usize { if n > 65536 { 65536 } else { n } }
pub fn serve(s: &mut TcpStream) -> Vec<u8> {
    let mut head = [0u8; 4];
    s.read_exact(&mut head).ok();
    let len = u32::from_be_bytes(head) as usize;
    Vec::with_capacity(cap(len))
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(
            !a.findings.iter().any(|f| f.message.contains("with_capacity")),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn clean_crate_stays_clean() {
        let src = "\
pub fn add(a: u32, b: u32) -> u32 { a + b }
pub fn lookup(t: &[u8], i: usize) -> u8 { t[i % t.len()] }
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        assert!(a.active.is_empty());
    }

    #[test]
    fn emitter_files_enter_the_r2_scope() {
        let src = "\
pub fn encode(v: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_be_bytes());
}
";
        let ws = ws_files(&[("t", "crates/t/src/lib.rs", src)]);
        let a = analyze(&ws);
        assert!(a.scope_r2_files.contains(&0), "encoder file should be R2-scoped");
    }
}
