//! Hot-path allocation-reachability pass.
//!
//! Builds an intra-workspace call graph from the parsed files and walks it
//! breadth-first from the `[[hotpath]] root` entry points declared in
//! `lint.toml` (e.g. `SegmenterSession::frame`). Every function reachable
//! from a root is scanned for allocating constructs; each hit becomes an
//! `alloc-in-hot-path` finding carrying the discovered call chain, so the
//! steady-state streaming contract ("no allocation after frame 0") is
//! machine-checked rather than asserted in comments.
//!
//! Resolution model (documented approximations, see DESIGN.md §6c):
//!
//! * Method receivers are resolved through `self`, `self.field` chains,
//!   typed parameters, and locally bound `let x: T = ...` /
//!   `let x = T::new(...)` forms. A method call whose receiver cannot be
//!   resolved **and** whose name exists somewhere in the workspace is
//!   counted in `analyze.alloc.unresolved_calls` — a visible coverage
//!   hole, not a silent pass.
//! * `.clone()` is not treated as allocating (Copy clones dominate in the
//!   datapath); deep clones on hot paths must be caught by review.
//! * `[[hotpath]] stop` entries prune traversal (cold-start-only helpers
//!   such as `init_clusters`), each with a written reason.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::AnalyzerConfig;
use crate::dataflow::Workspace;
use crate::lexer::{Token, TokenKind};
use crate::parse::{parse_type, FnDef, Ty};
use crate::rules::Finding;

/// Coverage counters for the allocation pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Root fns resolved from `[[hotpath]]` entries.
    pub roots: usize,
    /// Functions reachable from the roots (stops excluded).
    pub reachable_fns: usize,
    /// Method calls with unresolvable receivers whose names exist in the
    /// workspace — possible missed edges.
    pub unresolved_calls: usize,
}

/// Method names that allocate on the standard containers.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "reserve",
    "reserve_exact",
    "resize",
    "split_off",
    "to_vec",
    "to_string",
    "into_owned",
    "collect",
];

/// `Type::constructor` paths that allocate.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("Arc", "make_mut"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("String", "new"),
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Runs the allocation-reachability pass.
pub fn check_alloc(ws: &Workspace, cfg: &AnalyzerConfig) -> (Vec<Finding>, AllocStats) {
    let mut findings = Vec::new();
    let mut stats = AllocStats::default();

    let stops: BTreeSet<String> = cfg
        .hotpaths
        .iter()
        .filter_map(|h| h.stop.clone())
        .collect();

    // Resolve roots. Keys into the graph are `(file_idx, fn_idx)`.
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut parent: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for h in &cfg.hotpaths {
        let Some(root) = &h.root else { continue };
        let mut matched = false;
        for &(fi, di) in candidates(ws, root) {
            let def = &ws.files[fi].fns[di];
            if qualifies(def, root) && !def.test_only && !def.body.is_empty() {
                if seen.insert((fi, di)) {
                    queue.push_back((fi, di));
                }
                matched = true;
            }
        }
        if matched {
            stats.roots += 1;
        } else {
            findings.push(Finding {
                file: "lint.toml".to_string(),
                line: h.line,
                rule: "hotpath-config",
                message: format!(
                    "[[hotpath]] root `{root}` does not resolve to any workspace fn"
                ),
                item: None,
            });
        }
    }

    // BFS, scanning each newly reached fn for allocation sites and edges.
    while let Some((fi, di)) = queue.pop_front() {
        let file = &ws.files[fi];
        let def = &file.fns[di];
        if stops.contains(&def.qualified()) || stops.contains(&def.name) {
            continue;
        }
        stats.reachable_fns += 1;
        let chain = call_chain(ws, &parent, (fi, di));
        scan_body(ws, fi, di, &chain, &mut findings, &mut stats);
        for callee in callees(ws, fi, di) {
            if seen.insert(callee) {
                parent.insert(callee, (fi, di));
                queue.push_back(callee);
            }
        }
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    (findings, stats)
}

/// All definitions that could satisfy a root spec (`Owner::name` or bare
/// `name`).
fn candidates<'a>(ws: &'a Workspace, spec: &str) -> &'a [(usize, usize)] {
    let name = spec.rsplit("::").next().unwrap_or(spec);
    ws.fns_named(name)
}

fn qualifies(def: &FnDef, spec: &str) -> bool {
    def.qualified() == spec || def.name == spec
}

/// Renders `root -> ... -> here` for finding messages.
fn call_chain(
    ws: &Workspace,
    parent: &BTreeMap<(usize, usize), (usize, usize)>,
    mut at: (usize, usize),
) -> String {
    let mut names = vec![ws.files[at.0].fns[at.1].qualified()];
    let mut hops = 0;
    while let Some(&p) = parent.get(&at) {
        names.push(ws.files[p.0].fns[p.1].qualified());
        at = p;
        hops += 1;
        if hops > 64 {
            break;
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// Local `name -> type name` map for receiver resolution: parameters plus
/// simple `let` bindings (`let x: T`, `let x = T::new(..)`, `let x = T {`).
fn local_types(ws: &Workspace, fi: usize, di: usize) -> BTreeMap<String, String> {
    let file = &ws.files[fi];
    let def = &file.fns[di];
    let mut map = BTreeMap::new();
    for (name, ty) in &def.params {
        if let Ty::Path { name: tn, .. } = ty.deref_smart() {
            map.insert(name.clone(), tn.clone());
        }
    }
    let toks = &file.tokens;
    let body = def.body.clone();
    let mut i = body.start;
    while i < body.end {
        if toks[i].is_ident("let") {
            // `let [mut] name [: Ty] = RHS ;`
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.is_ident("mut") || t.is_ident("ref")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                let name = toks[j].text.clone();
                if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    let (ty, _) = parse_type(&toks[j + 2..body.end.min(toks.len())]);
                    if let Ty::Path { name: tn, .. } = ty.deref_smart() {
                        map.insert(name, tn.clone());
                    }
                } else if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    // `Type::ctor(...)` or `Type { ... }`.
                    let k = j + 2;
                    if toks.get(k).is_some_and(|t| {
                        t.kind == TokenKind::Ident
                            && t.text.chars().next().is_some_and(char::is_uppercase)
                    }) {
                        let follows_path = toks.get(k + 1).is_some_and(|t| t.is_punct(':'));
                        let follows_brace = toks.get(k + 1).is_some_and(|t| t.is_punct('{'));
                        if follows_path || follows_brace {
                            map.insert(name, toks[k].text.clone());
                        }
                    }
                }
            }
        }
        i += 1;
    }
    map
}

/// Walks back from the `.` before a method name, resolving the receiver
/// chain (`a.b.c` / `self.field`, with `[..]` index steps) to a type name.
fn resolve_receiver(
    ws: &Workspace,
    toks: &[Token],
    dot: usize,
    owner: Option<&str>,
    locals: &BTreeMap<String, String>,
) -> Option<String> {
    // Collect the chain right-to-left: idents separated by '.', allowing
    // one-or-more `[...]` index groups after an ident.
    #[derive(Debug)]
    enum Step {
        Field(String),
        Index,
    }
    let mut steps: Vec<Step> = Vec::new();
    let mut i = dot; // points at the '.' before the method name
    let base = loop {
        if i == 0 {
            return None;
        }
        let prev = &toks[i - 1];
        if prev.is_punct(']') {
            // Skip the index group.
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if toks[j].is_punct(']') {
                    depth += 1;
                } else if toks[j].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            steps.push(Step::Index);
            i = j;
            continue;
        }
        if prev.kind == TokenKind::Ident {
            // Is there another '.' before it?
            if i >= 2 && toks[i - 2].is_punct('.') {
                steps.push(Step::Field(prev.text.clone()));
                i -= 2;
                continue;
            }
            break prev.text.clone();
        }
        return None;
    };
    steps.reverse();

    let mut ty: Ty = if base == "self" {
        Ty::Path { name: owner?.to_string(), args: Vec::new() }
    } else if let Some(tn) = locals.get(&base) {
        Ty::Path { name: tn.clone(), args: Vec::new() }
    } else {
        return None;
    };
    for step in steps {
        ty = match step {
            Step::Field(f) => {
                let Ty::Path { name, .. } = ty.deref_smart() else {
                    return None;
                };
                ws.field_ty(name, &f)?
            }
            Step::Index => ty.deref_smart().element(),
        };
    }
    match ty.deref_smart() {
        Ty::Path { name, .. } => Some(name.clone()),
        _ => None,
    }
}

/// Direct callees of a fn, resolved within the workspace.
fn callees(ws: &Workspace, fi: usize, di: usize) -> Vec<(usize, usize)> {
    let file = &ws.files[fi];
    let def = &file.fns[di];
    let toks = &file.tokens;
    let locals = local_types(ws, fi, di);
    let mut out: BTreeSet<(usize, usize)> = BTreeSet::new();
    let body = def.body.clone();
    for i in body.clone() {
        if file.exempt.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let name = t.text.as_str();
        if i > body.start && toks[i - 1].is_punct('.') {
            // Method call.
            if let Some(owner) =
                resolve_receiver(ws, toks, i - 1, def.owner.as_deref(), &locals)
            {
                if let Some(hit) = lookup(ws, Some(&owner), name) {
                    out.insert(hit);
                }
            }
            continue;
        }
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            // Path call `A::name(...)` (enum variants simply miss).
            if i >= 3 && toks[i - 3].kind == TokenKind::Ident {
                let owner = toks[i - 3].text.as_str();
                let owner = if owner == "Self" {
                    def.owner.as_deref().unwrap_or(owner)
                } else {
                    owner
                };
                if let Some(hit) = lookup(ws, Some(owner), name) {
                    out.insert(hit);
                }
            }
            continue;
        }
        // Free call (also covers fn items referenced then called through
        // locals only when named directly).
        if let Some(hit) = lookup(ws, None, name) {
            out.insert(hit);
        }
    }
    // A fn-pointer passed by name (`run(assign_band)`) has no call parens;
    // cover the workspace idiom where kernels are dispatched indirectly by
    // requiring explicit [[hotpath]] roots instead (see lint.toml).
    out.into_iter().collect()
}

/// `(owner, name)` lookup returning graph coordinates.
fn lookup(ws: &Workspace, owner: Option<&str>, name: &str) -> Option<(usize, usize)> {
    let (fi, def) = ws.resolve_fn(owner, name)?;
    let di = ws.files[fi].fns.iter().position(|d| std::ptr::eq(d, def))?;
    Some((fi, di))
}

/// Scans one reached fn for allocating constructs.
fn scan_body(
    ws: &Workspace,
    fi: usize,
    di: usize,
    chain: &str,
    findings: &mut Vec<Finding>,
    stats: &mut AllocStats,
) {
    let file = &ws.files[fi];
    let def = &file.fns[di];
    let toks = &file.tokens;
    let locals = local_types(ws, fi, di);
    for i in def.body.clone() {
        if file.exempt.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        // Allocating macro: `vec![...]`, `format!(...)`.
        if ALLOC_MACROS.contains(&name) && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            findings.push(alloc_finding(file, def, t.line, &format!("`{name}!`"), chain));
            continue;
        }
        // Allocating path: `Vec::with_capacity(...)`, `Box::new(...)`.
        if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.kind == TokenKind::Ident)
        {
            let method = toks[i + 3].text.as_str();
            if ALLOC_PATHS.contains(&(name, method)) {
                findings.push(alloc_finding(
                    file,
                    def,
                    t.line,
                    &format!("`{name}::{method}`"),
                    chain,
                ));
            }
            continue;
        }
        // Allocating method: `.push(...)` etc.
        if i > def.body.start
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if ALLOC_METHODS.contains(&name) {
                findings.push(alloc_finding(file, def, t.line, &format!("`.{name}(..)`"), chain));
            } else if !ws.fns_named(name).is_empty()
                && resolve_receiver(ws, toks, i - 1, def.owner.as_deref(), &locals).is_none()
            {
                // A workspace fn of this name exists but the receiver is
                // opaque: a possible missed edge, counted not hidden.
                stats.unresolved_calls += 1;
            }
        }
    }
}

fn alloc_finding(
    file: &crate::parse::ParsedFile,
    def: &FnDef,
    line: u32,
    what: &str,
    chain: &str,
) -> Finding {
    Finding {
        file: file.path.clone(),
        line,
        rule: "alloc-in-hot-path",
        message: format!("{what} allocates on the steady-state path {chain}"),
        item: Some(def.name.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn run(src: &str, cfg_src: &str) -> (Vec<Finding>, AllocStats) {
        let file = parse_file("crates/core/src/t.rs", lex(src));
        let ws = Workspace::new(vec![file]);
        let cfg = AnalyzerConfig::parse(cfg_src).expect("valid test config");
        check_alloc(&ws, &cfg)
    }

    const ROOT: &str = "[[hotpath]]\nroot = \"S::hot\"\nreason = \"test root\"\n";

    #[test]
    fn reachable_allocation_is_flagged_with_chain() {
        let src = "struct S;\n\
                   impl S {\n\
                     fn hot(&self) { self.helper(); }\n\
                     fn helper(&self) { let mut v = Vec::with_capacity(4); v.push(1); }\n\
                   }";
        let (f, s) = run(src, ROOT);
        assert_eq!(s.roots, 1);
        assert_eq!(s.reachable_fns, 2);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("S::hot -> S::helper"), "{}", f[0].message);
        assert_eq!(f[0].rule, "alloc-in-hot-path");
    }

    #[test]
    fn unreachable_allocation_is_silent() {
        let src = "struct S;\n\
                   impl S {\n\
                     fn hot(&self) -> u32 { 1 }\n\
                     fn cold(&self) { let _b = Box::new(1); }\n\
                   }";
        let (f, s) = run(src, ROOT);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(s.reachable_fns, 1);
    }

    #[test]
    fn stops_prune_traversal() {
        let src = "struct S;\n\
                   impl S {\n\
                     fn hot(&self) { self.ledger(); }\n\
                     fn ledger(&self) { let _v = vec![1, 2]; }\n\
                   }";
        let with_stop = format!(
            "{ROOT}[[hotpath]]\nstop = \"S::ledger\"\nreason = \"frame-0 inventory\"\n"
        );
        let (f, _) = run(src, &with_stop);
        assert!(f.is_empty(), "{f:?}");
        let (f, _) = run(src, ROOT);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn unresolved_roots_are_hard_findings() {
        let (f, s) = run("fn other() {}", ROOT);
        assert_eq!(s.roots, 0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hotpath-config");
        assert_eq!(f[0].file, "lint.toml");
    }

    #[test]
    fn receivers_resolve_through_fields_and_locals() {
        let src = "struct Inner;\n\
                   impl Inner { fn alloc_here(&self) { let _v = vec![0u8]; } }\n\
                   struct S { inner: Inner }\n\
                   impl S { fn hot(&self) { self.inner.alloc_here(); } }";
        let (f, _) = run(src, ROOT);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("S::hot -> Inner::alloc_here"));
    }

    #[test]
    fn cfg_test_code_inside_bodies_is_exempt() {
        let src = "struct S;\n\
                   impl S { fn hot(&self) -> u32 { 2 } }\n\
                   #[cfg(test)]\nmod t { fn x() { let _v = vec![1]; } }";
        let (f, _) = run(src, ROOT);
        assert!(f.is_empty(), "{f:?}");
    }
}
