//! The repo-specific token-level invariants, checked over token streams.
//!
//! | rule id             | scope                       | what it flags |
//! |---------------------|-----------------------------|---------------|
//! | `float-in-datapath` | designated datapath modules | `f32`/`f64` tokens and float literals |
//! | `no-panic`          | all library source          | `panic!`, `todo!`, `unimplemented!`, `.unwrap()`, `.expect(` |
//! | `forbid-unsafe`     | crate roots                 | missing `#![forbid(unsafe_code)]` |
//! | `narrowing-cast`    | designated datapath modules | bare `as u8` / `as i8` / `as i16` |
//! | `nondeterminism`    | determinism-critical modules | wall-clock reads, hash-order iteration, thread ids, pointer-to-int |
//!
//! The dataflow passes (`overflow-range`, `alloc-in-hot-path`, …) live in
//! [`crate::dataflow`] and [`crate::callgraph`]; this module holds the
//! purely token-window rules plus the [`Finding`] type they all share.
//!
//! Scoping rules:
//!
//! * Code under `#[cfg(test)]` (including `#[cfg(any(test, ..))]` but not
//!   `#[cfg(not(test))]`) is exempt from everything except `forbid-unsafe`.
//! * `tests/`, `benches/`, `examples/`, `src/bin/` and `fixtures/` trees
//!   are not library source — the panic rules do not apply there.
//! * The datapath module list is a hardcoded policy (see [`DATAPATH_FILES`]):
//!   the cycle-level hardware units, the center-update divider and the
//!   LUT colour conversion.
//!   The quantizer/LUT-builder modules of `sslic-fixed` are deliberately
//!   excluded — their whole purpose is the float↔fixed boundary.

use crate::lexer::{lex, Token, TokenKind};

/// Files that model the silicon datapath and must stay float-free.
///
/// Matched by path suffix. `crates/fixed/src/{lut,quant}.rs` are the
/// sanctioned float↔fixed boundary and are intentionally absent.
pub const DATAPATH_FILES: &[&str] = &[
    "crates/hw/src/cluster.rs",
    "crates/hw/src/pipeline.rs",
    "crates/hw/src/dma.rs",
    "crates/hw/src/scratchpad.rs",
    "crates/fixed/src/div.rs",
    // The quantized colour conversion: per pixel it is gamma-LUT reads, an
    // integer matrix and table reads; only its table builder (`new`) is
    // allowed floats, as the float→fixed boundary.
    "crates/color/src/hw.rs",
    "crates/fault/src/plan.rs",
    "crates/fault/src/inject.rs",
    // Observability clocks and metrics are integer-only by contract: a
    // float anywhere in them could leak nondeterministic formatting into
    // byte-diffed traces.
    "crates/obs/src/clock.rs",
    "crates/obs/src/metrics.rs",
    // Telemetry percentiles/exposition render into byte-compared output
    // (CI diffs the Prometheus text across thread counts), so the whole
    // module is integer-only: rank math is u128, boundaries are u64.
    "crates/obs/src/telemetry.rs",
    // Recovery decisions and the center-table checksum must be pure
    // integer arithmetic: a float anywhere in them could make retry
    // ladders diverge across thread counts or toolchains.
    "crates/core/src/recovery.rs",
];

/// One rule violation (pre-allowlist).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule id (e.g. `no-panic`).
    pub rule: &'static str,
    /// Human-readable diagnostic.
    pub message: String,
    /// Enclosing fn/const/static name, when one exists — the hook for
    /// item-scoped allowlist entries.
    pub item: Option<String>,
}

impl Finding {
    /// Renders the canonical `file:line: rule: message` diagnostic.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Files where reproducibility is contractual: everything that feeds the
/// byte-diffed traces, the segmentation result, or the cycle model. The
/// `nondeterminism` rule applies here.
pub const DETERMINISM_FILES: &[&str] = &[
    "crates/core/src/session.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/parallel.rs",
    "crates/core/src/connectivity.rs",
    "crates/core/src/profile.rs",
];

/// Files whose arithmetic the overflow/interval pass analyzes: the
/// fixed-point kernels plus the PPA distance scan and sigma-fold loops.
pub const OVERFLOW_FILES: &[&str] = &[
    "crates/core/src/distance.rs",
    "crates/core/src/kernel.rs",
    "crates/core/src/session.rs",
    "crates/core/src/recovery.rs",
    "crates/core/src/subsample.rs",
];

/// How a file participates in rule checking, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// Library source: panics are forbidden here.
    pub library: bool,
    /// A crate root (`src/lib.rs`): must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// A datapath module: floats and bare narrowing casts are forbidden.
    pub datapath: bool,
    /// Determinism-critical: wall-clock and hash-order constructs are
    /// forbidden (datapath + trace/engine/session modules).
    pub determinism: bool,
    /// In scope for the interval/overflow dataflow pass.
    pub overflow: bool,
}

fn suffix_match(path: &str, list: &[&str]) -> bool {
    list.iter().any(|d| path == *d || path.ends_with(&format!("/{d}")))
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let segment = |s: &str| path.starts_with(&format!("{s}/")) || path.contains(&format!("/{s}/"));
    let non_library_tree =
        segment("tests") || segment("benches") || segment("examples") || segment("fixtures");
    let binary = segment("bin") || path.ends_with("/main.rs") || path == "src/main.rs";
    let in_src = segment("src");
    let datapath = suffix_match(path, DATAPATH_FILES);
    let in_obs = path.contains("crates/obs/src/");
    FileClass {
        library: in_src && !non_library_tree && !binary,
        crate_root: path.ends_with("src/lib.rs"),
        datapath,
        determinism: datapath || in_obs || suffix_match(path, DETERMINISM_FILES),
        overflow: path.contains("crates/fixed/src/") || suffix_match(path, OVERFLOW_FILES),
    }
}

/// Runs every applicable rule over one file's source text.
pub fn check_file(path: &str, source: &str) -> Vec<Finding> {
    let class = classify(path);
    let tokens = lex(source);
    let mut findings = Vec::new();

    if class.crate_root && !has_forbid_unsafe(&tokens) {
        findings.push(Finding {
            file: path.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            item: None,
        });
    }

    if !class.library && !class.datapath && !class.determinism {
        return findings;
    }

    let exempt = test_exempt_flags(&tokens);
    let mut items = ItemTracker::default();

    for i in 0..tokens.len() {
        items.observe(&tokens, i);
        if exempt[i] {
            continue;
        }
        let tok = &tokens[i];
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        let next = tokens.get(i + 1);

        if class.datapath {
            float_rule(path, tok, &items, &mut findings);
            narrowing_rule(path, tok, prev, next, &items, &mut findings);
        }
        if class.library {
            panic_rule(path, tok, prev, next, &items, &mut findings);
        }
        if class.determinism {
            determinism_rule(path, &tokens, i, &items, &mut findings);
        }
    }
    findings
}

/// Flags constructs whose observable behavior varies run-to-run: wall-clock
/// reads, hash-order-dependent containers, thread identity, and
/// pointer-to-integer casts. Any of these inside trace- or result-producing
/// code breaks the byte-identical replay contract.
fn determinism_rule(
    path: &str,
    tokens: &[Token],
    i: usize,
    items: &ItemTracker,
    out: &mut Vec<Finding>,
) {
    let tok = &tokens[i];
    if tok.kind != TokenKind::Ident {
        return;
    }
    let at = |off: usize| tokens.get(i + off);
    let path_call = |seg: &str| {
        at(1).is_some_and(|t| t.is_punct(':'))
            && at(2).is_some_and(|t| t.is_punct(':'))
            && at(3).is_some_and(|t| t.is_ident(seg))
    };
    let what: Option<String> = match tok.text.as_str() {
        // `Instant::now` / `SystemTime::now` — the `:: now` requirement
        // keeps `EventKind::Instant`-style enum variants out of scope.
        "Instant" | "SystemTime" if path_call("now") => {
            Some(format!("`{}::now()` reads the wall clock", tok.text))
        }
        "thread" if path_call("current") => {
            Some("`thread::current()` exposes runtime thread identity".to_string())
        }
        "elapsed"
            if i > 0
                && tokens[i - 1].is_punct('.')
                && at(1).is_some_and(|t| t.is_punct('(')) =>
        {
            Some("`.elapsed()` reads the wall clock".to_string())
        }
        "HashMap" | "HashSet" | "RandomState" | "DefaultHasher" | "ThreadId" => Some(format!(
            "`{}` has run-dependent iteration/hash order; use the BTree equivalents",
            tok.text
        )),
        "as_ptr" | "as_mut_ptr"
            if i > 0
                && tokens[i - 1].is_punct('.')
                && at(1).is_some_and(|t| t.is_punct('('))
                && at(2).is_some_and(|t| t.is_punct(')'))
                && at(3).is_some_and(|t| t.is_ident("as")) =>
        {
            Some(format!("`.{}() as …` leaks allocator addresses", tok.text))
        }
        _ => None,
    };
    if let Some(what) = what {
        out.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "nondeterminism",
            message: format!(
                "{what}; determinism-critical code must be bit-reproducible across runs"
            ),
            item: items.current(),
        });
    }
}

fn float_rule(path: &str, tok: &Token, items: &ItemTracker, out: &mut Vec<Finding>) {
    let flagged = match tok.kind {
        TokenKind::Ident => tok.text == "f32" || tok.text == "f64",
        TokenKind::Number { is_float } => is_float,
        _ => false,
    };
    if flagged {
        out.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "float-in-datapath",
            message: format!(
                "float token `{}` in a fixed-point datapath module; hardware-faithful \
                 arithmetic must be integer arithmetic",
                tok.text
            ),
            item: items.current(),
        });
    }
}

fn narrowing_rule(
    path: &str,
    tok: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    items: &ItemTracker,
    out: &mut Vec<Finding>,
) {
    // Match the *target* token of `as u8` so the reported line/item is the
    // cast's, then verify the preceding token is the `as` keyword.
    let narrow = tok.kind == TokenKind::Ident && matches!(tok.text.as_str(), "u8" | "i8" | "i16");
    if narrow && prev.is_some_and(|p| p.is_ident("as")) {
        // `as u8 as u32` widens right back; still flag — the intermediate
        // truncation is exactly the silent-wraparound hazard.
        let _ = next;
        out.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "narrowing-cast",
            message: format!(
                "bare narrowing cast `as {}` in the datapath; use the saturating \
                 conversion helpers of the quantizer modules",
                tok.text
            ),
            item: items.current(),
        });
    }
}

fn panic_rule(
    path: &str,
    tok: &Token,
    prev: Option<&Token>,
    next: Option<&Token>,
    items: &ItemTracker,
    out: &mut Vec<Finding>,
) {
    if tok.kind != TokenKind::Ident {
        return;
    }
    let found = match tok.text.as_str() {
        "panic" | "todo" | "unimplemented" if next.is_some_and(|n| n.is_punct('!')) => {
            Some(format!("`{}!` aborts the process", tok.text))
        }
        "unwrap" | "expect"
            if prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('(')) =>
        {
            Some(format!("`.{}(..)` panics on the error path", tok.text))
        }
        _ => None,
    };
    if let Some(what) = found {
        out.push(Finding {
            file: path.to_string(),
            line: tok.line,
            rule: "no-panic",
            message: format!("{what}; library code must return typed errors or documented fallbacks"),
            item: items.current(),
        });
    }
}

/// True when the token stream carries a crate-level `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Marks which token indices fall inside `#[cfg(test)]`-gated items.
pub(crate) fn test_exempt_flags(tokens: &[Token]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Collect the attribute token range `#[ ... ]` (brackets nest).
        let attr_start = i;
        let mut j = i + 2;
        let mut depth = 1;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        let attr = &tokens[attr_start + 2..j.saturating_sub(1)];
        if !attr_is_test_gate(attr) {
            i = j;
            continue;
        }
        // Exempt the attribute plus the item it annotates: up to a `;`
        // at item level, or through the matching `}` of its first block.
        let mut k = j;
        let mut brace_depth = 0usize;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('{') {
                brace_depth += 1;
            } else if t.is_punct('}') {
                brace_depth -= 1;
                if brace_depth == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct(';') && brace_depth == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        for flag in exempt.iter_mut().take(k).skip(attr_start) {
            *flag = true;
        }
        i = k;
    }
    exempt
}

/// Does an attribute body (`cfg(test)`, `test`, `cfg(any(test, feature =
/// ".."))`, …) gate its item to test builds?
fn attr_is_test_gate(attr: &[Token]) -> bool {
    let mentions_test = attr.iter().any(|t| t.is_ident("test"));
    if !mentions_test {
        return false;
    }
    // `#[cfg(not(test))]` compiles *out* of tests — not a gate.
    if attr.iter().any(|t| t.is_ident("not")) {
        return false;
    }
    match attr.first() {
        Some(t) if t.is_ident("test") && attr.len() == 1 => true,
        Some(t) => t.is_ident("cfg") || t.is_ident("cfg_attr"),
        None => false,
    }
}

/// Tracks the innermost enclosing named item (fn/const/static) so findings
/// can be narrowed by the allowlist's `item` key.
#[derive(Debug, Default)]
struct ItemTracker {
    brace_depth: usize,
    /// Open fn bodies: (name, depth of the body's opening brace).
    fn_stack: Vec<(String, usize)>,
    /// A `fn name` seen but whose body `{` has not opened yet.
    pending_fn: Option<String>,
    /// A const/static item awaiting its terminating `;`: (name, depth).
    current_const: Option<(String, usize)>,
}

impl ItemTracker {
    /// Feeds token `i`; must be called for every index in order.
    fn observe(&mut self, tokens: &[Token], i: usize) {
        let tok = &tokens[i];
        match &tok.kind {
            TokenKind::Ident if tok.text == "fn" => {
                if let Some(next) = tokens.get(i + 1) {
                    if next.kind == TokenKind::Ident {
                        self.pending_fn = Some(next.text.clone());
                    }
                }
            }
            TokenKind::Ident if tok.text == "const" || tok.text == "static" => {
                // `const fn` / `static mut` are not named yet at this token;
                // the name ident follows. Skip helper keywords.
                let mut n = i + 1;
                while tokens.get(n).is_some_and(|t| t.is_ident("mut") || t.is_ident("fn")) {
                    if tokens[n].is_ident("fn") {
                        return; // handled by the `fn` arm at that index
                    }
                    n += 1;
                }
                if let Some(name) = tokens.get(n) {
                    // Ignore `const` in generic positions (`const N: usize`
                    // inside `<>`) — close enough for allowlisting purposes.
                    if name.kind == TokenKind::Ident {
                        self.current_const = Some((name.text.clone(), self.brace_depth));
                    }
                }
            }
            TokenKind::Punct('{') => {
                self.brace_depth += 1;
                if let Some(name) = self.pending_fn.take() {
                    self.fn_stack.push((name, self.brace_depth));
                }
            }
            TokenKind::Punct('}') => {
                self.brace_depth = self.brace_depth.saturating_sub(1);
                while self
                    .fn_stack
                    .last()
                    .is_some_and(|(_, depth)| *depth > self.brace_depth)
                {
                    self.fn_stack.pop();
                }
            }
            TokenKind::Punct(';') => {
                if self
                    .current_const
                    .as_ref()
                    .is_some_and(|(_, depth)| *depth == self.brace_depth)
                {
                    self.current_const = None;
                }
                // A `;` before any `{` ends a bodiless fn declaration.
                self.pending_fn = None;
            }
            _ => {}
        }
    }

    /// Name of the innermost enclosing item, if any. Signature tokens of a
    /// not-yet-opened fn (`pending_fn`) belong to that fn.
    fn current(&self) -> Option<String> {
        self.pending_fn
            .clone()
            .or_else(|| self.fn_stack.last().map(|(name, _)| name.clone()))
            .or_else(|| self.current_const.as_ref().map(|(name, _)| name.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<(&'static str, u32, Option<String>)> {
        check_file(path, src)
            .into_iter()
            .map(|f| (f.rule, f.line, f.item))
            .collect()
    }

    const DATAPATH: &str = "crates/hw/src/cluster.rs";

    #[test]
    fn float_ident_and_literal_fire_in_datapath() {
        let src = "#![forbid(unsafe_code)]\nfn a() -> f32 { 1.5 }\n";
        let fired = rules_fired(DATAPATH, src);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0], ("float-in-datapath", 2, Some("a".into())));
        assert_eq!(fired[1], ("float-in-datapath", 2, Some("a".into())));
    }

    #[test]
    fn floats_outside_datapath_are_fine() {
        assert!(rules_fired("crates/hw/src/model.rs", "fn a() -> f64 { 2.5 }").is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n  fn x() { let _: f32 = 1.0; }\n}\n";
        assert!(rules_fired(DATAPATH, src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn x() { let _ = 1.0; }\n";
        assert_eq!(rules_fired(DATAPATH, src).len(), 1);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// f32 f64 1.5 unwrap()\nfn a() { let _ = \"f32 .unwrap()\"; }\n";
        assert!(rules_fired(DATAPATH, src).is_empty());
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn panic_family_fires_in_library_code() {
        let src = "fn a() { panic!(\"x\") }\nfn b() { x.unwrap() }\nfn c() { y.expect(\"z\") }\nfn d() { todo!() }\n";
        let fired = rules_fired("crates/core/src/engine.rs", src);
        assert_eq!(fired.len(), 4);
        assert!(fired.iter().all(|(rule, ..)| *rule == "no-panic"));
        assert_eq!(fired[1].2, Some("b".into()));
    }

    #[test]
    fn unwrap_or_and_expect_err_do_not_fire() {
        let src = "fn a() { x.unwrap_or(0); x.unwrap_or_else(f); r.expect_err(\"e\"); }\n";
        assert!(rules_fired("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn tests_and_bins_are_not_library_source() {
        let src = "fn a() { x.unwrap() }\n";
        assert!(rules_fired("crates/core/tests/props.rs", src).is_empty());
        assert!(rules_fired("src/bin/sslic.rs", src).is_empty());
        assert!(rules_fired("examples/quickstart.rs", src).is_empty());
    }

    #[test]
    fn missing_forbid_unsafe_fires_on_crate_roots_only() {
        let fired = rules_fired("crates/core/src/lib.rs", "pub mod x;\n");
        assert_eq!(fired, vec![("forbid-unsafe", 1, None)]);
        assert!(rules_fired("crates/core/src/x.rs", "pub fn y() {}\n").is_empty());
        let ok = "#![forbid(unsafe_code)]\npub mod x;\n";
        assert!(rules_fired("crates/core/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn narrowing_casts_fire_only_in_datapath() {
        let src = "fn a(v: u32) -> u8 { v as u8 }\n";
        let fired = rules_fired(DATAPATH, src);
        assert_eq!(fired, vec![("narrowing-cast", 1, Some("a".into()))]);
        assert!(rules_fired("crates/core/src/grid.rs", src).is_empty());
    }

    #[test]
    fn widening_casts_do_not_fire() {
        let src = "fn a(v: u8) -> u64 { v as u64 }\nfn b(v: u16) -> u32 { v as u32 }\n";
        assert!(rules_fired(DATAPATH, src).is_empty());
    }

    #[test]
    fn const_items_are_named_for_allowlisting() {
        let src = "pub const SIGMA: f64 = 54.0;\n";
        let fired = check_file(DATAPATH, src);
        assert_eq!(fired.len(), 2); // `f64` ident + float literal
        assert!(fired.iter().all(|f| f.item.as_deref() == Some("SIGMA")));
    }

    #[test]
    fn wall_clock_and_hash_order_fire_in_determinism_scope() {
        let src = "fn a() { let t = Instant::now(); let _ = t.elapsed(); }\n\
                   fn b() { let m: HashMap<u32, u32> = HashMap::new(); }\n\
                   fn c() { let id = thread::current().id(); }\n";
        let fired = rules_fired("crates/core/src/connectivity.rs", src);
        let nondet: Vec<_> = fired.iter().filter(|(r, ..)| *r == "nondeterminism").collect();
        assert_eq!(nondet.len(), 5, "{fired:?}"); // now, elapsed, 2×HashMap, thread::current
        assert!(rules_fired("crates/core/src/grid.rs", src)
            .iter()
            .all(|(r, ..)| *r != "nondeterminism"));
    }

    #[test]
    fn enum_variants_named_instant_do_not_fire() {
        let src = "fn a() -> EventKind { EventKind::Instant }\n";
        assert!(rules_fired("crates/obs/src/trace.rs", src).is_empty());
    }

    #[test]
    fn pointer_to_int_casts_fire() {
        let src = "fn a(v: &[u8]) -> usize { v.as_ptr() as usize }\n";
        let fired = rules_fired("crates/core/src/session.rs", src);
        assert!(fired.iter().any(|(r, ..)| *r == "nondeterminism"), "{fired:?}");
        // Plain `.as_ptr()` without an int cast is fine (FFI-free slices).
        let ok = "fn a(v: &[u8]) { other(v.as_ptr()); }\n";
        assert!(rules_fired("crates/core/src/session.rs", ok).is_empty());
    }

    #[test]
    fn item_attribution_survives_nesting() {
        let src = "fn outer() {\n  fn inner() { let _ = 0.5; }\n  let _ = 1.5;\n}\n";
        let fired = check_file(DATAPATH, src);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].item.as_deref(), Some("inner"));
        assert_eq!(fired[1].item.as_deref(), Some("outer"));
    }
}
