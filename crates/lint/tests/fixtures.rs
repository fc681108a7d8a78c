//! Integration tests: every rule and dataflow pass fires on its seeded
//! fixture, clean fixtures produce zero false positives, and the JSON and
//! SARIF reports are byte-for-byte stable (snapshots under
//! `tests/fixtures/snapshots/`, regenerated with `BLESS=1 cargo test`).
//! Fixtures live in `tests/fixtures/` (a directory name the workspace
//! walker skips, so the seeded violations never leak into a real run).

use std::fs;
use std::path::{Path, PathBuf};

use sslic_analyze::config::AnalyzerConfig;
use sslic_analyze::rules::{check_file, Finding};
use sslic_analyze::{analyze_workspace, report};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

/// Materializes `(relative_path, contents)` pairs into a scratch tree and
/// returns its root. `tag` keeps concurrently running tests apart.
fn scratch_tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sslic-analyze-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    for (rel, body) in files {
        let path = dir.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, body).expect("write fixture file");
    }
    dir
}

/// Compares `actual` against a checked-in snapshot, byte for byte.
/// `BLESS=1` rewrites the snapshot instead.
fn assert_snapshot(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/snapshots")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir snapshots");
        fs::write(&path, actual).expect("bless snapshot");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e}); run BLESS=1 cargo test", name));
    assert_eq!(
        expected, actual,
        "snapshot `{name}` differs; rerun with BLESS=1 if the change is intended"
    );
}

// --- token rules -----------------------------------------------------------

#[test]
fn float_rule_fires_in_datapath_and_skips_tests() {
    let src = fixture("float_in_datapath.rs");
    let findings = check_file("crates/hw/src/cluster.rs", &src);
    let floats: Vec<_> = findings.iter().filter(|f| f.rule == "float-in-datapath").collect();
    assert_eq!(floats.len(), 2, "exactly the two seeded sites: {findings:?}");
    assert_eq!(floats[0].line, 10);
    assert_eq!(floats[0].item.as_deref(), Some("leaky_distance"));
    assert_eq!(floats[1].line, 15);
    assert_eq!(floats[1].item.as_deref(), Some("LEAKY_SCALE"));
}

#[test]
fn float_rule_is_silent_outside_the_datapath() {
    let src = fixture("float_in_datapath.rs");
    let findings = check_file("crates/metrics/src/suite.rs", &src);
    assert!(
        rules_of(&findings).iter().all(|r| *r != "float-in-datapath"),
        "metrics code may use floats: {findings:?}"
    );
}

#[test]
fn no_panic_rule_fires_on_each_panic_flavor() {
    let src = fixture("unwrap_in_lib.rs");
    let findings = check_file("crates/core/src/whatever.rs", &src);
    let panics: Vec<_> = findings.iter().filter(|f| f.rule == "no-panic").collect();
    assert_eq!(panics.len(), 4, "unwrap, expect, panic!, todo!: {findings:?}");
    assert_eq!(
        panics.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![6, 11, 16, 21]
    );
}

#[test]
fn test_gated_fields_end_at_their_enclosing_brace() {
    // A gated field with no trailing comma ends at the `}` of its struct or
    // struct literal; the exempt region must stop there, so the library
    // code after each one is still checked.
    let src = fixture("test_gated_fields.rs");
    let findings = check_file("crates/core/src/whatever.rs", &src);
    assert_eq!(
        findings.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
        vec![("no-panic", 14), ("no-panic", 24)],
        "{findings:?}"
    );
}

#[test]
fn no_panic_rule_ignores_tests_benches_and_bins() {
    let src = fixture("unwrap_in_lib.rs");
    for path in [
        "crates/core/tests/integration.rs",
        "crates/bench/benches/kernels.rs",
        "crates/bench/src/bin/table3.rs",
        "src/main.rs",
    ] {
        let findings = check_file(path, &src);
        assert!(findings.is_empty(), "{path} must be exempt: {findings:?}");
    }
}

#[test]
fn forbid_unsafe_rule_fires_only_on_crate_roots() {
    let src = fixture("missing_forbid.rs");
    let findings = check_file("crates/demo/src/lib.rs", &src);
    assert_eq!(rules_of(&findings), vec!["forbid-unsafe"]);
    // The same content as a non-root module is fine.
    let findings = check_file("crates/demo/src/helper.rs", &src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn narrowing_rule_fires_in_datapath_only() {
    let src = fixture("narrowing_cast.rs");
    let findings = check_file("crates/hw/src/pipeline.rs", &src);
    let narrows: Vec<_> = findings.iter().filter(|f| f.rule == "narrowing-cast").collect();
    assert_eq!(narrows.len(), 2, "{findings:?}");
    assert_eq!(narrows[0].line, 7);
    assert_eq!(narrows[1].line, 12);
    // Outside the datapath the same casts are allowed.
    let findings = check_file("crates/image/src/rgb.rs", &src);
    assert!(rules_of(&findings).iter().all(|r| *r != "narrowing-cast"));
}

#[test]
fn nondeterminism_fixture_fires_in_determinism_scope_only() {
    let src = fixture("nondet.rs");
    let findings = check_file("crates/core/src/connectivity.rs", &src);
    let nondet: Vec<_> = findings.iter().filter(|f| f.rule == "nondeterminism").collect();
    assert_eq!(nondet.len(), 3, "Instant::now, .elapsed, HashSet: {findings:?}");
    assert_eq!(nondet[0].item.as_deref(), Some("timed"));
    assert_eq!(nondet[2].item.as_deref(), Some("hashed"));
    // The same content at an unscoped path is silent.
    let findings = check_file("crates/core/src/grid.rs", &src);
    assert!(
        rules_of(&findings).iter().all(|r| *r != "nondeterminism"),
        "{findings:?}"
    );
}

#[test]
fn clean_fixture_has_zero_false_positives() {
    let src = fixture("clean.rs");
    let findings = check_file("crates/hw/src/cluster.rs", &src);
    assert!(findings.is_empty(), "false positives: {findings:?}");
}

#[test]
fn quantizer_modules_may_narrow() {
    let src = "pub fn q(v: u32) -> u8 { (v >> 4) as u8 }\n";
    let findings = check_file("crates/fixed/src/quant.rs", src);
    assert!(
        rules_of(&findings).iter().all(|r| *r != "narrowing-cast"),
        "quantizer is the sanctioned narrowing site: {findings:?}"
    );
}

// --- dataflow passes over scratch workspaces -------------------------------

#[test]
fn overflow_pass_fires_on_the_wrap_fixture() {
    let wrap = fixture("overflow_wrap.rs");
    let dir = scratch_tree("overflow", &[("crates/fixed/src/fx.rs", &wrap)]);
    let outcome = analyze_workspace(&dir, &AnalyzerConfig::default()).expect("walk");
    fs::remove_dir_all(&dir).ok();
    let overflow: Vec<_> = outcome
        .findings
        .iter()
        .filter(|f| f.rule == "overflow-range")
        .collect();
    assert_eq!(overflow.len(), 1, "{:?}", outcome.findings);
    assert_eq!(overflow[0].item.as_deref(), Some("wrap"));
    assert_eq!(overflow[0].file, "crates/fixed/src/fx.rs");
}

#[test]
fn overflow_pass_is_silent_outside_its_scope() {
    let wrap = fixture("overflow_wrap.rs");
    // Same content, but at a path the overflow scope does not cover.
    let dir = scratch_tree("overflow-scope", &[("crates/metrics/src/suite.rs", &wrap)]);
    let outcome = analyze_workspace(&dir, &AnalyzerConfig::default()).expect("walk");
    fs::remove_dir_all(&dir).ok();
    assert!(
        rules_of(&outcome.findings).iter().all(|r| *r != "overflow-range"),
        "{:?}",
        outcome.findings
    );
}

#[test]
fn alloc_pass_fires_on_reachable_sites_only() {
    let hot = fixture("alloc_hotpath.rs");
    let dir = scratch_tree("alloc", &[("crates/core/src/hot.rs", &hot)]);
    let cfg = AnalyzerConfig::parse(
        "[[hotpath]]\nroot = \"Hot::frame\"\nreason = \"fixture root\"\n",
    )
    .expect("config");
    let outcome = analyze_workspace(&dir, &cfg).expect("walk");
    fs::remove_dir_all(&dir).ok();
    let allocs: Vec<_> = outcome
        .findings
        .iter()
        .filter(|f| f.rule == "alloc-in-hot-path")
        .collect();
    assert_eq!(allocs.len(), 2, "with_capacity + push: {:?}", outcome.findings);
    assert!(allocs.iter().all(|f| f.item.as_deref() == Some("step")));
    assert!(allocs[0].message.contains("Hot::frame -> Hot::step"));
    // `cold` allocates but is unreachable — no finding mentions it.
    assert!(outcome.findings.iter().all(|f| f.item.as_deref() != Some("cold")));
    assert_eq!(outcome.stats.alloc_roots, 1);
    assert_eq!(outcome.stats.alloc_reachable_fns, 2);
}

#[test]
fn stale_allowlist_entries_fail_the_gate() {
    let dir = scratch_tree(
        "stale",
        &[("crates/hw/src/cluster.rs", "pub fn leak(a: f32) -> f32 { a }\n")],
    );
    let cfg = AnalyzerConfig::parse(
        r#"
[[allow]]
rule = "float-in-datapath"
path = "crates/hw/src/cluster.rs"
reason = "scratch fixture"

[[allow]]
rule = "no-panic"
path = "crates/never/src/matches.rs"
reason = "stale on purpose"
"#,
    )
    .expect("valid config");

    let outcome = analyze_workspace(&dir, &cfg).expect("walk");
    fs::remove_dir_all(&dir).ok();

    assert!(outcome.is_clean(), "{:?}", outcome.findings);
    assert!(!outcome.passed(), "a stale allow entry must fail the gate");
    assert_eq!(outcome.stats.files_checked, 1);
    assert_eq!(outcome.suppressed.len(), 2, "two f32 tokens suppressed");
    assert_eq!(outcome.unused_allows.len(), 1);
    assert_eq!(outcome.unused_allows[0].path, "crates/never/src/matches.rs");

    let json = report::to_json(&outcome);
    assert!(json.contains("\"clean\": true"));
    assert!(json.contains("\"passed\": false"));
    assert!(json.contains("\"allowed_by\": \"scratch fixture\""));
    assert!(json.contains("crates/never/src/matches.rs"));
}

// --- report snapshots and output determinism -------------------------------

/// One scratch workspace exercising every report section: a finding from
/// each pass, a suppression, and a stale allow entry.
fn snapshot_outcome(tag: &str) -> sslic_analyze::AnalysisOutcome {
    let wrap = fixture("overflow_wrap.rs");
    let hot = fixture("alloc_hotpath.rs");
    let nondet = fixture("nondet.rs");
    let dir = scratch_tree(
        tag,
        &[
            ("crates/fixed/src/fx.rs", wrap.as_str()),
            ("crates/core/src/hot.rs", hot.as_str()),
            ("crates/core/src/connectivity.rs", nondet.as_str()),
        ],
    );
    let cfg = AnalyzerConfig::parse(
        r#"
[[hotpath]]
root = "Hot::frame"
reason = "fixture root"

[[allow]]
rule = "nondeterminism"
path = "crates/core/src/connectivity.rs"
item = "timed"
reason = "fixture suppression"

[[allow]]
rule = "no-panic"
path = "crates/never/src/matches.rs"
reason = "stale on purpose"
"#,
    )
    .expect("config");
    let outcome = analyze_workspace(&dir, &cfg).expect("walk");
    fs::remove_dir_all(&dir).ok();
    outcome
}

#[test]
fn json_report_matches_snapshot_byte_for_byte() {
    assert_snapshot("report.json", &report::to_json(&snapshot_outcome("snap-json")));
}

#[test]
fn sarif_report_matches_snapshot_byte_for_byte() {
    assert_snapshot("report.sarif", &report::to_sarif(&snapshot_outcome("snap-sarif")));
}

#[test]
fn analyzer_output_is_byte_identical_across_runs() {
    let a = snapshot_outcome("rerun-a");
    let b = snapshot_outcome("rerun-b");
    assert_eq!(report::to_json(&a), report::to_json(&b));
    assert_eq!(report::to_sarif(&a), report::to_sarif(&b));
}

// --- the real tree ---------------------------------------------------------

#[test]
fn repo_analysis_passes_under_the_checked_in_config() {
    // The real tree with the real lint.toml must pass — the same contract
    // ci.sh enforces, kept here so `cargo test` alone catches a
    // regression. `passed()` also fails on stale allowlist entries.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let toml = fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = AnalyzerConfig::parse(&toml).expect("lint.toml parses");
    let outcome = analyze_workspace(&root, &cfg).expect("walk");
    assert!(
        outcome.passed(),
        "workspace has findings or stale allows:\n{}\nstale: {:?}",
        outcome
            .findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n"),
        outcome.unused_allows
    );
    // The checked-in [[prove]] obligations must actually discharge.
    assert_eq!(outcome.stats.proofs_discharged, 10, "{:?}", outcome.stats);
    assert!(outcome.stats.alloc_roots >= 2, "{:?}", outcome.stats);
}
