//! Hand-parsed `lint.toml` analyzer configuration.
//!
//! The format is a deliberately tiny TOML subset — `[[section]]` tables of
//! `key = "string"` pairs — so no TOML crate is needed. Four sections are
//! understood:
//!
//! ```toml
//! # Comments and blank lines are fine anywhere.
//! [[allow]]                # suppress one finding class
//! rule = "float-in-datapath"
//! path = "crates/hw/src/cluster.rs"
//! item = "area_mm2"        # optional: restrict to one fn/const
//! reason = "analytical area model, not the cycle datapath"
//!
//! [[range]]                # seed a value range for the overflow pass
//! path = "crates/core/src/session.rs"   # optional path suffix
//! item = "update_band"                  # optional fn scope
//! name = "l"               # a variable, "recv.field", or "Struct::field"
//! min = "0"
//! max = "100"
//! reason = "CIELAB L* gamut"
//!
//! [[hotpath]]              # allocation-reachability roots and stops
//! root = "SegmenterSession::frame"      # or: stop = "Owner::name"
//! reason = "steady-state streaming entry point"
//!
//! [[prove]]                # a proof obligation the overflow pass must discharge
//! path = "crates/core/src/session.rs"
//! item = "update_band"
//! reason = "sigma fold must stay f64-exact (hw sigma register model)"
//! ```
//!
//! `reason` is mandatory everywhere — a config entry without a written
//! justification is itself a config error. `item` on an `[[allow]]`
//! narrows the exemption to one named function/const; without it the
//! whole file is exempt from that rule.

use std::fmt;

/// One `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry suppresses (e.g. `float-in-datapath`).
    pub rule: String,
    /// Workspace-relative path suffix the entry applies to.
    pub path: String,
    /// Optional enclosing item (fn/const/static name) to narrow the scope.
    pub item: Option<String>,
    /// Human justification; mandatory.
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for error reporting.
    pub line: u32,
}

/// One `[[range]]` value-range seed for the overflow pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSeed {
    /// Optional workspace-relative path suffix the seed applies to.
    pub path: Option<String>,
    /// Optional fn name the seed is scoped to.
    pub item: Option<String>,
    /// What is seeded: a variable name (`"w"`), a field chain as written
    /// at the use site (`"rows.start"`), or a struct field
    /// (`"ClusterCodes::l"`).
    pub name: String,
    /// Inclusive lower bound.
    pub min: i128,
    /// Inclusive upper bound.
    pub max: i128,
    /// Why this range is sound; mandatory.
    pub reason: String,
    /// 1-based line of the `[[range]]` header.
    pub line: u32,
}

/// One `[[hotpath]]` entry: a reachability root or a traversal stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotpathEntry {
    /// `Owner::name` (or bare `name`) of a function to treat as a
    /// steady-state entry point.
    pub root: Option<String>,
    /// `Owner::name` of a function whose body and callees are not
    /// traversed.
    pub stop: Option<String>,
    /// Why; mandatory.
    pub reason: String,
    /// 1-based line of the `[[hotpath]]` header.
    pub line: u32,
}

/// One `[[prove]]` proof obligation: the overflow pass must analyze the
/// named fn with at least one value-checked site and zero findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProveEntry {
    /// Workspace-relative path suffix of the file.
    pub path: String,
    /// Function name.
    pub item: String,
    /// What invariant the proof stands for; mandatory.
    pub reason: String,
    /// 1-based line of the `[[prove]]` header.
    pub line: u32,
}

/// The parsed analyzer configuration (`lint.toml`).
#[derive(Debug, Clone, Default)]
pub struct AnalyzerConfig {
    /// `[[allow]]` entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// `[[range]]` seeds for the overflow pass.
    pub ranges: Vec<RangeSeed>,
    /// `[[hotpath]]` roots and stops for the allocation pass.
    pub hotpaths: Vec<HotpathEntry>,
    /// `[[prove]]` obligations for the overflow pass.
    pub proofs: Vec<ProveEntry>,
}

/// A malformed `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line the problem was found on.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl AnalyzerConfig {
    /// Parses the configuration source text.
    pub fn parse(source: &str) -> Result<Self, ConfigError> {
        let mut config = AnalyzerConfig::default();
        // Field accumulator for the section currently being parsed.
        let mut current: Option<Partial> = None;

        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(kind) = SectionKind::from_header(line) {
                if let Some(partial) = current.take() {
                    partial.finish_into(&mut config)?;
                }
                current = Some(Partial::new(kind, line_no));
                continue;
            }
            if line.starts_with('[') {
                return Err(ConfigError {
                    line: line_no,
                    message: format!(
                        "unknown section `{line}`; expected [[allow]], [[range]], \
                         [[hotpath]], or [[prove]]"
                    ),
                });
            }
            let (key, value) = parse_assignment(line, line_no)?;
            let entry = current.as_mut().ok_or(ConfigError {
                line: line_no,
                message: format!("`{key}` outside a [[...]] section"),
            })?;
            entry.set(key, value, line_no)?;
        }
        if let Some(partial) = current.take() {
            partial.finish_into(&mut config)?;
        }
        Ok(config)
    }

    /// Finds the first entry suppressing (`rule`, `file`, `item`), if any.
    ///
    /// `file` matches on path suffix so the allowlist works regardless of
    /// whether the linter was launched from the workspace root or above it.
    pub fn matching(&self, rule: &str, file: &str, item: Option<&str>) -> Option<&AllowEntry> {
        self.entries.iter().find(|e| {
            e.rule == rule
                && path_suffix_matches(file, &e.path)
                && e.item.as_deref().map_or(true, |i| Some(i) == item)
        })
    }
}

/// True when `file` ends with `suffix` on a path-component boundary.
pub(crate) fn path_suffix_matches(file: &str, suffix: &str) -> bool {
    file == suffix
        || file
            .strip_suffix(suffix)
            .is_some_and(|head| head.ends_with('/'))
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_assignment(line: &str, line_no: u32) -> Result<(&str, String), ConfigError> {
    let (key, rest) = line.split_once('=').ok_or(ConfigError {
        line: line_no,
        message: format!("expected `key = \"value\"`, found `{line}`"),
    })?;
    let key = key.trim();
    let rest = rest.trim();
    if let Some(value) = rest.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        return Ok((key, value.to_string()));
    }
    // Bare TOML integers (possibly signed, `_`-grouped) are accepted for
    // the numeric keys so `min = 0` reads naturally.
    let is_bare_int = !rest.is_empty()
        && rest
            .strip_prefix('-')
            .unwrap_or(rest)
            .chars()
            .all(|c| c.is_ascii_digit() || c == '_');
    if is_bare_int {
        return Ok((key, rest.to_string()));
    }
    Err(ConfigError {
        line: line_no,
        message: format!("value for `{key}` must be a double-quoted string or an integer"),
    })
}

/// Which `[[...]]` table a partial entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SectionKind {
    Allow,
    Range,
    Hotpath,
    Prove,
}

impl SectionKind {
    fn from_header(line: &str) -> Option<Self> {
        match line {
            "[[allow]]" => Some(SectionKind::Allow),
            "[[range]]" => Some(SectionKind::Range),
            "[[hotpath]]" => Some(SectionKind::Hotpath),
            "[[prove]]" => Some(SectionKind::Prove),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SectionKind::Allow => "allow",
            SectionKind::Range => "range",
            SectionKind::Hotpath => "hotpath",
            SectionKind::Prove => "prove",
        }
    }

    fn keys(self) -> &'static [&'static str] {
        match self {
            SectionKind::Allow => &["rule", "path", "item", "reason"],
            SectionKind::Range => &["path", "item", "name", "min", "max", "reason"],
            SectionKind::Hotpath => &["root", "stop", "reason"],
            SectionKind::Prove => &["path", "item", "reason"],
        }
    }
}

#[derive(Debug)]
struct Partial {
    kind: SectionKind,
    line: u32,
    fields: Vec<(&'static str, String)>,
}

impl Partial {
    fn new(kind: SectionKind, line: u32) -> Self {
        Partial { kind, line, fields: Vec::new() }
    }

    fn set(&mut self, key: &str, value: String, line_no: u32) -> Result<(), ConfigError> {
        let known = self
            .kind
            .keys()
            .iter()
            .find(|k| **k == key)
            .copied()
            .ok_or(ConfigError {
                line: line_no,
                message: format!(
                    "unknown key `{key}` in [[{}]] (expected {})",
                    self.kind.name(),
                    self.kind.keys().join("/")
                ),
            })?;
        if self.fields.iter().any(|(k, _)| *k == known) {
            return Err(ConfigError {
                line: line_no,
                message: format!("duplicate key `{key}` in [[{}]] entry", self.kind.name()),
            });
        }
        self.fields.push((known, value));
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let pos = self.fields.iter().position(|(k, _)| *k == key)?;
        Some(self.fields.remove(pos).1)
    }

    fn require(&mut self, key: &str) -> Result<String, ConfigError> {
        self.take(key).ok_or(ConfigError {
            line: self.line,
            message: format!(
                "[[{}]] entry is missing required key `{key}`",
                self.kind.name()
            ),
        })
    }

    fn require_reason(&mut self) -> Result<String, ConfigError> {
        let reason = self.require("reason")?;
        if reason.trim().is_empty() {
            return Err(ConfigError {
                line: self.line,
                message: "`reason` must not be empty: justify the entry".into(),
            });
        }
        Ok(reason)
    }

    fn require_bound(&mut self, key: &str) -> Result<i128, ConfigError> {
        let text = self.require(key)?;
        parse_i128(&text).ok_or(ConfigError {
            line: self.line,
            message: format!("`{key}` must be a decimal integer, found `{text}`"),
        })
    }

    fn finish_into(mut self, config: &mut AnalyzerConfig) -> Result<(), ConfigError> {
        let line = self.line;
        match self.kind {
            SectionKind::Allow => {
                let entry = AllowEntry {
                    rule: self.require("rule")?,
                    path: self.require("path")?,
                    item: self.take("item"),
                    reason: self.require_reason()?,
                    line,
                };
                config.entries.push(entry);
            }
            SectionKind::Range => {
                let seed = RangeSeed {
                    path: self.take("path"),
                    item: self.take("item"),
                    name: self.require("name")?,
                    min: self.require_bound("min")?,
                    max: self.require_bound("max")?,
                    reason: self.require_reason()?,
                    line,
                };
                if seed.min > seed.max {
                    return Err(ConfigError {
                        line,
                        message: format!(
                            "[[range]] `{}` has min {} > max {}",
                            seed.name, seed.min, seed.max
                        ),
                    });
                }
                config.ranges.push(seed);
            }
            SectionKind::Hotpath => {
                let entry = HotpathEntry {
                    root: self.take("root"),
                    stop: self.take("stop"),
                    reason: self.require_reason()?,
                    line,
                };
                if entry.root.is_some() == entry.stop.is_some() {
                    return Err(ConfigError {
                        line,
                        message: "[[hotpath]] entry needs exactly one of `root` or `stop`".into(),
                    });
                }
                config.hotpaths.push(entry);
            }
            SectionKind::Prove => {
                let entry = ProveEntry {
                    path: self.require("path")?,
                    item: self.require("item")?,
                    reason: self.require_reason()?,
                    line,
                };
                config.proofs.push(entry);
            }
        }
        Ok(())
    }
}

/// Parses a decimal (optionally negative, `_`-separated) integer.
fn parse_i128(text: &str) -> Option<i128> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    cleaned.trim().parse::<i128>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiple_entries_with_comments() {
        let src = r#"
# global comment
[[allow]]
rule = "float-in-datapath"   # inline comment
path = "crates/hw/src/cluster.rs"
item = "area_mm2"
reason = "analytical model"

[[allow]]
rule = "no-panic"
path = "crates/fixed/src/lut.rs"
reason = "documented invariant"
"#;
        let list = AnalyzerConfig::parse(src).expect("valid");
        assert_eq!(list.entries.len(), 2);
        assert_eq!(list.entries[0].item.as_deref(), Some("area_mm2"));
        assert_eq!(list.entries[1].item, None);
    }

    #[test]
    fn missing_reason_is_rejected() {
        let src = "[[allow]]\nrule = \"no-panic\"\npath = \"x.rs\"\n";
        let err = AnalyzerConfig::parse(src).expect_err("must fail");
        assert!(err.message.contains("reason"));
    }

    #[test]
    fn unknown_key_is_rejected() {
        let src = "[[allow]]\nrule = \"r\"\npath = \"p\"\nreason = \"z\"\nfoo = \"bar\"\n";
        assert!(AnalyzerConfig::parse(src).is_err());
    }

    #[test]
    fn parses_range_hotpath_and_prove_sections() {
        let src = r#"
[[range]]
path = "crates/core/src/session.rs"
item = "update_band"
name = "l"
min = "0"
max = "100"
reason = "CIELAB L* gamut"

[[range]]
name = "MAX_PIXELS"
min = "-67_108_864"
max = "67108864"
reason = "underscores and bare decimals both parse"

[[hotpath]]
root = "SegmenterSession::frame"
reason = "steady-state entry"

[[hotpath]]
stop = "init_clusters"
reason = "cold-start only"

[[prove]]
path = "crates/core/src/distance.rs"
item = "dist_code"
reason = "PPA distance scan must be wrap-free"
"#;
        let cfg = AnalyzerConfig::parse(src).expect("valid");
        assert_eq!(cfg.ranges.len(), 2);
        assert_eq!(cfg.ranges[0].item.as_deref(), Some("update_band"));
        assert_eq!(cfg.ranges[0].min, 0);
        assert_eq!(cfg.ranges[0].max, 100);
        assert_eq!(cfg.ranges[1].min, -67_108_864);
        assert_eq!(cfg.ranges[1].max, 67_108_864);
        assert_eq!(cfg.hotpaths.len(), 2);
        assert_eq!(cfg.hotpaths[0].root.as_deref(), Some("SegmenterSession::frame"));
        assert_eq!(cfg.hotpaths[1].stop.as_deref(), Some("init_clusters"));
        assert_eq!(cfg.proofs.len(), 1);
        assert_eq!(cfg.proofs[0].item, "dist_code");
    }

    #[test]
    fn malformed_new_sections_are_rejected() {
        // min > max
        let bad_range = "[[range]]\nname = \"x\"\nmin = \"5\"\nmax = \"2\"\nreason = \"r\"\n";
        assert!(AnalyzerConfig::parse(bad_range).is_err());
        // non-numeric bound
        let bad_bound = "[[range]]\nname = \"x\"\nmin = \"lo\"\nmax = \"2\"\nreason = \"r\"\n";
        assert!(AnalyzerConfig::parse(bad_bound).is_err());
        // both root and stop
        let both = "[[hotpath]]\nroot = \"a\"\nstop = \"b\"\nreason = \"r\"\n";
        assert!(AnalyzerConfig::parse(both).is_err());
        // neither root nor stop
        let neither = "[[hotpath]]\nreason = \"r\"\n";
        assert!(AnalyzerConfig::parse(neither).is_err());
        // prove without item
        let no_item = "[[prove]]\npath = \"p.rs\"\nreason = \"r\"\n";
        assert!(AnalyzerConfig::parse(no_item).is_err());
    }

    #[test]
    fn matching_respects_item_and_suffix() {
        let src = r#"
[[allow]]
rule = "float-in-datapath"
path = "crates/hw/src/cluster.rs"
item = "area_mm2"
reason = "model"
"#;
        let list = AnalyzerConfig::parse(src).expect("valid");
        let f = "crates/hw/src/cluster.rs";
        assert!(list.matching("float-in-datapath", f, Some("area_mm2")).is_some());
        assert!(list.matching("float-in-datapath", f, Some("other")).is_none());
        assert!(list.matching("no-panic", f, Some("area_mm2")).is_none());
        // Suffix match with a leading root component.
        assert!(list
            .matching("float-in-datapath", "repo/crates/hw/src/cluster.rs", Some("area_mm2"))
            .is_some());
        // But not an accidental substring match.
        assert!(list
            .matching("float-in-datapath", "xcrates/hw/src/cluster.rs", Some("area_mm2"))
            .is_none());
    }

    #[test]
    fn assignments_outside_sections_are_rejected() {
        assert!(AnalyzerConfig::parse("rule = \"x\"\n").is_err());
    }
}
