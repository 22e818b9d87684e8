//! # ef-simlint — determinism & soundness auditor
//!
//! Static analysis for the EF-dedup workspace: every claim the
//! reproduction makes rests on runs being a pure function of
//! `(workload, topology, seed)`, and this linter is the mechanical
//! barrier that keeps that property from eroding.
//!
//! ## Rules
//!
//! | id | scope | checks |
//! |------|------------------------|--------|
//! | D001 | sim-critical crates | iteration over `HashMap`/`HashSet` (`for`, `.iter()`, `.keys()`, `.values()`, `.drain()`, …) |
//! | D002 | all crates but `bench` | wall-clock / ambient entropy (`std::time::{Instant, SystemTime}`, `rand::thread_rng`, `rand::random`, `std::env::var`) |
//! | D003 | sim-critical crates | `.unwrap()` / `.expect()` / `panic!` in non-test library code |
//! | D004 | sim-critical crates | float accumulation (`.sum::<f64>()`, `fold` with `+`) over unordered iterators |
//! | P001 | hot-path modules | slice/collection indexing `x[i]` with no covering `.len()`/`.get()` in the enclosing fn (fixed-size arrays, literal indices and ranges exempt) |
//! | P002 | hot-path modules | unchecked `+`/`*`/`<<` (and their `=` forms) between non-literal integer operands; write `wrapping_*`/`checked_*`/`saturating_*` |
//! | P003 | hot-path modules | `.unwrap()` / `.expect()` / `panic!` — D003 escalated for the panic-freedom set |
//! | E001 | sim-critical crates | `_ =>` wildcard arm in a `match` whose patterns name a fault/liveness enum; enumerate the variants |
//! | S001 | everywhere | `simlint::allow` directive without a justification |
//! | S002 | everywhere | stale `simlint::allow` — its covered lines produce no finding of the named rule(s) |
//! | S003 | everywhere | `simlint::allow` naming a rule id that does not exist |
//!
//! Sim-critical crates: `simcore`, `netsim`, `kvstore`, `core`,
//! `cloudstore`, `chunking`. Hot-path modules (the panic-freedom set):
//! `chunking::cdc`, `chunking::sha256`, `cloudstore::catalog`,
//! `cloudstore::store`, `kvstore::cache`, `kvstore::gray`. Fault/liveness enums policed by E001:
//! `ByzantineFault`, `ChaosEvent`, `FaultRule`, `FaultScope`,
//! `Liveness`, `ClusterError`, `DurableError`, `SpoolClass`,
//! `SpoolDest` and `Member` (a `SimCluster` node's lifecycle state).
//! Test code (`#[cfg(test)]` items, `tests/`,
//! `benches/`) is exempt from all rules.
//!
//! ## Suppressions
//!
//! ```text
//! // simlint::allow(D003): length checked two lines above
//! let first = items.first().unwrap();
//! ```
//!
//! A directive must carry a reason after the colon; a bare
//! `// simlint::allow(D003)` is itself reported (S001). A directive
//! trailing code covers that line; a directive on its own line covers
//! the next code line, looking through comment-only lines — so stacked
//! directives all resolve to the statement below the stack. An allow
//! that covers no finding is reported stale (S002). S-rules can be
//! neither allowed nor suppressed.
//!
//! ## Baseline ratchet
//!
//! `--baseline simlint-baseline.json` diffs per-rule unsuppressed
//! counts against the committed baseline: any increase fails, and a
//! decrease fails too until the baseline file is shrunk to match
//! (`--write-baseline`), so the debt can only burn down.

mod analyze;
mod baseline;
mod lexer;
mod parse;
mod scan;

pub use analyze::lint_source;
pub use baseline::Baseline;
pub use scan::{collect_workspace_files, context_for, display_path};

use std::fmt;
use std::path::Path;

/// Crates whose library code feeds event emission or RNG draw order.
pub const SIM_CRITICAL_CRATES: &[&str] = &[
    "simcore",
    "netsim",
    "kvstore",
    "core",
    "cloudstore",
    "chunking",
];

/// Modules on the dedup hot path, held to the P-series panic-freedom
/// rules: a panic here aborts the chunk pipeline mid-batch.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/chunking/src/cdc.rs",
    "crates/chunking/src/sha256.rs",
    "crates/cloudstore/src/catalog.rs",
    "crates/cloudstore/src/store.rs",
    "crates/kvstore/src/cache.rs",
    "crates/kvstore/src/gray.rs",
];

/// Fault/liveness enums whose `match`es must stay exhaustive (E001):
/// adding a variant must force every handler site to be revisited.
pub const FAULT_ENUMS: &[&str] = &[
    "ByzantineFault",
    "ChaosEvent",
    "FaultRule",
    "FaultScope",
    "Liveness",
    "ClusterError",
    "DurableError",
    "SpoolClass",
    "SpoolDest",
    "Member",
];

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Iteration over `HashMap`/`HashSet` in sim-critical crates.
    D001,
    /// Wall-clock / ambient-entropy APIs outside `bench`.
    D002,
    /// `unwrap`/`expect`/`panic!` in sim-critical library code.
    D003,
    /// Floating-point accumulation over unordered iterators.
    D004,
    /// Unchecked indexing on a hot path.
    P001,
    /// Unchecked `+`/`*`/`<<` arithmetic on a hot path.
    P002,
    /// `unwrap`/`expect`/`panic!` on a hot path (escalated D003).
    P003,
    /// Wildcard `_` arm in a match over a fault/liveness enum.
    E001,
    /// Bare or malformed suppression directive.
    S001,
    /// Stale suppression directive (covers no finding).
    S002,
    /// Suppression directive naming a nonexistent rule.
    S003,
}

impl RuleId {
    /// Parses `"D001"` etc.; returns `None` for unknown ids.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D001" => Some(RuleId::D001),
            "D002" => Some(RuleId::D002),
            "D003" => Some(RuleId::D003),
            "D004" => Some(RuleId::D004),
            "P001" => Some(RuleId::P001),
            "P002" => Some(RuleId::P002),
            "P003" => Some(RuleId::P003),
            "E001" => Some(RuleId::E001),
            "S001" => Some(RuleId::S001),
            "S002" => Some(RuleId::S002),
            "S003" => Some(RuleId::S003),
            _ => None,
        }
    }

    /// All rule ids, for `--help` and registry listings.
    pub const ALL: &'static [RuleId] = &[
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::P001,
        RuleId::P002,
        RuleId::P003,
        RuleId::E001,
        RuleId::S001,
        RuleId::S002,
        RuleId::S003,
    ];

    /// One-line description used by `--help`.
    pub fn summary(&self) -> &'static str {
        match self {
            RuleId::D001 => "iteration over HashMap/HashSet in sim-critical crates",
            RuleId::D002 => "wall-clock or ambient-entropy API outside bench",
            RuleId::D003 => "unwrap/expect/panic! in sim-critical library code",
            RuleId::D004 => "float accumulation over unordered iterators",
            RuleId::P001 => "unchecked indexing in a hot-path module",
            RuleId::P002 => "unchecked +/*/<< arithmetic in a hot-path module",
            RuleId::P003 => "unwrap/expect/panic! in a hot-path module",
            RuleId::E001 => "wildcard `_` arm in a match over a fault enum",
            RuleId::S001 => "suppression directive without justification",
            RuleId::S002 => "stale suppression directive (covers no finding)",
            RuleId::S003 => "suppression directive naming a nonexistent rule",
        }
    }

    /// S-series findings police the suppression mechanism itself, so
    /// they can be neither `--allow`ed nor silenced by a directive.
    pub fn is_suppression_hygiene(&self) -> bool {
        matches!(self, RuleId::S001 | RuleId::S002 | RuleId::S003)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::P001 => "P001",
            RuleId::P002 => "P002",
            RuleId::P003 => "P003",
            RuleId::E001 => "E001",
            RuleId::S001 => "S001",
            RuleId::S002 => "S002",
            RuleId::S003 => "S003",
        };
        f.write_str(s)
    }
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCtx {
    /// D001/D003/D004/E001 apply (library code of a sim-critical crate).
    pub sim_critical: bool,
    /// D002 applies (any crate except `bench`).
    pub d002_applies: bool,
    /// P-series panic-freedom applies (hot-path module list).
    pub hot_path: bool,
}

/// One diagnostic, positioned `file:line:col` (path filled by callers
/// that lint from disk; [`lint_source`] leaves it empty).
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path (empty for in-memory sources).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Covered by a justified `simlint::allow` directive.
    pub suppressed: bool,
}

impl Finding {
    pub(crate) fn new(rule: RuleId, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            file: String::new(),
            line,
            col,
            message,
            suppressed: false,
        }
    }

    /// rustc-style `file:line:col: RULE: message`.
    pub fn render(&self) -> String {
        let tag = if self.suppressed { " (allowed)" } else { "" };
        format!(
            "{}:{}:{}: {}: {}{}",
            self.file, self.line, self.col, self.rule, self.message, tag
        )
    }
}

/// Lints a file on disk, filling [`Finding::file`] with `display_path`.
pub fn lint_file(path: &Path, display_path: &str, ctx: &FileCtx) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    let mut findings = lint_source(&src, ctx);
    for f in &mut findings {
        f.file = display_path.to_string();
    }
    Ok(findings)
}

/// Report of a whole run, consumed by the CLI and by tests.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings across all files, suppressed ones included.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the run under the given allow-list. S-series
    /// rules can never be allowed: broken suppression hygiene is always
    /// an error.
    pub fn violations<'a>(&'a self, allowed: &[RuleId]) -> Vec<&'a Finding> {
        self.findings
            .iter()
            .filter(|f| {
                !f.suppressed && (f.rule.is_suppression_hygiene() || !allowed.contains(&f.rule))
            })
            .collect()
    }

    /// Count of findings silenced by in-source directives.
    pub fn suppressed_count(&self) -> usize {
        self.findings.iter().filter(|f| f.suppressed).count()
    }

    /// Per-rule count of unsuppressed findings, independent of any
    /// allow-list — the quantity the baseline ratchet tracks.
    pub fn counts(&self) -> std::collections::BTreeMap<RuleId, u64> {
        let mut out: std::collections::BTreeMap<RuleId, u64> =
            RuleId::ALL.iter().map(|r| (*r, 0)).collect();
        for f in self.findings.iter().filter(|f| !f.suppressed) {
            *out.entry(f.rule).or_insert(0) += 1;
        }
        out
    }

    /// Serializes the report as JSON (std-only writer).
    pub fn to_json(&self, allowed: &[RuleId]) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!(
            "\"violations\":{},",
            self.violations(allowed).len()
        ));
        out.push_str(&format!("\"suppressed\":{},", self.suppressed_count()));
        out.push_str("\"counts\":{");
        for (i, (rule, n)) in self.counts().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{rule}\":{n}"));
        }
        out.push_str("},");
        out.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
                 \"message\":\"{}\",\"suppressed\":{}}}",
                f.rule,
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.message),
                f.suppressed
            ));
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
