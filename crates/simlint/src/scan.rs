//! Workspace file discovery and per-file rule scoping.

use crate::{FileCtx, HOT_PATH_FILES, SIM_CRITICAL_CRATES};
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target", ".git", ".scratch", "tests", "benches", "examples", "fixtures",
];

/// Collects the `.rs` library sources of the workspace rooted at
/// `root`: `src/` of the root package and of every `crates/*` member.
/// Test directories, fixtures, and build output are skipped — rules
/// only police library code.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if !SKIP_DIRS.contains(&name) {
                walk(&path, files)?;
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Decides which rules apply to `rel` (a `/`-separated workspace-relative
/// path like `crates/netsim/src/network.rs`).
pub fn context_for(rel: &str) -> FileCtx {
    let sim_critical = SIM_CRITICAL_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    let d002_applies = !rel.starts_with("crates/bench/");
    let hot_path = HOT_PATH_FILES.contains(&rel);
    FileCtx {
        sim_critical,
        d002_applies,
        hot_path,
    }
}

/// Workspace-relative display path with `/` separators.
pub fn display_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_scoping() {
        let sim = context_for("crates/netsim/src/network.rs");
        assert!(sim.sim_critical && sim.d002_applies && !sim.hot_path);
        let bench = context_for("crates/bench/src/lib.rs");
        assert!(!bench.sim_critical && !bench.d002_applies);
        // The chunking crate is sim-critical, and its CDC/SHA modules
        // sit on the panic-freedom hot-path list.
        let cdc = context_for("crates/chunking/src/cdc.rs");
        assert!(cdc.sim_critical && cdc.d002_applies && cdc.hot_path);
        let index = context_for("crates/chunking/src/index.rs");
        assert!(index.sim_critical && !index.hot_path);
        let cache = context_for("crates/kvstore/src/cache.rs");
        assert!(cache.hot_path);
        // The cloud catalog verifies every uploaded and restored byte,
        // so it sits on the ingest hot path too; durable placement
        // does not.
        for f in ["catalog", "store"] {
            let cloud = context_for(&format!("crates/cloudstore/src/{f}.rs"));
            assert!(cloud.sim_critical && cloud.hot_path, "{f}");
        }
        assert!(!context_for("crates/cloudstore/src/durable.rs").hot_path);
        let root = context_for("src/lib.rs");
        assert!(!root.sim_critical && root.d002_applies);
    }
}
