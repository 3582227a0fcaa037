//! Workspace discovery and the file walk: finds every first-party `.rs`
//! file, classifies its role (lib / test / bin), and runs the rules over
//! it in two passes — the per-file rule GN08 first, then the
//! whole-workspace rules (call-graph GN10, expression-dataflow
//! GN11/GN12, type-aware GN15) over the full file set.
//!
//! Pass 1 (lex + parse + per-file rules, the bulk of the wall time) is
//! sharded across `greednet_runtime::parallel_map_indexed` when
//! [`AnalyzeOptions::threads`] > 1. The merge contract is the same one
//! the simulation pool obeys: results are collected *in task-index
//! order*, which is the sorted-file order, so the finding list — and
//! therefore every report byte — is identical at any thread count.
//! Pass 2 stays sequential (it is cross-file and cheap).
//!
//! First-party means the facade package at the workspace root plus every
//! crate under `crates/`. `vendor/` (offline dependency stand-ins),
//! `target/`, and the analyzer's own `fixtures/` corpus (deliberately
//! rule-violating snippets) are never walked.

use crate::graph::SourceFile;
use crate::report::Analysis;
use crate::rules::{self, FileContext, FileKind};
use crate::{expr, hot, typerules};
use std::fs;
use std::path::{Path, PathBuf};

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Knobs for [`analyze_with`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Worker threads for the per-file pass; 1 = serial. Any count
    /// produces byte-identical reports (in-task-order merge).
    pub threads: usize,
    /// If set, only findings in these workspace-relative paths are
    /// reported. The full workspace is still lexed and parsed so the
    /// cross-file context (call graph, unit/telemetry field inventory,
    /// spec structs) stays complete — this filters output, not analysis.
    pub changed: Option<Vec<String>>,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            threads: 1,
            changed: None,
        }
    }
}

/// Analyzes the workspace rooted at `root` with default options.
///
/// # Errors
/// Returns a description of the first I/O failure (unreadable file or
/// directory).
pub fn analyze(root: &Path) -> Result<Analysis, String> {
    analyze_with(root, &AnalyzeOptions::default())
}

/// Analyzes the workspace rooted at `root`.
///
/// # Errors
/// Returns a description of the first I/O failure (unreadable file or
/// directory).
pub fn analyze_with(root: &Path, opts: &AnalyzeOptions) -> Result<Analysis, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    // The facade package's own sources and integration tests.
    for top in ["src", "tests"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let crates_dir = root.join("crates");
    for entry in sorted_entries(&crates_dir)? {
        if entry.is_dir() {
            for sub in ["src", "tests"] {
                let dir = entry.join(sub);
                if dir.is_dir() {
                    collect_rs(&dir, &mut files)?;
                }
            }
        }
    }
    files.sort();

    // Pass 1: lex+parse every file once and run the per-file rules.
    // Sharded on the deterministic pool; the in-task-order merge keeps
    // the per-file result sequence equal to the serial loop's.
    let per_file = greednet_runtime::parallel_map_indexed(opts.threads, files.len(), |i| {
        let path = &files[i];
        let ctx = classify(root, path);
        let src = fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))?;
        let sf = SourceFile::new(ctx, &src);
        let file_findings = rules::check_file(&sf.ctx, &sf.lexed);
        Ok::<_, String>((sf, file_findings))
    });
    let mut findings = Vec::new();
    let mut sources = Vec::with_capacity(files.len());
    for result in per_file {
        let (sf, file_findings) = result?;
        findings.extend(file_findings);
        sources.push(sf);
    }
    // Pass 2: the cross-file rules need the whole workspace at once.
    findings.extend(hot::gn10(&sources));
    findings.extend(expr::gn11(&sources));
    findings.extend(expr::gn12(&sources));
    findings.extend(typerules::gn15(&sources));
    if let Some(changed) = &opts.changed {
        // Output filter for `--changed`: synthetic anchors (line-0 table
        // rows) follow their host file like any other finding.
        findings.retain(|f| changed.iter().any(|c| c == &f.file));
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(Analysis {
        root: root.display().to_string(),
        files_scanned: files.len(),
        findings,
    })
}

/// Deterministically ordered directory entries.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = fs::read_dir(dir).map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("failed to list {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files, skipping fixture corpora.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the per-file rule context from its workspace-relative path.
fn classify(root: &Path, path: &Path) -> FileContext {
    let rel: String = path
        .strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = if parts.first() == Some(&"crates") {
        parts.get(1).copied().unwrap_or("").to_string()
    } else {
        // The facade package at the workspace root.
        "greednet".to_string()
    };
    let in_crate: &[&str] = if parts.first() == Some(&"crates") {
        &parts[2..]
    } else {
        &parts[..]
    };
    let kind = match in_crate.first().copied() {
        Some("tests") => FileKind::Test,
        Some("src") => {
            if in_crate.get(1).copied() == Some("bin")
                || in_crate.last().copied() == Some("main.rs")
            {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        _ => FileKind::Lib,
    };
    FileContext {
        crate_name,
        rel_path: rel,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_identifies_roles() {
        let root = Path::new("/w");
        let c = classify(root, Path::new("/w/crates/des/src/lib.rs"));
        assert_eq!(c.crate_name, "des");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify(root, Path::new("/w/crates/bench/src/bin/run_all.rs"));
        assert_eq!(c.kind, FileKind::Bin);

        let c = classify(root, Path::new("/w/crates/des/tests/properties.rs"));
        assert_eq!(c.kind, FileKind::Test);

        let c = classify(root, Path::new("/w/src/lib.rs"));
        assert_eq!(c.crate_name, "greednet");
        assert_eq!(c.kind, FileKind::Lib);

        let c = classify(root, Path::new("/w/crates/cli/src/main.rs"));
        assert_eq!(c.kind, FileKind::Bin);
    }

    #[test]
    fn find_root_walks_up_to_workspace_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root exists");
        assert!(root.join("crates").is_dir());
    }
}
