//! The `greednet-lint` binary: analyze the workspace, print a report,
//! exit nonzero on unsuppressed findings.
//!
//! ```text
//! greednet-lint [--root PATH] [--format human|json|sarif] [--threads N]
//!               [--changed GIT_REF] [--list-rules]
//! ```
//!
//! `--json` is a legacy alias for `--format json`. `--threads N` shards
//! the per-file pass (reports are byte-identical at any count).
//! `--changed REF` restricts *reported* findings to the files named by
//! `git diff --name-only REF` — the cross-file context is still built
//! workspace-wide — for fast pre-commit runs. Exit codes: 0 clean,
//! 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut threads = 1usize;
    let mut changed_ref: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--threads" => match args.next().and_then(|t| t.parse::<usize>().ok()) {
                Some(t) if t >= 1 => threads = t,
                _ => {
                    eprintln!("error: --threads requires a count >= 1");
                    return ExitCode::from(2);
                }
            },
            "--changed" => match args.next() {
                Some(r) => changed_ref = Some(r),
                None => {
                    eprintln!("error: --changed requires a git ref");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "error: --format requires one of human|json|sarif, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                // Diagnostics first (GN00 sorts before every rule), then rules,
                // so the listing stays in id order.
                for r in greednet_lint::rules::DIAGNOSTICS {
                    println!("{}  {}", r.id, r.summary);
                }
                for r in greednet_lint::rules::RULES {
                    println!("{}  {}", r.id, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "greednet-lint [--root PATH] [--format human|json|sarif] [--threads N] \
                     [--changed GIT_REF] [--list-rules]"
                );
                println!(
                    "Enforces the greednet workspace invariants GN08, GN10-GN12 and GN15; see LINTS.md."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match greednet_lint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let changed = match changed_ref {
        Some(git_ref) => match changed_files(&root, &git_ref) {
            Ok(list) => Some(list),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let opts = greednet_lint::AnalyzeOptions { threads, changed };
    match greednet_lint::analyze_with(&root, &opts) {
        Ok(analysis) => {
            match format {
                Format::Human => print!("{}", analysis.human()),
                Format::Json => print!("{}", analysis.json()),
                Format::Sarif => print!("{}", analysis.sarif()),
            }
            if analysis.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Workspace-relative `.rs` paths reported by `git diff --name-only REF`
/// under `root`.
fn changed_files(root: &std::path::Path, git_ref: &str) -> Result<Vec<String>, String> {
    let out = std::process::Command::new("git")
        .args(["diff", "--name-only", git_ref])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run git diff: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git diff --name-only {git_ref} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::trim)
        .filter(|l| l.ends_with(".rs"))
        .map(String::from)
        .collect())
}
