//! The greednet invariant rules the compiler cannot express.
//!
//! Each rule guards a guarantee the paper-reproduction pipeline depends
//! on (see `LINTS.md` at the workspace root for the full rationale). The
//! invariants rustc and clippy can check — no hash containers, wall
//! clock, panics, `partial_cmp` or lossy casts in library code — live in
//! the root `clippy.toml`, `[workspace.lints]` and each library crate
//! root instead; LINTS.md maps them to the rule ids they replaced.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | GN08 | no swallowed `Result`s (`.ok();` / `let _ =` a fallible call) |
//! | GN10 | `gn:hot` fns never reach allocation ([`crate::hot`]) |
//! | GN11 | RNG splits consumed on all paths ([`crate::expr`]) |
//! | GN12 | merged-collection float reductions via `reduce` ([`crate::expr`]) |
//! | GN15 | telemetry probes write-only from deterministic code ([`crate::typerules`]) |
//!
//! Rules apply to *library* code: integration tests, binaries, and
//! inline `#[cfg(test)]` modules are exempt (they own their I/O, timing
//! displays, and assertion style; none of them sit on the deterministic
//! replication path).

use crate::lexer::{LexedFile, Token};

/// How a source file participates in its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` — the full rule set applies.
    Lib,
    /// Integration test under `tests/`.
    Test,
    /// Binary: `src/main.rs` or under `src/bin/`.
    Bin,
}

/// Per-file context the rules need: which crate, which role, which path.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Short crate directory name (`des`, `core`, ...); the facade crate
    /// at the workspace root is `greednet`.
    pub crate_name: String,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub kind: FileKind,
}

/// One rule violation (or suppressed would-be violation).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `GN08` (`GN00` marks a malformed allow annotation).
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// `Some(reason)` if an allow annotation suppressed this finding.
    pub suppressed: Option<String>,
}

/// Crates whose outputs feed the paper-vs-measured tables and must be
/// bitwise deterministic at any thread count (the scope of GN10–GN12 and
/// GN15; `runtime` covers the deterministic scheduling layer, `serve` the
/// scenario service whose cached payloads must be bitwise reproducible).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "des",
    "core",
    "queueing",
    "numerics",
    "largen",
    "learning",
    "mechanisms",
    "network",
    "runtime",
    "serve",
];

/// Static metadata for one rule id: the one-line summary (human report,
/// `--list-rules`, SARIF `shortDescription`), the paragraph-length
/// `fullDescription`, and the LINTS.md heading anchor behind the SARIF
/// `helpUri`.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    pub id: &'static str,
    pub summary: &'static str,
    pub full: &'static str,
    /// GitHub-style slug of the rule's `### GN##` heading in LINTS.md.
    pub anchor: &'static str,
}

/// All enforced rule ids, for `--list-rules`, the report emitters, and
/// fixture coverage checks.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "GN08",
        summary: "no swallowed Results in library code",
        full: "Discarding a fallible call's Result (.ok(); or let _ =) hides \
               failures that should propagate; handle or return the error.",
        anchor: "gn08--no-swallowed-results-in-library-code",
    },
    RuleMeta {
        id: "GN10",
        summary: "gn:hot fns must not reach allocation (call-graph closure)",
        full: "A fn marked // gn:hot must not reach any allocation construct \
               through the call graph; gn:hot(amortized) permits growth into \
               reused buffers but still bans unconditional allocations.",
        anchor: "gn10--gnhot-fns-must-not-reach-allocation",
    },
    RuleMeta {
        id: "GN11",
        summary: "RNG splits must be consumed on all control-flow paths",
        full: "A split RNG stream left unconsumed on some control-flow path \
               shifts every later stream assignment and silently decorrelates \
               replications; consume the split on every path or bind it with the \
               _split_unused prefix.",
        anchor: "gn11--rng-splits-must-be-consumed-on-all-control-flow-paths",
    },
    RuleMeta {
        id: "GN12",
        summary:
            "float reductions over parallel-merged collections must use greednet_runtime::reduce",
        full: "Naive left-fold float reductions over collections produced by \
               parallel merges depend on merge order; use the fixed-shape \
               pairwise greednet_runtime::reduce so the sum is identical at any \
               thread count.",
        anchor: "gn12--float-reductions-over-parallel-merged-collections",
    },
    RuleMeta {
        id: "GN15",
        summary: "telemetry probes are write-only from deterministic code",
        full: "Deterministic library code may write telemetry probes but must \
               not compute on values read back from them (directly or through \
               let rebindings): observation must never steer results.",
        anchor: "gn15--telemetry-probes-are-write-only-from-deterministic-code",
    },
];

/// Diagnostic ids the analyzer emits that are not suppressible rules;
/// `--list-rules` prints these too so LINTS.md can document every id the
/// `--json` report may contain.
pub const DIAGNOSTICS: &[RuleMeta] = &[RuleMeta {
    id: "GN00",
    summary: "malformed greednet-lint annotation (diagnostic, not suppressible)",
    full: "An annotation that starts like greednet-lint: or gn:hot but does \
           not match the grammar is reported instead of ignored, so a typo \
           cannot silently disable a rule.",
    anchor: "gn00--malformed-annotation-diagnostic",
}];

/// Runs the per-file rules over one lexed file, applying suppressions.
pub fn check_file(ctx: &FileContext, lexed: &LexedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Malformed annotations are findings themselves: a typo must not
    // silently disable a rule.
    for m in &lexed.malformed {
        findings.push(Finding {
            rule: "GN00",
            file: ctx.rel_path.clone(),
            line: m.line,
            message: format!("malformed greednet-lint annotation: {}", m.detail),
            suppressed: None,
        });
    }
    if ctx.kind == FileKind::Lib {
        gn08(ctx, lexed, &mut findings);
    }
    apply_suppressions(lexed, &mut findings);
    findings
}

/// Marks findings covered by a matching allow annotation as suppressed.
fn apply_suppressions(lexed: &LexedFile, findings: &mut [Finding]) {
    for f in findings.iter_mut() {
        if f.rule == "GN00" {
            continue;
        }
        if let Some(s) = lexed
            .suppressions
            .iter()
            .find(|s| s.rule == f.rule && s.target_line == f.line)
        {
            f.suppressed = Some(s.reason.clone());
        }
    }
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    ctx: &FileContext,
    line: u32,
    message: String,
) {
    findings.push(Finding {
        rule,
        file: ctx.rel_path.clone(),
        line,
        message,
        suppressed: None,
    });
}

/// True if the statement containing token `i` drops its value: walking
/// back to the previous `;`/`{`/`}` finds neither an `=` (binding or
/// assignment) nor a `return`/`break` handing the value out.
fn statement_discards_value(tokens: &[Token], i: usize) -> bool {
    for t in tokens[..i].iter().rev() {
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return true;
        }
        if t.is_punct('=') || matches!(t.ident(), Some("return" | "break")) {
            return false;
        }
    }
    true
}

/// GN08: silently swallowed `Result`s. A `.ok();` statement or a
/// `let _ = fallible_call(...);` binding throws the error away without a
/// trace; library code must propagate, handle, or log it. Carve-out:
/// `write!`/`writeln!` through `fmt::Write` into a `String` is
/// infallible by contract, so `let _ = write!(..)` is the idiomatic
/// discard and stays legal when the file imports `fmt::Write`.
fn gn08(ctx: &FileContext, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let has_fmt_write = tokens.windows(4).any(|w| {
        w[0].ident() == Some("fmt")
            && w[1].is_punct(':')
            && w[2].is_punct(':')
            && w[3].ident() == Some("Write")
    });
    for (i, t) in tokens.iter().enumerate() {
        if lexed.in_test_code(t.line) {
            continue;
        }
        // `.ok();` ending a statement whose value is discarded (a `=` or
        // `return` earlier in the statement means the Option is used).
        if t.ident() == Some("ok")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(';'))
            && statement_discards_value(tokens, i)
        {
            push(
                findings,
                "GN08",
                ctx,
                t.line,
                ".ok(); discards a Result and its error: propagate it, handle \
                 it, or destructure the success value"
                    .into(),
            );
        }
        // `let _ = <expr containing a call> ;`
        if t.ident() == Some("let")
            && tokens.get(i + 1).and_then(Token::ident) == Some("_")
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let is_fmt_macro = tokens
                .get(i + 3)
                .and_then(Token::ident)
                .is_some_and(|id| id == "write" || id == "writeln")
                && tokens.get(i + 4).is_some_and(|t| t.is_punct('!'));
            if is_fmt_macro && has_fmt_write {
                continue;
            }
            // Scan to the statement's `;` at bracket depth 0; a `(`
            // anywhere in the expression marks a (possibly fallible)
            // call being discarded.
            let mut depth = 0i64;
            let mut has_call = false;
            for tk in tokens.iter().skip(i + 3) {
                if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
                    depth += 1;
                    has_call = has_call || tk.is_punct('(');
                } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
                    depth -= 1;
                } else if depth == 0 && tk.is_punct(';') {
                    break;
                }
            }
            if has_call {
                push(
                    findings,
                    "GN08",
                    ctx,
                    t.line,
                    "let _ = on a call discards any error it returns: bind the \
                     Result and handle it (write!-into-String via fmt::Write \
                     is the only sanctioned discard)"
                        .into(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(crate_name: &str, rel_path: &str, kind: FileKind) -> FileContext {
        FileContext {
            crate_name: crate_name.into(),
            rel_path: rel_path.into(),
            kind,
        }
    }

    fn rules_fired(findings: &[Finding]) -> Vec<&str> {
        findings
            .iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn gn08_flags_ok_statements_and_let_underscore_calls() {
        let src = "do_thing().ok();\nlet _ = send(msg);\nlet _ = config;\nlet ok = x.ok();\n";
        let f = check_file(
            &ctx("telemetry", "crates/telemetry/src/x.rs", FileKind::Lib),
            &lex(src),
        );
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        // `let _ = config;` (no call) and `let ok = x.ok()` (used) pass.
        assert_eq!(lines, vec![1, 2]);
    }

    #[test]
    fn gn08_carves_out_fmt_write_into_string() {
        let src = "use std::fmt::Write as _;\nlet _ = writeln!(out, \"x\");\nlet _ = write!(out, \"y\");\n";
        let f = check_file(
            &ctx("runtime", "crates/runtime/src/x.rs", FileKind::Lib),
            &lex(src),
        );
        assert!(rules_fired(&f).is_empty());
        // Without the fmt::Write import the discard is suspicious again.
        let bare = check_file(
            &ctx("runtime", "crates/runtime/src/x.rs", FileKind::Lib),
            &lex("let _ = writeln!(out, \"x\");\n"),
        );
        assert_eq!(rules_fired(&bare), vec!["GN08"]);
    }

    #[test]
    fn gn08_exempts_tests_binaries_and_cfg_test_modules() {
        let src = "let _ = send(msg);\n";
        for kind in [FileKind::Test, FileKind::Bin] {
            let f = check_file(&ctx("cli", "crates/cli/src/main.rs", kind), &lex(src));
            assert!(rules_fired(&f).is_empty(), "{kind:?}");
        }
        let inline = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = send(msg); }\n}\n";
        let f = check_file(
            &ctx("core", "crates/core/src/x.rs", FileKind::Lib),
            &lex(inline),
        );
        assert!(rules_fired(&f).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_exactly_its_rule_and_line() {
        let src = "let _ = sink.flush(); // greednet-lint: allow(GN08, reason = \"best-effort flush\")\nlet _ = sink.flush();\n";
        let f = check_file(
            &ctx("telemetry", "crates/telemetry/src/x.rs", FileKind::Lib),
            &lex(src),
        );
        let live: Vec<u32> = f
            .iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| f.line)
            .collect();
        assert_eq!(live, vec![2]);
        assert!(f.iter().any(|f| f.suppressed.is_some() && f.line == 1));
    }

    #[test]
    fn malformed_annotation_is_a_finding_and_does_not_suppress() {
        let src = "// greednet-lint: allow(GN08)\nlet _ = sink.flush();\n";
        let f = check_file(
            &ctx("telemetry", "crates/telemetry/src/x.rs", FileKind::Lib),
            &lex(src),
        );
        let rules = rules_fired(&f);
        assert!(rules.contains(&"GN00"));
        assert!(rules.contains(&"GN08"));
    }
}
