//! Golden-file tests over the fixture corpus: every rule has one
//! known-bad snippet that must fire and one allowed/compliant snippet
//! that must not. A rule that stops firing on its bad fixture (or starts
//! firing on its allowed one) is a regression in the analyzer itself.
//! The mutation tests at the bottom prove each rule catches a one-line
//! regression in compliant code, real workspace files included.

use greednet_lint::{
    check_file, expr, hot, lexer, typerules, FileContext, FileKind, Finding, SourceFile,
};
use std::path::Path;

/// The per-rule fixture contexts: each bad snippet is checked *as if* it
/// lived at a path/role where its rule applies.
fn context_for(rule: &str) -> FileContext {
    let (crate_name, rel_path) = match rule {
        "GN08" => ("telemetry", "crates/telemetry/src/fixture.rs"),
        "GN10" | "GN11" => ("des", "crates/des/src/fixture.rs"),
        "GN12" => ("bench", "crates/bench/src/fixture.rs"),
        "GN15" => ("serve", "crates/serve/src/fixture.rs"),
        other => panic!("no fixture context for {other}"),
    };
    FileContext {
        crate_name: crate_name.to_string(),
        rel_path: rel_path.to_string(),
        kind: FileKind::Lib,
    }
}

fn fixture_source(kind: &str, rule: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(kind)
        .join(format!("{}.rs", rule.to_lowercase()));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

/// Runs `rule` over a one-file workspace holding `src` at `ctx`.
fn run_rule(rule: &str, ctx: FileContext, src: &str) -> Vec<Finding> {
    let files = [SourceFile::new(ctx, src)];
    match rule {
        // GN10 also reports HOT_PATHS table rows that match nothing in a
        // one-file workspace, anchored at line 0 in the analyzer source;
        // only code findings are the subject here.
        "GN10" => hot::gn10(&files)
            .into_iter()
            .filter(|f| f.line != 0)
            .collect(),
        "GN11" => expr::gn11(&files),
        "GN12" => expr::gn12(&files),
        "GN15" => typerules::gn15(&files),
        _ => check_file(&files[0].ctx, &files[0].lexed),
    }
}

fn check_fixture(kind: &str, rule: &str) -> Vec<Finding> {
    run_rule(rule, context_for(rule), &fixture_source(kind, rule))
}

fn live<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && f.suppressed.is_none())
        .collect()
}

#[test]
fn every_rule_has_both_fixtures() {
    for rule in greednet_lint::rules::RULES.iter().map(|r| r.id) {
        for kind in ["bad", "allowed"] {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("fixtures")
                .join(kind)
                .join(format!("{}.rs", rule.to_lowercase()));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn bad_fixtures_fire_their_rule() {
    let expected_min = [
        ("GN08", 3),
        ("GN10", 4),
        ("GN11", 5),
        ("GN12", 4),
        ("GN15", 4),
    ];
    for (rule, min_count) in expected_min {
        let findings = check_fixture("bad", rule);
        let hits = live(&findings, rule);
        assert!(
            hits.len() >= min_count,
            "{rule}: expected >= {min_count} findings, got {}: {findings:?}",
            hits.len()
        );
    }
}

#[test]
fn bad_fixture_spans_point_at_the_offending_lines() {
    // Exact file:line spans against the fixture sources.
    let expected: [(&str, &[u32], &str); 5] = [
        ("GN08", &[5, 6, 10], ".ok(); and let _ = spans"),
        ("GN10", &[9, 19, 25, 30], "GN10 anchors at the hot fns"),
        (
            "GN11",
            &[6, 14, 19, 23, 27, 35],
            "GN11 anchors at the split call sites",
        ),
        (
            "GN12",
            &[7, 13, 20, 25],
            "GN12 anchors at the reduction call sites",
        ),
        (
            "GN15",
            &[11, 11, 17, 21],
            "GN15 anchors at the telemetry read-back sites",
        ),
    ];
    for (rule, lines, what) in expected {
        let findings = check_fixture("bad", rule);
        let got: Vec<u32> = live(&findings, rule).iter().map(|f| f.line).collect();
        assert_eq!(got, lines, "{what}");
    }
}

#[test]
fn gn10_diagnostic_prints_the_call_graph_path() {
    // The hot-path message must show *how* the allocation is reached:
    // the fn chain plus the allocating construct's file:line.
    let gn10 = check_fixture("bad", "GN10");
    let through_helper = live(&gn10, "GN10")
        .into_iter()
        .find(|f| f.line == 9)
        .expect("hot fn `tick` flagged");
    assert!(
        through_helper.message.contains("tick → advance → .clone()"),
        "path diagnostic missing: {}",
        through_helper.message
    );
    assert!(
        through_helper
            .message
            .contains("crates/des/src/fixture.rs:14"),
        "alloc-site span missing: {}",
        through_helper.message
    );
}

#[test]
fn allowed_fixtures_are_clean() {
    for rule in greednet_lint::rules::RULES.iter().map(|r| r.id) {
        let findings = check_fixture("allowed", rule);
        let all_live: Vec<&Finding> = findings.iter().filter(|f| f.suppressed.is_none()).collect();
        assert!(
            all_live.is_empty(),
            "{rule} allowed fixture should be clean, got {all_live:?}"
        );
    }
}

#[test]
fn allowed_fixtures_record_suppression_reasons() {
    // The annotated fixtures must show up as *suppressed* findings (the
    // rule still matched — an allow is visible, not invisible).
    for rule in greednet_lint::rules::RULES.iter().map(|r| r.id) {
        let findings = check_fixture("allowed", rule);
        let suppressed: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rule && f.suppressed.is_some())
            .collect();
        assert_eq!(
            suppressed.len(),
            1,
            "{rule} allowed fixture should carry exactly one annotated site"
        );
        let reason = suppressed[0].suppressed.as_deref().unwrap_or("");
        assert!(!reason.is_empty(), "{rule} suppression must carry a reason");
    }
}

/// Where a mutation test's compliant source comes from.
enum Origin {
    /// A real workspace file the rule guards (workspace-relative path).
    Workspace(&'static str),
    /// The rule's allowed fixture.
    Fixture,
}

/// One-line mutations that must turn compliant code into a finding:
/// `(rule, origin, line as written, mutated line)`. The line is matched
/// after trimming and must occur exactly once in the source.
const MUTATIONS: &[(&str, Origin, &str, &str)] = &[
    (
        "GN08",
        Origin::Workspace("crates/serve/src/service.rs"),
        r#"emit(&mut writer, &progress_record(id, "compute"))?;"#,
        r#"emit(&mut writer, &progress_record(id, "compute")).ok();"#,
    ),
    (
        "GN10",
        Origin::Workspace("crates/des/src/calendar.rs"),
        "self.heap.pop().map(|s| s.0)",
        "self.heap.pop().map(|s| s.0.clone())",
    ),
    (
        "GN11",
        Origin::Fixture,
        "let _split_unused_reserved = master.split(4);",
        "let reserved = master.split(4);",
    ),
    (
        "GN12",
        Origin::Workspace("crates/bench/src/experiments/e1.rs"),
        "let mean_resid = det_mean(solved.iter().map(|(r, _)| *r));",
        "let mean_resid = solved.iter().map(|(r, _)| *r).sum::<f64>();",
    ),
    (
        "GN15",
        Origin::Fixture,
        "hit_total: m.hits.count(),",
        "hit_total: m.hits.count() + 1,",
    ),
];

#[test]
fn mutation_of_compliant_code_fires_each_kept_rule() {
    let root = greednet_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace");
    for (rule, origin, line_text, mutant) in MUTATIONS {
        let (ctx, src) = match origin {
            Origin::Workspace(rel) => {
                let src = std::fs::read_to_string(root.join(rel))
                    .unwrap_or_else(|e| panic!("{rule}: cannot read {rel}: {e}"));
                let crate_name = rel.split('/').nth(1).unwrap_or_default().to_string();
                let ctx = FileContext {
                    crate_name,
                    rel_path: (*rel).to_string(),
                    kind: FileKind::Lib,
                };
                (ctx, src)
            }
            Origin::Fixture => (context_for(rule), fixture_source("allowed", rule)),
        };
        let hits: Vec<usize> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.trim() == *line_text)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "{rule}: `{line_text}` must occur exactly once"
        );
        let line = u32::try_from(hits[0] + 1).expect("small file");
        let mutated: String = src
            .lines()
            .enumerate()
            .map(|(i, l)| {
                let l = if i == hits[0] {
                    l.replace(line_text, mutant)
                } else {
                    l.to_string()
                };
                format!("{l}\n")
            })
            .collect();

        let before = run_rule(rule, ctx.clone(), &src);
        assert!(
            live(&before, rule).is_empty(),
            "{rule}: unmutated source must be clean: {before:?}"
        );
        let after = run_rule(rule, ctx.clone(), &mutated);
        // Reachability rules anchor at the entry fn and name the site
        // in the message; the others anchor at the site itself.
        let site = format!("{}:{line}", ctx.rel_path);
        assert!(
            live(&after, rule)
                .iter()
                .any(|f| f.line == line || f.message.contains(&site)),
            "{rule}: mutating line {line} to `{mutant}` must fire there: {after:?}"
        );
    }
}

#[test]
fn gn15_taint_path_names_the_probe_and_origin() {
    // The dataflow diagnostic must show the path: binding name, the
    // telemetry getter it came from, and the origin line.
    let findings = check_fixture("bad", "GN15");
    let tainted = live(&findings, "GN15")
        .into_iter()
        .find(|f| f.line == 17)
        .expect("tainted rebinding flagged");
    assert!(
        tainted.message.contains("`again` <- `.count()` (line 15)"),
        "taint path missing: {}",
        tainted.message
    );
}

#[test]
fn bad_fixture_is_not_quieted_by_wrong_rule_annotation() {
    // An allow for a different rule on the same line must not suppress.
    let src = "let _ = sink.flush(); // greednet-lint: allow(GN10, reason = \"wrong rule\")\n";
    let findings = check_file(&context_for("GN08"), &lexer::lex(src));
    assert_eq!(live(&findings, "GN08").len(), 1);
}
