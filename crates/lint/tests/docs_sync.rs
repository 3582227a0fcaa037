//! Doc-code sync golden test: the rule set the analyzer enforces (what
//! `--list-rules` prints: `rules::RULES` plus `rules::DIAGNOSTICS`) and
//! the `### GN..` headings in the workspace's `LINTS.md` must be the
//! same set. A rule added without documentation, or documentation left
//! behind after a rule is dropped, fails this test.

use std::collections::BTreeSet;
use std::path::Path;

fn lints_md() -> String {
    let root = greednet_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint lives inside the workspace");
    std::fs::read_to_string(root.join("LINTS.md")).expect("LINTS.md at the workspace root")
}

/// Ids with a `### GNxx` heading in LINTS.md.
fn documented_ids(md: &str) -> BTreeSet<String> {
    md.lines()
        .filter_map(|l| l.strip_prefix("### "))
        .filter_map(|h| {
            let id = h.split([' ', '\u{2014}']).next().unwrap_or("");
            (id.len() == 4 && id.starts_with("GN") && id[2..].bytes().all(|b| b.is_ascii_digit()))
                .then(|| id.to_string())
        })
        .collect()
}

/// Ids `--list-rules` prints: diagnostics plus rules.
fn enforced_ids() -> BTreeSet<String> {
    greednet_lint::rules::DIAGNOSTICS
        .iter()
        .chain(greednet_lint::rules::RULES)
        .map(|r| r.id.to_string())
        .collect()
}

#[test]
fn every_enforced_rule_is_documented_and_vice_versa() {
    let documented = documented_ids(&lints_md());
    let enforced = enforced_ids();
    let undocumented: Vec<&String> = enforced.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&enforced).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "LINTS.md out of sync with --list-rules: missing headings for \
         {undocumented:?}, stale headings {stale:?}"
    );
}

#[test]
fn heading_extraction_sees_the_known_rules() {
    // Guard the extractor itself: if the heading format in LINTS.md ever
    // changes shape, this fails rather than the sync test passing on two
    // empty sets.
    let documented = documented_ids(&lints_md());
    assert!(documented.contains("GN08"), "{documented:?}");
    assert!(documented.contains("GN00"), "{documented:?}");
    assert!(documented.len() >= 6, "{documented:?}");
}

#[test]
fn rule_tables_are_sorted_and_unique() {
    // `--list-rules` prints DIAGNOSTICS then RULES; together they must be
    // strictly increasing so the listing (and the JSON `"rules"` array)
    // is deterministic and duplicate-free.
    let ids: Vec<&str> = greednet_lint::rules::DIAGNOSTICS
        .iter()
        .chain(greednet_lint::rules::RULES)
        .map(|r| r.id)
        .collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "rule ids must be sorted and unique");
}

/// GitHub's anchor algorithm, reduced to what our headings use:
/// lowercase, keep alphanumerics/underscores/hyphens/spaces, drop the
/// rest, then spaces become hyphens.
fn slugify(heading: &str) -> String {
    heading
        .to_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-' || *c == ' ')
        .collect::<String>()
        .replace(' ', "-")
}

#[test]
fn sarif_help_uris_match_lints_md_anchors() {
    // Every RuleMeta.anchor baked into the SARIF `helpUri` must resolve
    // against an actual `### GNxx — ...` heading in LINTS.md, so the
    // links in code-scanning UIs land on the right section.
    let md = lints_md();
    let anchors: BTreeSet<String> = md
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(slugify)
        .collect();
    for r in greednet_lint::rules::DIAGNOSTICS
        .iter()
        .chain(greednet_lint::rules::RULES)
    {
        assert!(
            anchors.contains(r.anchor),
            "{}: anchor `{}` has no matching heading in LINTS.md (have {anchors:?})",
            r.id,
            r.anchor
        );
    }
}
