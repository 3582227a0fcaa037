//! Rendering of analysis results: a human-readable table, a `--json`
//! machine report, and a SARIF 2.1.0 log for code-scanning upload
//! (hand-rolled serialization — the analyzer is dependency-free by
//! construction).

use crate::rules::Finding;
use greednet_telemetry::json_string as json_str;
use std::fmt::Write as _;

/// The outcome of analyzing a workspace.
#[derive(Debug)]
pub struct Analysis {
    /// Workspace root the paths in findings are relative to.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, suppressed or live, in (file, line, rule) order.
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// Findings not covered by an allow annotation.
    pub fn live(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_none())
    }

    /// Findings covered by an allow annotation.
    pub fn suppressed(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.suppressed.is_some())
    }

    /// True if the workspace passes (no live findings).
    pub fn clean(&self) -> bool {
        self.live().next().is_none()
    }

    /// The human-readable report.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let live: Vec<&Finding> = self.live().collect();
        if live.is_empty() {
            let _ = writeln!(
                out,
                "greednet-lint: {} files scanned, 0 findings ({} allowed)",
                self.files_scanned,
                self.suppressed().count()
            );
            return out;
        }
        let width = live
            .iter()
            .map(|f| f.file.len() + digits(f.line) + 1)
            .max()
            .unwrap_or(0);
        for f in &live {
            let span = format!("{}:{}", f.file, f.line);
            let _ = writeln!(out, "{}  {span:width$}  {}", f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "\ngreednet-lint: {} files scanned, {} findings ({} allowed)",
            self.files_scanned,
            live.len(),
            self.suppressed().count()
        );
        out
    }

    /// The `--json` machine report.
    ///
    /// The `"rules"` array lists every rule id this analyzer build
    /// enforces, independent of whether it fired; CI diffs it against the
    /// previous run's artifact so a rule can never be dropped silently.
    pub fn json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"root\": {},", json_str(&self.root));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let rule_ids: Vec<String> = crate::rules::RULES.iter().map(|r| json_str(r.id)).collect();
        let _ = writeln!(out, "  \"rules\": [{}],", rule_ids.join(", "));
        let _ = writeln!(out, "  \"clean\": {},", self.clean());
        out.push_str("  \"findings\": [");
        let mut first = true;
        for f in self.live() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str(if first { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"allowed\": [");
        let mut first = true;
        for f in self.suppressed() {
            if !first {
                out.push(',');
            }
            first = false;
            let reason = f.suppressed.as_deref().unwrap_or("");
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(reason)
            );
        }
        out.push_str(if first { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// The `--format sarif` report: a minimal SARIF 2.1.0 log.
    ///
    /// Live findings become `error`-level results; allow-annotated
    /// findings are carried too, marked with an `inSource` suppression
    /// whose justification is the annotation's reason, so the scanning UI
    /// shows the audit trail rather than hiding it. The driver's rule
    /// table is [`crate::rules::DIAGNOSTICS`] plus the full
    /// [`crate::rules::RULES`] list, fired or not, each with a
    /// `fullDescription` and a `helpUri` anchored into LINTS.md.
    pub fn sarif(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str("  \"runs\": [\n    {\n");
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        out.push_str("          \"name\": \"greednet-lint\",\n");
        out.push_str("          \"rules\": [\n");
        let rules: Vec<String> = crate::rules::DIAGNOSTICS
            .iter()
            .chain(crate::rules::RULES)
            .map(|r| {
                format!(
                    "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}, \
                     \"fullDescription\": {{\"text\": {}}}, \"helpUri\": {}}}",
                    json_str(r.id),
                    json_str(r.summary),
                    json_str(r.full),
                    json_str(&format!("LINTS.md#{}", r.anchor))
                )
            })
            .collect();
        out.push_str(&rules.join(",\n"));
        out.push_str("\n          ]\n        }\n      },\n");
        out.push_str("      \"results\": [");
        let mut first = true;
        for f in &self.findings {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n        {");
            let _ = write!(out, "\"ruleId\": {}, ", json_str(f.rule));
            out.push_str("\"level\": \"error\", ");
            let _ = write!(out, "\"message\": {{\"text\": {}}}, ", json_str(&f.message));
            let _ = write!(
                out,
                "\"locations\": [{{\"physicalLocation\": {{\
                 \"artifactLocation\": {{\"uri\": {}}}, \
                 \"region\": {{\"startLine\": {}}}}}}}]",
                json_str(&f.file),
                // SARIF regions are 1-based; synthetic anchors (the
                // HOT_PATHS table rows report at line 0) clamp to 1.
                f.line.max(1)
            );
            if let Some(reason) = &f.suppressed {
                let _ = write!(
                    out,
                    ", \"suppressions\": [{{\"kind\": \"inSource\", \
                     \"justification\": {}}}]",
                    json_str(reason)
                );
            }
            out.push('}');
        }
        out.push_str(if first { "]\n" } else { "\n      ]\n" });
        out.push_str("    }\n  ]\n}\n");
        out
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, suppressed: Option<&str>) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line,
            message: "msg \"quoted\"".into(),
            suppressed: suppressed.map(String::from),
        }
    }

    #[test]
    fn clean_analysis_reports_zero() {
        let a = Analysis {
            root: ".".into(),
            files_scanned: 7,
            findings: vec![finding("GN03", "a.rs", 1, Some("proven"))],
        };
        assert!(a.clean());
        assert!(a.human().contains("0 findings (1 allowed)"));
        assert!(a.json().contains("\"clean\": true"));
        assert!(a.json().contains("\"findings\": []"));
    }

    #[test]
    fn json_lists_every_enforced_rule() {
        let a = Analysis {
            root: ".".into(),
            files_scanned: 0,
            findings: vec![],
        };
        let j = a.json();
        for r in crate::rules::RULES {
            assert!(
                j.contains(&format!("\"{}\"", r.id)),
                "missing {} in {j}",
                r.id
            );
        }
        assert!(j.contains("\"rules\": [\"GN01\""));
    }

    #[test]
    fn json_escapes_quotes_and_lists_findings() {
        let a = Analysis {
            root: "/w".into(),
            files_scanned: 1,
            findings: vec![finding("GN01", "crates/des/src/x.rs", 42, None)],
        };
        assert!(!a.clean());
        let j = a.json();
        assert!(j.contains("\"line\": 42"));
        assert!(j.contains("msg \\\"quoted\\\""));
    }

    #[test]
    fn sarif_lists_rules_results_and_suppressions() {
        let a = Analysis {
            root: "/w".into(),
            files_scanned: 2,
            findings: vec![
                finding("GN01", "crates/des/src/x.rs", 42, None),
                finding(
                    "GN09",
                    "crates/numerics/src/conv.rs",
                    75,
                    Some("clamped first"),
                ),
            ],
        };
        let s = a.sarif();
        assert!(s.contains("\"version\": \"2.1.0\""));
        for r in crate::rules::DIAGNOSTICS.iter().chain(crate::rules::RULES) {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", r.id)),
                "missing {}",
                r.id
            );
        }
        assert!(s.contains("\"ruleId\": \"GN01\""));
        assert!(s.contains("\"startLine\": 42"));
        assert!(s.contains("\"justification\": \"clamped first\""));
        // Exactly one result carries a suppression block.
        assert_eq!(s.matches("\"suppressions\"").count(), 1);
    }

    #[test]
    fn sarif_rule_object_golden() {
        // Pins the exact serialized shape of one driver rule object —
        // shortDescription, fullDescription, and the LINTS.md helpUri —
        // so the SARIF metadata cannot silently drift.
        let a = Analysis {
            root: "/w".into(),
            files_scanned: 0,
            findings: vec![],
        };
        let s = a.sarif();
        let gn13 = crate::rules::RULES
            .iter()
            .find(|r| r.id == "GN13")
            .expect("GN13 registered");
        let expected = format!(
            "            {{\"id\": \"GN13\", \"shortDescription\": {{\"text\": \
             \"no raw-f64 arithmetic on values unwrapped from typed units\"}}, \
             \"fullDescription\": {{\"text\": {}}}, \"helpUri\": \
             \"LINTS.md#gn13--no-raw-f64-arithmetic-on-values-unwrapped-from-typed-units\"}}",
            json_str(gn13.full)
        );
        assert!(
            s.contains(&expected),
            "golden GN13 rule object missing in:\n{s}"
        );
        // Every rule carries a helpUri into LINTS.md.
        assert_eq!(
            s.matches("\"helpUri\": \"LINTS.md#").count(),
            crate::rules::RULES.len() + crate::rules::DIAGNOSTICS.len()
        );
    }

    #[test]
    fn sarif_clamps_synthetic_line_zero_anchors() {
        let a = Analysis {
            root: "/w".into(),
            files_scanned: 0,
            findings: vec![finding("GN10", "crates/lint/src/hot.rs", 0, None)],
        };
        assert!(a.sarif().contains("\"startLine\": 1"));
    }

    #[test]
    fn human_table_contains_span() {
        let a = Analysis {
            root: "/w".into(),
            files_scanned: 1,
            findings: vec![finding("GN02", "crates/cli/src/x.rs", 9, None)],
        };
        assert!(a.human().contains("crates/cli/src/x.rs:9"));
    }
}
