//! JSON report builder for the benchmark under `perf/`.
//!
//! The benchmark emits small pretty-printed JSON reports
//! (insertion-ordered keys, two-space indentation) for its result lines,
//! per-layer metrics and traced spans.
//!
//! The builder is deliberately tiny: insertion-ordered `(key, value)`
//! pairs, integer / shortest-float / string / bool / nested object
//! values, and an [`BenchJson::emit`] helper with the "print to stdout,
//! optionally write `--out` path, note it on stderr" contract. Strings go
//! through the workspace's one escaper
//! ([`greednet_telemetry::push_json_string`]), and non-finite floats
//! render as `null`, so a report is always valid JSON.

use greednet_telemetry::push_json_string;
use std::fmt::Write as _;

/// One value in a bench report.
#[derive(Debug, Clone)]
enum Value {
    /// Unsigned integer, rendered without a decimal point.
    UInt(u64),
    /// Float rendered via `Display` (shortest form, e.g. `200000`).
    Num(f64),
    /// JSON string.
    Str(String),
    /// Bare boolean.
    Bool(bool),
    /// Nested object.
    Obj(BenchJson),
}

/// Insertion-ordered JSON object builder for benchmark reports.
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    entries: Vec<(String, Value)>,
}

impl BenchJson {
    /// Creates an empty report object.
    #[must_use]
    pub fn new() -> BenchJson {
        BenchJson::default()
    }

    /// Adds an unsigned-integer field.
    pub fn uint(&mut self, key: impl Into<String>, value: u64) -> &mut BenchJson {
        self.entries.push((key.into(), Value::UInt(value)));
        self
    }

    /// Adds a float field rendered via `Display` (shortest form).
    pub fn num(&mut self, key: impl Into<String>, value: f64) -> &mut BenchJson {
        self.entries.push((key.into(), Value::Num(value)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut BenchJson {
        self.entries.push((key.into(), Value::Str(value.into())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: impl Into<String>, value: bool) -> &mut BenchJson {
        self.entries.push((key.into(), Value::Bool(value)));
        self
    }

    /// Adds a nested object field.
    pub fn obj(&mut self, key: impl Into<String>, value: BenchJson) -> &mut BenchJson {
        self.entries.push((key.into(), Value::Obj(value)));
        self
    }

    /// Renders the report as pretty-printed JSON with a trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        out.push_str("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            out.push_str(&pad);
            push_json_string(out, key);
            out.push_str(": ");
            // String-formatting into a String cannot fail; the fmt::Write
            // signature is an artifact of the trait.
            match value {
                Value::UInt(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Num(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                Value::Num(_) => out.push_str("null"),
                Value::Str(v) => push_json_string(out, v),
                Value::Bool(v) => {
                    let _ = write!(out, "{v}");
                }
                Value::Obj(o) => o.render_into(out, indent + 1),
            }
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str(&"  ".repeat(indent));
        out.push('}');
    }

    /// Prints the report to stdout and, if `out` names a path, writes it
    /// there too (noting the write on stderr).
    ///
    /// # Errors
    /// Returns a human-readable message if the file write fails.
    pub fn emit(&self, out: Option<&str>) -> Result<(), String> {
        let text = self.render();
        print!("{text}");
        if let Some(path) = out {
            std::fs::write(path, &text).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_in_insertion_order() {
        let mut inner = BenchJson::new();
        inner.uint("events", 12).num("elapsed_s", 0.5);
        let mut report = BenchJson::new();
        report.num("horizon", 200_000.0);
        report.uint("seed", 1);
        let mut workloads = BenchJson::new();
        workloads.obj("open_loop", inner);
        report.obj("workloads", workloads);
        let text = report.render();
        assert_eq!(
            text,
            "{\n  \"horizon\": 200000,\n  \"seed\": 1,\n  \"workloads\": {\n    \
             \"open_loop\": {\n      \"events\": 12,\n      \"elapsed_s\": 0.5\n    }\n  }\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut report = BenchJson::new();
        report.num("rate", f64::INFINITY);
        report.num("nanned", f64::NAN);
        assert_eq!(
            report.render(),
            "{\n  \"rate\": null,\n  \"nanned\": null\n}\n"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut report = BenchJson::new();
        report.str("name", "a\"b\\c");
        assert_eq!(report.render(), "{\n  \"name\": \"a\\\"b\\\\c\"\n}\n");
    }

    #[test]
    fn control_characters_in_strings_are_escaped() {
        let mut report = BenchJson::new();
        report.str("k", "a\nb");
        assert_eq!(report.render(), "{\n  \"k\": \"a\\nb\"\n}\n");
    }
}
