//! Structured experiment output: [`RunReport`] and its text / JSON / CSV
//! emitters.
//!
//! Experiments build a report — sections holding notes, tables, and named
//! scalar metrics — instead of printing. The same report then renders to
//! the human-readable table format the old binaries printed, to JSON for
//! machine consumption, or to CSV for spreadsheets.

use std::fmt::Write as _;

use greednet_telemetry::{json_f64, json_string, Telemetry};

/// One table cell. Numeric cells carry both the value (emitted to JSON)
/// and the display text (emitted to text/CSV), so experiments keep full
/// control of printed precision without losing machine readability.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Boolean flag.
    Bool(bool),
    /// Floating-point value plus its rendered form.
    Num {
        /// The numeric value.
        value: f64,
        /// How the text/CSV emitters print it.
        text: String,
    },
}

impl Cell {
    /// Numeric cell with default 5-decimal rendering.
    #[must_use]
    pub fn num(value: f64) -> Cell {
        Cell::Num {
            value,
            text: format!("{value:.5}"),
        }
    }

    /// Numeric cell with caller-chosen rendering.
    #[must_use]
    pub fn num_text(value: f64, text: impl Into<String>) -> Cell {
        Cell::Num {
            value,
            text: text.into(),
        }
    }

    /// Display text used by the text and CSV emitters.
    #[must_use]
    pub fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(i) => i.to_string(),
            Cell::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            Cell::Num { text, .. } => text.clone(),
        }
    }

    fn is_numeric(&self) -> bool {
        matches!(self, Cell::Int(_) | Cell::Num { .. })
    }

    fn to_json(&self) -> String {
        match self {
            Cell::Str(s) => json_string(s),
            Cell::Int(i) => i.to_string(),
            Cell::Bool(b) => b.to_string(),
            Cell::Num { value, .. } => json_f64(*value),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

impl From<i64> for Cell {
    fn from(i: i64) -> Cell {
        Cell::Int(i)
    }
}

impl From<usize> for Cell {
    fn from(i: usize) -> Cell {
        Cell::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Bool(b)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Cell {
        Cell::num(v)
    }
}

/// A column-labelled table of [`Cell`] rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: Option<String>,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Table with the given column headers.
    #[must_use]
    pub fn new(columns: &[&str]) -> Table {
        Table {
            title: None,
            columns: columns.iter().map(|c| (*c).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Table {
        self.title = Some(title.into());
        self
    }

    /// Appends one row. Panics if the width does not match the headers.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
    }

    /// Column headers.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Table rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    fn render_text(&self, out: &mut String) {
        if let Some(t) = &self.title {
            let _ = writeln!(out, "-- {t} --");
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.text().len());
            }
        }
        let mut line = String::new();
        for (i, (col, w)) in self.columns.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{col:>w$}");
        }
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let text = cell.text();
                if cell.is_numeric() {
                    let _ = write!(line, "{text:>w$}");
                } else {
                    let _ = write!(line, "{text:<w$}");
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
    }
}

#[derive(Debug, Clone)]
enum Item {
    Note(String),
    Table(Table),
    Metric { name: String, value: f64 },
}

/// A titled group of notes, tables, and metrics inside a report.
#[derive(Debug, Clone, Default)]
pub struct Section {
    heading: Option<String>,
    items: Vec<Item>,
}

/// Structured output of one experiment run.
///
/// Built incrementally: [`note`](RunReport::note),
/// [`table`](RunReport::table), and [`metric`](RunReport::metric) append
/// to the current section; [`section`](RunReport::section) starts a new
/// one. Rendered with [`render`](RunReport::render).
#[derive(Debug, Clone)]
pub struct RunReport {
    id: String,
    title: String,
    seed: u64,
    threads: usize,
    sections: Vec<Section>,
    /// Wall-clock telemetry side-channel. Deliberately EXCLUDED from
    /// every [`render`](RunReport::render) format: timing data is
    /// non-deterministic, and the rendered report is the payload the
    /// bitwise N-thread determinism tests compare. Render it separately
    /// with [`render_telemetry`](RunReport::render_telemetry).
    telemetry: Telemetry,
}

/// Output format for [`RunReport::render`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable aligned tables (what the old binaries printed).
    Text,
    /// One JSON object with the full report structure.
    Json,
    /// One CSV block per table, separated by blank lines.
    Csv,
}

impl Format {
    /// Parses a format name (`text` / `json` / `csv`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Format> {
        match name {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }
}

impl RunReport {
    /// Empty report for experiment `id`.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> RunReport {
        RunReport {
            id: id.into(),
            title: title.into(),
            seed: 0,
            threads: 1,
            sections: vec![Section::default()],
            telemetry: Telemetry::new(),
        }
    }

    /// Records the run's root seed and thread count (shown in headers).
    #[must_use]
    pub fn with_run_params(mut self, seed: u64, threads: usize) -> RunReport {
        self.seed = seed;
        self.threads = threads;
        self
    }

    /// Experiment id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Experiment title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Starts a new section with `heading`.
    pub fn section(&mut self, heading: impl Into<String>) {
        self.sections.push(Section {
            heading: Some(heading.into()),
            items: Vec::new(),
        });
    }

    /// Appends a prose note to the current section.
    pub fn note(&mut self, text: impl Into<String>) {
        self.current().items.push(Item::Note(text.into()));
    }

    /// Appends a table to the current section.
    pub fn table(&mut self, table: Table) {
        self.current().items.push(Item::Table(table));
    }

    /// Appends a named scalar metric to the current section.
    ///
    /// Metrics are the machine-checkable summary of a run (e.g. worst
    /// relative error); they render as `name = value` lines in text and
    /// as a flat `metrics` object in JSON.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.current().items.push(Item::Metric {
            name: name.into(),
            value,
        });
    }

    /// Looks up a metric by name across all sections.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.sections
            .iter()
            .flat_map(|s| &s.items)
            .find_map(|item| match item {
                Item::Metric { name: n, value } if n == name => Some(*value),
                _ => None,
            })
    }

    /// All tables in the report, in order.
    #[must_use]
    pub fn tables(&self) -> Vec<&Table> {
        self.sections
            .iter()
            .flat_map(|s| &s.items)
            .filter_map(|item| match item {
                Item::Table(t) => Some(t),
                _ => None,
            })
            .collect()
    }

    fn current(&mut self) -> &mut Section {
        // `new` seeds one section; re-seed defensively (instead of
        // unwrapping) so `current` is total even for a report whose
        // sections were drained by a future refactor.
        if self.sections.is_empty() {
            self.sections.push(Section::default());
        }
        let last = self.sections.len() - 1;
        &mut self.sections[last]
    }

    /// The wall-clock telemetry side-channel (read-only).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Mutable access to the telemetry side-channel, for experiments to
    /// record stage timings and pool statistics into.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Renders the telemetry side-channel as text (empty string when no
    /// telemetry was recorded). Kept separate from
    /// [`render`](RunReport::render) on purpose: callers that diff
    /// reports for bitwise determinism must never see wall-clock data.
    #[must_use]
    pub fn render_telemetry(&self) -> String {
        self.telemetry.to_text()
    }

    /// Renders the report in `format`.
    #[must_use]
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Json => self.render_json(),
            Format::Csv => self.render_csv(),
        }
    }

    fn render_text(&self) -> String {
        let mut out = String::new();
        let rule = "=".repeat(self.title.len().max(8));
        let _ = writeln!(out, "{rule}\n{}\n{rule}", self.title);
        let _ = writeln!(
            out,
            "[{}] seed={} threads={}",
            self.id, self.seed, self.threads
        );
        for section in &self.sections {
            if let Some(h) = &section.heading {
                let _ = writeln!(out, "\n== {h} ==");
            }
            for item in &section.items {
                match item {
                    Item::Note(text) => {
                        let _ = writeln!(out, "note: {text}");
                    }
                    Item::Table(table) => {
                        out.push('\n');
                        table.render_text(&mut out);
                    }
                    Item::Metric { name, value } => {
                        let _ = writeln!(out, "metric: {name} = {value}");
                    }
                }
            }
        }
        out
    }

    fn render_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"id\":{},\"title\":{},\"seed\":{},\"threads\":{},\"sections\":[",
            json_string(&self.id),
            json_string(&self.title),
            self.seed,
            self.threads
        );
        for (si, section) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push('{');
            match &section.heading {
                Some(h) => {
                    let _ = write!(out, "\"heading\":{},", json_string(h));
                }
                None => out.push_str("\"heading\":null,"),
            }
            let notes: Vec<&String> = section
                .items
                .iter()
                .filter_map(|i| if let Item::Note(n) = i { Some(n) } else { None })
                .collect();
            out.push_str("\"notes\":[");
            for (i, n) in notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(n));
            }
            out.push_str("],\"metrics\":{");
            let metrics: Vec<(&String, f64)> = section
                .items
                .iter()
                .filter_map(|i| {
                    if let Item::Metric { name, value } = i {
                        Some((name, *value))
                    } else {
                        None
                    }
                })
                .collect();
            for (i, (name, value)) in metrics.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), json_f64(*value));
            }
            out.push_str("},\"tables\":[");
            let tables: Vec<&Table> = section
                .items
                .iter()
                .filter_map(|i| {
                    if let Item::Table(t) = i {
                        Some(t)
                    } else {
                        None
                    }
                })
                .collect();
            for (ti, table) in tables.iter().enumerate() {
                if ti > 0 {
                    out.push(',');
                }
                out.push('{');
                match &table.title {
                    Some(t) => {
                        let _ = write!(out, "\"title\":{},", json_string(t));
                    }
                    None => out.push_str("\"title\":null,"),
                }
                out.push_str("\"columns\":[");
                for (i, c) in table.columns.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_string(c));
                }
                out.push_str("],\"rows\":[");
                for (ri, row) in table.rows.iter().enumerate() {
                    if ri > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    for (ci, cell) in row.iter().enumerate() {
                        if ci > 0 {
                            out.push(',');
                        }
                        out.push_str(&cell.to_json());
                    }
                    out.push(']');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} ({}) seed={} threads={}",
            self.title, self.id, self.seed, self.threads
        );
        for section in &self.sections {
            for item in &section.items {
                match item {
                    Item::Table(table) => {
                        out.push('\n');
                        if let Some(t) = &table.title {
                            let _ = writeln!(out, "# {t}");
                        } else if let Some(h) = &section.heading {
                            let _ = writeln!(out, "# {h}");
                        }
                        let _ = writeln!(
                            out,
                            "{}",
                            table
                                .columns
                                .iter()
                                .map(|c| csv_field(c))
                                .collect::<Vec<_>>()
                                .join(",")
                        );
                        for row in &table.rows {
                            let _ = writeln!(
                                out,
                                "{}",
                                row.iter()
                                    .map(|c| csv_field(&c.text()))
                                    .collect::<Vec<_>>()
                                    .join(",")
                            );
                        }
                    }
                    Item::Metric { name, value } => {
                        let _ = writeln!(out, "# metric {name} = {value}");
                    }
                    Item::Note(_) => {}
                }
            }
        }
        out
    }
}

/// Quotes a CSV field when it contains a delimiter, quote, or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("e0", "sample experiment").with_run_params(42, 4);
        r.note("alpha \"quoted\" note");
        let mut t = Table::new(&["name", "value", "ok"]).with_title("main");
        t.row(vec![
            "fifo".into(),
            Cell::num_text(1.25, "1.250"),
            true.into(),
        ]);
        t.row(vec!["fair".into(), Cell::num(f64::NAN), false.into()]);
        r.table(t);
        r.metric("worst", 0.5);
        r.section("details");
        r.note("second section");
        r
    }

    #[test]
    fn text_has_title_and_aligned_table() {
        let text = sample().render(Format::Text);
        assert!(text.contains("sample experiment"));
        assert!(text.contains("seed=42 threads=4"));
        assert!(text.contains("1.250"));
        assert!(text.contains("== details =="));
        assert!(text.contains("metric: worst = 0.5"));
    }

    #[test]
    fn json_is_structured_and_escaped() {
        let json = sample().render(Format::Json);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"id\":\"e0\""));
        assert!(json.contains("alpha \\\"quoted\\\" note"));
        assert!(json.contains("\"worst\":0.5"));
        // NaN must become null, not invalid JSON.
        assert!(json.contains("null"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut r = RunReport::new("x", "t");
        let mut t = Table::new(&["a,b"]);
        t.row(vec!["plain".into()]);
        t.row(vec!["needs \"quotes\", really".into()]);
        r.table(t);
        let csv = r.render(Format::Csv);
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"needs \"\"quotes\"\", really\""));
    }

    #[test]
    fn metric_lookup_spans_sections() {
        let r = sample();
        assert_eq!(r.metric_value("worst"), Some(0.5));
        assert_eq!(r.metric_value("missing"), None);
    }

    #[test]
    fn telemetry_side_channel_never_leaks_into_rendered_output() {
        use std::time::Duration;
        let mut with = sample();
        with.telemetry_mut()
            .timer("stage-x", Duration::from_millis(7));
        let mut pool = greednet_telemetry::PoolStats::new(2);
        pool.wall = Duration::from_millis(9);
        with.telemetry_mut().add_pool("reps", pool);
        let without = sample();
        for fmt in [Format::Text, Format::Json, Format::Csv] {
            assert_eq!(with.render(fmt), without.render(fmt));
        }
        let side = with.render_telemetry();
        assert!(side.contains("stage-x"));
        assert!(side.contains("pool [reps]"));
        assert_eq!(without.render_telemetry(), "");
    }

    #[test]
    fn format_parse_round_trips() {
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("text"), Some(Format::Text));
        assert_eq!(Format::parse("csv"), Some(Format::Csv));
        assert_eq!(Format::parse("xml"), None);
    }
}
