//! GN10 — hot-path allocation freedom.
//!
//! A function becomes *hot* by carrying a `// gn:hot` /
//! `// gn:hot(amortized)` annotation (attached to the next `fn` item, or
//! the item on the same line for trailing comments), or by appearing in
//! the `HOT_PATHS` table below, which pins the paths the perf roadmap
//! depends on independently of what the source currently claims. A hot
//! fn must not *reach* an allocating construct through the intra-
//! workspace call graph — not just avoid allocating directly.
//!
//! Two enforcement modes:
//!
//! * **strict** (`gn:hot`) — no allocation of any kind on any path,
//!   including growth-capable calls (`.push`, `.insert`, `.extend`,
//!   `.resize`, `.reserve`, …) that only allocate when capacity runs
//!   out.
//! * **amortized** (`gn:hot(amortized)`) — growth-capable calls are
//!   tolerated (the buffers are reused across iterations, so growth
//!   amortizes to zero in steady state), but unconditional allocations
//!   (`clone`, `collect`, `format!`, `vec!`, `Box::new`, `to_string`,
//!   `String::from`, `with_capacity`, …) are still banned.
//!
//! The call graph here is restricted to library code of the
//! deterministic crates ([`DETERMINISTIC_CRATES`]): telemetry, bench,
//! and CLI code is *not* part of the node set, so an over-approximate
//! method-call edge cannot bind a hot fn to a probe implementation or a
//! report formatter that legitimately allocates. The flip side of that
//! contract: `gn:hot` annotations outside the enforced scope are
//! unenforceable and are reported as findings rather than silently
//! ignored — same for `HOT_PATHS` entries that no longer match any fn
//! after a rename. Diagnostics show the BFS shortest path from the hot
//! entry to the offending construct.

use crate::graph::{find_calls, import_scope, Call, SourceFile};
use crate::lexer::{HotMode, LexedFile};
use crate::rules::{FileKind, Finding, DETERMINISTIC_CRATES};
use std::collections::{BTreeMap, VecDeque};

/// Hot paths pinned independently of source annotations: the structures
/// ROADMAP item 2's rewrites rely on staying allocation-free. Empty type
/// name = free function. A row that matches no fn is itself a GN10
/// finding, so a rename cannot silently drop enforcement.
const HOT_PATHS: &[(&str, &str, &str, HotMode)] = &[
    ("des", "EventCalendar", "schedule", HotMode::Amortized),
    ("des", "EventCalendar", "pop", HotMode::Strict),
    ("des", "Engine", "dispatch", HotMode::Amortized),
    ("largen", "", "best_response_finite", HotMode::Strict),
    ("largen", "", "best_response_continuum", HotMode::Strict),
    ("serve", "", "fnv1a_64", HotMode::Strict),
    ("serve", "", "fnv1a_128", HotMode::Strict),
];

/// Methods that always allocate.
const UNCONDITIONAL_METHODS: &[&str] = &[
    "clone",
    "collect",
    "to_string",
    "to_owned",
    "to_vec",
    "push_str",
    "with_capacity",
];

/// Macros that always allocate.
const UNCONDITIONAL_MACROS: &[&str] = &["format", "vec"];

/// Methods that allocate only when capacity runs out (tolerated under
/// `gn:hot(amortized)` because reused buffers stop growing in steady
/// state).
const GROWTH_METHODS: &[&str] = &[
    "push",
    "insert",
    "extend",
    "resize",
    "reserve",
    "push_back",
    "push_front",
];

/// Rust primitive types. A path call qualified by one of these
/// (`u64::from`, `f64::from_bits`, ...) is a std intrinsic conversion
/// that can never resolve to a workspace fn, so it contributes no
/// call-graph edge.
const PRIMITIVE_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char",
];

/// An allocating construct found in a fn body.
#[derive(Debug, Clone)]
struct AllocSite {
    /// Display form: `.collect()`, `format!`, `Box::new`.
    desc: String,
    line: u32,
}

/// One node of the deterministic-scope call graph.
struct Node {
    file: usize,
    item: usize,
    /// First unconditional allocation in the body, if any.
    uncond: Option<AllocSite>,
    /// First growth-capable call in the body, if any.
    growth: Option<AllocSite>,
    edges: Vec<usize>,
}

fn mode_label(mode: HotMode) -> &'static str {
    match mode {
        HotMode::Strict => "gn:hot",
        HotMode::Amortized => "gn:hot(amortized)",
    }
}

/// Runs GN10 over the file set (see module docs).
pub fn gn10(files: &[SourceFile]) -> Vec<Finding> {
    let nodes = build_graph(files);
    // (file idx, item idx) -> node id, for annotation/table lookup.
    let by_item: BTreeMap<(usize, usize), usize> = nodes
        .iter()
        .enumerate()
        .map(|(id, n)| ((n.file, n.item), id))
        .collect();
    let mut findings = Vec::new();
    // Entry set: node id -> mode, strict winning over amortized when a
    // fn is both annotated and table-pinned.
    let mut entries: BTreeMap<usize, HotMode> = BTreeMap::new();
    collect_annotation_entries(files, &by_item, &mut entries, &mut findings);
    collect_table_entries(files, &nodes, &mut entries, &mut findings);
    for (&id, &mode) in &entries {
        let node = &nodes[id];
        let sf = &files[node.file];
        let item = &sf.parsed.fns[node.item];
        let Some((path, site)) = shortest_alloc_path(&nodes, id, mode) else {
            continue;
        };
        let chain: Vec<String> = path
            .iter()
            .map(|&n| files[nodes[n].file].parsed.fns[nodes[n].item].name.clone())
            .collect();
        let site_file = &files[nodes[path.last().copied().unwrap_or(id)].file]
            .ctx
            .rel_path;
        let suppressed = sf
            .lexed
            .suppressions
            .iter()
            .find(|s| s.rule == "GN10" && s.target_line == item.line)
            .map(|s| s.reason.clone());
        findings.push(Finding {
            rule: "GN10",
            file: sf.ctx.rel_path.clone(),
            line: item.line,
            message: format!(
                "hot fn `{}` ({}) reaches allocation: {} → {} ({}:{}); \
                 hoist the allocation out of the hot path, reuse a \
                 caller-provided buffer, or demote the annotation to \
                 gn:hot(amortized) if the growth is bounded",
                item.name,
                mode_label(mode),
                chain.join(" → "),
                site.desc,
                site_file,
                site.line
            ),
            suppressed,
        });
    }
    findings
}

/// Resolves `gn:hot` annotations to graph nodes; annotations that bind
/// to nothing enforceable are findings, not silent no-ops.
fn collect_annotation_entries(
    files: &[SourceFile],
    by_item: &BTreeMap<(usize, usize), usize>,
    entries: &mut BTreeMap<usize, HotMode>,
    findings: &mut Vec<Finding>,
) {
    for (fi, sf) in files.iter().enumerate() {
        for ann in &sf.lexed.hot_annotations {
            let target = sf
                .parsed
                .fns
                .iter()
                .enumerate()
                .filter(|(_, item)| item.line >= ann.line)
                .min_by_key(|(_, item)| item.line);
            let node = target.and_then(|(ii, _)| by_item.get(&(fi, ii)).copied());
            match node {
                Some(id) => add_entry(entries, id, ann.mode),
                None => findings.push(Finding {
                    rule: "GN10",
                    file: sf.ctx.rel_path.clone(),
                    line: ann.line,
                    message: format!(
                        "`{}` annotation does not bind to an enforceable fn: \
                         hot paths must be library code in a deterministic \
                         crate ({}), outside #[cfg(test)]; move the \
                         annotation or delete it",
                        mode_label(ann.mode),
                        DETERMINISTIC_CRATES.join(", "),
                    ),
                    suppressed: None,
                }),
            }
        }
    }
}

/// Resolves `HOT_PATHS` rows to graph nodes; unmatched rows are
/// findings so renames cannot silently drop enforcement.
fn collect_table_entries(
    files: &[SourceFile],
    nodes: &[Node],
    entries: &mut BTreeMap<usize, HotMode>,
    findings: &mut Vec<Finding>,
) {
    for &(krate, ty, name, mode) in HOT_PATHS {
        let mut matched = false;
        for (id, node) in nodes.iter().enumerate() {
            let sf = &files[node.file];
            let item = &sf.parsed.fns[node.item];
            let ty_matches = match ty {
                "" => item.impl_type.is_none(),
                t => item.impl_type.as_deref() == Some(t),
            };
            if sf.ctx.crate_name == krate && item.name == name && ty_matches {
                add_entry(entries, id, mode);
                matched = true;
            }
        }
        if !matched {
            let display = if ty.is_empty() {
                format!("{krate}::{name}")
            } else {
                format!("{krate}::{ty}::{name}")
            };
            findings.push(Finding {
                rule: "GN10",
                file: "crates/lint/src/hot.rs".into(),
                line: 0,
                message: format!(
                    "HOT_PATHS entry `{display}` matches no function in the \
                     analyzed workspace; update the table to follow the \
                     rename (hot-path enforcement would silently lapse \
                     otherwise)"
                ),
                suppressed: None,
            });
        }
    }
}

fn add_entry(entries: &mut BTreeMap<usize, HotMode>, id: usize, mode: HotMode) {
    let slot = entries.entry(id).or_insert(mode);
    if mode == HotMode::Strict {
        *slot = HotMode::Strict;
    }
}

/// Builds the deterministic-scope call graph (library, non-test fns of
/// `DETERMINISTIC_CRATES` only — see module docs for why).
fn build_graph(files: &[SourceFile]) -> Vec<Node> {
    let mut nodes = Vec::new();
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (fi, sf) in files.iter().enumerate() {
        if sf.ctx.kind != FileKind::Lib
            || !DETERMINISTIC_CRATES.contains(&sf.ctx.crate_name.as_str())
        {
            continue;
        }
        for (ii, item) in sf.parsed.fns.iter().enumerate() {
            if item.in_test {
                continue;
            }
            let id = nodes.len();
            let (uncond, growth) = find_alloc_sites(&sf.lexed, item.body);
            nodes.push(Node {
                file: fi,
                item: ii,
                uncond,
                growth,
                edges: Vec::new(),
            });
            by_name
                .entry((sf.ctx.crate_name.as_str(), item.name.as_str()))
                .or_default()
                .push(id);
            if item.in_impl {
                methods
                    .entry((sf.ctx.crate_name.as_str(), item.name.as_str()))
                    .or_default()
                    .push(id);
            }
        }
    }
    for id in 0..nodes.len() {
        let sf = &files[nodes[id].file];
        let scope = import_scope(sf);
        let item = &sf.parsed.fns[nodes[id].item];
        let mut edges = Vec::new();
        for call in find_calls(&sf.lexed.tokens, item.body) {
            let (name, index) = match &call {
                Call::Free(n) => (n.as_str(), &by_name),
                Call::Path { name: n, qualifier } => {
                    // `u64::from(b)` and friends resolve to std intrinsic
                    // conversions, never to workspace code; binding them by
                    // name would leak arbitrary `From` impls into every hot
                    // path. Dropping primitive-qualified paths removes no
                    // real edge, so the over-approximation stays honest.
                    if qualifier
                        .as_deref()
                        .is_some_and(|q| PRIMITIVE_TYPES.contains(&q))
                    {
                        continue;
                    }
                    (n.as_str(), &by_name)
                }
                Call::Method(n) => (n.as_str(), &methods),
            };
            for &krate in &scope {
                if let Some(targets) = index.get(&(krate, name)) {
                    for &t in targets {
                        if t != id && !edges.contains(&t) {
                            edges.push(t);
                        }
                    }
                }
            }
        }
        nodes[id].edges = edges;
    }
    nodes
}

/// First unconditional allocation and first growth-capable call in the
/// token range, skipping test regions.
fn find_alloc_sites(
    lexed: &LexedFile,
    body: (usize, usize),
) -> (Option<AllocSite>, Option<AllocSite>) {
    let tokens = &lexed.tokens;
    let mut uncond: Option<AllocSite> = None;
    let mut growth: Option<AllocSite> = None;
    for i in body.0..body.1 {
        if uncond.is_some() && growth.is_some() {
            break;
        }
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        let line = tokens[i].line;
        if lexed.in_test_code(line) {
            continue;
        }
        if UNCONDITIONAL_MACROS.contains(&name)
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            uncond.get_or_insert(AllocSite {
                desc: format!("{name}!"),
                line,
            });
            continue;
        }
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        if prev.is_some_and(|t| t.is_punct('.')) {
            if UNCONDITIONAL_METHODS.contains(&name) {
                uncond.get_or_insert(AllocSite {
                    desc: format!(".{name}()"),
                    line,
                });
            } else if GROWTH_METHODS.contains(&name) {
                growth.get_or_insert(AllocSite {
                    desc: format!(".{name}()"),
                    line,
                });
            }
        } else if prev.is_some_and(|t| t.is_punct(':')) {
            // `Qualifier::name(` — the qualifier is two tokens back past
            // the `::`.
            let qual = i
                .checked_sub(3)
                .and_then(|q| tokens[q].ident())
                .unwrap_or("");
            let hit = match name {
                "new" => matches!(qual, "Box" | "Rc" | "Arc"),
                "from" => qual == "String",
                "with_capacity" => true,
                _ => false,
            };
            if hit {
                uncond.get_or_insert(AllocSite {
                    desc: format!("{qual}::{name}"),
                    line,
                });
            }
        }
    }
    (uncond, growth)
}

/// BFS from `start`; returns the node path to the nearest allocation
/// relevant under `mode` and that site (the start node itself counts).
fn shortest_alloc_path(
    nodes: &[Node],
    start: usize,
    mode: HotMode,
) -> Option<(Vec<usize>, AllocSite)> {
    let relevant = |n: &Node| -> Option<AllocSite> {
        match mode {
            HotMode::Strict => {
                // Prefer the unconditional site for the diagnostic when
                // both exist (it is the stronger violation).
                n.uncond.clone().or_else(|| n.growth.clone())
            }
            HotMode::Amortized => n.uncond.clone(),
        }
    };
    let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue = VecDeque::from([start]);
    parent.insert(start, start);
    while let Some(n) = queue.pop_front() {
        if let Some(site) = relevant(&nodes[n]) {
            let mut path = vec![n];
            let mut cur = n;
            while parent[&cur] != cur {
                cur = parent[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some((path, site));
        }
        for &next in &nodes[n].edges {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                e.insert(n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;

    fn lib_ctx(krate: &str, rel: &str) -> FileContext {
        FileContext {
            crate_name: krate.into(),
            rel_path: rel.into(),
            kind: FileKind::Lib,
        }
    }

    fn live(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| f.suppressed.is_none()).collect()
    }

    /// Keep only findings about real annotated code (drop the
    /// HOT_PATHS-table rows, which never match these synthetic files).
    fn code_findings(findings: Vec<Finding>) -> Vec<Finding> {
        findings.into_iter().filter(|f| f.line != 0).collect()
    }

    #[test]
    fn strict_hot_fn_reaching_collect_is_flagged_with_path() {
        let src = "struct S { buf: Vec<u32> }\nimpl S {\n    // gn:hot\n    pub fn tick(&mut self) { self.helper(); }\n    fn helper(&self) { let _v: Vec<u32> = (0..4).collect(); }\n}\n";
        let f = code_findings(gn10(&[SourceFile::new(
            lib_ctx("des", "crates/des/src/a.rs"),
            src,
        )]));
        assert_eq!(live(&f).len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("tick → helper → .collect()"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("crates/des/src/a.rs:5"));
    }

    #[test]
    fn amortized_mode_tolerates_growth_but_not_clone() {
        let src = "// gn:hot(amortized)\npub fn grow(&mut self) { self.buf.push(1); }\n// gn:hot(amortized)\npub fn copy(&mut self) -> Vec<u32> { self.buf.clone() }\n";
        let f = code_findings(gn10(&[SourceFile::new(
            lib_ctx("des", "crates/des/src/a.rs"),
            src,
        )]));
        let lines: Vec<u32> = live(&f).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![4], "{f:?}");
        assert!(f[0].message.contains(".clone()"));
    }

    #[test]
    fn strict_mode_flags_growth_calls() {
        let src = "// gn:hot\npub fn grow(&mut self) { self.buf.push(1); }\n";
        let f = code_findings(gn10(&[SourceFile::new(
            lib_ctx("des", "crates/des/src/a.rs"),
            src,
        )]));
        assert_eq!(live(&f).len(), 1, "{f:?}");
        assert!(f[0].message.contains(".push()"));
    }

    #[test]
    fn annotation_outside_deterministic_scope_is_reported() {
        let src = "// gn:hot\npub fn probe(&mut self) {}\n";
        let f = gn10(&[SourceFile::new(
            lib_ctx("telemetry", "crates/telemetry/src/a.rs"),
            src,
        )]);
        let code: Vec<&Finding> = f.iter().filter(|f| f.line == 1).collect();
        assert_eq!(code.len(), 1, "{f:?}");
        assert!(code[0].message.contains("does not bind"));
    }

    #[test]
    fn unmatched_hot_paths_rows_are_findings() {
        // An empty file set matches no table row: every row must report.
        let f = gn10(&[]);
        assert_eq!(f.len(), HOT_PATHS.len());
        assert!(f.iter().all(|x| x.message.contains("HOT_PATHS entry")));
    }

    #[test]
    fn clean_hot_fn_stays_silent_and_allows_suppress() {
        let src = "// gn:hot\npub fn fast(&self) -> u64 { self.a ^ self.b }\n// greednet-lint: allow(GN10, reason = \"startup-only: arena warms before the loop\")\n// gn:hot\npub fn warm(&mut self) { self.buf.push(0); }\n";
        let f = code_findings(gn10(&[SourceFile::new(
            lib_ctx("des", "crates/des/src/a.rs"),
            src,
        )]));
        assert!(live(&f).is_empty(), "{f:?}");
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed.is_some());
    }

    #[test]
    fn telemetry_method_impls_cannot_taint_hot_paths() {
        // `.on_event(` in the hot fn must not bind to the telemetry
        // crate's allocating impl: telemetry is outside the node set.
        let hot = "// gn:hot\npub fn tick(&mut self, probe: &mut P) { probe.on_event(1); }\n";
        let probe = "impl Probe for Trace {\n    fn on_event(&mut self, x: u64) { self.lines.push(format!(\"{x}\")); }\n}\n";
        let f = code_findings(gn10(&[
            SourceFile::new(lib_ctx("des", "crates/des/src/a.rs"), hot),
            SourceFile::new(lib_ctx("telemetry", "crates/telemetry/src/b.rs"), probe),
        ]));
        assert!(live(&f).is_empty(), "{f:?}");
    }
}
