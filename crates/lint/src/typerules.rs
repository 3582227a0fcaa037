//! The type-aware rule built on [`crate::types`]: GN15 (probe
//! isolation).
//!
//! It is a *workspace pass* like GN10–GN12: it runs over the full
//! [`SourceFile`] set because its context crosses files — it needs the
//! telemetry-typed field inventory of the whole workspace.

use crate::expr::{chain_root, collect_lets, match_delim, suppression_for};
use crate::graph::SourceFile;
use crate::lexer::{Token, TokenKind};
use crate::parse::FnItem;
use crate::rules::{FileKind, Finding, DETERMINISTIC_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Telemetry probe types from `greednet-telemetry` (re-exported by
/// `greednet-runtime`): values read back from these must never feed
/// deterministic computation (GN15).
pub const TELEMETRY_TYPES: &[&str] = &[
    "Counter",
    "Gauge",
    "Log2Histogram",
    "TraceBuffer",
    "MetricsProbe",
    "SimMetrics",
];

/// Reader methods on the telemetry probe types. A call only counts when
/// the receiver resolves to a telemetry-typed field/binding, so `get` on
/// a slice or `len` on a `Vec` never match.
const TELEMETRY_GETTERS: &[&str] = &[
    "get",
    "count",
    "zero_count",
    "min",
    "max",
    "quantile",
    "nonzero_buckets",
    "is_empty",
    "len",
    "observed",
    "evicted",
    "records",
    "to_jsonl",
    "metrics",
    "into_metrics",
    "users",
];

/// True if the token directly before `start` makes the expression an
/// arithmetic operand (`a - x.get()`, `-x.get()`, `acc += x.get()`).
fn arith_before(tokens: &[Token], start: usize) -> bool {
    let Some(p) = start.checked_sub(1) else {
        return false;
    };
    match tokens[p].kind {
        // A `-` directly before a chain root is always a real minus: in
        // `->` it is the `>` that would sit adjacent.
        TokenKind::Punct('+' | '-' | '*' | '%') => true,
        TokenKind::Punct('/') => true,
        // Compound assignment: `acc += x.get()` puts `=` adjacent.
        TokenKind::Punct('=') => p
            .checked_sub(1)
            .is_some_and(|q| matches!(tokens[q].kind, TokenKind::Punct('+' | '-' | '*' | '/'))),
        _ => false,
    }
}

/// True if the token directly after `end` makes the expression an
/// arithmetic operand (`x.get() * 0.1`), with `->` excluded.
fn arith_after(tokens: &[Token], end: usize) -> bool {
    match tokens.get(end + 1).map(|t| &t.kind) {
        Some(TokenKind::Punct('+' | '*' | '%')) => true,
        Some(TokenKind::Punct('/')) => true,
        Some(TokenKind::Punct('-')) => !tokens.get(end + 2).is_some_and(|t| t.is_punct('>')),
        _ => false,
    }
}

/// Field names declared anywhere in the workspace with a type that
/// mentions one of `type_names`, mapped to the matched type.
fn typed_fields(files: &[SourceFile], type_names: &[&str]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for f in files.iter().flat_map(|sf| &sf.fields) {
        if let Some(t) = f.ty.iter().find(|t| type_names.contains(&t.as_str())) {
            out.insert(f.name.clone(), t.clone());
        }
    }
    out
}

/// Parameter names of `item` whose declared type mentions one of
/// `type_names`, mapped to the matched type. Locates the signature by
/// the `fn` keyword on the item's line (the parser does not store it).
fn typed_params(tokens: &[Token], item: &FnItem, type_names: &[&str]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Some(k) = tokens.iter().enumerate().position(|(k, t)| {
        t.line == item.line
            && t.ident() == Some("fn")
            && tokens.get(k + 1).and_then(Token::ident) == Some(item.name.as_str())
    }) else {
        return out;
    };
    let mut j = k + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        // Skip the generic parameter list (the `>` of `->` cannot appear
        // before the param parens).
        let mut depth = 0i64;
        while j < tokens.len() {
            if tokens[j].is_punct('<') {
                depth += 1;
            } else if tokens[j].is_punct('>') && !tokens[j - 1].is_punct('-') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        return out;
    }
    let close = match_delim(tokens, j, '(', ')');
    // Split params at depth-0 commas; each is `pat: Type`.
    let mut seg_start = j + 1;
    let mut depth = 0i64;
    let mut i = j + 1;
    while i <= close {
        let at_end = i == close;
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if (t.is_punct(')') && !at_end)
            || t.is_punct(']')
            || t.is_punct('}')
            || (t.is_punct('>') && !tokens[i - 1].is_punct('-'))
        {
            depth -= 1;
        }
        if at_end || (depth == 0 && t.is_punct(',')) {
            let seg = &tokens[seg_start..i];
            if let Some(colon) = seg.iter().position(|t| t.is_punct(':')) {
                let name = seg[..colon]
                    .iter()
                    .filter_map(Token::ident)
                    .find(|s| !matches!(*s, "mut" | "ref"));
                let ty = seg[colon + 1..]
                    .iter()
                    .filter_map(Token::ident)
                    .find(|t| type_names.contains(t));
                if let (Some(name), Some(ty)) = (name, ty) {
                    out.insert(name.to_string(), ty.to_string());
                }
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    out
}

/// GN15 — telemetry probes are write-only from deterministic code.
///
/// In [`DETERMINISTIC_CRATES`] library code, a value read back from a
/// telemetry probe (a [`TELEMETRY_TYPES`] field, parameter, or binding)
/// must not feed arithmetic — directly or through `let` rebindings.
/// Snapshotting reads into a report struct (serve's `CacheStats`) is
/// fine; branching replay decisions or rate computations on probe state
/// would make results depend on observation.
pub fn gn15(files: &[SourceFile]) -> Vec<Finding> {
    let telem_fields = typed_fields(files, TELEMETRY_TYPES);
    let mut findings = Vec::new();
    for sf in files {
        if sf.ctx.kind != FileKind::Lib
            || !DETERMINISTIC_CRATES.contains(&sf.ctx.crate_name.as_str())
        {
            continue;
        }
        for item in &sf.parsed.fns {
            if item.in_test {
                continue;
            }
            check_fn_probe_isolation(sf, item, &telem_fields, &mut findings);
        }
    }
    findings
}

/// Scans one fn for telemetry read-backs feeding arithmetic.
fn check_fn_probe_isolation(
    sf: &SourceFile,
    item: &FnItem,
    telem_fields: &BTreeMap<String, String>,
    findings: &mut Vec<Finding>,
) {
    let tokens = &sf.lexed.tokens;
    let mut telem = typed_params(tokens, item, TELEMETRY_TYPES);
    for (name, ty) in telem_fields {
        telem.insert(name.clone(), ty.clone());
    }
    let lets = collect_lets(tokens, item.body);
    // Tainted bindings: name -> (getter, read-back line).
    let mut tainted: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
    let push = |findings: &mut Vec<Finding>,
                seen: &mut BTreeSet<(u32, String)>,
                line: u32,
                message: String| {
        if seen.insert((line, message.clone())) {
            findings.push(Finding {
                rule: "GN15",
                file: sf.ctx.rel_path.clone(),
                line,
                message,
                suppressed: suppression_for(&sf.lexed, "GN15", line),
            });
        }
    };
    for i in item.body.0..item.body.1 {
        // Getter call on a telemetry receiver: `probe.count()`.
        if let Some((start, end, getter, recv)) = telemetry_read(tokens, i, &telem) {
            if arith_before(tokens, start) || arith_after(tokens, end) {
                push(
                    findings,
                    &mut seen,
                    tokens[i].line,
                    format!(
                        "deterministic computation consumes telemetry read-back: \
                         arithmetic on `{recv}.{getter}()`; probes are write-only \
                         from deterministic code"
                    ),
                );
            } else if let Some(lb) = lets.iter().find(|lb| lb.init.0 <= i && i < lb.init.1) {
                for n in &lb.names {
                    tainted.insert(n.clone(), (getter.clone(), tokens[i].line));
                }
            }
            continue;
        }
        // Rebinding propagation.
        if tokens[i].ident() == Some("let") {
            if let Some(lb) = lets.iter().find(|lb| lb.let_idx == i) {
                if let Some(origin) = tokens[lb.init.0]
                    .ident()
                    .and_then(|id| tainted.get(id).cloned())
                {
                    for n in &lb.names {
                        tainted.entry(n.clone()).or_insert_with(|| origin.clone());
                    }
                }
            }
        }
    }
    for i in item.body.0..item.body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        let Some((getter, origin)) = tainted.get(name) else {
            continue;
        };
        if i > 0 && (tokens[i - 1].is_punct('.') || tokens[i - 1].is_punct(':')) {
            continue;
        }
        if arith_before(tokens, i) || arith_after(tokens, i) {
            push(
                findings,
                &mut seen,
                tokens[i].line,
                format!(
                    "deterministic arithmetic on telemetry read-back: `{name}` <- \
                     `.{getter}()` (line {origin}); probes are write-only from \
                     deterministic code"
                ),
            );
        }
    }
}

/// If `i` is the method name of `recv.getter(...)` on a telemetry
/// receiver, returns `(start, end, getter, recv)`.
fn telemetry_read(
    tokens: &[Token],
    i: usize,
    telem: &BTreeMap<String, String>,
) -> Option<(usize, usize, String, String)> {
    if i < 2 || !tokens[i - 1].is_punct('.') {
        return None;
    }
    let getter = tokens[i].ident()?;
    if !TELEMETRY_GETTERS.contains(&getter) {
        return None;
    }
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let recv = tokens[i - 2].ident()?;
    if !telem.contains_key(recv) {
        return None;
    }
    let end = match_delim(tokens, i + 1, '(', ')');
    let start = chain_root(tokens, i - 1).unwrap_or(i - 2);
    Some((start, end, getter.to_string(), recv.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileContext;

    fn sf(crate_name: &str, rel_path: &str, src: &str) -> SourceFile {
        SourceFile::new(
            FileContext {
                crate_name: crate_name.into(),
                rel_path: rel_path.into(),
                kind: FileKind::Lib,
            },
            src,
        )
    }

    #[test]
    fn gn15_flags_arithmetic_on_getter_and_taint_chain() {
        let src = "pub struct C { pub hits: Counter, pub misses: Counter }\n\
                   pub fn ratio(c: &C) -> f64 {\n\
                   \x20   let h = c.hits.count();\n\
                   \x20   let m = c.misses.count();\n\
                   \x20   h as f64 / (h + m) as f64\n\
                   }\n";
        let files = vec![sf("serve", "crates/serve/src/x.rs", src)];
        let f = gn15(&files);
        assert!(!f.is_empty(), "{f:?}");
        assert!(
            f.iter().any(|x| x.message.contains("line 3")),
            "taint origin named: {f:?}"
        );
    }

    #[test]
    fn gn15_snapshot_into_struct_literal_is_clean() {
        let src = "pub struct C { pub hits: Counter }\n\
                   pub struct Stats { pub hits: u64 }\n\
                   pub fn stats(c: &C) -> Stats {\n\
                   \x20   Stats { hits: c.hits.count() }\n\
                   }\n";
        let files = vec![sf("serve", "crates/serve/src/x.rs", src)];
        assert!(gn15(&files).is_empty());
    }
}
