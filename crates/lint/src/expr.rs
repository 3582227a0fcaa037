//! Expression-level dataflow over the token stream: statement/region
//! structure (if/else and match arms, loop and closure bodies), `let`
//! bindings with their initializer spans, and method-chain roots. This
//! layer powers the two path-sensitive rules:
//!
//! * **GN11** — RNG-stream discipline: every RNG split obtained in a
//!   function (`.split(salt)` / `.substream(..)`) must be consumed on
//!   all control-flow paths, or explicitly discarded through a binding
//!   named `_split_unused…`. A split that is consumed on only one arm of
//!   a branch means an early return (or a new arm) silently shifts every
//!   downstream stream — the exact failure mode the seed-splitting
//!   contract exists to prevent.
//! * **GN12** — order-sensitive float reductions: `.sum::<f64>()`,
//!   `.fold(..)`, `.product(..)` chains rooted at a parallel-merged
//!   collection (results of `parallel_map_indexed`, `ParallelSweep::map*`,
//!   `Replications::run*`) must be routed through the blessed
//!   left-to-right helpers in `greednet_runtime::reduce`, so the
//!   reduction order is pinned by one audited implementation instead of
//!   re-derived at every call site.
//!
//! Like the call graph (DESIGN.md §7), everything here is
//! *over-approximate by contract*: the region tree and the merged-binding
//! propagation may add spurious conditionality or taint (extra findings,
//! silenced by restructuring or an allow), but a split consumed on only
//! some paths, or a float reduction over a merged collection, is never
//! silently missed within the recognized grammar. Under-approximations
//! (constructs the token-level parser cannot see) are documented in
//! DESIGN.md §11.

use crate::graph::SourceFile;
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::{FileContext, FileKind, Finding, DETERMINISTIC_CRATES};
use std::collections::BTreeSet;

/// One conditional construct inside a fn body: the token spans of its
/// arms plus whether the arms are exhaustive (an `if` chain ending in a
/// bare `else`, or a `match` — which Rust requires to be exhaustive).
/// Loop and closure bodies are single-arm, never-exhaustive constructs:
/// a loop may run zero times and a closure may never be called.
#[derive(Debug)]
pub struct Cond {
    /// Token ranges `[start, end)` of each arm body.
    pub arms: Vec<(usize, usize)>,
    /// True when exactly one arm is guaranteed to execute.
    pub exhaustive: bool,
}

/// Collects every conditional construct in `tokens[body.0..body.1]`.
/// Nesting is implicit: a construct inside an arm simply has spans
/// contained in the outer arm's span.
pub fn collect_conds(tokens: &[Token], body: (usize, usize)) -> Vec<Cond> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        match tokens[i].ident() {
            Some("if") => {
                if let Some((cond, next)) = parse_if_chain(tokens, i, body.1) {
                    out.push(cond);
                    // Continue *inside* the arms so nested constructs are
                    // still collected; only skip the keyword itself.
                    let _ = next;
                }
                i += 1;
            }
            Some("match") => {
                if let Some(cond) = parse_match(tokens, i, body.1) {
                    out.push(cond);
                }
                i += 1;
            }
            Some("loop" | "while" | "for") => {
                if let Some(open) = find_block_open(tokens, i + 1, body.1) {
                    let close = match_delim(tokens, open, '{', '}');
                    out.push(Cond {
                        arms: vec![(open + 1, close)],
                        exhaustive: false,
                    });
                }
                i += 1;
            }
            _ => {
                if is_closure_open(tokens, i) {
                    if let Some(span) = closure_body_span(tokens, i, body.1) {
                        out.push(Cond {
                            arms: vec![span],
                            exhaustive: false,
                        });
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// The innermost arm (by span length) containing token `idx`, as
/// `(cond index, arm index)`.
pub fn innermost_arm(conds: &[Cond], idx: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, usize)> = None;
    for (ci, c) in conds.iter().enumerate() {
        for (ai, &(lo, hi)) in c.arms.iter().enumerate() {
            if lo <= idx && idx < hi {
                let len = hi - lo;
                if best.is_none_or(|(_, _, l)| len < l) {
                    best = Some((ci, ai, len));
                }
            }
        }
    }
    best.map(|(ci, ai, _)| (ci, ai))
}

/// Parses an `if .. {A} else if .. {B} else {C}` chain starting at the
/// `if` keyword; returns the construct and the index past the last arm.
fn parse_if_chain(tokens: &[Token], at: usize, limit: usize) -> Option<(Cond, usize)> {
    let mut arms = Vec::new();
    let mut exhaustive = false;
    let mut i = at;
    loop {
        // `if` condition runs to the first `{` outside parens/brackets
        // (struct literals are not legal in condition position).
        let open = find_block_open(tokens, i + 1, limit)?;
        let close = match_delim(tokens, open, '{', '}');
        arms.push((open + 1, close));
        let mut j = close + 1;
        if tokens.get(j).and_then(Token::ident) != Some("else") {
            break;
        }
        j += 1;
        match tokens.get(j).and_then(Token::ident) {
            Some("if") => i = j,
            _ => {
                // Bare `else { ... }`: the final, exhausting arm.
                let open = find_block_open(tokens, j, limit)?;
                let close = match_delim(tokens, open, '{', '}');
                arms.push((open + 1, close));
                exhaustive = true;
                break;
            }
        }
    }
    let end = arms.last().map_or(at, |&(_, hi)| hi);
    Some((Cond { arms, exhaustive }, end))
}

/// Parses a `match scrutinee { pat => body, ... }` starting at the
/// `match` keyword. Arm bodies are the spans after each `=>` up to the
/// arm-separating `,` (or the balanced block) at arm depth.
fn parse_match(tokens: &[Token], at: usize, limit: usize) -> Option<Cond> {
    let open = find_block_open(tokens, at + 1, limit)?;
    let close = match_delim(tokens, open, '{', '}');
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        // Find `=>` at depth 0 relative to the match body.
        if tokens[i].is_punct('=') && tokens.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            let start = i + 2;
            let end = if tokens.get(start).is_some_and(|t| t.is_punct('{')) {
                match_delim(tokens, start, '{', '}') + 1
            } else {
                // Expression arm: runs to the `,` at depth 0 (or the
                // match's closing brace).
                let mut depth = 0i64;
                let mut j = start;
                while j < close {
                    let t = &tokens[j];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(',') {
                        break;
                    }
                    j += 1;
                }
                j
            };
            arms.push((start, end.min(close)));
            i = end;
        } else if tokens[i].is_punct('(') {
            i = match_delim(tokens, i, '(', ')') + 1;
        } else if tokens[i].is_punct('[') {
            i = match_delim(tokens, i, '[', ']') + 1;
        } else if tokens[i].is_punct('{') {
            i = match_delim(tokens, i, '{', '}') + 1;
        } else {
            i += 1;
        }
    }
    // `match` is exhaustive by construction in Rust.
    Some(Cond {
        arms,
        exhaustive: true,
    })
}

/// First `{` at paren/bracket depth 0 in `tokens[from..limit]`.
fn find_block_open(tokens: &[Token], from: usize, limit: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in tokens.iter().enumerate().take(limit).skip(from) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(j);
        }
    }
    None
}

/// Index of the closer matching the opener at `open` (or `tokens.len()`
/// on unbalanced input). Braces nested inside the other delimiter kinds
/// are counted too, so spans stay balanced.
pub(crate) fn match_delim(tokens: &[Token], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len()
}

/// True if the `|` at `i` opens a closure parameter list rather than
/// acting as binary/pattern or: a closure's `|` cannot directly follow
/// an operand (identifier, literal, `)` or `]`), except after `move`.
fn is_closure_open(tokens: &[Token], i: usize) -> bool {
    if !tokens[i].is_punct('|') {
        return false;
    }
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return true;
    };
    if prev.ident() == Some("move") {
        return true;
    }
    !matches!(
        prev.kind,
        TokenKind::Ident(_) | TokenKind::Number | TokenKind::Literal
    ) && !prev.is_punct(')')
        && !prev.is_punct(']')
        && !prev.is_punct('|')
}

/// The body span of the closure opening at the `|` at `at`: a braced
/// block, or the expression up to the `,`/`)`/`;` ending it.
fn closure_body_span(tokens: &[Token], at: usize, limit: usize) -> Option<(usize, usize)> {
    // Close of the parameter list: `||` (empty) or the next `|` at
    // delimiter depth 0.
    let params_close = if tokens.get(at + 1).is_some_and(|t| t.is_punct('|')) {
        at + 1
    } else {
        let mut depth = 0i64;
        let mut j = at + 1;
        loop {
            let t = tokens.get(j)?;
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('|') {
                break j;
            }
            j += 1;
        }
    };
    // Skip a `-> Type` return annotation to the body.
    let mut start = params_close + 1;
    if tokens.get(start).is_some_and(|t| t.is_punct('-'))
        && tokens.get(start + 1).is_some_and(|t| t.is_punct('>'))
    {
        start = find_block_open(tokens, start + 2, limit)?;
    }
    if tokens.get(start).is_some_and(|t| t.is_punct('{')) {
        return Some((start + 1, match_delim(tokens, start, '{', '}')));
    }
    // Expression body: to the `,`, `)`, `]`, or `;` at relative depth 0.
    let mut depth = 0i64;
    let mut j = start;
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(',') || t.is_punct(';')) {
            break;
        }
        j += 1;
    }
    Some((start, j))
}

/// One `let` binding: the bound names (all pattern identifiers), the
/// token index of the `let` keyword, and the initializer span.
#[derive(Debug)]
pub struct LetBinding {
    pub names: Vec<String>,
    pub let_idx: usize,
    /// Initializer tokens `[start, end)` (after `=`, before `;`).
    pub init: (usize, usize),
}

/// Collects `let` bindings (with initializers) in a body span.
pub fn collect_lets(tokens: &[Token], body: (usize, usize)) -> Vec<LetBinding> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        if tokens[i].ident() != Some("let") {
            i += 1;
            continue;
        }
        // Pattern runs to the `=` at depth 0 (skipping a `: Type`
        // ascription, whose generics may contain `=` only inside
        // brackets we track).
        let mut names = Vec::new();
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut in_type = false;
        let mut j = i + 1;
        let mut eq = None;
        while j < body.1 {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if depth == 0 && angle == 0 && t.is_punct(':') {
                in_type = true;
            } else if depth == 0 && angle <= 0 && t.is_punct('=') {
                // `=>`, `==`, `<=`-style operators cannot appear between a
                // let pattern and its initializer at depth 0.
                eq = Some(j);
                break;
            } else if t.is_punct(';') && depth == 0 {
                break; // `let x;` without initializer
            } else if !in_type {
                if let Some(id) = t.ident() {
                    if id != "mut" && id != "ref" {
                        names.push(id.to_string());
                    }
                }
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i = j + 1;
            continue;
        };
        // Initializer runs to the `;` at depth 0.
        let mut depth = 0i64;
        let mut k = eq + 1;
        while k < body.1 {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
            k += 1;
        }
        out.push(LetBinding {
            names,
            let_idx: i,
            init: (eq + 1, k),
        });
        i = k + 1;
    }
    out
}

/// Walks a method chain backwards from the `.` at `dot` to the chain's
/// root identifier (`runs` in `runs.iter().map(|r| r.0).sum::<f64>()`),
/// stepping over balanced call/index groups and `::<..>` turbofish.
pub fn chain_root(tokens: &[Token], dot: usize) -> Option<usize> {
    let mut i = dot;
    let mut root: Option<usize> = None;
    loop {
        let p = i.checked_sub(1)?;
        let t = &tokens[p];
        if t.is_punct(')') {
            i = rewind_delim(tokens, p, '(', ')')?;
        } else if t.is_punct(']') {
            i = rewind_delim(tokens, p, '[', ']')?;
        } else if t.is_punct('>') {
            // `::<f64>` turbofish: rewind the angle group and the `::`.
            let open = rewind_delim(tokens, p, '<', '>')?;
            let c2 = open.checked_sub(1)?;
            let c1 = open.checked_sub(2)?;
            if !(tokens[c2].is_punct(':') && tokens[c1].is_punct(':')) {
                return root;
            }
            i = c1;
        } else if matches!(t.kind, TokenKind::Ident(_) | TokenKind::Number) {
            root = Some(p);
            // Continue only through `.` / `::` chains.
            let Some(q) = p.checked_sub(1) else {
                return root;
            };
            if tokens[q].is_punct('.') {
                i = q;
            } else if tokens[q].is_punct(':') {
                i = q.checked_sub(1)?;
                if !tokens[i].is_punct(':') {
                    return root;
                }
            } else {
                return root;
            }
        } else {
            return root;
        }
    }
}

/// Index of the opener matching the closer at `close`, scanning
/// backwards.
fn rewind_delim(tokens: &[Token], close: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i64;
    let mut k = close;
    loop {
        let t = &tokens[k];
        if t.is_punct(c) {
            depth += 1;
        } else if t.is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// True if the statement containing token `i` drops its value (no `=`
/// binding, no `return`/`break` handing it out, before the statement
/// boundary).
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

/// Marks findings on lines carrying a matching allow annotation.
pub(crate) fn suppression_for(lexed: &LexedFile, rule: &str, line: u32) -> Option<String> {
    lexed
        .suppressions
        .iter()
        .find(|s| s.rule == rule && s.target_line == line)
        .map(|s| s.reason.clone())
}

/// The blessed prefix for deliberately-unconsumed splits: binding a
/// split as `_split_unused…` documents that the draw exists purely to
/// keep downstream stream assignments stable.
const SPLIT_DISCARD_PREFIX: &str = "_split_unused";

/// Methods that mint a child RNG stream.
const SPLIT_METHODS: &[&str] = &["split", "substream"];

/// True if the `.split(`/`.substream(` call at ident index `i` is an RNG
/// split rather than `str::split`: a string/char-literal-only argument
/// list marks the latter.
fn is_rng_split(tokens: &[Token], i: usize) -> bool {
    let open = i + 1;
    let close = match_delim(tokens, open, '(', ')');
    let args = &tokens[open + 1..close.min(tokens.len())];
    !(args.len() == 1 && matches!(args[0].kind, TokenKind::Literal))
}

/// Runs GN11 over the file set (see module docs).
pub fn gn11(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for sf in files {
        if !in_scope(&sf.ctx, DETERMINISTIC_CRATES) {
            continue;
        }
        for item in &sf.parsed.fns {
            if item.in_test || sf.lexed.in_test_code(item.line) {
                continue;
            }
            check_fn_splits(sf, item.body, &mut findings, &mut seen);
        }
    }
    findings
}

fn in_scope(ctx: &FileContext, crates: &[&str]) -> bool {
    ctx.kind == FileKind::Lib && crates.contains(&ctx.crate_name.as_str())
}

fn check_fn_splits(
    sf: &SourceFile,
    body: (usize, usize),
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32)>,
) {
    let tokens = &sf.lexed.tokens;
    let mut conds: Option<Vec<Cond>> = None;
    let mut lets: Option<Vec<LetBinding>> = None;
    for i in body.0..body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        if !SPLIT_METHODS.contains(&name)
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            || sf.lexed.in_test_code(tokens[i].line)
            || (name == "split" && !is_rng_split(tokens, i))
        {
            continue;
        }
        let line = tokens[i].line;
        if !seen.insert((sf.ctx.rel_path.clone(), line)) {
            continue; // hoisted nested fns overlap their parent's span
        }
        let lets = lets.get_or_insert_with(|| collect_lets(tokens, body));
        let binding = lets
            .iter()
            .find(|b| b.init.0 <= i && i < b.init.1 && top_level_of_init(tokens, b.init, i));
        let Some(binding) = binding else {
            // Not the top level of a `let` initializer: either consumed
            // inline (argument / chained call / tail expression) or a
            // bare discard statement.
            let close = match_delim(tokens, i + 1, '(', ')');
            let chained = tokens.get(close + 1).is_some_and(|t| t.is_punct('.'));
            if !chained
                && tokens.get(close + 1).is_some_and(|t| t.is_punct(';'))
                && statement_discards_value(tokens, i)
            {
                report_split(sf, line, "its value is discarded where it is drawn; bind it as `_split_unused…` to document the deliberate stream skip", findings);
            }
            continue;
        };
        // The split is the top level of a let initializer.
        if binding.names.len() != 1 {
            continue; // destructuring consumes the value
        }
        let bound = binding.names[0].as_str();
        if bound == "_" {
            report_split(sf, line, "it is discarded via anonymous `let _`; use a named `_split_unused…` binding so the deliberate stream skip is visible", findings);
            continue;
        }
        if bound.starts_with(SPLIT_DISCARD_PREFIX) {
            continue; // blessed explicit discard
        }
        // Uses of the bound name after the initializer.
        let stmt_end = binding.init.1;
        let uses: Vec<usize> = (stmt_end..body.1)
            .filter(|&j| tokens[j].ident() == Some(bound))
            .collect();
        if uses.is_empty() {
            report_split(
                sf,
                line,
                "the bound stream is never consumed; sample it, pass it on, or rename the binding `_split_unused…`",
                findings,
            );
            continue;
        }
        let conds = conds.get_or_insert_with(|| collect_conds(tokens, body));
        let bind_arm = innermost_arm(conds, binding.let_idx);
        if uses.iter().any(|&u| innermost_arm(conds, u) == bind_arm) {
            continue; // consumed on the same path it was drawn on
        }
        // All uses are inside strictly-nested conditional regions: fine
        // only if some exhaustive construct has a use in *every* arm.
        let covered = conds.iter().enumerate().any(|(ci, c)| {
            c.exhaustive
                && innermost_arm(conds, c.arms[0].0.min(body.1.saturating_sub(1))) != bind_arm
                && c.arms
                    .iter()
                    .all(|&(lo, hi)| uses.iter().any(|&u| lo <= u && u < hi))
                && (ci, 0) != bind_arm.unwrap_or((usize::MAX, usize::MAX))
        });
        if !covered {
            report_split(
                sf,
                line,
                "the bound stream is consumed on only some control-flow paths; consume it on every arm (or before branching) so an early return cannot shift downstream streams",
                findings,
            );
        }
    }
}

/// True if the chain containing the split call at `i` is the top level
/// of the initializer span (its value becomes the bound value): the
/// split is not nested inside any delimiter group *within* the
/// initializer other than its own argument list.
fn top_level_of_init(tokens: &[Token], init: (usize, usize), i: usize) -> bool {
    let mut depth = 0i64;
    for t in &tokens[init.0..i] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        }
    }
    depth == 0
}

fn report_split(sf: &SourceFile, line: u32, why: &str, findings: &mut Vec<Finding>) {
    findings.push(Finding {
        rule: "GN11",
        file: sf.ctx.rel_path.clone(),
        line,
        message: format!("RNG split is not consumed on all paths: {why}"),
        suppressed: suppression_for(&sf.lexed, "GN11", line),
    });
}

/// Free functions whose return value is a parallel-merged collection.
const MERGE_SOURCES: &[&str] = &["parallel_map_indexed", "parallel_map_indexed_profiled"];

/// Pool-handle types whose merge methods produce merged collections.
const POOL_TYPES: &[&str] = &["ParallelSweep", "Replications"];

/// Methods on pool handles that fan work out and merge the results.
const MERGE_METHODS: &[&str] = &["map", "map_seeded", "map_profiled", "run", "run_profiled"];

/// Order-sensitive float reductions GN12 inspects.
const REDUCTIONS: &[&str] = &["sum", "fold", "product"];

/// GN12 additionally covers the experiment harness: its tables are what
/// the merged results flow into.
const GN12_EXTRA_CRATES: &[&str] = &["bench"];

/// Runs GN12 over the file set (see module docs).
pub fn gn12(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for sf in files {
        let det = in_scope(&sf.ctx, DETERMINISTIC_CRATES);
        let extra = in_scope(&sf.ctx, GN12_EXTRA_CRATES);
        if !det && !extra {
            continue;
        }
        for item in &sf.parsed.fns {
            if item.in_test || sf.lexed.in_test_code(item.line) {
                continue;
            }
            check_fn_reductions(sf, item.body, &mut findings, &mut seen);
        }
    }
    findings
}

fn check_fn_reductions(
    sf: &SourceFile,
    body: (usize, usize),
    findings: &mut Vec<Finding>,
    seen: &mut BTreeSet<(String, u32)>,
) {
    let tokens = &sf.lexed.tokens;
    let lets = collect_lets(tokens, body);
    // Taint pass, in binding order: which names hold parallel-merged
    // collections (or pool handles that can produce them)?
    let mut merged: BTreeSet<&str> = BTreeSet::new();
    let mut handles: BTreeSet<&str> = BTreeSet::new();
    for b in &lets {
        let init = &tokens[b.init.0..b.init.1];
        let from_source = init
            .iter()
            .any(|t| t.ident().is_some_and(|id| MERGE_SOURCES.contains(&id)));
        let has_pool_type = init
            .iter()
            .any(|t| t.ident().is_some_and(|id| POOL_TYPES.contains(&id)));
        let has_merge_method = (b.init.0..b.init.1).any(|j| {
            tokens[j]
                .ident()
                .is_some_and(|id| MERGE_METHODS.contains(&id))
                && j > 0
                && tokens[j - 1].is_punct('.')
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('('))
        });
        let root = init.first().and_then(Token::ident);
        let rooted_merged = root.is_some_and(|r| merged.contains(r));
        let rooted_handle = root.is_some_and(|r| handles.contains(r));
        if from_source
            || (has_pool_type && has_merge_method)
            || (rooted_handle && has_merge_method)
            || rooted_merged
        {
            merged.extend(b.names.iter().map(String::as_str));
        } else if has_pool_type || rooted_handle {
            handles.extend(b.names.iter().map(String::as_str));
        }
    }
    // Flag pass: reductions whose chain root is merged.
    for i in body.0..body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        if !REDUCTIONS.contains(&name)
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || sf.lexed.in_test_code(tokens[i].line)
        {
            continue;
        }
        // `(` directly, or through a `::<..>` turbofish.
        let mut call = i + 1;
        if tokens.get(call).is_some_and(|t| t.is_punct(':'))
            && tokens.get(call + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(call + 2).is_some_and(|t| t.is_punct('<'))
        {
            call = match_delim(tokens, call + 2, '<', '>') + 1;
        }
        if !tokens.get(call).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(root_idx) = chain_root(tokens, i - 1) else {
            continue;
        };
        let rooted = tokens[root_idx].ident().is_some_and(|r| {
            merged.contains(r) || MERGE_SOURCES.contains(&r) || POOL_TYPES.contains(&r)
        });
        if !rooted {
            continue;
        }
        let line = tokens[i].line;
        if !seen.insert((sf.ctx.rel_path.clone(), line)) {
            continue;
        }
        findings.push(Finding {
            rule: "GN12",
            file: sf.ctx.rel_path.clone(),
            line,
            message: format!(
                ".{name}() over a parallel-merged collection re-derives a \
                 float reduction order at the call site; route it through \
                 greednet_runtime::reduce (det_sum/det_mean/det_max) so the \
                 order is pinned by one audited left-to-right fold"
            ),
            suppressed: suppression_for(&sf.lexed, "GN12", line),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::FileContext;

    fn det_file(src: &str) -> SourceFile {
        SourceFile::new(
            FileContext {
                crate_name: "des".into(),
                rel_path: "crates/des/src/fixture.rs".into(),
                kind: FileKind::Lib,
            },
            src,
        )
    }

    fn live(findings: &[Finding]) -> Vec<u32> {
        findings
            .iter()
            .filter(|f| f.suppressed.is_none())
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn conds_cover_if_else_match_loop_closure() {
        let lexed = lex("fn f(x: u32) {\n    if a { b(); } else { c(); }\n    match x { 0 => d(), _ => { e(); } }\n    for i in 0..x { g(); }\n    let h = |y| y + 1;\n}\n");
        let parsed = crate::parse::parse(&lexed);
        let conds = collect_conds(&lexed.tokens, parsed.fns[0].body);
        let exhaustive: Vec<bool> = conds.iter().map(|c| c.exhaustive).collect();
        assert_eq!(exhaustive, vec![true, true, false, false]);
        assert_eq!(conds[0].arms.len(), 2);
        assert_eq!(conds[1].arms.len(), 2);
    }

    #[test]
    fn if_without_else_is_not_exhaustive() {
        let lexed = lex("fn f() { if a { b(); } }\n");
        let parsed = crate::parse::parse(&lexed);
        let conds = collect_conds(&lexed.tokens, parsed.fns[0].body);
        assert_eq!(conds.len(), 1);
        assert!(!conds[0].exhaustive);
    }

    #[test]
    fn chain_root_walks_over_calls_and_turbofish() {
        let lexed = lex("runs.iter().map(|r| r.0).sum::<f64>()");
        let t = &lexed.tokens;
        let sum = t
            .iter()
            .position(|x| x.ident() == Some("sum"))
            .expect("sum token");
        let root = chain_root(t, sum - 1).expect("root");
        assert_eq!(t[root].ident(), Some("runs"));
    }

    #[test]
    fn gn11_flags_one_armed_consumption() {
        let src = "pub fn f(master: &mut ExpStream, c: bool) {\n    let child = master.split(1);\n    if c {\n        use_stream(child);\n    }\n}\nfn use_stream(_s: ExpStream) {}\n";
        let f = gn11(&[det_file(src)]);
        assert_eq!(live(&f), vec![2]);
    }

    #[test]
    fn gn11_accepts_exhaustive_or_unconditional_consumption() {
        let src = "pub fn f(master: &mut ExpStream, c: bool) {\n    let child = master.split(1);\n    if c {\n        use_stream(child);\n    } else {\n        park(child);\n    }\n    let d = master.split(2);\n    use_stream(d);\n    let _split_unused_gap = master.split(3);\n    let inline = (0..4).map(|u| master.split(u)).collect::<Vec<_>>();\n    drop(inline);\n}\n";
        let f = gn11(&[det_file(src)]);
        assert!(live(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn gn11_flags_unused_and_anonymous_discards() {
        let src = "pub fn f(master: &mut ExpStream) {\n    let dangling = master.split(1);\n    let _ = master.split(2);\n    master.split(3);\n}\n";
        let f = gn11(&[det_file(src)]);
        assert_eq!(live(&f), vec![2, 3, 4]);
    }

    #[test]
    fn gn11_ignores_str_split_and_test_code() {
        let src = "pub fn f(s: &str) -> usize { s.split(';').count() }\n#[cfg(test)]\nmod tests {\n    fn t(m: &mut ExpStream) { m.split(9); }\n}\n";
        let f = gn11(&[det_file(src)]);
        assert!(live(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn gn12_taints_through_pool_handles_and_rebinding() {
        let src = "pub fn f(threads: usize) -> f64 {\n    let sweep = ParallelSweep::new(threads);\n    let runs = sweep.map(inputs, |x| x);\n    let again = runs;\n    again.iter().sum::<f64>()\n}\n";
        let f = gn12(&[det_file(src)]);
        assert_eq!(live(&f), vec![5]);
    }

    #[test]
    fn gn12_leaves_sequential_reductions_alone() {
        let src = "pub fn f(xs: &[f64]) -> f64 {\n    let doubled: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();\n    doubled.iter().sum::<f64>()\n}\n";
        let f = gn12(&[det_file(src)]);
        assert!(live(&f).is_empty(), "{f:?}");
    }
}
