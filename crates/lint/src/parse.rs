//! A recursive-descent item parser over the lexer's token stream.
//!
//! The lexer gives a comment/string-stripped token soup; this layer
//! recovers the *item structure* the semantic rules need: which `fn`
//! items exist (name, enclosing `impl` type, whether they are
//! test-only), the token span of each body, and which `use` declarations
//! the file carries. It is deliberately **not** a full Rust parser — the
//! grammar subset below is exactly what the call-graph layer
//! ([`crate::graph`]) and the dataflow rules consume, and every shortcut
//! errs toward *over*-approximation (more items, more edges) so the
//! analysis never silently loses a path. See DESIGN.md §7 for the
//! contract.
//!
//! Shortcuts worth knowing:
//! * bodies are found by scanning from the `fn` keyword to the first
//!   `{` outside parens/brackets (where-clauses with brace-carrying
//!   const generics would confuse this; the workspace has none);
//! * nested `fn` items are hoisted to the file's flat item list (their
//!   bodies nest inside the parent's span, which only adds edges).

use crate::lexer::{LexedFile, Token};

/// One `fn` item recovered from the token stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The fn's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Defined inside any `impl` block (trait or inherent).
    pub in_impl: bool,
    /// The self-type name of the enclosing `impl` block, if any
    /// (`EventCalendar` for `impl<T> EventQueue<T> for EventCalendar<T>`);
    /// lets table-driven rules address methods as `Type::name`.
    pub impl_type: Option<String>,
    /// Lies inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Token index range `[start, end)` of the body (inside the braces);
    /// empty for bodiless trait-method declarations.
    pub body: (usize, usize),
}

/// One `use` declaration, flattened: the leading path segment (crate or
/// keyword such as `std`, `crate`, `super`, `greednet_numerics`) plus
/// every identifier appearing in the tree (so `use a::{b, c::d}` yields
/// leaves `b`, `c`, `d` — over-approximate on purpose).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// First path segment.
    pub root: String,
    /// All identifiers in the declaration after the root.
    pub leaves: Vec<String>,
}

/// The parsed item view of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
}

/// Parses the item structure out of a lexed file.
pub fn parse(lexed: &LexedFile) -> ParsedFile {
    let tokens = &lexed.tokens;
    let impls = find_impl_blocks(tokens);
    let mut fns = Vec::new();
    let mut uses = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        match tokens[i].ident() {
            Some("fn") => {
                if let Some(item) = parse_fn(lexed, &impls, i) {
                    fns.push(item);
                }
                i += 1;
            }
            Some("use") => {
                let (decl, next) = parse_use(tokens, i);
                if let Some(d) = decl {
                    uses.push(d);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    ParsedFile { fns, uses }
}

/// An `impl` block's body token range and the self-type name from its
/// header.
struct ImplBlock {
    body: (usize, usize),
    type_name: Option<String>,
}

/// Finds every `impl ... {` block and its self-type name: the last
/// identifier at angle-depth 0 before the body brace (after the `for` in
/// a trait impl — `for` cannot otherwise occur between `impl` and the
/// body brace), so `impl<T> EventQueue<T> for EventCalendar<T>` resolves
/// to `EventCalendar` and `impl Foo<T> { .. }` to `Foo`.
fn find_impl_blocks(tokens: &[Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].ident() == Some("impl") {
            let mut j = i + 1;
            let mut type_name: Option<String> = None;
            // Scan the header to the body brace, skipping nested
            // parens/brackets (e.g. `impl Trait for (A, B)`) and generic
            // argument lists (so `T` in `Foo<T>` never wins).
            let mut depth = 0i64;
            let mut angle = 0i64;
            let mut in_where = false;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('<') {
                    angle += 1;
                } else if depth == 0 && t.is_punct('>') {
                    angle -= 1;
                } else if depth == 0 && t.ident() == Some("for") {
                    // The self type follows the `for`; restart capture.
                    type_name = None;
                } else if depth == 0 && t.is_punct('{') {
                    break;
                } else if depth == 0 && t.is_punct(';') {
                    // `impl Trait for Type;` (never valid Rust, but stay
                    // total on malformed input).
                    break;
                } else if depth == 0 && angle == 0 {
                    if t.ident() == Some("where") {
                        in_where = true;
                    } else if !in_where {
                        if let Some(id) = t.ident() {
                            if id != "dyn" {
                                type_name = Some(id.to_string());
                            }
                        }
                    }
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = match_brace(tokens, j);
                out.push(ImplBlock {
                    body: (j + 1, close),
                    type_name,
                });
                // Continue *inside* the impl so its fns are still seen by
                // the main scan; nothing to skip here.
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or `tokens.len()` on
/// unbalanced input).
fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len()
}

/// Parses the `fn` item whose `fn` keyword sits at token `at`.
fn parse_fn(lexed: &LexedFile, impls: &[ImplBlock], at: usize) -> Option<FnItem> {
    let tokens = &lexed.tokens;
    let name = tokens.get(at + 1)?.ident()?.to_string();
    // Find the body: first `{` after the signature outside
    // parens/brackets; a `;` first means a bodiless declaration.
    let mut depth = 0i64;
    let mut j = at + 2;
    let mut body = (at + 2, at + 2);
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(';') {
            break;
        } else if depth == 0 && t.is_punct('{') {
            let close = match_brace(tokens, j);
            body = (j + 1, close);
            break;
        }
        j += 1;
    }
    let in_impl = impls.iter().any(|b| b.body.0 <= at && at < b.body.1);
    // The innermost enclosing impl wins (nested impls inside fn bodies
    // shadow the outer block for the fns they contain).
    let impl_type = impls
        .iter()
        .filter(|b| b.body.0 <= at && at < b.body.1)
        .min_by_key(|b| b.body.1 - b.body.0)
        .and_then(|b| b.type_name.clone());
    Some(FnItem {
        line: tokens[at].line,
        in_test: lexed.in_test_code(tokens[at].line),
        name,
        in_impl,
        impl_type,
        body,
    })
}

/// Parses a `use` declaration starting at the `use` keyword; returns the
/// declaration (if well-formed enough) and the index past its `;`.
fn parse_use(tokens: &[Token], at: usize) -> (Option<UseDecl>, usize) {
    let mut j = at + 1;
    let mut root: Option<String> = None;
    let mut leaves = Vec::new();
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct(';') {
            j += 1;
            break;
        }
        if let Some(id) = t.ident() {
            if root.is_none() {
                root = Some(id.to_string());
            } else {
                leaves.push(id.to_string());
            }
        }
        j += 1;
    }
    (root.map(|root| UseDecl { root, leaves }), j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn fn_items_carry_names_and_lines() {
        let p = parse_src("fn private() {}\n\npub fn public() {}\npub(crate) fn scoped() {}\n");
        let names: Vec<(&str, u32)> = p.fns.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(names, vec![("private", 1), ("public", 3), ("scoped", 4)]);
    }

    #[test]
    fn impl_fns_are_marked() {
        let src = "struct S;\nimpl S { fn inherent(&self) {} }\nimpl Clone for S { fn clone(&self) -> S { S } }\nfn free() {}\n";
        let p = parse_src(src);
        let get = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(get("inherent").in_impl && get("clone").in_impl);
        assert!(!get("free").in_impl);
        assert_eq!(get("inherent").impl_type.as_deref(), Some("S"));
        assert_eq!(get("clone").impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn impl_type_resolves_through_generics_paths_and_where_clauses() {
        let src = "impl<T: Ord> EventQueue<T> for EventCalendar<T> where T: Clone {\n    fn pop(&mut self) {}\n}\nimpl Calendar<u64> {\n    fn peek(&self) {}\n}\nimpl std::fmt::Display for Slot {\n    fn fmt(&self) {}\n}\nfn free() {}\n";
        let p = parse_src(src);
        let get = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(get("pop").impl_type.as_deref(), Some("EventCalendar"));
        assert_eq!(get("peek").impl_type.as_deref(), Some("Calendar"));
        assert_eq!(get("fmt").impl_type.as_deref(), Some("Slot"));
        assert_eq!(get("free").impl_type, None);
    }

    #[test]
    fn body_spans_cover_exactly_the_braces() {
        let src = "fn f() { g(); }\nfn g() {}\n";
        let p = parse_src(src);
        let f = &p.fns[0];
        let lexed = lex(src);
        let body: Vec<&str> = lexed.tokens[f.body.0..f.body.1]
            .iter()
            .filter_map(Token::ident)
            .collect();
        assert_eq!(body, vec!["g"]);
    }

    #[test]
    fn bodiless_trait_methods_have_empty_spans() {
        let p = parse_src("trait T { fn required(&self) -> usize; }\n");
        let f = p.fns.iter().find(|f| f.name == "required").unwrap();
        assert_eq!(f.body.0, f.body.1);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let p = parse_src(src);
        assert!(!p.fns.iter().find(|f| f.name == "lib").unwrap().in_test);
        assert!(p.fns.iter().find(|f| f.name == "helper").unwrap().in_test);
    }

    #[test]
    fn use_decls_flatten_roots_and_leaves() {
        let p = parse_src(
            "use std::collections::BTreeMap;\nuse greednet_numerics::{conv, stats::Welford};\n",
        );
        assert_eq!(p.uses.len(), 2);
        assert_eq!(p.uses[0].root, "std");
        assert_eq!(p.uses[1].root, "greednet_numerics");
        assert!(p.uses[1].leaves.iter().any(|l| l == "conv"));
        assert!(p.uses[1].leaves.iter().any(|l| l == "Welford"));
    }

    #[test]
    fn generic_signatures_do_not_confuse_body_detection() {
        let src = "pub fn f<T: Into<Vec<u8>>>(x: T) -> Vec<u8> where T: Clone { x.into() }\n";
        let p = parse_src(src);
        let lexed = lex(src);
        let f = &p.fns[0];
        let body: Vec<&str> = lexed.tokens[f.body.0..f.body.1]
            .iter()
            .filter_map(Token::ident)
            .collect();
        assert_eq!(body, vec!["x", "into"]);
    }
}
