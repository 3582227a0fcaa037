//! The type layer: the named `struct` fields a file declares, recovered
//! from the token stream, mirroring how [`crate::expr`] sits on
//! [`crate::parse`].
//!
//! The item parser recovers `fn` items; this layer recovers the *data
//! shape* of a file — each named field with the identifier tokens of its
//! declared type. It drives the type-aware rule in [`crate::typerules`]:
//! **GN15** needs to know which field names are declared with a
//! telemetry probe type (`Counter`, `Log2Histogram`, ...), so `.count()`
//! on a probe field is a read-back while `.count()` on an iterator is
//! not.
//!
//! Like everything in this analyzer the grammar subset is deliberate:
//! named-field structs are parsed in full; tuple and unit structs
//! contribute no fields; generics, where-clauses, and attributes are
//! skipped structurally.

use crate::lexer::{LexedFile, Token};

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldItem {
    pub name: String,
    /// Identifier tokens of the declared type, in order (`Vec`, `SimTime`
    /// for `Vec<SimTime>`); path separators and punctuation dropped.
    pub ty: Vec<String>,
}

/// The named fields of every `struct` item in a lexed file, in source
/// order. Structs nested in fn bodies count like top-level ones.
pub fn struct_fields(lexed: &LexedFile) -> Vec<FieldItem> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let named = tokens.get(i + 1).and_then(Token::ident).is_some();
        if t.ident() != Some("struct") || !named {
            continue;
        }
        if let Some(open) = braced_body(tokens, i + 2) {
            let close = crate::expr::match_delim(tokens, open, '{', '}');
            out.extend(parse_named_fields(tokens, open + 1, close));
        }
    }
    out
}

/// Index of the `{` opening a named-field body, scanning past an
/// optional generic parameter list and where-clause; `None` for tuple
/// (`(` before any `where`) and unit (`;`) structs. Parens inside
/// where-clause bounds (`Fn(..)` traits) are skipped as balanced groups.
fn braced_body(tokens: &[Token], from: usize) -> Option<usize> {
    let mut j = from;
    if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(tokens, j)? + 1;
    }
    let mut seen_where = false;
    let mut depth = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('(') {
            if depth == 0 && !seen_where {
                return None;
            }
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('[') {
            depth += 1;
        } else if depth == 0 && t.is_punct('{') {
            return Some(j);
        } else if depth == 0 && t.is_punct(';') {
            return None;
        } else if t.ident() == Some("where") {
            seen_where = true;
        }
        j += 1;
    }
    None
}

/// Index of the `>` matching the `<` at `open`, treating the `>` of a
/// `->` arrow as type punctuation rather than an angle closer.
fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut k = open;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && tokens[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k += 1;
    }
    None
}

/// Index just past the `]` closing the `#[...]` attribute whose `#` sits
/// at `at`; `None` if `at` is not an attribute start.
fn skip_attribute(tokens: &[Token], at: usize) -> Option<usize> {
    if !tokens.get(at)?.is_punct('#') {
        return None;
    }
    let mut j = at + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    let mut depth = 0i64;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Parses `name: Type, ...` declarations in `tokens[lo..hi]`, skipping
/// field attributes and visibility.
fn parse_named_fields(tokens: &[Token], lo: usize, hi: usize) -> Vec<FieldItem> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if let Some(next) = skip_attribute(tokens, i) {
            i = next;
            continue;
        }
        if matches!(tokens[i].ident(), Some("pub")) {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct('(')) {
                i = crate::expr::match_delim(tokens, i, '(', ')') + 1;
            }
            continue;
        }
        let (Some(name), true) = (
            tokens[i].ident(),
            tokens.get(i + 1).is_some_and(|t| t.is_punct(':')),
        ) else {
            i += 1;
            continue;
        };
        // Type tokens run to the `,` at delimiter depth 0 (or the body
        // end); all delimiter kinds nest, and the `>` of `->` never
        // counts as an angle closer.
        let mut ty = Vec::new();
        let mut depth = 0i64;
        let mut j = i + 2;
        while j < hi {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                depth += 1;
            } else if t.is_punct(')')
                || t.is_punct(']')
                || t.is_punct('}')
                || (t.is_punct('>') && !tokens[j - 1].is_punct('-'))
            {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                break;
            } else if let Some(id) = t.ident() {
                ty.push(id.to_string());
            }
            j += 1;
        }
        out.push(FieldItem {
            name: name.to_string(),
            ty,
        });
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// `(name, type tokens)` of every field in `src`.
    fn fields(src: &str) -> Vec<(String, Vec<String>)> {
        struct_fields(&lex(src))
            .into_iter()
            .map(|f| (f.name, f.ty))
            .collect()
    }

    fn names(src: &str) -> Vec<String> {
        fields(src).into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn named_struct_fields_carry_type_tokens() {
        let src = "#[derive(Debug, Clone)]\npub struct Packet {\n    pub arrival: SimTime,\n    size: Work,\n    tags: Vec<(u32, Rate)>,\n}\n";
        let f = fields(src);
        let shape: Vec<&str> = f.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(shape, vec!["arrival", "size", "tags"]);
        assert_eq!(f[0].1, vec!["SimTime"]);
        assert_eq!(f[2].1, vec!["Vec", "u32", "Rate"]);
    }

    #[test]
    fn tuple_and_unit_structs_contribute_no_fields() {
        assert!(fields("pub struct Marker;\nstruct Pair(f64, f64);\n").is_empty());
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse_the_body_scan() {
        let src = "struct Keyed<K: Ord, V> where K: Clone {\n    key: K,\n    cb: Box<dyn Fn(usize) -> f64>,\n    v: V,\n}\n";
        let f = fields(src);
        assert_eq!(names(src), vec!["key", "cb", "v"]);
        assert_eq!(f[1].1, vec!["Box", "dyn", "Fn", "usize", "f64"]);
    }

    #[test]
    fn field_attributes_and_visibility_restrictions_are_skipped() {
        let src = "struct S {\n    #[allow(dead_code)]\n    pub(crate) a: u64,\n    b: f64,\n}\n";
        assert_eq!(names(src), vec!["a", "b"]);
    }

    #[test]
    fn struct_keyword_inside_a_body_is_tolerated() {
        // Nested type declarations are hoisted flat, like nested fns.
        let src = "fn f() {\n    struct Inner { x: f64 }\n}\nstruct Outer { y: f64 }\n";
        assert_eq!(names(src), vec!["x", "y"]);
    }
}
