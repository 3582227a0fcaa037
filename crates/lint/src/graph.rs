//! The shared view of one source file and the call-site scan behind the
//! intra-workspace call graph.
//!
//! [`SourceFile`] bundles a file's lexed tokens with [`crate::parse`]'s
//! item tree and [`crate::types`]' struct fields. `find_calls` and
//! `import_scope` are the two halves of name resolution that GN10
//! ([`crate::hot`]) builds its graph from. Resolution is
//! *over-approximate by contract* (DESIGN.md §7): free and path calls
//! bind to every same-crate fn of that name plus, through the file's
//! `use greednet_*` imports, every fn of that name in an imported
//! first-party crate; method calls bind to every `impl`-block fn of that
//! name in the same scope set. Shadowing, generics, and trait dispatch
//! are ignored — extra edges only make a reachability rule stricter,
//! never unsound.

use crate::lexer::{LexedFile, Token};
use crate::parse::ParsedFile;
use crate::rules::FileContext;

/// One fully lexed+parsed source file, ready for graph construction.
#[derive(Debug)]
pub struct SourceFile {
    pub ctx: FileContext,
    pub lexed: LexedFile,
    pub parsed: ParsedFile,
    /// Named struct fields for the type-aware rule (GN15).
    pub fields: Vec<crate::types::FieldItem>,
}

impl SourceFile {
    /// Lexes and parses `src` under the given context.
    #[must_use]
    pub fn new(ctx: FileContext, src: &str) -> SourceFile {
        let lexed = crate::lexer::lex(src);
        let parsed = crate::parse::parse(&lexed);
        let fields = crate::types::struct_fields(&lexed);
        SourceFile {
            ctx,
            lexed,
            parsed,
            fields,
        }
    }
}

/// The crates a name in a file may resolve into: the file's own crate,
/// plus every first-party crate the file imports.
pub(crate) fn import_scope(sf: &SourceFile) -> Vec<&str> {
    let mut scope: Vec<&str> = vec![sf.ctx.crate_name.as_str()];
    for u in &sf.parsed.uses {
        let imported = u
            .root
            .strip_prefix("greednet_")
            .or(if u.root == "greednet" {
                Some("greednet")
            } else {
                None
            });
        if let Some(c) = imported {
            if !scope.contains(&c) {
                scope.push(c);
            }
        }
    }
    scope
}

/// A callable mention inside a fn body.
pub(crate) enum Call {
    /// Bare `name(` call.
    Free(String),
    /// Last segment of a `path::name(` call, with the segment before it
    /// (when syntactically adjacent): `u64` for `u64::from(b)`. GN10 uses
    /// the qualifier to skip primitive conversions that can never resolve
    /// to workspace code.
    Path {
        name: String,
        qualifier: Option<String>,
    },
    /// `.name(` method call.
    Method(String),
}

/// Control-flow keywords that can directly precede `(`.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "in", "fn", "move", "loop", "else", "let", "mut",
    "ref", "as", "where", "impl", "dyn",
];

/// Collects call candidates in the token range.
pub(crate) fn find_calls(tokens: &[Token], body: (usize, usize)) -> Vec<Call> {
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) || NOT_CALLS.contains(&name) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &tokens[p]);
        if prev.is_some_and(|t| t.is_punct('.')) {
            // `.unwrap()`/`.expect()` are Option/Result methods, never
            // workspace code.
            if !matches!(name, "unwrap" | "expect") {
                out.push(Call::Method(name.to_string()));
            }
        } else if prev.is_some_and(|t| t.is_punct(':')) {
            let qualifier = i
                .checked_sub(3)
                .filter(|&q| tokens[q + 1].is_punct(':'))
                .and_then(|q| tokens[q].ident())
                .map(str::to_string);
            out.push(Call::Path {
                name: name.to_string(),
                qualifier,
            });
        } else {
            out.push(Call::Free(name.to_string()));
        }
    }
    out
}
