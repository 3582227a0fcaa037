//! A hand-rolled lexer for the subset of Rust the analyzer needs.
//!
//! The build container has no crates.io access, so `syn` is off the
//! table. Fortunately the rules only need a *token soup* (plus the item
//! and type layers built on it) with three guarantees:
//!
//! 1. comments, string literals, char literals, and raw strings never
//!    leak tokens (so `"let _ = f()"` in a doc string cannot fire GN08);
//! 2. every token carries its 1-based source line (findings are spans);
//! 3. `// greednet-lint: allow(RULE, reason = "...")` annotations inside
//!    comments are captured, with the code line they suppress resolved.
//!
//! The lexer additionally marks which lines fall inside `#[cfg(test)]`
//! items (by brace matching) so rules can exempt inline test modules.

/// One lexical token with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `unwrap`, `mod`, ...).
    Ident(String),
    /// A single punctuation character (`.`, `!`, `(`, `{`, ...).
    Punct(char),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// A numeric literal (contents irrelevant to every rule).
    Number,
    /// A string/char/byte literal (contents stripped).
    Literal,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

/// A `greednet-lint: allow(...)` annotation found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Rule id being suppressed, e.g. `"GN08"`.
    pub rule: String,
    /// The mandatory free-text justification.
    pub reason: String,
    /// Line the annotation comment appears on.
    pub annotation_line: u32,
    /// Code line the annotation suppresses (same line for trailing
    /// comments, the next code-bearing line for standalone ones).
    pub target_line: u32,
}

/// A malformed `greednet-lint:` annotation (unknown shape, missing or
/// empty reason). Malformed annotations never suppress anything; the
/// analyzer reports them so a typo cannot silently disable a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedSuppression {
    pub line: u32,
    pub detail: String,
}

/// How strict a `// gn:hot` hot-path marking is (GN10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotMode {
    /// `// gn:hot` — no allocation construct of any kind may be
    /// reachable, not even amortized growth into a reused buffer.
    Strict,
    /// `// gn:hot(amortized)` — growth-capable calls (`push`, `insert`,
    /// `extend`, ...) into reused buffers are permitted; unconditional
    /// allocations (`Box::new`, `clone`, `collect`, `format!`, ...)
    /// stay banned.
    Amortized,
}

/// A `// gn:hot` / `// gn:hot(amortized)` hot-path annotation (GN10).
/// It marks the next `fn` item (or, as a trailing comment, the fn on its
/// own line) as a hot-path entry whose call-graph closure must be
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotAnnotation {
    pub mode: HotMode,
    /// Line the annotation comment appears on.
    pub line: u32,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    pub malformed: Vec<MalformedSuppression>,
    /// `// gn:hot` hot-path markings, in source order.
    pub hot_annotations: Vec<HotAnnotation>,
    /// 1-based lines covered by a `#[cfg(test)]` item body.
    test_lines: Vec<(u32, u32)>,
}

impl LexedFile {
    /// True if `line` lies inside a `#[cfg(test)]` item (inline test
    /// module or test-only helper).
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_lines
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// Raw annotation text captured during the scan, before target-line
/// resolution: (line, comment body, had_code_before_comment).
struct RawComment {
    line: u32,
    body: String,
    trailing: bool,
}

/// Lexes `src`, capturing tokens, suppression annotations, and
/// `#[cfg(test)]` regions.
pub fn lex(src: &str) -> LexedFile {
    let bytes: Vec<char> = src.chars().collect();
    let mut tokens: Vec<Token> = Vec::new();
    let mut comments: Vec<RawComment> = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    let n = bytes.len();
    // Tracks whether any token has been emitted on the current line, so a
    // comment knows whether it trails code or stands alone.
    let mut code_on_line = false;

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != '\n' {
                    j += 1;
                }
                let body: String = bytes[start..j].iter().collect();
                comments.push(RawComment {
                    line,
                    body,
                    trailing: code_on_line,
                });
                i = j;
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                // Block comment, nested per Rust rules.
                let mut depth = 1usize;
                let mut j = i + 2;
                let mut body = String::new();
                while j < n && depth > 0 {
                    if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if bytes[j] == '\n' {
                            line += 1;
                            code_on_line = false;
                        }
                        body.push(bytes[j]);
                        j += 1;
                    }
                }
                comments.push(RawComment {
                    line,
                    body,
                    trailing: code_on_line,
                });
                i = j;
            }
            '"' => {
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_string(&bytes, i, &mut line);
                code_on_line = true;
            }
            'r' | 'b' if is_raw_or_byte_string(&bytes, i) => {
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_raw_or_byte(&bytes, i, &mut line);
                code_on_line = true;
            }
            '\'' => {
                // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                let (tok, next) = lex_quote(&bytes, i, &mut line);
                tokens.push(Token { kind: tok, line });
                i = next;
                code_on_line = true;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                while j < n
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    // Stop a number before `..` (range) or a method call on
                    // a literal; one trailing `.` digit continuation only.
                    if bytes[j] == '.' && (j + 1 >= n || !bytes[j + 1].is_ascii_digit()) {
                        break;
                    }
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                });
                i = j;
                code_on_line = true;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let ident: String = bytes[i..j].iter().collect();
                tokens.push(Token {
                    kind: TokenKind::Ident(ident),
                    line,
                });
                i = j;
                code_on_line = true;
            }
            c => {
                tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                i += 1;
                code_on_line = true;
            }
        }
    }

    let test_lines = find_cfg_test_regions(&tokens, line);
    let (suppressions, mut malformed) = resolve_annotations(&comments, &tokens);
    let hot_annotations = resolve_hot_annotations(&comments, &mut malformed);
    LexedFile {
        tokens,
        suppressions,
        malformed,
        hot_annotations,
        test_lines,
    }
}

/// True if position `i` starts a raw string (`r"`, `r#"`), byte string
/// (`b"`), byte char (`b'`), or raw byte string (`br"`, `br#"`).
fn is_raw_or_byte_string(bytes: &[char], i: usize) -> bool {
    let n = bytes.len();
    let c = bytes[i];
    if c == 'r' {
        let mut j = i + 1;
        while j < n && bytes[j] == '#' {
            j += 1;
        }
        return j < n && bytes[j] == '"';
    }
    if c == 'b' {
        if i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '\'') {
            return true;
        }
        if i + 1 < n && bytes[i + 1] == 'r' {
            let mut j = i + 2;
            while j < n && bytes[j] == '#' {
                j += 1;
            }
            return j < n && bytes[j] == '"';
        }
    }
    false
}

/// Skips a plain `"..."` string starting at the opening quote; returns
/// the index just past the closing quote.
fn skip_string(bytes: &[char], start: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    let mut i = start + 1;
    while i < n {
        match bytes[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    n
}

/// Skips raw strings, byte strings, and byte chars starting at `r`/`b`.
fn skip_raw_or_byte(bytes: &[char], start: usize, line: &mut u32) -> usize {
    let n = bytes.len();
    let mut i = start;
    // Consume the prefix letters.
    while i < n && (bytes[i] == 'r' || bytes[i] == 'b') {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < n && bytes[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i < n && bytes[i] == '\'' {
        // Byte char b'x'.
        i += 1;
        if i < n && bytes[i] == '\\' {
            i += 1;
        }
        while i < n && bytes[i] != '\'' {
            i += 1;
        }
        return (i + 1).min(n);
    }
    if i >= n || bytes[i] != '"' {
        return i; // Not actually a literal; treat prefix as consumed.
    }
    i += 1;
    if hashes == 0
        && bytes[start] != 'r'
        && !(bytes[start] == 'b' && start + 1 < n && bytes[start + 1] == 'r')
    {
        // Plain b"..." honors escapes.
        while i < n {
            match bytes[i] {
                '\\' => i += 2,
                '"' => return i + 1,
                '\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        return n;
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while i < n {
        if bytes[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && bytes[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    n
}

/// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal) at a
/// `'` and returns the token kind plus the index past it.
fn lex_quote(bytes: &[char], start: usize, line: &mut u32) -> (TokenKind, usize) {
    let n = bytes.len();
    let i = start + 1;
    if i < n && bytes[i] == '\\' {
        // Escaped char literal '\n', '\u{...}', '\''.
        let mut j = i + 2;
        while j < n && bytes[j] != '\'' {
            j += 1;
        }
        return (TokenKind::Literal, (j + 1).min(n));
    }
    if i < n && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
        if i + 1 < n && bytes[i + 1] == '\'' {
            // 'x'
            return (TokenKind::Literal, i + 2);
        }
        // Lifetime: consume the identifier.
        let mut j = i;
        while j < n && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
            j += 1;
        }
        return (TokenKind::Lifetime, j);
    }
    if i < n && bytes[i] == '\n' {
        *line += 1;
    }
    // Something exotic ('(' as a char literal, stray quote): consume to
    // the closing quote on the same line if any.
    let mut j = i;
    while j < n && bytes[j] != '\'' && bytes[j] != '\n' {
        j += 1;
    }
    (TokenKind::Literal, (j + 1).min(n))
}

/// Finds line ranges covered by items annotated `#[cfg(test)]` (and
/// `#[test]` / `#[bench]` functions) by brace matching from the first `{`
/// after the attribute.
fn find_cfg_test_regions(tokens: &[Token], last_line: u32) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut k = 0usize;
    while k < tokens.len() {
        if let Some(attr_end) = match_test_attribute(tokens, k) {
            let attr_line = tokens[k].line;
            // Find the opening brace of the annotated item, skipping any
            // further attributes and the item header. Stop at `;` (an
            // annotated `use` or extern declaration spans to the `;`).
            let mut j = attr_end;
            let mut open = None;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    open = Some(j);
                    break;
                }
                if tokens[j].is_punct(';') {
                    regions.push((attr_line, tokens[j].line));
                    break;
                }
                j += 1;
            }
            if let Some(open_idx) = open {
                let mut depth = 0i64;
                let mut close_line = last_line;
                for t in &tokens[open_idx..] {
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            close_line = t.line;
                            break;
                        }
                    }
                }
                regions.push((attr_line, close_line));
                // Continue scanning *after* the attribute itself; nested
                // regions are harmless (ranges merely overlap).
            }
        }
        k += 1;
    }
    regions
}

/// If `tokens[k..]` begins a `#[cfg(test)]`, `#[cfg(all(test, ...))]`,
/// `#[test]`, or `#[bench]` attribute, returns the index just past `]`.
fn match_test_attribute(tokens: &[Token], k: usize) -> Option<usize> {
    if !tokens.get(k)?.is_punct('#') || !tokens.get(k + 1)?.is_punct('[') {
        return None;
    }
    // Collect the attribute tokens up to the matching `]`.
    let mut depth = 1i64;
    let mut j = k + 2;
    let mut idents: Vec<&str> = Vec::new();
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
        } else if let Some(s) = t.ident() {
            idents.push(s);
        }
        j += 1;
    }
    if depth != 0 {
        return None;
    }
    let is_test = match idents.first() {
        Some(&"cfg") => idents.contains(&"test"),
        Some(&"test") | Some(&"bench") => true,
        _ => false,
    };
    if is_test {
        Some(j)
    } else {
        None
    }
}

/// Parses captured comments into suppressions, resolving each standalone
/// annotation to the next code-bearing line.
fn resolve_annotations(
    comments: &[RawComment],
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<MalformedSuppression>) {
    let mut out = Vec::new();
    let mut malformed = Vec::new();
    for c in comments {
        // Only comments that *start* with the marker are annotations;
        // prose that merely mentions the grammar (docs, examples in
        // backticks) is never parsed.
        let Some(rest) = c.body.trim_start().strip_prefix("greednet-lint:") else {
            continue;
        };
        let rest = rest.trim();
        match parse_allow(rest) {
            Ok(list) => {
                let target_line = if c.trailing {
                    c.line
                } else {
                    next_code_line(tokens, c.line).unwrap_or(c.line)
                };
                for (rule, reason) in list {
                    out.push(Suppression {
                        rule,
                        reason,
                        annotation_line: c.line,
                        target_line,
                    });
                }
            }
            Err(detail) => malformed.push(MalformedSuppression {
                line: c.line,
                detail,
            }),
        }
    }
    (out, malformed)
}

/// Parses `// gn:hot` / `// gn:hot(amortized)` hot-path markings out of
/// the comment stream. Anything that starts with `gn:hot` but does not
/// match the two-form grammar is reported as malformed — a typo such as
/// `gn:hot(amortised)` must not silently un-mark a hot path.
fn resolve_hot_annotations(
    comments: &[RawComment],
    malformed: &mut Vec<MalformedSuppression>,
) -> Vec<HotAnnotation> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.body.trim_start().strip_prefix("gn:hot") else {
            continue;
        };
        match rest.trim_end() {
            "" => out.push(HotAnnotation {
                mode: HotMode::Strict,
                line: c.line,
            }),
            "(amortized)" => out.push(HotAnnotation {
                mode: HotMode::Amortized,
                line: c.line,
            }),
            other => malformed.push(MalformedSuppression {
                line: c.line,
                detail: format!("expected `gn:hot` or `gn:hot(amortized)`, found `gn:hot{other}`"),
            }),
        }
    }
    out
}

/// First line strictly after `line` that carries a token.
fn next_code_line(tokens: &[Token], line: u32) -> Option<u32> {
    tokens.iter().map(|t| t.line).find(|&l| l > line)
}

/// Parses `allow(GN08, reason = "...")`. Returns `(rule, reason)` pairs
/// (the grammar admits a single rule per annotation; a file may stack
/// several annotation lines).
fn parse_allow(s: &str) -> Result<Vec<(String, String)>, String> {
    let s = s.trim();
    let Some(inner) = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('('))
        .and_then(|t| t.rfind(')').map(|e| &t[..e]))
    else {
        return Err(format!(
            "expected `allow(RULE, reason = \"...\")`, found `{s}`"
        ));
    };
    let Some((rule_part, reason_part)) = inner.split_once(',') else {
        return Err("missing `, reason = \"...\"` clause".into());
    };
    let rule = rule_part.trim().to_uppercase();
    if !(rule.len() == 4 && rule.starts_with("GN") && rule[2..].chars().all(|c| c.is_ascii_digit()))
    {
        return Err(format!("`{rule}` is not a rule id (expected GNxx)"));
    }
    let reason_part = reason_part.trim();
    let Some(q) = reason_part
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim_start)
    else {
        return Err("missing `reason = \"...\"`".into());
    };
    let reason = q
        .strip_prefix('"')
        .and_then(|t| t.rfind('"').map(|e| &t[..e]))
        .map_or("", str::trim);
    if reason.is_empty() {
        return Err("reason must be a non-empty quoted string".into());
    }
    Ok(vec![(rule, reason.to_string())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lexed: &LexedFile) -> Vec<&str> {
        lexed.tokens.iter().filter_map(Token::ident).collect()
    }

    #[test]
    fn comments_and_strings_emit_no_tokens() {
        let lexed = lex(r##"
// HashMap in a comment
/* HashMap in /* a nested */ block */
let s = "HashMap::new()";
let r = r#"HashMap"#;
let c = 'H';
"##);
        assert!(!idents(&lexed).contains(&"HashMap"));
        assert!(idents(&lexed).contains(&"let"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        assert!(idents(&lexed).contains(&"str"));
    }

    #[test]
    fn token_lines_are_accurate() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lexed = lex(src);
        assert!(!lexed.in_test_code(1));
        assert!(lexed.in_test_code(4));
        assert!(!lexed.in_test_code(6));
    }

    #[test]
    fn trailing_annotation_targets_its_own_line() {
        let src =
            "let _ = sink.flush(); // greednet-lint: allow(GN08, reason = \"best-effort flush\")\n";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.rule, "GN08");
        assert_eq!(s.target_line, 1);
        assert_eq!(s.reason, "best-effort flush");
    }

    #[test]
    fn standalone_annotation_targets_next_code_line() {
        let src = "\n// greednet-lint: allow(GN10, reason = \"startup-only: arena warms before the loop\")\nfn warm() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        assert_eq!(lexed.suppressions[0].target_line, 3);
    }

    #[test]
    fn annotation_without_reason_is_malformed() {
        let lexed = lex("// greednet-lint: allow(GN08)\nlet x = 1;\n");
        assert!(lexed.suppressions.is_empty());
        assert_eq!(lexed.malformed.len(), 1);
    }

    #[test]
    fn annotation_with_empty_reason_is_malformed() {
        let lexed = lex("// greednet-lint: allow(GN08, reason = \"\")\nlet x = 1;\n");
        assert!(lexed.suppressions.is_empty());
        assert_eq!(lexed.malformed.len(), 1);
    }

    #[test]
    fn hot_annotations_parse_both_modes() {
        let src = "// gn:hot\nfn pop() {}\n// gn:hot(amortized)\nfn push() {}\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.hot_annotations,
            vec![
                HotAnnotation {
                    mode: HotMode::Strict,
                    line: 1
                },
                HotAnnotation {
                    mode: HotMode::Amortized,
                    line: 3
                },
            ]
        );
        assert!(lexed.malformed.is_empty());
    }

    #[test]
    fn malformed_hot_annotation_is_reported_not_ignored() {
        let lexed = lex("// gn:hot(amortised)\nfn pop() {}\n");
        assert!(lexed.hot_annotations.is_empty());
        assert_eq!(lexed.malformed.len(), 1);
        assert!(lexed.malformed[0].detail.contains("gn:hot"));
    }

    #[test]
    fn prose_mentioning_gn_hot_mid_comment_is_not_an_annotation() {
        let lexed = lex("// the gn:hot marking is documented in LINTS.md\nfn f() {}\n");
        assert!(lexed.hot_annotations.is_empty());
        assert!(lexed.malformed.is_empty());
    }

    #[test]
    fn raw_strings_with_hashes_are_skipped() {
        let lexed = lex("let x = r##\"unwrap() \" inside\"##; let y = 1;");
        assert!(idents(&lexed).contains(&"y"));
        assert!(!idents(&lexed).contains(&"unwrap"));
    }

    #[test]
    fn test_attribute_on_fn_is_exempt_region() {
        let src = "#[test]\nfn check() {\n    x.unwrap();\n}\n";
        let lexed = lex(src);
        assert!(lexed.in_test_code(3));
    }
}
