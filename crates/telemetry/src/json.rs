//! The workspace's one JSON string escaper.
//!
//! Every hand-rolled JSON writer (run reports, the analyzer's JSON/SARIF
//! reports, the service's records, bench reports) quotes strings through
//! this module, so they all agree on the escaping: `"` and `\` are
//! backslash-escaped, `\n`/`\r`/`\t` use their short forms, and any other
//! control character becomes `\u00XX`. Everything else, non-ASCII
//! included, is written through verbatim.

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                // Formatting into a String cannot fail.
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Returns `s` as a quoted, escaped JSON string.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}g\u{7f}é"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{7f}é\""
        );
    }
}
