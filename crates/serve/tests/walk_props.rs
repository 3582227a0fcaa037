//! The cache-key guarantee of the request field walk, tested from the
//! wire: every field a request can set moves its key, except the one the
//! walk reads as `unkeyed`, and no input makes the parser panic.
//!
//! The keyed fields of each kind are read off its canonical form, so a
//! keyed field added without a row in [`MOVES`] fails
//! `every_keyed_field_has_a_row_and_moves_the_key`.

use greednet_serve::json::{parse, Json};
use greednet_serve::{Request, RequestKind, ServeError};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// `(field, JSON value)`.
type Move = (&'static str, &'static str);

/// For each kind: a base request, then every field its walk reads with a
/// value that differs from the base's.
const MOVES: &[(&str, &str, &[Move])] = &[
    (
        "nash",
        r#"{"kind":"nash"}"#,
        &[("discipline", r#""fifo""#), ("users", r#""log:0.5,1.0""#)],
    ),
    (
        "simulate",
        r#"{"kind":"simulate","rates":[0.2,0.1]}"#,
        &[
            ("rates", "[0.3,0.1]"),
            ("discipline", r#""ps""#),
            ("horizon", "5000"),
            ("warmup", "500"),
            ("windows", "16"),
            ("seed", "2"),
            ("service", r#""D""#),
        ],
    ),
    (
        "table",
        r#"{"kind":"table","rates":[0.1]}"#,
        &[("rates", "[0.2]")],
    ),
    (
        "protect",
        r#"{"kind":"protect"}"#,
        &[("n", "5"), ("victim", "0.2"), ("discipline", r#""fifo""#)],
    ),
    (
        "exp",
        r#"{"kind":"exp","exp":"t1"}"#,
        &[
            ("exp", r#""e1""#),
            ("seed", "3"),
            ("threads", "2"),
            ("smoke", "true"),
        ],
    ),
    (
        "largen",
        r#"{"kind":"largen"}"#,
        &[
            ("discipline", r#""fifo""#),
            ("n", "20000"),
            ("classes", r#""log:0.6,1.0""#),
            ("weights", "[1,2,3]"),
            ("seed", "2"),
            ("threads", "4"),
        ],
    ),
];

/// The one field that parses without entering the key.
const UNKEYED: (&str, &str) = ("largen", "threads");

fn key_of(line: &str) -> u128 {
    Request::parse_line(line)
        .unwrap_or_else(|e| panic!("{line}: {e}"))
        .kind
        .cache_key()
        .unwrap_or_else(|| panic!("{line}: no key"))
}

/// `base` with `field` set to the JSON text `value`.
fn with_field(base: &str, field: &str, value: &str) -> String {
    let Ok(Json::Obj(mut pairs)) = parse(base) else {
        panic!("base {base} is not an object")
    };
    pairs.retain(|(k, _)| k != field);
    pairs.push((field.to_string(), parse(value).expect("row value is JSON")));
    Json::Obj(pairs).to_compact()
}

#[test]
fn every_keyed_field_has_a_row_and_moves_the_key() {
    for &(kind, base, rows) in MOVES {
        let canonical = Request::parse_line(base)
            .expect("base parses")
            .kind
            .canonical_json();
        let Some(Json::Obj(pairs)) = canonical else {
            panic!("{kind}: no canonical object")
        };
        let listed: BTreeSet<&str> = rows.iter().map(|&(f, _)| f).collect();
        for (field, _) in pairs.iter().filter(|(f, _)| f != "kind") {
            assert!(
                listed.contains(field.as_str()),
                "{kind}.{field} is keyed but has no row"
            );
        }
        let base_key = key_of(base);
        for &(field, value) in rows {
            let moved = key_of(&with_field(base, field, value)) != base_key;
            assert_eq!(moved, (kind, field) != UNKEYED, "{kind}.{field} = {value}");
        }
    }
}

#[test]
fn largen_threads_is_the_only_field_that_parses_without_moving_the_key() {
    // Every row's field is tried on every kind, so a field some kind
    // parses but does not list shows up here too.
    let mut unkeyed = BTreeSet::new();
    for &(kind, base, own) in MOVES {
        let base_key = key_of(base);
        for &(field, value) in MOVES.iter().flat_map(|&(_, _, rows)| rows) {
            let line = with_field(base, field, value);
            let Ok(req) = Request::parse_line(&line) else {
                continue;
            };
            assert!(
                own.iter().any(|&(f, _)| f == field),
                "{kind} parses {field}, which its rows do not list"
            );
            if req.kind.cache_key() == Some(base_key) {
                unkeyed.insert((kind, field));
            }
        }
    }
    assert_eq!(unkeyed, BTreeSet::from([UNKEYED]));
}

/// Characters that steer random text into the JSON parser's branches.
const ALPHABET: &str = "{}[]\":,\\ \n-+.019eEaknt ulfsrvx\u{e9}\u{0}\u{7f}\u{1f600}";

/// Values of every JSON type, valid and invalid for each field.
#[rustfmt::skip]
const VALUES: &[&str] = &[
    "null", "true", "false", "0", "-0.0", "1", "-1", "2.5", "4", "16", "1e308",
    "9007199254740992", r#""""#, r#""nash""#, r#""simulate""#, r#""largen""#, r#""exp""#,
    r#""batch""#, r#""stats""#, r#""fs""#, r#""fairshare""#, r#""fq""#, r#""zap""#,
    r#""H2:4""#, r#""E0""#, r#""t1""#, r#""log:0.5,1.0""#, r#""LOG:1,1; linear:1,0.4""#,
    r#""log:a,b""#, "[]", "[0.1,0.2]", "[-1]", r#"["a"]"#, "[1e308,1e308,1e308]",
    r#"[{"family":" Log ","a":0.5,"b":1}]"#, r#"[{"family":"log","a":1}]"#,
    r#"[{"kind":"table","rates":[0.1]},{"kind":"stats"}]"#,
    r#"[{"kind":"batch","requests":[]}]"#, "{}",
];

/// A request object of a real kind, built from real field names (every
/// walk's, the envelope's, and one unknown) and values of any type.
fn request_objects() -> impl Strategy<Value = String> {
    let mut names = vec!["id", "v", "requests", "zzz"];
    names.extend(
        MOVES
            .iter()
            .flat_map(|&(_, _, rows)| rows.iter().map(|&(f, _)| f)),
    );
    let mut kinds: Vec<&str> = MOVES.iter().map(|&(kind, _, _)| kind).collect();
    kinds.extend(["batch", "stats"]);
    let pair = (0..names.len(), 0..VALUES.len());
    (0..kinds.len(), proptest::collection::vec(pair, 0..5)).prop_map(move |(kind, pairs)| {
        let mut seen = BTreeSet::new();
        let mut fields = vec![format!(r#""kind":"{}""#, kinds[kind])];
        for (n, v) in pairs {
            if seen.insert(names[n]) {
                fields.push(format!(r#""{}":{}"#, names[n], VALUES[v]));
            }
        }
        format!("{{{}}}", fields.join(","))
    })
}

/// Parses `line` and checks the outcome's shape: a typed error, or a
/// request whose cacheable kinds all have a key.
fn parse_is_total(line: &str) -> Result<(), TestCaseError> {
    match Request::parse_line(line) {
        Ok(req) => {
            let subs = match &req.kind {
                RequestKind::Batch(subs) => subs.iter().map(|r| &r.kind).collect(),
                kind => vec![kind],
            };
            for kind in subs {
                let keyless = matches!(
                    kind,
                    RequestKind::Batch(_) | RequestKind::Stats | RequestKind::Shutdown
                );
                prop_assert!(kind.cache_key().is_none() == keyless, "{line}");
            }
        }
        Err(e) => prop_assert!(
            matches!(e, ServeError::Parse(_) | ServeError::BadRequest(_)),
            "{line}: {e:?}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_text_parses_or_fails_typed(
        picks in proptest::collection::vec(0..ALPHABET.chars().count(), 0..48),
        scalars in proptest::collection::vec(0u32..0x11_0000, 0..16),
    ) {
        let alphabet: Vec<char> = ALPHABET.chars().collect();
        parse_is_total(&picks.into_iter().map(|i| alphabet[i]).collect::<String>())?;
        parse_is_total(&scalars.into_iter().filter_map(char::from_u32).collect::<String>())?;
    }

    #[test]
    fn objects_of_real_fields_parse_or_fail_typed(line in request_objects()) {
        parse_is_total(&line)?;
    }
}
