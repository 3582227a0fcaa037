//! The wire protocol: typed requests parsed from JSONL lines, their
//! canonical (cache-key) form, and the response records the service
//! streams back.
//!
//! ## Request shape
//!
//! Each request is one JSON object on one line, with a `kind` selecting
//! the scenario and an optional client `id` echoed on every response
//! record (the `id` never enters the cache key — two clients asking the
//! same question share one cache entry):
//!
//! ```text
//! {"kind":"nash","id":"a1","discipline":"fs","users":"log:0.5,1.0;linear:1.0,0.4"}
//! {"kind":"simulate","rates":[0.2,0.1],"discipline":"fs","horizon":3000,"seed":5}
//! {"kind":"table","rates":[0.05,0.1,0.2]}
//! {"kind":"protect","n":4,"victim":0.1,"discipline":"fs"}
//! {"kind":"exp","exp":"t1","smoke":true}
//! {"kind":"largen","discipline":"fs","n":100000,"classes":"log:0.6,1.0;log:0.4,1.0"}
//! {"kind":"batch","requests":[...]}   {"kind":"stats"}   {"kind":"shutdown"}
//! ```
//!
//! Unknown fields are rejected (a typo'd field silently falling back to
//! its default would poison the cache key contract), and every omitted
//! field is filled with the same default the CLI uses.
//!
//! Every request may carry an optional `"v"` schema-version field
//! (default 1). This build speaks exactly v=1 and rejects anything else,
//! so clients can pin the version today and get a clean `bad_request`
//! (instead of a silent reinterpretation) if the wire schema ever moves.
//! Version 1 never enters the canonical form: `{"kind":"nash","v":1}`
//! and `{"kind":"nash"}` share one cache key, byte-identical to builds
//! that predate the field.
//!
//! ## Response records
//!
//! The service answers each request with a stream of records:
//! `accepted` (echoes the id and canonical cache key), zero or more
//! `progress` records, then exactly one `result` (with the payload under
//! `data` and a `cached` flag) or one `error`.

use crate::canon::{canonical_key, key_hex};
use crate::error::ServeError;
use crate::json::{parse, Json};
use crate::ops::{
    canonical_alloc_name, canonical_kind_name, canonical_largen_name, canonical_service_json,
    ExpSpec, LargenSpec, NashSpec, ProtectSpec, SimulateSpec, TableSpec, UtilityParam,
};
use greednet_numerics::conv::{f64_to_u64, f64_to_usize};

/// Default utility profile, identical to `greednet nash`'s `--users`
/// default.
pub const DEFAULT_USERS: &str = "log:0.5,1.0;log:1.0,1.0;linear:1.0,0.3";

/// Default large-N class profile, identical to experiment E17's.
pub const DEFAULT_CLASSES: &str = "log:0.6,1.0;log:0.5,1.0;log:0.4,1.0";

/// Largest integer exactly representable in an f64 (2^53); JSON numbers
/// above this cannot round-trip, so integer fields reject them.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// One parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed on every response record (not hashed).
    pub id: Option<String>,
    /// What to do.
    pub kind: RequestKind,
}

/// The request kinds the service understands.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Solve a Nash equilibrium.
    Nash(NashSpec),
    /// Run a packet-level simulation.
    Simulate(SimulateSpec),
    /// Compute the Table 1 priority decomposition.
    Table(TableSpec),
    /// Run a protection sweep.
    Protect(ProtectSpec),
    /// Run a registry experiment.
    Exp(ExpSpec),
    /// Solve a large-N (mean-field) equilibrium.
    Largen(LargenSpec),
    /// Run several sub-requests on the deterministic pool.
    Batch(Vec<Request>),
    /// Report cache counters.
    Stats,
    /// Stop the service cleanly.
    Shutdown,
}

impl Request {
    /// Parses one JSONL request line.
    ///
    /// # Errors
    /// [`ServeError::Parse`] for malformed JSON or request shapes,
    /// [`ServeError::BadRequest`] for out-of-range field values.
    pub fn parse_line(line: &str) -> Result<Request, ServeError> {
        let value = parse(line)?;
        Request::from_json(&value, true)
    }

    /// Builds a request from a parsed JSON value. `allow_batch` is false
    /// one level down: batches do not nest.
    fn from_json(value: &Json, allow_batch: bool) -> Result<Request, ServeError> {
        let Json::Obj(pairs) = value else {
            return Err(ServeError::Parse("request must be a JSON object".into()));
        };
        let mut fields = Fields::new(pairs);
        let kind_name = fields.take_str("kind")?.ok_or_else(|| {
            ServeError::Parse("request needs a \"kind\" field (nash/simulate/table/protect/exp/largen/batch/stats/shutdown)".into())
        })?;
        let id = fields.take_str("id")?;
        // Schema version: only v=1 exists. A v>1 canonical form would
        // include the version; v=1 stays out so the keys of today's
        // requests match every build since the cache key contract began.
        let v = fields.take_u64("v")?.unwrap_or(1);
        if v != 1 {
            return Err(ServeError::BadRequest(format!(
                "unsupported schema version {v} (this build speaks v=1)"
            )));
        }
        let kind = match kind_name.as_str() {
            "nash" => RequestKind::Nash(NashSpec {
                discipline: fields.take_str("discipline")?.unwrap_or_else(|| "fs".into()),
                users: match fields.take("users") {
                    None => parse_users(DEFAULT_USERS)?,
                    Some(Json::Str(s)) => parse_users(&s)?,
                    Some(Json::Arr(items)) => parse_users_array(&items)?,
                    Some(_) => {
                        return Err(ServeError::Parse(
                            "\"users\" must be a \"family:a,b;...\" string or an array of {family,a,b} objects".into(),
                        ))
                    }
                },
            }),
            "simulate" => {
                let rates = fields.take_rates("rates")?;
                RequestKind::Simulate(SimulateSpec {
                    rates,
                    discipline: fields.take_str("discipline")?.unwrap_or_else(|| "fs".into()),
                    horizon: fields.take_f64("horizon")?.unwrap_or(100_000.0),
                    warmup: fields.take_f64("warmup")?,
                    windows: fields.take_usize("windows")?,
                    seed: fields.take_u64("seed")?.unwrap_or(1),
                    service: fields.take_str("service")?.unwrap_or_else(|| "M".into()),
                })
            }
            "table" => RequestKind::Table(TableSpec {
                rates: fields.take_rates("rates")?,
            }),
            "protect" => RequestKind::Protect(ProtectSpec {
                n: fields.take_usize("n")?.unwrap_or(4),
                victim: fields.take_f64("victim")?.unwrap_or(0.1),
                discipline: fields.take_str("discipline")?.unwrap_or_else(|| "fs".into()),
            }),
            "exp" => RequestKind::Exp(ExpSpec {
                exp: fields.take_str("exp")?.ok_or_else(|| {
                    ServeError::Parse("exp requests need an \"exp\" id (e.g. \"t1\")".into())
                })?,
                seed: fields.take_u64("seed")?.unwrap_or(0),
                threads: fields.take_usize("threads")?.unwrap_or(1),
                smoke: fields.take_bool("smoke")?.unwrap_or(false),
            }),
            "largen" => RequestKind::Largen(LargenSpec {
                discipline: fields.take_str("discipline")?.unwrap_or_else(|| "fs".into()),
                n: fields.take_u64("n")?.unwrap_or(10_000),
                classes: match fields.take("classes") {
                    None => parse_users(DEFAULT_CLASSES)?,
                    Some(Json::Str(s)) => parse_users(&s)?,
                    Some(Json::Arr(items)) => parse_users_array(&items)?,
                    Some(_) => {
                        return Err(ServeError::Parse(
                            "\"classes\" must be a \"family:a,b;...\" string or an array of {family,a,b} objects".into(),
                        ))
                    }
                },
                weights: match fields.take("weights") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => {
                        let mut weights = Vec::with_capacity(items.len());
                        for item in &items {
                            match item {
                                Json::Num(x) if x.is_finite() && *x > 0.0 => weights.push(*x),
                                _ => {
                                    return Err(ServeError::BadRequest(
                                        "\"weights\" entries must be finite numbers > 0".into(),
                                    ))
                                }
                            }
                        }
                        weights
                    }
                    Some(_) => {
                        return Err(ServeError::Parse(
                            "\"weights\" must be an array of numbers".into(),
                        ))
                    }
                },
                seed: fields.take_u64("seed")?.unwrap_or(1),
                threads: fields.take_usize("threads")?.unwrap_or(1),
            }),
            "batch" => {
                if !allow_batch {
                    return Err(ServeError::Parse("batch requests do not nest".into()));
                }
                let Some(Json::Arr(items)) = fields.take("requests") else {
                    return Err(ServeError::Parse(
                        "batch requests need a \"requests\" array".into(),
                    ));
                };
                let subs: Result<Vec<Request>, ServeError> = items
                    .iter()
                    .map(|item| Request::from_json(item, false))
                    .collect();
                RequestKind::Batch(subs?)
            }
            "stats" => RequestKind::Stats,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(ServeError::Parse(format!(
                    "unknown request kind {other:?} (use nash/simulate/table/protect/exp/largen/batch/stats/shutdown)"
                )))
            }
        };
        fields.finish()?;
        Ok(Request { id, kind })
    }
}

impl RequestKind {
    /// The canonical form of a cacheable request: kind tag plus every
    /// field, defaults filled, aliases resolved, client id excluded.
    /// Non-cacheable kinds (`batch`, `stats`, `shutdown`) return `None`
    /// — a batch's *sub-requests* are each cached individually.
    #[must_use]
    pub fn canonical_json(&self) -> Option<Json> {
        let obj = |kind: &str, mut rest: Vec<(String, Json)>| {
            let mut pairs = vec![("kind".to_string(), Json::Str(kind.into()))];
            pairs.append(&mut rest);
            Json::Obj(pairs)
        };
        match self {
            RequestKind::Nash(s) => Some(obj(
                "nash",
                vec![
                    (
                        "discipline".into(),
                        Json::Str(canonical_alloc_name(&s.discipline).into()),
                    ),
                    (
                        "users".into(),
                        Json::Arr(
                            s.users
                                .iter()
                                .map(|u| {
                                    Json::Obj(vec![
                                        ("family".into(), Json::Str(u.family.clone())),
                                        ("a".into(), Json::Num(u.a)),
                                        ("b".into(), Json::Num(u.b)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ],
            )),
            RequestKind::Simulate(s) => Some(obj(
                "simulate",
                vec![
                    (
                        "rates".into(),
                        Json::Arr(s.rates.iter().map(|&r| Json::Num(r)).collect()),
                    ),
                    (
                        "discipline".into(),
                        Json::Str(canonical_kind_name(&s.discipline).into()),
                    ),
                    ("horizon".into(), Json::Num(s.horizon)),
                    // The builder derives warmup = horizon/10 when unset,
                    // so an explicit horizon/10 is the same simulation.
                    (
                        "warmup".into(),
                        Json::Num(s.warmup.unwrap_or(s.horizon * 0.1)),
                    ),
                    (
                        "windows".into(),
                        Json::Num(usize_to_num(s.windows.unwrap_or(32))),
                    ),
                    ("seed".into(), Json::Num(u64_to_num(s.seed))),
                    ("service".into(), canonical_service_json(&s.service)),
                ],
            )),
            RequestKind::Table(s) => Some(obj(
                "table",
                vec![(
                    "rates".into(),
                    Json::Arr(s.rates.iter().map(|&r| Json::Num(r)).collect()),
                )],
            )),
            RequestKind::Protect(s) => Some(obj(
                "protect",
                vec![
                    ("n".into(), Json::Num(usize_to_num(s.n))),
                    ("victim".into(), Json::Num(s.victim)),
                    (
                        "discipline".into(),
                        Json::Str(canonical_alloc_name(&s.discipline).into()),
                    ),
                ],
            )),
            RequestKind::Exp(s) => Some(obj(
                "exp",
                vec![
                    ("exp".into(), Json::Str(s.exp.clone())),
                    ("seed".into(), Json::Num(u64_to_num(s.seed))),
                    ("threads".into(), Json::Num(usize_to_num(s.threads))),
                    ("smoke".into(), Json::Bool(s.smoke)),
                ],
            )),
            RequestKind::Largen(s) => {
                // Weights are canonicalized to an explicit normalized
                // vector: `[1,1]`, `[2,2]`, and omitted all describe the
                // same game over two classes. Invalid weight shapes pass
                // through raw — they fail at execution, uncached.
                let k = s.classes.len();
                let raw: Vec<f64> = if s.weights.is_empty() {
                    vec![1.0; k]
                } else {
                    s.weights.clone()
                };
                let sum: f64 = raw.iter().sum();
                let weights: Vec<f64> = if raw.len() == k && sum > 0.0 && sum.is_finite() {
                    raw.iter().map(|w| w / sum).collect()
                } else {
                    raw
                };
                Some(obj(
                    "largen",
                    vec![
                        (
                            "discipline".into(),
                            Json::Str(canonical_largen_name(&s.discipline).into()),
                        ),
                        ("n".into(), Json::Num(u64_to_num(s.n))),
                        (
                            "classes".into(),
                            Json::Arr(
                                s.classes
                                    .iter()
                                    .map(|u| {
                                        Json::Obj(vec![
                                            ("family".into(), Json::Str(u.family.clone())),
                                            ("a".into(), Json::Num(u.a)),
                                            ("b".into(), Json::Num(u.b)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "weights".into(),
                            Json::Arr(weights.into_iter().map(Json::Num).collect()),
                        ),
                        ("seed".into(), Json::Num(u64_to_num(s.seed))),
                        // gn:canon-exempt(LargenSpec.threads: large-N solvers are bitwise identical at any thread count (pinned by the largen determinism tests), so pool width must not split the cache)
                    ],
                ))
            }
            RequestKind::Batch(_) | RequestKind::Stats | RequestKind::Shutdown => None,
        }
    }

    /// The 128-bit cache key of a cacheable request.
    #[must_use]
    pub fn cache_key(&self) -> Option<u128> {
        self.canonical_json().map(|v| canonical_key(&v))
    }
}

fn u64_to_num(x: u64) -> f64 {
    x as f64
}

fn usize_to_num(x: usize) -> f64 {
    x as f64
}

/// Tracks which fields of a request object have been consumed so
/// leftovers (typos, unknown options) are rejected instead of silently
/// defaulting.
struct Fields {
    pairs: Vec<(String, Json)>,
    taken: Vec<bool>,
}

impl Fields {
    fn new(pairs: &[(String, Json)]) -> Fields {
        Fields {
            pairs: pairs.to_vec(),
            taken: vec![false; pairs.len()],
        }
    }

    fn take(&mut self, key: &str) -> Option<Json> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key && !self.taken[i] {
                self.taken[i] = true;
                return Some(v.clone());
            }
        }
        None
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, ServeError> {
        match self.take(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            Some(_) => Err(ServeError::Parse(format!("\"{key}\" must be a string"))),
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<Option<bool>, ServeError> {
        match self.take(key) {
            None => Ok(None),
            Some(Json::Bool(b)) => Ok(Some(b)),
            Some(_) => Err(ServeError::Parse(format!("\"{key}\" must be a boolean"))),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, ServeError> {
        match self.take(key) {
            None => Ok(None),
            Some(Json::Num(x)) => Ok(Some(x)),
            Some(_) => Err(ServeError::Parse(format!("\"{key}\" must be a number"))),
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, ServeError> {
        match self.take_f64(key)? {
            None => Ok(None),
            Some(x) => {
                if x >= 0.0 && x.fract() == 0.0 && x < MAX_SAFE_INT {
                    Ok(Some(f64_to_u64(x)))
                } else {
                    Err(ServeError::BadRequest(format!(
                        "\"{key}\" must be a non-negative integer below 2^53"
                    )))
                }
            }
        }
    }

    fn take_usize(&mut self, key: &str) -> Result<Option<usize>, ServeError> {
        match self.take_f64(key)? {
            None => Ok(None),
            Some(x) => {
                if x >= 0.0 && x.fract() == 0.0 && x < MAX_SAFE_INT {
                    Ok(Some(f64_to_usize(x)))
                } else {
                    Err(ServeError::BadRequest(format!(
                        "\"{key}\" must be a non-negative integer below 2^53"
                    )))
                }
            }
        }
    }

    /// A required rate list: non-empty array of finite, non-negative
    /// numbers (the same constraint the CLI's `--rates` parser applies).
    fn take_rates(&mut self, key: &str) -> Result<Vec<f64>, ServeError> {
        let Some(value) = self.take(key) else {
            return Err(ServeError::Parse(format!(
                "this request kind requires a \"{key}\" array"
            )));
        };
        let Json::Arr(items) = value else {
            return Err(ServeError::Parse(format!(
                "\"{key}\" must be an array of numbers"
            )));
        };
        let mut rates = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                Json::Num(x) if x.is_finite() && *x >= 0.0 => rates.push(*x),
                _ => {
                    return Err(ServeError::BadRequest(format!(
                        "\"{key}\" entries must be finite numbers >= 0"
                    )))
                }
            }
        }
        if rates.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "\"{key}\" must not be empty"
            )));
        }
        Ok(rates)
    }

    fn finish(self) -> Result<(), ServeError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(ServeError::Parse(format!("unknown field \"{k}\"")));
            }
        }
        Ok(())
    }
}

/// Parses the CLI's `family:a,b;family:a,b` utility syntax.
fn parse_users(s: &str) -> Result<Vec<UtilityParam>, ServeError> {
    let mut out = Vec::new();
    for part in s.split(';') {
        let part = part.trim();
        let Some((family, params)) = part.split_once(':') else {
            return Err(ServeError::Parse(format!(
                "bad utility '{part}' (expected family:a,b)"
            )));
        };
        let Some((a, b)) = params.split_once(',') else {
            return Err(ServeError::Parse(format!(
                "bad parameters in '{part}' (expected a,b)"
            )));
        };
        let (Ok(a), Ok(b)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) else {
            return Err(ServeError::Parse(format!("bad numbers in '{part}'")));
        };
        out.push(UtilityParam {
            family: family.trim().to_lowercase(),
            a,
            b,
        });
    }
    if out.is_empty() {
        return Err(ServeError::Parse("at least one utility is required".into()));
    }
    Ok(out)
}

/// Parses the array form: `[{"family":"log","a":0.5,"b":1.0}, ...]`.
fn parse_users_array(items: &[Json]) -> Result<Vec<UtilityParam>, ServeError> {
    if items.is_empty() {
        return Err(ServeError::Parse("at least one utility is required".into()));
    }
    items
        .iter()
        .map(|item| {
            let Json::Obj(pairs) = item else {
                return Err(ServeError::Parse(
                    "each user must be a {family,a,b} object".into(),
                ));
            };
            let mut fields = Fields::new(pairs);
            let family = fields
                .take_str("family")?
                .ok_or_else(|| ServeError::Parse("user objects need a \"family\"".into()))?;
            let a = fields
                .take_f64("a")?
                .ok_or_else(|| ServeError::Parse("user objects need \"a\"".into()))?;
            let b = fields
                .take_f64("b")?
                .ok_or_else(|| ServeError::Parse("user objects need \"b\"".into()))?;
            fields.finish()?;
            Ok(UtilityParam { family, a, b })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Response records

fn id_json(id: Option<&str>) -> Json {
    match id {
        Some(s) => Json::Str(s.to_string()),
        None => Json::Null,
    }
}

/// `accepted` record: the request parsed; `key` is its canonical cache
/// key (null for non-cacheable kinds).
#[must_use]
pub fn accepted_record(id: Option<&str>, key: Option<u128>) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("accepted".into())),
        ("id".into(), id_json(id)),
        (
            "key".into(),
            match key {
                Some(k) => Json::Str(key_hex(k)),
                None => Json::Null,
            },
        ),
    ])
    .to_compact()
}

/// `progress` record: a named stage of the request began.
#[must_use]
pub fn progress_record(id: Option<&str>, stage: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("progress".into())),
        ("id".into(), id_json(id)),
        ("stage".into(), Json::Str(stage.into())),
    ])
    .to_compact()
}

/// `result` record: the payload under `data`, with a `cached` flag. The
/// `data` bytes are identical whether the answer was computed or served
/// from cache — only the flag differs.
#[must_use]
pub fn result_record(id: Option<&str>, cached: bool, payload: &str) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("result".into())),
        ("id".into(), id_json(id)),
        ("cached".into(), Json::Bool(cached)),
        ("data".into(), Json::Raw(payload.to_string())),
    ])
    .to_compact()
}

/// `error` record: the request failed; `error` is the failure class
/// (`parse`, `bad_request`, or `io`).
#[must_use]
pub fn error_record(id: Option<&str>, err: &ServeError) -> String {
    let class = match err {
        ServeError::Parse(_) => "parse",
        ServeError::BadRequest(_) => "bad_request",
        ServeError::Io(_) => "io",
    };
    Json::Obj(vec![
        ("type".into(), Json::Str("error".into())),
        ("id".into(), id_json(id)),
        ("error".into(), Json::Str(class.into())),
        ("message".into(), Json::Str(err.to_string())),
    ])
    .to_compact()
}

/// `stats` record: cache counters and occupancy.
#[must_use]
pub fn stats_record(id: Option<&str>, stats: &crate::cache::CacheStats) -> String {
    Json::Obj(vec![
        ("type".into(), Json::Str("stats".into())),
        ("id".into(), id_json(id)),
        ("hits".into(), Json::Num(u64_to_num(stats.hits))),
        ("misses".into(), Json::Num(u64_to_num(stats.misses))),
        ("evictions".into(), Json::Num(u64_to_num(stats.evictions))),
        ("entries".into(), Json::Num(usize_to_num(stats.entries))),
        ("capacity".into(), Json::Num(usize_to_num(stats.capacity))),
        ("hit_rate".into(), Json::Num(stats.hit_rate())),
    ])
    .to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(line: &str) -> u128 {
        Request::parse_line(line).unwrap().kind.cache_key().unwrap()
    }

    #[test]
    fn defaults_and_explicit_values_hash_identically() {
        // nash: all defaults vs all defaults spelled out.
        let a = key_of(r#"{"kind":"nash"}"#);
        let b = key_of(
            r#"{"kind":"nash","discipline":"fs","users":"log:0.5,1.0;log:1.0,1.0;linear:1.0,0.3"}"#,
        );
        assert_eq!(a, b);
        // simulate: defaults vs explicit, plus alias + warmup=horizon/10.
        let c = key_of(r#"{"kind":"simulate","rates":[0.2,0.1]}"#);
        let d = key_of(
            r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fairshare","horizon":100000,"warmup":10000,"windows":32,"seed":1,"service":"m"}"#,
        );
        assert_eq!(c, d);
    }

    #[test]
    fn id_and_key_order_do_not_enter_the_key() {
        let a = key_of(r#"{"kind":"table","rates":[0.1,0.2],"id":"client-7"}"#);
        let b = key_of(r#"{"rates":[0.1,0.2],"kind":"table"}"#);
        assert_eq!(a, b);
    }

    #[test]
    fn changed_scalars_change_the_key() {
        let base = key_of(r#"{"kind":"protect","n":4,"victim":0.1,"discipline":"fs"}"#);
        assert_ne!(
            base,
            key_of(r#"{"kind":"protect","n":5,"victim":0.1,"discipline":"fs"}"#)
        );
        assert_ne!(
            base,
            key_of(r#"{"kind":"protect","n":4,"victim":0.2,"discipline":"fs"}"#)
        );
        assert_ne!(
            base,
            key_of(r#"{"kind":"protect","n":4,"victim":0.1,"discipline":"fifo"}"#)
        );
    }

    #[test]
    fn users_string_and_array_forms_hash_identically() {
        let a = key_of(r#"{"kind":"nash","users":"log:0.5,1.0;linear:1.0,0.4"}"#);
        let b = key_of(
            r#"{"kind":"nash","users":[{"family":"log","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn largen_defaults_weights_and_threads_normalize_in_the_key() {
        let a = key_of(r#"{"kind":"largen"}"#);
        let b = key_of(
            r#"{"kind":"largen","discipline":"fs","n":10000,"classes":"log:0.6,1.0;log:0.5,1.0;log:0.4,1.0","weights":[1,1,1],"seed":1}"#,
        );
        assert_eq!(a, b);
        // Weights are normalized: [2,2,2] describes the same game as the
        // implicit equal split.
        assert_eq!(a, key_of(r#"{"kind":"largen","weights":[2,2,2]}"#));
        // The solvers are bitwise thread-invariant, so pool width must
        // not split the cache.
        assert_eq!(a, key_of(r#"{"kind":"largen","threads":8}"#));
        // Game-defining fields do move the key.
        assert_ne!(a, key_of(r#"{"kind":"largen","n":20000}"#));
        assert_ne!(a, key_of(r#"{"kind":"largen","n":0}"#));
        assert_ne!(a, key_of(r#"{"kind":"largen","discipline":"fifo"}"#));
        assert_ne!(a, key_of(r#"{"kind":"largen","seed":2}"#));
    }

    #[test]
    fn largen_cache_key_is_pinned() {
        // Byte-for-byte golden: a canonicalization change that would
        // split the cache across releases must show up as a diff here.
        let line = r#"{"kind":"largen","discipline":"sfq","n":50000,"classes":"log:0.6,1.0;log:0.4,1.0","weights":[3,1],"seed":7}"#;
        assert_eq!(key_hex(key_of(line)), "3fcc42ba5a90e038e9129d14df4e562b");
        // The canonical form resolves aliases and normalizes weights, so
        // the equivalent spelling lands on the same pinned key.
        let alias = r#"{"kind":"largen","discipline":"fq","n":50000,"classes":[{"family":"log","a":0.6,"b":1.0},{"family":"log","a":0.4,"b":1.0}],"weights":[0.75,0.25],"seed":7,"threads":4}"#;
        assert_eq!(key_hex(key_of(alias)), "3fcc42ba5a90e038e9129d14df4e562b");
    }

    #[test]
    fn schema_version_one_is_invisible_to_the_cache_key() {
        // Pinned pre-versioning cache keys: the `v` field must not move
        // them, with the version omitted or spelled out as 1. These hex
        // strings were produced by a build that predates the field.
        for (line, golden) in [
            (r#"{"kind":"nash"}"#, "00df36bb180264cdcd7c242e11e228f9"),
            (
                r#"{"kind":"simulate","rates":[0.2,0.1]}"#,
                "5adf255ce8c306ecad76b2e0c1ded28a",
            ),
            (
                r#"{"kind":"simulate","rates":[0.08,0.22,0.35],"discipline":"sfq","horizon":20000,"seed":3,"service":"D"}"#,
                "9ad0116091517f2a3d3aba26f8754775",
            ),
            (
                r#"{"kind":"table","rates":[0.05,0.1,0.2]}"#,
                "0e97fe9a43558c8fea161c21575cac15",
            ),
            (
                r#"{"kind":"protect","n":4,"victim":0.1,"discipline":"fs"}"#,
                "c6f897b006e3b841ae604a4330707715",
            ),
            (
                r#"{"kind":"exp","exp":"t1","smoke":true}"#,
                "f412015ca46963af1c5f4bb4c1ce8867",
            ),
        ] {
            assert_eq!(key_hex(key_of(line)), golden, "{line}");
            let versioned = format!("{},\"v\":1}}", &line[..line.len() - 1]);
            assert_eq!(key_hex(key_of(&versioned)), golden, "{versioned}");
        }
    }

    #[test]
    fn unsupported_schema_versions_are_rejected() {
        for line in [
            r#"{"kind":"nash","v":2}"#,
            r#"{"kind":"table","rates":[0.1],"v":0}"#,
            r#"{"kind":"batch","requests":[{"kind":"stats","v":7}]}"#,
        ] {
            let err = Request::parse_line(line);
            assert!(
                matches!(err, Err(ServeError::BadRequest(ref m)) if m.contains("schema version")),
                "{line}: {err:?}"
            );
        }
        // Sub-requests of a batch may pin the version individually.
        assert!(Request::parse_line(
            r#"{"kind":"batch","requests":[{"kind":"table","rates":[0.1],"v":1}],"v":1}"#
        )
        .is_ok());
        // The version must still be an integer.
        assert!(Request::parse_line(r#"{"kind":"nash","v":1.5}"#).is_err());
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = Request::parse_line(r#"{"kind":"table","rates":[0.1],"ratez":[0.1]}"#);
        assert!(matches!(err, Err(ServeError::Parse(m)) if m.contains("ratez")));
        let err = Request::parse_line(r#"{"kind":"zap"}"#);
        assert!(matches!(err, Err(ServeError::Parse(m)) if m.contains("zap")));
    }

    #[test]
    fn integer_fields_validate() {
        assert!(Request::parse_line(r#"{"kind":"exp","exp":"t1","seed":1.5}"#).is_err());
        assert!(Request::parse_line(r#"{"kind":"exp","exp":"t1","seed":-1}"#).is_err());
        assert!(Request::parse_line(r#"{"kind":"exp","exp":"t1","seed":7}"#).is_ok());
    }

    #[test]
    fn batch_parses_and_does_not_nest() {
        let r = Request::parse_line(
            r#"{"kind":"batch","requests":[{"kind":"table","rates":[0.1]},{"kind":"protect"}]}"#,
        )
        .unwrap();
        let RequestKind::Batch(subs) = r.kind else {
            panic!("expected batch")
        };
        assert_eq!(subs.len(), 2);
        assert!(Request::parse_line(
            r#"{"kind":"batch","requests":[{"kind":"batch","requests":[]}]}"#
        )
        .is_err());
    }

    #[test]
    fn non_cacheable_kinds_have_no_key() {
        for line in [r#"{"kind":"stats"}"#, r#"{"kind":"shutdown"}"#] {
            assert!(Request::parse_line(line)
                .unwrap()
                .kind
                .cache_key()
                .is_none());
        }
    }

    #[test]
    fn records_are_single_line_json() {
        let e = ServeError::BadRequest("nope".into());
        for rec in [
            accepted_record(Some("a"), Some(7)),
            progress_record(None, "solve"),
            result_record(Some("a"), true, r#"{"x":1.0}"#),
            error_record(None, &e),
        ] {
            assert!(!rec.contains('\n'));
            assert!(parse(&rec).is_ok(), "{rec}");
        }
        assert!(result_record(Some("a"), false, r#"{"x":1.0}"#).contains(r#""data":{"x":1.0}"#));
    }
}
