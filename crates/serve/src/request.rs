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
//! field is filled with the walk's default. The CLI's scenario commands
//! are parsed by the same walk ([`RequestKind::from_flags`]): the flag
//! `--name value` is the field `name`, so the CLI has no grammar or
//! defaults of its own.
//!
//! Each spec lists its wire fields once, in a field walk that parsing and
//! the cache key both run. A field the wire can set is therefore keyed,
//! unless its walk reads it as *unkeyed* with a stated reason (today only
//! `largen`'s `threads`), and a spec field the walk never visits cannot
//! be set from the wire at all.
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
use greednet_des::{DEFAULT_WARMUP_FRACTION, DEFAULT_WINDOWS};
use greednet_numerics::conv::{f64_to_u64, f64_to_usize};

/// Default utility profile of `nash`.
const DEFAULT_USERS: &str = "log:0.5,1.0;log:1.0,1.0;linear:1.0,0.3";

/// Default large-N class profile, identical to experiment E17's.
const DEFAULT_CLASSES: &str = "log:0.6,1.0;log:0.5,1.0;log:0.4,1.0";

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
            "exp" => RequestKind::Exp(read_spec(&mut fields)?),
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
            other => read_scenario(other, &mut fields)?.ok_or_else(|| {
                ServeError::Parse(format!(
                    "unknown request kind {other:?} (use nash/simulate/table/protect/exp/largen/batch/stats/shutdown)"
                ))
            })?,
        };
        fields.finish()?;
        Ok(Request { id, kind })
    }
}

impl RequestKind {
    /// Parses a scenario kind (`nash`, `simulate`, `table`, `protect` or
    /// `largen`) from command-line flags. Each `(name, text)` pair is the
    /// wire field `name`, so the result is the spec that the wire request
    /// with those fields parses to. A number field reads its text as a
    /// number, and `rates` and `weights` as a `,`-separated number list.
    ///
    /// # Errors
    /// The error the wire request gets, naming its field `--name` instead
    /// of `"name"`; [`ServeError::Parse`] for any other kind.
    pub fn from_flags(kind: &str, flags: &[(String, String)]) -> Result<RequestKind, ServeError> {
        let mut fields = Fields::from_flags(flags);
        let spec = read_scenario(kind, &mut fields)?
            .ok_or_else(|| ServeError::Parse(format!("{kind:?} is not a scenario kind")))?;
        fields.finish()?;
        Ok(spec)
    }

    /// The canonical form of a cacheable request: the kind tag plus every
    /// keyed field of the spec's walk, defaults filled, aliases resolved,
    /// client id excluded. Non-cacheable kinds (`batch`, `stats`,
    /// `shutdown`) return `None` — a batch's *sub-requests* are each
    /// cached individually.
    #[must_use]
    pub fn canonical_json(&self) -> Option<Json> {
        Some(match self {
            RequestKind::Nash(s) => key_spec("nash", s),
            RequestKind::Simulate(s) => key_spec("simulate", s),
            RequestKind::Table(s) => key_spec("table", s),
            RequestKind::Protect(s) => key_spec("protect", s),
            RequestKind::Exp(s) => key_spec("exp", s),
            RequestKind::Largen(s) => key_spec("largen", s),
            RequestKind::Batch(_) | RequestKind::Stats | RequestKind::Shutdown => return None,
        })
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

// ---------------------------------------------------------------------
// The field walk

/// A request spec whose wire fields are listed once, in [`Spec::walk`].
///
/// Parsing ([`read_spec`]) and the cache key ([`key_spec`]) both run the
/// walk, so they cannot disagree about which fields exist. A field the
/// walk reads is keyed unless it is read through [`Walk::unkeyed`], and a
/// struct field the walk never visits cannot be set from the wire at all:
/// [`Fields::finish`] rejects it as unknown. `Default` is only the blank
/// the walk fills; the wire defaults are the walk's own.
trait Spec: Default + Clone {
    /// Visits every wire field in parse order. The order fixes which error
    /// a line with two bad fields gets, and the order of the canonical form.
    fn walk(&mut self, w: &mut Walk<'_>);
}

/// One pass over a spec's fields, in one of two modes.
enum Walk<'a> {
    /// Fill the spec from the request object. The first failure is kept
    /// and the fields after it are skipped, so it is the one reported.
    Read(&'a mut Fields, &'a mut Option<ServeError>),
    /// Append each keyed field's canonical value, in walk order.
    Key(&'a mut Vec<(String, Json)>),
}

/// Reads the spec of a scenario kind; `None` when `kind` names none.
fn read_scenario(kind: &str, fields: &mut Fields) -> Result<Option<RequestKind>, ServeError> {
    Ok(Some(match kind {
        "nash" => RequestKind::Nash(read_spec(fields)?),
        "simulate" => RequestKind::Simulate(read_spec(fields)?),
        "table" => RequestKind::Table(read_spec(fields)?),
        "protect" => RequestKind::Protect(read_spec(fields)?),
        "largen" => RequestKind::Largen(read_spec(fields)?),
        _ => return Ok(None),
    }))
}

/// Parses a spec by walking its fields over the request object.
fn read_spec<S: Spec>(fields: &mut Fields) -> Result<S, ServeError> {
    let mut spec = S::default();
    let mut err = None;
    spec.walk(&mut Walk::Read(fields, &mut err));
    match err {
        Some(e) => Err(e),
        None => Ok(spec),
    }
}

/// The canonical form of a spec: its kind tag plus its keyed fields.
fn key_spec<S: Spec>(kind: &str, spec: &S) -> Json {
    let mut pairs = vec![("kind".to_string(), Json::Str(kind.into()))];
    spec.clone().walk(&mut Walk::Key(&mut pairs));
    Json::Obj(pairs)
}

/// Reads an optional field, filling in `default` when it is absent.
fn or<T>(
    take: fn(&mut Fields, &str) -> Result<Option<T>, ServeError>,
    default: T,
) -> impl FnOnce(&mut Fields, &str) -> Result<T, ServeError> {
    move |fields, name| Ok(take(fields, name)?.unwrap_or(default))
}

impl Walk<'_> {
    /// A keyed field: read into `v` by `read`, or keyed as `key(v)`.
    fn field<T>(
        &mut self,
        name: &str,
        v: &mut T,
        read: impl FnOnce(&mut Fields, &str) -> Result<T, ServeError>,
        key: impl FnOnce(&T) -> Json,
    ) {
        match self {
            Walk::Read(..) => self.read(name, v, read),
            Walk::Key(pairs) => pairs.push((name.to_string(), key(v))),
        }
    }

    /// A field that is read but never keyed: the only way to leave a
    /// parsed field out of the cache key. `_why` says at the call site
    /// why varying the field cannot change the result.
    fn unkeyed<T>(
        &mut self,
        name: &str,
        v: &mut T,
        read: impl FnOnce(&mut Fields, &str) -> Result<T, ServeError>,
        _why: &str,
    ) {
        self.read(name, v, read);
    }

    fn read<T>(
        &mut self,
        name: &str,
        v: &mut T,
        read: impl FnOnce(&mut Fields, &str) -> Result<T, ServeError>,
    ) {
        if let Walk::Read(fields, err) = self {
            if err.is_none() {
                match read(fields, name) {
                    Ok(x) => *v = x,
                    Err(e) => **err = Some(e),
                }
            }
        }
    }

    fn str(&mut self, name: &str, v: &mut String, default: &str, key: impl FnOnce(&str) -> Json) {
        let read = or(Fields::take_str, default.to_string());
        self.field(name, v, read, |s| key(s));
    }

    /// Every spec's `discipline`: `fs` by default, keyed after `canon`
    /// resolves its aliases.
    fn discipline(&mut self, v: &mut String, canon: fn(&str) -> &str) {
        self.str("discipline", v, "fs", |s| Json::Str(canon(s).into()));
    }

    fn f64(&mut self, name: &str, v: &mut f64, default: f64) {
        self.field(name, v, or(Fields::take_f64, default), |x| Json::Num(*x));
    }

    fn u64(&mut self, name: &str, v: &mut u64, default: u64) {
        let key = |x: &u64| Json::Num(u64_to_num(*x));
        self.field(name, v, or(Fields::take_u64, default), key);
    }

    fn usize(&mut self, name: &str, v: &mut usize, default: usize) {
        let key = |x: &usize| Json::Num(usize_to_num(*x));
        self.field(name, v, or(Fields::take_usize, default), key);
    }

    fn rates(&mut self, name: &str, v: &mut Vec<f64>) {
        self.field(name, v, Fields::take_rates, |r| nums_json(r));
    }

    fn users(&mut self, name: &str, v: &mut Vec<UtilityParam>, default: &str) {
        let read = |fields: &mut Fields, name: &str| fields.take_users(name, default);
        self.field(name, v, read, |u| users_json(u));
    }
}

impl Spec for NashSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        w.discipline(&mut self.discipline, canonical_alloc_name);
        w.users("users", &mut self.users, DEFAULT_USERS);
    }
}

impl Spec for SimulateSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        w.rates("rates", &mut self.rates);
        w.discipline(&mut self.discipline, canonical_kind_name);
        w.f64("horizon", &mut self.horizon, 100_000.0);
        // The engine's default warm-up is the same fraction of the
        // horizon, so an omitted warm-up and the explicit default are the
        // same simulation and share a key.
        let horizon = self.horizon;
        let warmup = |w: &Option<f64>| Json::Num(w.unwrap_or(horizon * DEFAULT_WARMUP_FRACTION));
        w.field("warmup", &mut self.warmup, Fields::take_f64, warmup);
        let windows = |k: &Option<usize>| Json::Num(usize_to_num(k.unwrap_or(DEFAULT_WINDOWS)));
        w.field("windows", &mut self.windows, Fields::take_usize, windows);
        w.u64("seed", &mut self.seed, 1);
        w.str("service", &mut self.service, "M", canonical_service_json);
    }
}

impl Spec for TableSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        w.rates("rates", &mut self.rates);
    }
}

impl Spec for ProtectSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        w.usize("n", &mut self.n, 4);
        w.f64("victim", &mut self.victim, 0.1);
        w.discipline(&mut self.discipline, canonical_alloc_name);
    }
}

impl Spec for ExpSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        let exp = |fields: &mut Fields, name: &str| {
            fields.take_str(name)?.ok_or_else(|| {
                ServeError::Parse("exp requests need an \"exp\" id (e.g. \"t1\")".into())
            })
        };
        w.field("exp", &mut self.exp, exp, |s| Json::Str(s.clone()));
        w.u64("seed", &mut self.seed, 0);
        // Key the width that runs, so `0` shares the entry of `1`.
        let workers = Json::Num(usize_to_num(self.workers()));
        let threads = or(Fields::take_usize, 1);
        w.field("threads", &mut self.threads, threads, |_| workers);
        let smoke = or(Fields::take_bool, false);
        w.field("smoke", &mut self.smoke, smoke, |b| Json::Bool(*b));
    }
}

impl Spec for LargenSpec {
    fn walk(&mut self, w: &mut Walk<'_>) {
        w.discipline(&mut self.discipline, canonical_largen_name);
        w.u64("n", &mut self.n, 10_000);
        w.users("classes", &mut self.classes, DEFAULT_CLASSES);
        let classes = self.classes.len();
        let weights = |ws: &Vec<f64>| weights_json(ws, classes);
        w.field("weights", &mut self.weights, Fields::take_weights, weights);
        w.u64("seed", &mut self.seed, 1);
        w.unkeyed(
            "threads",
            &mut self.threads,
            or(Fields::take_usize, 1),
            "large-N solvers are bitwise identical at any thread count (pinned by the largen determinism tests), so pool width must not split the cache",
        );
    }
}

fn nums_json(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn users_json(users: &[UtilityParam]) -> Json {
    Json::Arr(
        users
            .iter()
            .map(|u| {
                Json::Obj(vec![
                    ("family".into(), Json::Str(u.family.clone())),
                    ("a".into(), Json::Num(u.a)),
                    ("b".into(), Json::Num(u.b)),
                ])
            })
            .collect(),
    )
}

/// `largen` weights as an explicit normalized vector: `[1,1]`, `[2,2]`
/// and omitted all describe the same game over two classes. A shape that
/// cannot be normalized (wrong length, or a sum that is not finite and
/// positive) is keyed raw; it fails at execution, uncached.
fn weights_json(weights: &[f64], classes: usize) -> Json {
    let raw = if weights.is_empty() {
        vec![1.0; classes]
    } else {
        weights.to_vec()
    };
    let sum: f64 = raw.iter().sum();
    let scale = raw.len() == classes && sum > 0.0 && sum.is_finite();
    Json::Arr(
        raw.iter()
            .map(|&w| Json::Num(if scale { w / sum } else { w }))
            .collect(),
    )
}

/// Tracks which fields of a request object have been consumed so
/// leftovers (typos, unknown options) are rejected instead of silently
/// defaulting.
struct Fields {
    pairs: Vec<(String, Json)>,
    taken: Vec<bool>,
    /// The values are command-line flag text, each a [`Json::Str`] until
    /// a number reader converts it.
    flags: bool,
}

impl Fields {
    fn new(pairs: &[(String, Json)]) -> Fields {
        Fields {
            pairs: pairs.to_vec(),
            taken: vec![false; pairs.len()],
            flags: false,
        }
    }

    fn from_flags(flags: &[(String, String)]) -> Fields {
        let text = |(k, v): &(String, String)| (k.clone(), Json::Str(v.clone()));
        let mut fields = Fields::new(&flags.iter().map(text).collect::<Vec<_>>());
        fields.flags = true;
        fields
    }

    /// How a message names field `key`: `"key"` on the wire, `--key` on
    /// the command line.
    fn name(&self, key: &str) -> String {
        if self.flags {
            format!("--{key}")
        } else {
            format!("\"{key}\"")
        }
    }

    /// The error for field `key` holding something other than `what`.
    fn expected(&self, key: &str, what: &str) -> ServeError {
        ServeError::Parse(format!("{} must be {what}", self.name(key)))
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

    /// Takes a number field, or with `list` a number-array field. Flag
    /// text becomes what the wire would send: a number, or the numbers
    /// between its commas. Text that is not a finite number stays a
    /// string, so the reader rejects it as it rejects a string on the wire.
    fn take_num(&mut self, key: &str, list: bool) -> Option<Json> {
        let v = self.take(key)?;
        Some(match v {
            Json::Str(s) if self.flags && list => Json::Arr(s.split(',').map(number).collect()),
            Json::Str(s) if self.flags => number(&s),
            v => v,
        })
    }

    fn take_str(&mut self, key: &str) -> Result<Option<String>, ServeError> {
        match self.take(key) {
            None => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s)),
            Some(_) => Err(self.expected(key, "a string")),
        }
    }

    fn take_bool(&mut self, key: &str) -> Result<Option<bool>, ServeError> {
        match self.take(key) {
            None => Ok(None),
            Some(Json::Bool(b)) => Ok(Some(b)),
            Some(_) => Err(self.expected(key, "a boolean")),
        }
    }

    fn take_f64(&mut self, key: &str) -> Result<Option<f64>, ServeError> {
        match self.take_num(key, false) {
            None => Ok(None),
            Some(Json::Num(x)) => Ok(Some(x)),
            Some(_) => Err(self.expected(key, "a number")),
        }
    }

    /// A non-negative integer below 2^53, still as the f64 the wire sent.
    fn take_int(&mut self, key: &str) -> Result<Option<f64>, ServeError> {
        match self.take_f64(key)? {
            Some(x) if !(x >= 0.0 && x.fract() == 0.0 && x < MAX_SAFE_INT) => {
                Err(ServeError::BadRequest(format!(
                    "{} must be a non-negative integer below 2^53",
                    self.name(key)
                )))
            }
            x => Ok(x),
        }
    }

    fn take_u64(&mut self, key: &str) -> Result<Option<u64>, ServeError> {
        Ok(self.take_int(key)?.map(f64_to_u64))
    }

    fn take_usize(&mut self, key: &str) -> Result<Option<usize>, ServeError> {
        Ok(self.take_int(key)?.map(f64_to_usize))
    }

    /// A required rate list: a non-empty array of finite, non-negative
    /// numbers.
    fn take_rates(&mut self, key: &str) -> Result<Vec<f64>, ServeError> {
        let name = self.name(key);
        let Some(value) = self.take_num(key, true) else {
            return Err(ServeError::Parse(format!(
                "this request kind requires a {name} array"
            )));
        };
        let Json::Arr(items) = value else {
            return Err(self.expected(key, "an array of numbers"));
        };
        let rates = numbers(
            &items,
            |x| x >= 0.0,
            || format!("{name} entries must be finite numbers >= 0"),
        )?;
        if rates.is_empty() {
            return Err(ServeError::BadRequest(format!("{name} must not be empty")));
        }
        Ok(rates)
    }

    /// Optional class weights: finite numbers > 0, empty when absent.
    fn take_weights(&mut self, key: &str) -> Result<Vec<f64>, ServeError> {
        let name = self.name(key);
        match self.take_num(key, true) {
            None => Ok(Vec::new()),
            Some(Json::Arr(items)) => numbers(
                &items,
                |x| x > 0.0,
                || format!("{name} entries must be finite numbers > 0"),
            ),
            Some(_) => Err(self.expected(key, "an array of numbers")),
        }
    }

    /// A utility list in the `family:a,b;...` string form or as an array
    /// of `{family,a,b}` objects, parsed from `default` (string form) when
    /// absent. Both forms trim and lower-case each family here, so they
    /// key alike.
    fn take_users(&mut self, key: &str, default: &str) -> Result<Vec<UtilityParam>, ServeError> {
        let mut users = match self.take(key) {
            None => parse_users(default)?,
            Some(Json::Str(s)) => parse_users(&s)?,
            Some(Json::Arr(items)) => parse_users_array(&items)?,
            Some(_) => {
                return Err(self.expected(
                    key,
                    "a \"family:a,b;...\" string or an array of {family,a,b} objects",
                ))
            }
        };
        for u in &mut users {
            u.family = u.family.trim().to_lowercase();
        }
        Ok(users)
    }

    fn finish(self) -> Result<(), ServeError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(ServeError::Parse(format!("unknown field {}", self.name(k))));
            }
        }
        Ok(())
    }
}

/// Flag text as the number it reads as, if that is finite; otherwise as
/// the string it is.
fn number(text: &str) -> Json {
    match text.trim().parse::<f64>() {
        Ok(x) if x.is_finite() => Json::Num(x),
        _ => Json::Str(text.to_string()),
    }
}

/// The entries of a number array, each finite and passing `ok`; any
/// other entry is a [`ServeError::BadRequest`] with message `bad()`.
fn numbers(
    items: &[Json],
    ok: impl Fn(f64) -> bool,
    bad: impl Fn() -> String,
) -> Result<Vec<f64>, ServeError> {
    items
        .iter()
        .map(|item| match item {
            Json::Num(x) if x.is_finite() && ok(*x) => Ok(*x),
            _ => Err(ServeError::BadRequest(bad())),
        })
        .collect()
}

/// Parses the `family:a,b;family:a,b` utility string.
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
            family: family.to_string(),
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
