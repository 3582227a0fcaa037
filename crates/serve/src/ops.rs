//! The scenario data path: typed specs that *compute* results as data,
//! separate from any rendering.
//!
//! The CLI commands (`greednet nash` / `simulate` / `table` / `protect`
//! / `largen`) and the service requests are two front-ends over these
//! same specs, which one field walk (`crate::request`) parses from
//! either flags or JSON: the CLI renders an outcome with `render_text`
//! (its bytes pinned by golden tests), the service renders the same
//! outcome with `to_json`. Keeping one grammar and one compute path is
//! what makes the cache sound: a cached service payload answers exactly
//! the computation the CLI would have done.

use crate::error::ServeError;
use crate::json::Json;
use greednet_core::game::{Game, NashOptions};
use greednet_core::protection::{adversarial_congestion, protection_bound};
use greednet_core::utility::{
    BoxedUtility, LinearUtility, LogUtility, PowerUtility, QuadraticCongestionUtility, UtilityExt,
};
use greednet_des::scenarios::DisciplineKind;
use greednet_des::{Engine, EngineConfig, ServiceDist, SimTime};
use greednet_largen::{
    solve_finite, solve_mean_field, weight_fractions, ClassSpec, LargenDiscipline, SolveOptions,
};
use greednet_queueing::alloc::AllocationFunction;
use greednet_queueing::fair_share::priority_table;
use greednet_queueing::{FairShare, Proportional, SerialPriority};
use greednet_telemetry::Probe;
use std::fmt::Write as _;

/// The adversary levels the protection sweep probes, in printed order.
pub const PROTECT_LEVELS: [f64; 8] = [0.05, 0.1, 0.2, 0.4, 0.8, 0.95, 2.0, 10.0];

/// One user's utility specification (family + two parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityParam {
    /// Family name: `linear`, `log`, `power`, or `quad`.
    pub family: String,
    /// First parameter (`a` / `w`).
    pub a: f64,
    /// Second parameter (`gamma`).
    pub b: f64,
}

/// Builds an allocation function from a CLI/service discipline name.
///
/// # Errors
/// [`ServeError::BadRequest`] naming the unknown discipline.
pub fn build_alloc(name: &str) -> Result<Box<dyn AllocationFunction>, ServeError> {
    match canonical_alloc_name(name) {
        "fifo" => Ok(Box::new(Proportional::new())),
        "fs" => Ok(Box::new(FairShare::new())),
        "sp" => Ok(Box::new(SerialPriority::new())),
        other => Err(ServeError::BadRequest(format!(
            "unknown discipline '{other}' (use fifo/fs/sp)"
        ))),
    }
}

/// Builds a simulator discipline kind from a CLI/service name.
///
/// # Errors
/// [`ServeError::BadRequest`] naming the unknown discipline.
pub fn build_kind(name: &str) -> Result<DisciplineKind, ServeError> {
    Ok(match canonical_kind_name(name) {
        "fifo" => DisciplineKind::Fifo,
        "lifo" => DisciplineKind::LifoPreemptive,
        "ps" => DisciplineKind::ProcessorSharing,
        "sp" => DisciplineKind::SerialPriority,
        "fs" => DisciplineKind::FsTable,
        "sfq" => DisciplineKind::Sfq,
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown discipline '{other}' (use fifo/lifo/ps/sp/fs/sfq)"
            )))
        }
    })
}

/// Resolves allocation-discipline aliases to the canonical short name
/// used by the cache key (`fairshare` and `fs` must hash alike).
/// Unknown names pass through unchanged — they fail later, uncached.
#[must_use]
pub fn canonical_alloc_name(name: &str) -> &str {
    match name {
        "fairshare" | "fair-share" => "fs",
        "serial" => "sp",
        other => other,
    }
}

/// Resolves simulator-discipline aliases to the canonical short name:
/// the allocation aliases, plus `fq` for `sfq`.
#[must_use]
pub fn canonical_kind_name(name: &str) -> &str {
    match name {
        "fq" => "sfq",
        other => canonical_alloc_name(other),
    }
}

/// Builds boxed utilities from parameter specs.
///
/// # Errors
/// [`ServeError::BadRequest`] describing the invalid spec.
pub fn build_users(specs: &[UtilityParam]) -> Result<Vec<BoxedUtility>, ServeError> {
    specs
        .iter()
        .map(|s| -> Result<BoxedUtility, ServeError> {
            let bad =
                |msg: &str| ServeError::BadRequest(format!("{}:{},{}: {msg}", s.family, s.a, s.b));
            match s.family.as_str() {
                "linear" => {
                    if s.a <= 0.0 || s.b <= 0.0 {
                        return Err(bad("needs a, gamma > 0"));
                    }
                    Ok(LinearUtility::new(s.a, s.b).boxed())
                }
                "log" => {
                    if s.a <= 0.0 || s.b <= 0.0 {
                        return Err(bad("needs w, gamma > 0"));
                    }
                    Ok(LogUtility::new(s.a, s.b).boxed())
                }
                "power" => {
                    if !(0.0 < s.a && s.a < 1.0) || s.b <= 0.0 {
                        return Err(bad("needs 0 < a < 1, gamma > 0"));
                    }
                    Ok(PowerUtility::new(s.a, s.b).boxed())
                }
                "quad" => {
                    if s.a <= 0.0 || s.b <= 0.0 {
                        return Err(bad("needs a, gamma > 0"));
                    }
                    Ok(QuadraticCongestionUtility::new(s.a, s.b).boxed())
                }
                other => Err(ServeError::BadRequest(format!("unknown family '{other}'"))),
            }
        })
        .collect()
}

/// Parses a service-time spec (`M`, `D`, `E<k>`, `H2:<cs2>`).
///
/// # Errors
/// [`ServeError::BadRequest`] describing the invalid spec.
pub fn build_service(spec: &str) -> Result<ServiceDist, ServeError> {
    match spec {
        "M" | "m" => Ok(ServiceDist::Exponential),
        "D" | "d" => Ok(ServiceDist::Deterministic),
        s if s.starts_with('E') || s.starts_with('e') => s[1..]
            .parse::<u32>()
            .ok()
            .filter(|&k| k >= 1)
            .map(ServiceDist::Erlang)
            .ok_or_else(|| ServeError::BadRequest(format!("bad Erlang spec '{s}' (use e.g. E4)"))),
        s if s.to_uppercase().starts_with("H2:") => s[3..]
            .parse::<f64>()
            .ok()
            .filter(|&c| c > 1.0)
            .map(|cs2| ServiceDist::Hyperexponential { cs2 })
            .ok_or_else(|| ServeError::BadRequest(format!("bad H2 spec '{s}' (use e.g. H2:4.0)"))),
        other => Err(ServeError::BadRequest(format!(
            "unknown service '{other}' (use M, D, E<k> or H2:<cs2>)"
        ))),
    }
}

/// Canonical encoding of a service spec for the cache key: `M`/`m` must
/// hash alike, and `H2:4` must match `H2:4.0`.
#[must_use]
pub fn canonical_service_json(spec: &str) -> Json {
    match build_service(spec) {
        Ok(ServiceDist::Exponential) => Json::Str("M".into()),
        Ok(ServiceDist::Deterministic) => Json::Str("D".into()),
        Ok(ServiceDist::Erlang(k)) => Json::Obj(vec![("E".into(), Json::Num(f64::from(k)))]),
        Ok(ServiceDist::Hyperexponential { cs2 }) => Json::Obj(vec![("H2".into(), Json::Num(cs2))]),
        // Unknown specs fail at execution; keep them distinct as-is.
        _ => Json::Str(spec.to_string()),
    }
}

// ---------------------------------------------------------------------
// nash

/// Specification of a Nash-equilibrium solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NashSpec {
    /// Allocation discipline name (`fifo`/`fs`/`sp`, aliases accepted).
    pub discipline: String,
    /// The utility profile.
    pub users: Vec<UtilityParam>,
}

/// Computed Nash equilibrium, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct NashOutcome {
    /// Human-readable discipline name (e.g. `fair share`).
    pub discipline: String,
    /// Whether the sweep converged.
    pub converged: bool,
    /// Sweeps performed.
    pub iterations: usize,
    /// Final residual.
    pub residual: f64,
    /// Equilibrium rates.
    pub rates: Vec<f64>,
    /// Congestion per user.
    pub congestions: Vec<f64>,
    /// Utility per user.
    pub utilities: Vec<f64>,
    /// Largest pairwise envy (`<= 0` means envy-free).
    pub max_envy: f64,
}

impl NashSpec {
    fn game(&self) -> Result<Game, ServeError> {
        let alloc = build_alloc(&self.discipline)?;
        let users = build_users(&self.users)?;
        Game::from_boxed(alloc, users).map_err(|e| ServeError::BadRequest(e.to_string()))
    }

    /// Solves the equilibrium.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid specs or solver failure.
    pub fn solve(&self) -> Result<NashOutcome, ServeError> {
        let game = self.game()?;
        let sol = game
            .solve_nash(&NashOptions::default())
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.outcome(&game, sol)
    }

    /// Solves the equilibrium with a solver probe observing the sweep
    /// (the probe never changes the numbers).
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid specs or solver failure.
    pub fn solve_probed<P: Probe>(&self, probe: &mut P) -> Result<NashOutcome, ServeError> {
        let game = self.game()?;
        let sol = game
            .solve_nash_probed(&vec![None; game.n()], &NashOptions::default(), probe)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        self.outcome(&game, sol)
    }

    fn outcome(
        &self,
        game: &Game,
        sol: greednet_core::game::NashSolution,
    ) -> Result<NashOutcome, ServeError> {
        let max_envy = game
            .max_envy(&sol.rates)
            .map_err(|e| ServeError::BadRequest(e.to_string()))?;
        Ok(NashOutcome {
            discipline: game.allocation().name().to_string(),
            converged: sol.converged,
            iterations: sol.iterations,
            residual: sol.residual,
            rates: sol.rates,
            congestions: sol.congestions,
            utilities: sol.utilities,
            max_envy,
        })
    }
}

impl NashOutcome {
    /// Renders the outcome exactly as `greednet nash` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Nash equilibrium under {}:", self.discipline);
        let _ = writeln!(
            out,
            "  converged: {} in {} sweeps (residual {:.1e})",
            self.converged, self.iterations, self.residual
        );
        let _ = writeln!(
            out,
            "  {:<6}{:>12}{:>12}{:>12}",
            "user", "rate", "congestion", "utility"
        );
        for i in 0..self.rates.len() {
            let _ = writeln!(
                out,
                "  {i:<6}{:>12.5}{:>12.5}{:>12.5}",
                self.rates[i], self.congestions[i], self.utilities[i]
            );
        }
        let _ = writeln!(
            out,
            "  max envy: {:+.6} (<= 0 means envy-free)",
            self.max_envy
        );
        out
    }

    /// Structured payload for the service's `result` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let users: Vec<Json> = (0..self.rates.len())
            .map(|i| {
                Json::Obj(vec![
                    ("rate".into(), Json::Num(self.rates[i])),
                    ("congestion".into(), Json::Num(self.congestions[i])),
                    ("utility".into(), Json::Num(self.utilities[i])),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("discipline".into(), Json::Str(self.discipline.clone())),
            ("converged".into(), Json::Bool(self.converged)),
            ("sweeps".into(), Json::Num(self.iterations as f64)),
            ("residual".into(), Json::Num(self.residual)),
            ("users".into(), Json::Arr(users)),
            ("max_envy".into(), Json::Num(self.max_envy)),
        ])
    }
}

// ---------------------------------------------------------------------
// simulate

/// Specification of a packet-level simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulateSpec {
    /// Poisson arrival rates.
    pub rates: Vec<f64>,
    /// Discipline name (`fifo`/`lifo`/`ps`/`sp`/`fs`/`sfq`, aliases ok).
    pub discipline: String,
    /// Simulated horizon.
    pub horizon: f64,
    /// Warm-up interval (`None` keeps the engine default,
    /// `horizon * DEFAULT_WARMUP_FRACTION`).
    pub warmup: Option<f64>,
    /// Batch-means window count (`None` keeps the engine default,
    /// `DEFAULT_WINDOWS`).
    pub windows: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Service-time spec (`M`/`D`/`E<k>`/`H2:<cs2>`).
    pub service: String,
}

/// Per-user row of a simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SimUserRow {
    /// Offered rate.
    pub rate: f64,
    /// Time-averaged queue.
    pub mean_queue: f64,
    /// 95% CI half-width on the queue.
    pub ci_half_width: f64,
    /// Mean sojourn time.
    pub mean_delay: f64,
    /// Completed-packet throughput.
    pub throughput: f64,
}

/// Computed simulation results, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOutcome {
    /// Discipline label (e.g. `FairShare`).
    pub label: String,
    /// The service spec as given (rendered verbatim, like the CLI).
    pub service: String,
    /// Simulated horizon.
    pub horizon: f64,
    /// Events processed.
    pub events: u64,
    /// Per-user rows.
    pub rows: Vec<SimUserRow>,
    /// Total time-averaged queue.
    pub total_mean_queue: f64,
}

impl SimulateSpec {
    /// Runs the simulation.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid specs or simulator failure.
    pub fn outcome(&self) -> Result<SimulateOutcome, ServeError> {
        self.run(None::<&mut greednet_telemetry::NoopProbe>)
    }

    /// Runs the simulation with a packet probe observing events (the
    /// probe never changes the numbers).
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid specs or simulator failure.
    pub fn outcome_probed<P: Probe>(&self, probe: &mut P) -> Result<SimulateOutcome, ServeError> {
        self.run(Some(probe))
    }

    fn run<P: Probe>(&self, probe: Option<&mut P>) -> Result<SimulateOutcome, ServeError> {
        let bad = |e: greednet_des::DesError| ServeError::BadRequest(e.to_string());
        let kind = build_kind(&self.discipline)?;
        let service = build_service(&self.service)?;
        let mut cfg = EngineConfig::open_loop(&self.rates, self.horizon, self.seed);
        cfg.service = service;
        cfg.allow_overload = true;
        if let Some(w) = self.warmup {
            cfg.warmup = SimTime::raw(w);
        }
        if let Some(k) = self.windows {
            cfg.windows = k;
        }
        let engine = Engine::new(cfg).map_err(bad)?;
        let mut d = kind.build(&self.rates, self.seed ^ 0xC11).map_err(bad)?;
        let r = match probe {
            Some(p) => engine.run_probed(d.as_mut(), p),
            None => engine.run(d.as_mut()),
        }
        .map_err(bad)?
        .result;
        let rows = self
            .rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| SimUserRow {
                rate,
                mean_queue: r.mean_queue[i],
                ci_half_width: r.queue_ci[i].half_width,
                mean_delay: r.mean_delay[i],
                throughput: r.throughput[i],
            })
            .collect();
        Ok(SimulateOutcome {
            label: kind.label().to_string(),
            service: self.service.clone(),
            horizon: self.horizon,
            events: r.events,
            rows,
            total_mean_queue: r.total_mean_queue,
        })
    }
}

impl SimulateOutcome {
    /// Renders the outcome exactly as `greednet simulate` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Simulated {} under {} service for {} time units ({} events):",
            self.label, self.service, self.horizon, self.events
        );
        let _ = writeln!(
            out,
            "  {:<6}{:>10}{:>12}{:>12}{:>12}{:>14}",
            "user", "rate", "queue", "ci(95%)", "delay", "throughput"
        );
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {i:<6}{:>10.4}{:>12.4}{:>12.4}{:>12.4}{:>14.4}",
                row.rate, row.mean_queue, row.ci_half_width, row.mean_delay, row.throughput
            );
        }
        let _ = writeln!(out, "  total mean queue: {:.4}", self.total_mean_queue);
        out
    }

    /// Structured payload for the service's `result` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let users: Vec<Json> = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("rate".into(), Json::Num(row.rate)),
                    ("mean_queue".into(), Json::Num(row.mean_queue)),
                    ("ci95".into(), Json::Num(row.ci_half_width)),
                    ("mean_delay".into(), Json::Num(row.mean_delay)),
                    ("throughput".into(), Json::Num(row.throughput)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("discipline".into(), Json::Str(self.label.clone())),
            ("service".into(), Json::Str(self.service.clone())),
            ("horizon".into(), Json::Num(self.horizon)),
            ("events".into(), Json::Num(self.events as f64)),
            ("users".into(), Json::Arr(users)),
            ("total_mean_queue".into(), Json::Num(self.total_mean_queue)),
        ])
    }
}

// ---------------------------------------------------------------------
// table

/// Specification of a Table 1 priority decomposition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableSpec {
    /// Rates to decompose.
    pub rates: Vec<f64>,
}

/// Computed priority table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableOutcome {
    /// The input rates.
    pub rates: Vec<f64>,
    /// Per-user rows of per-level allocations.
    pub rows: Vec<Vec<f64>>,
}

impl TableSpec {
    /// Computes the decomposition.
    #[must_use]
    pub fn outcome(&self) -> TableOutcome {
        TableOutcome {
            rates: self.rates.clone(),
            rows: priority_table(&self.rates),
        }
    }
}

impl TableOutcome {
    /// Renders the outcome exactly as `greednet table` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        let n = self.rates.len();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Fair Share priority table (paper Table 1) for rates {:?}:",
            self.rates
        );
        let _ = write!(out, "  {:<6}", "user");
        for k in 0..n {
            let _ = write!(out, "{:>9}", format!("L{k}"));
        }
        let _ = writeln!(out, "{:>10}", "total");
        for (u, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "  {u:<6}");
            for &v in row {
                if v > 0.0 {
                    let _ = write!(out, "{v:>9.4}");
                } else {
                    let _ = write!(out, "{:>9}", "-");
                }
            }
            let _ = writeln!(out, "{:>10.4}", row.iter().sum::<f64>());
        }
        out
    }

    /// Structured payload for the service's `result` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .rows
            .iter()
            .map(|row| Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
            .collect();
        let totals: Vec<Json> = self
            .rows
            .iter()
            .map(|row| Json::Num(row.iter().sum::<f64>()))
            .collect();
        Json::Obj(vec![
            (
                "rates".into(),
                Json::Arr(self.rates.iter().map(|&r| Json::Num(r)).collect()),
            ),
            ("levels".into(), Json::Arr(rows)),
            ("totals".into(), Json::Arr(totals)),
        ])
    }
}

// ---------------------------------------------------------------------
// protect

/// Specification of a protection sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtectSpec {
    /// Total number of users.
    pub n: usize,
    /// Victim rate.
    pub victim: f64,
    /// Allocation discipline name.
    pub discipline: String,
}

/// Computed protection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectOutcome {
    /// Human-readable discipline name.
    pub discipline: String,
    /// Total users.
    pub n: usize,
    /// Victim rate.
    pub victim: f64,
    /// The Theorem 8 bound `r/(1-Nr)`.
    pub bound: f64,
    /// `(adversary level, victim queue)` pairs, in [`PROTECT_LEVELS`]
    /// order.
    pub levels: Vec<(f64, f64)>,
    /// Worst observed victim queue over all levels at once.
    pub worst: f64,
    /// Whether the worst case respects the bound.
    pub protected: bool,
}

impl ProtectSpec {
    /// Runs the sweep.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid parameters.
    pub fn outcome(&self) -> Result<ProtectOutcome, ServeError> {
        if self.n < 1 {
            return Err(ServeError::BadRequest("--n must be >= 1".into()));
        }
        if !(self.victim > 0.0 && self.victim < 1.0) {
            return Err(ServeError::BadRequest("--victim must lie in (0, 1)".into()));
        }
        let alloc = build_alloc(&self.discipline)?;
        let bound = protection_bound(self.n, self.victim);
        let levels: Vec<(f64, f64)> = PROTECT_LEVELS
            .iter()
            .map(|&level| {
                (
                    level,
                    adversarial_congestion(alloc.as_ref(), self.n, self.victim, &[level]),
                )
            })
            .collect();
        let worst = adversarial_congestion(alloc.as_ref(), self.n, self.victim, &PROTECT_LEVELS);
        Ok(ProtectOutcome {
            discipline: alloc.name().to_string(),
            n: self.n,
            victim: self.victim,
            bound,
            levels,
            worst,
            protected: worst <= bound * (1.0 + 1e-9),
        })
    }
}

impl ProtectOutcome {
    /// Renders the outcome exactly as `greednet protect` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Protection of a victim at rate {} among {} users under {}:",
            self.victim, self.n, self.discipline
        );
        let _ = writeln!(out, "  Theorem 8 bound r/(1-Nr): {:.5}", self.bound);
        let _ = writeln!(out, "  {:<18}{:>14}", "adversary level", "victim queue");
        for &(level, c) in &self.levels {
            let _ = writeln!(out, "  {level:<18}{c:>14.5}");
        }
        let _ = writeln!(
            out,
            "  worst observed: {:.5} -> {}",
            self.worst,
            if self.protected {
                "PROTECTED"
            } else {
                "BOUND VIOLATED"
            }
        );
        out
    }

    /// Structured payload for the service's `result` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let levels: Vec<Json> = self
            .levels
            .iter()
            .map(|&(level, c)| {
                Json::Obj(vec![
                    ("level".into(), Json::Num(level)),
                    ("victim_queue".into(), Json::Num(c)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("discipline".into(), Json::Str(self.discipline.clone())),
            ("n".into(), Json::Num(self.n as f64)),
            ("victim".into(), Json::Num(self.victim)),
            ("bound".into(), Json::Num(self.bound)),
            ("levels".into(), Json::Arr(levels)),
            ("worst".into(), Json::Num(self.worst)),
            ("protected".into(), Json::Bool(self.protected)),
        ])
    }
}

// ---------------------------------------------------------------------
// largen

/// Resolves large-N discipline aliases to the canonical short name used
/// by the cache key. Unknown names pass through — they fail later,
/// uncached.
#[must_use]
pub fn canonical_largen_name(name: &str) -> &str {
    match LargenDiscipline::parse(name) {
        Some(d) => d.name(),
        None => name,
    }
}

/// Specification of a large-N (mean-field) equilibrium solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LargenSpec {
    /// Discipline name (`fifo`/`fs`/`sfq`, aliases accepted).
    pub discipline: String,
    /// Population size; `0` solves the mean-field continuum (`N = ∞`).
    pub n: u64,
    /// Per-class utility specs (rates and congestions are share-scaled:
    /// `x = N·r`, `Φ = N·C`).
    pub classes: Vec<UtilityParam>,
    /// Per-class population weights (empty = equal); only ratios matter.
    pub weights: Vec<f64>,
    /// Seed for the finite engine's jittered start (ignored at `n = 0`;
    /// the converged fixed point is seed-independent, but the sweep
    /// count is part of the payload, so the seed stays in the key).
    pub seed: u64,
    /// Worker threads for the finite engine's best-response sharding.
    /// Unlike [`ExpSpec`], this is *not* part of the cache key: the
    /// solver is bitwise identical at any thread count, so clients at
    /// different widths share one cache entry.
    pub threads: usize,
}

/// One class row of a computed large-N equilibrium.
#[derive(Debug, Clone, PartialEq)]
pub struct LargenClassRow {
    /// Normalized population weight.
    pub weight: f64,
    /// Users apportioned to the class (`None` in the continuum).
    pub users: Option<u64>,
    /// Mean scaled rate `x = N·r`.
    pub x: f64,
    /// Mean scaled congestion `Φ = N·C`.
    pub phi: f64,
}

/// Computed large-N equilibrium, ready for rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct LargenOutcome {
    /// Canonical discipline name (`fifo`/`fs`/`sfq`).
    pub discipline: String,
    /// Population size (`0` = continuum).
    pub n: u64,
    /// Per-class results.
    pub classes: Vec<LargenClassRow>,
    /// Aggregate offered load at the final iterate.
    pub load: f64,
    /// Sweeps (finite) or fixed-point steps (continuum) performed.
    pub sweeps: u32,
    /// Final max best-response deviation.
    pub residual: f64,
    /// Whether the solve converged within its budget.
    pub converged: bool,
}

impl LargenSpec {
    fn normalized_weights(&self) -> Result<Vec<f64>, ServeError> {
        let k = self.classes.len();
        let raw: Vec<f64> = if self.weights.is_empty() {
            vec![1.0; k]
        } else {
            self.weights.clone()
        };
        if raw.len() != k {
            return Err(ServeError::BadRequest(format!(
                "{} weights for {k} classes",
                raw.len()
            )));
        }
        if !raw.iter().all(|w| w.is_finite() && *w > 0.0) {
            return Err(ServeError::BadRequest(
                "weights must be finite and > 0".into(),
            ));
        }
        Ok(weight_fractions(&raw))
    }

    /// Solves the equilibrium (finite engine for `n >= 1`, mean-field
    /// continuum for `n = 0`).
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on invalid specs or solver failure
    /// (including an unbounded continuum best response).
    pub fn solve(&self) -> Result<LargenOutcome, ServeError> {
        let disc = LargenDiscipline::parse(&self.discipline).ok_or_else(|| {
            ServeError::BadRequest(format!(
                "unknown large-N discipline '{}' (use fifo/fs/sfq)",
                self.discipline
            ))
        })?;
        let utilities = build_users(&self.classes)?;
        let weights = self.normalized_weights()?;
        let specs: Vec<ClassSpec> = utilities
            .into_iter()
            .zip(weights.iter())
            .map(|(u, &w)| ClassSpec::new(u, w))
            .collect();
        let opts = SolveOptions::default();
        let bad = |e: greednet_largen::LargenError| ServeError::BadRequest(e.to_string());
        if self.n == 0 {
            let sol = solve_mean_field(disc, &specs, &opts).map_err(bad)?;
            let classes = weights
                .iter()
                .zip(sol.x.iter().zip(sol.phi.iter()))
                .map(|(&w, (&x, &phi))| LargenClassRow {
                    weight: w,
                    users: None,
                    x,
                    phi,
                })
                .collect();
            Ok(LargenOutcome {
                discipline: disc.name().to_string(),
                n: 0,
                classes,
                load: sol.load,
                sweeps: sol.steps,
                residual: sol.residual,
                converged: sol.converged,
            })
        } else {
            let n = usize::try_from(self.n)
                .map_err(|_| ServeError::BadRequest("\"n\" is too large".into()))?;
            let sol = solve_finite(disc, &specs, n, self.seed, self.threads.max(1), &opts)
                .map_err(bad)?;
            let classes = weights
                .iter()
                .zip(sol.class_counts.iter())
                .zip(sol.class_x.iter().zip(sol.class_phi.iter()))
                .map(|((&w, &count), (&x, &phi))| LargenClassRow {
                    weight: w,
                    users: Some(count),
                    x,
                    phi,
                })
                .collect();
            Ok(LargenOutcome {
                discipline: disc.name().to_string(),
                n: self.n,
                classes,
                load: sol.load,
                sweeps: sol.sweeps,
                residual: sol.residual,
                converged: sol.converged,
            })
        }
    }
}

impl LargenOutcome {
    /// Renders the outcome exactly as `greednet largen` prints it.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let scale = if self.n == 0 {
            "mean-field continuum".to_string()
        } else {
            format!("N = {}", self.n)
        };
        let _ = writeln!(
            out,
            "Large-N equilibrium under {} ({scale}):",
            self.discipline
        );
        let _ = writeln!(
            out,
            "  converged: {} in {} sweeps (residual {:.1e})",
            self.converged, self.sweeps, self.residual
        );
        let _ = writeln!(
            out,
            "  {:<7}{:>10}{:>12}{:>14}{:>14}",
            "class", "weight", "users", "x = N*r", "phi = N*C"
        );
        for (c, row) in self.classes.iter().enumerate() {
            let users = match row.users {
                Some(u) => u.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {c:<7}{:>10.6}{users:>12}{:>14.6}{:>14.6}",
                row.weight, row.x, row.phi
            );
        }
        let _ = writeln!(
            out,
            "  load: {:.6} (slack {:.3e})",
            self.load,
            1.0 - self.load
        );
        out
    }

    /// Structured payload for the service's `result` record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let classes: Vec<Json> = self
            .classes
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("weight".into(), Json::Num(row.weight)),
                    (
                        "users".into(),
                        match row.users {
                            Some(u) => Json::Num(u as f64),
                            None => Json::Null,
                        },
                    ),
                    ("x".into(), Json::Num(row.x)),
                    ("phi".into(), Json::Num(row.phi)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("discipline".into(), Json::Str(self.discipline.clone())),
            ("n".into(), Json::Num(self.n as f64)),
            ("converged".into(), Json::Bool(self.converged)),
            ("sweeps".into(), Json::Num(f64::from(self.sweeps))),
            ("residual".into(), Json::Num(self.residual)),
            ("load".into(), Json::Num(self.load)),
            ("classes".into(), Json::Arr(classes)),
        ])
    }
}

// ---------------------------------------------------------------------
// exp

/// Specification of a registry-experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpSpec {
    /// Experiment id (`t1`, `e1`..).
    pub exp: String,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for the experiment's own replication pool; `0`
    /// runs on one, like `1`. Part of the request (and its cache key, as
    /// the width that runs) so the payload is independent of the
    /// *service's* pool width; experiment output is bitwise invariant to
    /// this value except for the `threads=` header.
    pub threads: usize,
    /// Run with the smoke budget instead of paper fidelity.
    pub smoke: bool,
}

impl ExpSpec {
    /// The replication pool width the run uses: `threads`, at least one.
    pub(crate) fn workers(&self) -> usize {
        self.threads.max(1)
    }

    /// Runs the experiment and renders its report as a JSON payload.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] for unknown experiment ids.
    pub fn run_json(&self) -> Result<Json, ServeError> {
        use greednet_runtime::{Budget, ExpCtx, Format};
        let budget = if self.smoke {
            Budget::smoke()
        } else {
            Budget::full()
        };
        let ctx = ExpCtx::new(self.seed, self.workers()).with_budget(budget);
        let report = greednet_bench::exp_cli::run_experiment(&self.exp, &ctx)
            .map_err(ServeError::BadRequest)?;
        // The report renderer emits a complete JSON object; splice it
        // verbatim rather than re-parsing.
        Ok(Json::Raw(report.render(Format::Json)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accept_known_names() {
        assert!(build_alloc("fifo").is_ok());
        assert!(build_alloc("fairshare").is_ok());
        assert!(build_alloc("nope").is_err());
        assert!(build_kind("sfq").is_ok());
        assert!(build_kind("nope").is_err());
        assert_eq!(canonical_alloc_name("fairshare"), "fs");
        assert_eq!(canonical_kind_name("fq"), "sfq");
        assert_eq!(canonical_kind_name("lifo"), "lifo");
    }

    #[test]
    fn service_specs_parse() {
        assert_eq!(build_service("M").unwrap(), ServiceDist::Exponential);
        assert_eq!(build_service("E4").unwrap(), ServiceDist::Erlang(4));
        assert!(build_service("E0").is_err());
        assert!(build_service("H2:0.5").is_err());
        assert_eq!(
            canonical_service_json("m").to_compact(),
            canonical_service_json("M").to_compact()
        );
        assert_eq!(
            canonical_service_json("H2:4").to_compact(),
            canonical_service_json("H2:4.0").to_compact()
        );
    }

    #[test]
    fn nash_solve_produces_envy_free_fs_equilibrium() {
        let spec = NashSpec {
            discipline: "fs".into(),
            users: vec![
                UtilityParam {
                    family: "log".into(),
                    a: 0.5,
                    b: 1.0,
                },
                UtilityParam {
                    family: "linear".into(),
                    a: 1.0,
                    b: 0.4,
                },
            ],
        };
        let out = spec.solve().unwrap();
        assert!(out.converged);
        assert!(out.max_envy <= 1e-6);
        let text = out.render_text();
        assert!(text.starts_with("Nash equilibrium under fair share:"));
        assert!(text.ends_with("(<= 0 means envy-free)\n"));
        let json = out.to_json().to_compact();
        assert!(json.contains("\"converged\":true"), "{json}");
    }

    #[test]
    fn simulate_outcome_matches_probe_invariance() {
        let spec = SimulateSpec {
            rates: vec![0.2, 0.1],
            discipline: "fs".into(),
            horizon: 2000.0,
            warmup: None,
            windows: None,
            seed: 5,
            service: "M".into(),
        };
        let plain = spec.outcome().unwrap();
        let mut probe = greednet_telemetry::NoopProbe;
        let probed = spec.outcome_probed(&mut probe).unwrap();
        assert_eq!(plain, probed);
        assert_eq!(plain.render_text(), probed.render_text());
    }

    #[test]
    fn table_and_protect_render() {
        let t = TableSpec {
            rates: vec![0.05, 0.1, 0.2],
        }
        .outcome();
        assert!(t.render_text().contains("L2"));
        let p = ProtectSpec {
            n: 4,
            victim: 0.1,
            discipline: "fs".into(),
        }
        .outcome()
        .unwrap();
        assert!(p.protected);
        assert!(p.render_text().contains("PROTECTED"));
        assert!(ProtectSpec {
            n: 0,
            victim: 0.1,
            discipline: "fs".into()
        }
        .outcome()
        .is_err());
        assert!(ProtectSpec {
            n: 4,
            victim: 2.0,
            discipline: "fs".into()
        }
        .outcome()
        .is_err());
    }

    #[test]
    fn overflowing_largen_weights_answer_like_their_ratios() {
        // Weights whose sum overflows normalize like their ratios, so the
        // CLI text and the service payload match `[1, 1]` byte for byte.
        for n in [1000, 0] {
            let answer = |weights: Vec<f64>| {
                let spec = LargenSpec {
                    discipline: "fs".into(),
                    n,
                    classes: [0.6, 0.4]
                        .map(|a| UtilityParam {
                            family: "log".into(),
                            a,
                            b: 1.0,
                        })
                        .to_vec(),
                    weights,
                    seed: 1,
                    threads: 1,
                };
                let outcome = spec.solve().expect("solves");
                (outcome.render_text(), outcome.to_json().to_compact())
            };
            assert_eq!(
                answer(vec![1e308, 1e308]),
                answer(vec![1.0, 1.0]),
                "n = {n}"
            );
        }
    }

    #[test]
    fn exp_spec_runs_smoke_experiment() {
        let spec = ExpSpec {
            exp: "t1".into(),
            seed: 0,
            threads: 1,
            smoke: true,
        };
        let json = spec.run_json().unwrap().to_compact();
        assert!(json.contains("\"id\":\"t1\""), "{json}");
        assert!(ExpSpec {
            exp: "zzz".into(),
            seed: 0,
            threads: 1,
            smoke: true
        }
        .run_json()
        .is_err());
    }
}
