//! Incremental hill climbing — the paper's model of how real users
//! actually optimize (§2.2): "one merely adjusts the knob until the
//! picture looks best".
//!
//! Users never see their utility function in the abstract and never see
//! other users' rates; each observes only its own `(r_i, c_i)` through an
//! [`Environment`] — either the exact allocation formula or a finite
//! packet-simulation measurement (noisy, like a real network). A user
//! probes a slightly different rate, keeps it if measured satisfaction
//! improved, and shrinks its step when probing stops paying.

use crate::error::LearningError;
use crate::Result;
use greednet_core::utility::BoxedUtility;
use greednet_des::rng::ExpStream;
use greednet_des::scenarios::DisciplineKind;
use greednet_des::{Engine, EngineConfig, SimTime};
use greednet_queueing::alloc::AllocationFunction;

/// Where users' congestion observations come from.
pub trait Environment {
    /// Number of users.
    fn n(&self) -> usize;
    /// Observes the congestion vector at `rates` (possibly noisy).
    fn observe(&mut self, rates: &[f64]) -> Vec<f64>;
    /// A short description for reports.
    fn describe(&self) -> String;
}

/// Exact observations from a closed-form allocation function.
#[derive(Debug)]
pub struct ExactEnv {
    alloc: Box<dyn AllocationFunction>,
    n: usize,
}

impl ExactEnv {
    /// Creates an exact environment for `n` users.
    pub fn new(alloc: Box<dyn AllocationFunction>, n: usize) -> Self {
        ExactEnv { alloc, n }
    }
}

impl Environment for ExactEnv {
    fn n(&self) -> usize {
        self.n
    }
    fn observe(&mut self, rates: &[f64]) -> Vec<f64> {
        self.alloc.congestion(rates)
    }
    fn describe(&self) -> String {
        format!("exact({})", self.alloc.name())
    }
}

/// Noisy observations from finite packet-level measurements: each
/// observation runs the discrete-event simulator for `measure_time` time
/// units and reports the measured per-user mean queues.
#[derive(Debug)]
pub struct SimEnv {
    kind: DisciplineKind,
    n: usize,
    measure_time: f64,
    seeds: ExpStream,
}

impl SimEnv {
    /// Creates a simulated environment. Longer `measure_time` = less
    /// measurement noise (the user's "sampling time constant" from
    /// §4.2.2).
    pub fn new(kind: DisciplineKind, n: usize, measure_time: f64, seed: u64) -> Self {
        SimEnv {
            kind,
            n,
            measure_time,
            seeds: ExpStream::new(seed),
        }
    }
}

impl Environment for SimEnv {
    fn n(&self) -> usize {
        self.n
    }
    fn observe(&mut self, rates: &[f64]) -> Vec<f64> {
        // uniform() ∈ [0, 1), so the product stays inside u64 range.
        let seed = greednet_numerics::conv::f64_to_u64(self.seeds.uniform() * f64::from(u32::MAX));
        let mut cfg = EngineConfig::open_loop(rates, self.measure_time, seed);
        cfg.allow_overload = true;
        cfg.warmup = SimTime::raw(self.measure_time * 0.2);
        // Infallible for valid rates; fall back to formula-free zeros on
        // misconfiguration (cannot occur for clamped rates).
        let engine = match Engine::new(cfg) {
            Ok(e) => e,
            Err(_) => return vec![f64::INFINITY; self.n],
        };
        let mut d = match self.kind.build(rates, seed ^ 0xABCD) {
            Ok(d) => d,
            Err(_) => return vec![f64::INFINITY; self.n],
        };
        match engine.run(d.as_mut()) {
            Ok(report) => report.result.mean_queue,
            Err(_) => vec![f64::INFINITY; self.n],
        }
    }
    fn describe(&self) -> String {
        format!("sim({}, T={})", self.kind.label(), self.measure_time)
    }
}

/// Update schedule for the climbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Users take turns in index order (one probe per round each).
    #[default]
    RoundRobin,
    /// All users probe against the same snapshot, then move together.
    Simultaneous,
}

/// Hill-climbing configuration.
#[derive(Debug, Clone)]
pub struct HillConfig {
    /// Number of full rounds (each user probes once per round).
    pub rounds: usize,
    /// Initial probe step.
    pub initial_step: f64,
    /// Step floor; a user whose step reaches this is considered settled.
    pub min_step: f64,
    /// Multiplicative step shrink after a failed probe pair.
    pub shrink: f64,
    /// Update schedule.
    pub schedule: Schedule,
}

impl Default for HillConfig {
    fn default() -> Self {
        HillConfig {
            rounds: 60,
            initial_step: 0.05,
            min_step: 1e-5,
            shrink: 0.6,
            schedule: Schedule::RoundRobin,
        }
    }
}

/// Trajectory of a hill-climbing run.
#[derive(Debug, Clone)]
pub struct HillTrajectory {
    /// Rate vector after each round (index 0 = start).
    pub history: Vec<Vec<f64>>,
    /// Final rates.
    pub final_rates: Vec<f64>,
    /// Total environment observations consumed.
    pub observations: usize,
}

impl HillTrajectory {
    /// L∞ distance of the final point from `target`.
    pub fn distance_to(&self, target: &[f64]) -> f64 {
        self.final_rates
            .iter()
            .zip(target)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// First round whose iterate is within `tol` (L∞) of `target`, if any.
    pub fn rounds_to_reach(&self, target: &[f64], tol: f64) -> Option<usize> {
        self.history.iter().position(|r| {
            r.iter()
                .zip(target)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
                <= tol
        })
    }
}

/// State of one climbing user.
#[derive(Debug, Clone)]
struct Climber {
    step: f64,
    direction: f64,
}

/// Runs hill climbing for `users` against `env` from `start`.
///
/// # Errors
/// [`LearningError::InvalidConfig`] on shape or parameter errors.
pub fn climb(
    users: &[BoxedUtility],
    env: &mut dyn Environment,
    start: &[f64],
    config: &HillConfig,
) -> Result<HillTrajectory> {
    let n = users.len();
    if n == 0 || env.n() != n || start.len() != n {
        return Err(LearningError::InvalidConfig {
            detail: format!("users {} / env {} / start {}", n, env.n(), start.len()),
        });
    }
    if !(config.initial_step > 0.0 && config.shrink > 0.0 && config.shrink < 1.0) {
        return Err(LearningError::InvalidConfig {
            detail: "need initial_step > 0 and shrink in (0,1)".into(),
        });
    }
    let mut rates = start.to_vec();
    let mut climbers: Vec<Climber> = (0..n)
        .map(|_| Climber {
            step: config.initial_step,
            direction: 1.0,
        })
        .collect();
    let mut history = vec![rates.clone()];
    let mut observations = 0usize;

    let clamp = |x: f64| x.clamp(1e-6, 0.999);

    for _round in 0..config.rounds {
        match config.schedule {
            Schedule::RoundRobin => {
                for i in 0..n {
                    observations +=
                        probe_one(users, env, &mut rates, &mut climbers, i, config, clamp);
                }
            }
            Schedule::Simultaneous => {
                let snapshot = rates.clone();
                let mut next = rates.clone();
                for i in 0..n {
                    let mut local = snapshot.clone();
                    observations +=
                        probe_one(users, env, &mut local, &mut climbers, i, config, clamp);
                    next[i] = local[i];
                }
                rates = next;
            }
        }
        history.push(rates.clone());
    }
    Ok(HillTrajectory {
        history,
        final_rates: rates.clone(),
        observations,
    })
}

/// One user's probe: measure here, measure at a nudged rate, keep the
/// better; on a failed pair of directions, shrink the step.
fn probe_one(
    users: &[BoxedUtility],
    env: &mut dyn Environment,
    rates: &mut [f64],
    climbers: &mut [Climber],
    i: usize,
    config: &HillConfig,
    clamp: impl Fn(f64) -> f64,
) -> usize {
    let mut obs = 0usize;
    let st = &mut climbers[i];
    if st.step <= config.min_step {
        return 0;
    }
    let here = env.observe(rates);
    obs += 1;
    let u_here = users[i].value(rates[i], here[i]);

    let forward = clamp(rates[i] + st.direction * st.step);
    let old = rates[i];
    rates[i] = forward;
    let c_fwd = env.observe(rates);
    obs += 1;
    let u_fwd = users[i].value(forward, c_fwd[i]);
    if u_fwd > u_here {
        return obs; // keep the move, keep the direction
    }
    // Try the other direction.
    let backward = clamp(old - st.direction * st.step);
    rates[i] = backward;
    let c_bwd = env.observe(rates);
    obs += 1;
    let u_bwd = users[i].value(backward, c_bwd[i]);
    if u_bwd > u_here {
        st.direction = -st.direction;
        return obs;
    }
    // Neither direction helped: stay and shrink.
    rates[i] = old;
    st.step *= config.shrink;
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_core::game::{Game, NashOptions};
    use greednet_core::utility::{LinearUtility, LogUtility, UtilityExt};
    use greednet_queueing::{FairShare, Proportional};

    fn fs_users() -> Vec<BoxedUtility> {
        vec![
            LogUtility::new(0.4, 1.0).boxed(),
            LogUtility::new(0.8, 1.2).boxed(),
            LinearUtility::new(1.0, 0.3).boxed(),
        ]
    }

    #[test]
    fn exact_hill_climb_finds_fair_share_nash() {
        let users = fs_users();
        let game = Game::new(FairShare::new(), users.clone()).unwrap();
        let nash = game.solve_nash(&NashOptions::default()).unwrap();
        assert!(nash.converged);

        let mut env = ExactEnv::new(Box::new(FairShare::new()), 3);
        let config = HillConfig {
            rounds: 220,
            ..Default::default()
        };
        let traj = climb(&users, &mut env, &[0.05, 0.05, 0.05], &config).unwrap();
        assert!(
            traj.distance_to(&nash.rates) < 5e-3,
            "hill climb ended at {:?}, Nash {:?}",
            traj.final_rates,
            nash.rates
        );
        assert!(traj.observations > 0);
    }

    #[test]
    fn exact_hill_climb_fifo_two_users_converges() {
        // For N = 2 FIFO dynamics are stable; hill climbing should settle
        // near the Nash equilibrium.
        let users: Vec<BoxedUtility> = vec![
            LinearUtility::new(1.0, 0.2).boxed(),
            LinearUtility::new(1.0, 0.2).boxed(),
        ];
        let game = Game::new(Proportional::new(), users.clone()).unwrap();
        let nash = game.solve_nash(&NashOptions::default()).unwrap();
        let mut env = ExactEnv::new(Box::new(Proportional::new()), 2);
        let config = HillConfig {
            rounds: 200,
            ..Default::default()
        };
        let traj = climb(&users, &mut env, &[0.1, 0.3], &config).unwrap();
        assert!(
            traj.distance_to(&nash.rates) < 1e-2,
            "{:?}",
            traj.final_rates
        );
    }

    #[test]
    fn simultaneous_schedule_works_under_fair_share() {
        let users = fs_users();
        let game = Game::new(FairShare::new(), users.clone()).unwrap();
        let nash = game.solve_nash(&NashOptions::default()).unwrap();
        let mut env = ExactEnv::new(Box::new(FairShare::new()), 3);
        let config = HillConfig {
            rounds: 300,
            schedule: Schedule::Simultaneous,
            ..Default::default()
        };
        let traj = climb(&users, &mut env, &[0.02, 0.1, 0.2], &config).unwrap();
        assert!(
            traj.distance_to(&nash.rates) < 1e-2,
            "{:?}",
            traj.final_rates
        );
    }

    #[test]
    fn noisy_sim_env_hill_climb_gets_close_under_fair_share() {
        // The full story: users optimizing against packet measurements.
        let users: Vec<BoxedUtility> = vec![
            LinearUtility::new(1.0, 0.5).boxed(),
            LinearUtility::new(1.0, 0.5).boxed(),
        ];
        let game = Game::new(FairShare::new(), users.clone()).unwrap();
        let nash = game.solve_nash(&NashOptions::default()).unwrap();
        let mut env = SimEnv::new(DisciplineKind::FsTable, 2, 4_000.0, 99);
        let config = HillConfig {
            rounds: 25,
            initial_step: 0.04,
            min_step: 5e-3,
            ..Default::default()
        };
        let traj = climb(&users, &mut env, &[0.05, 0.25], &config).unwrap();
        // Noise-limited accuracy: just require entering the neighborhood.
        assert!(
            traj.distance_to(&nash.rates) < 0.08,
            "ended {:?}, Nash {:?}",
            traj.final_rates,
            nash.rates
        );
    }

    #[test]
    fn trajectory_helpers() {
        let t = HillTrajectory {
            history: vec![vec![0.0, 0.0], vec![0.1, 0.1], vec![0.2, 0.2]],
            final_rates: vec![0.2, 0.2],
            observations: 10,
        };
        assert_eq!(t.rounds_to_reach(&[0.1, 0.1], 1e-9), Some(1));
        assert_eq!(t.rounds_to_reach(&[0.5, 0.5], 0.05), None);
        assert!((t.distance_to(&[0.25, 0.15]) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn invalid_config_rejected() {
        let users = fs_users();
        let mut env = ExactEnv::new(Box::new(FairShare::new()), 3);
        assert!(climb(&users, &mut env, &[0.1, 0.1], &HillConfig::default()).is_err());
        let bad = HillConfig {
            shrink: 1.5,
            ..Default::default()
        };
        assert!(climb(&users, &mut env, &[0.1; 3], &bad).is_err());
    }

    #[test]
    fn env_descriptions() {
        let e = ExactEnv::new(Box::new(FairShare::new()), 2);
        assert!(e.describe().contains("fair share"));
        let s = SimEnv::new(DisciplineKind::Fifo, 2, 100.0, 0);
        assert!(s.describe().contains("FIFO"));
    }
}
