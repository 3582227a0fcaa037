//! Experiment harness for the reproduction of *"Making Greed Work in
//! Networks"*.
//!
//! The paper is analytic: its evaluation artifacts are Table 1 and the
//! quantitative content of Theorems 1–8 / Corollaries 1–2. Each
//! experiment regenerates one artifact as a printed table, run by id as
//! `greednet exp <id>` (see DESIGN.md §4 for the index and
//! EXPERIMENTS.md for paper-vs-measured records):
//!
//! | id | artifact |
//! |---|---|
//! | `t1` | Table 1 + packet validation |
//! | `e1` | Thm 1 & 2 (Pareto efficiency of Nash) |
//! | `e2` | Thm 3 (unilateral envy-freeness) |
//! | `e3` | Thm 4 (uniqueness of Nash) |
//! | `e4` | Thm 5 (leader advantage) |
//! | `e5` | Thm 6 (truthfulness of `B^FS`) |
//! | `e6` | Thm 7 (relaxation spectra, Newton dynamics) |
//! | `e7` | Thm 8 (protection bounds) |
//! | `e8` | Cor. 2 (alternative constraints) |
//! | `e9` | §3.1 closed forms vs packets |
//! | `e10a` | §2.2/§4.2.2 noisy hill climbing |
//! | `e10b` | §5.2 FTP/Telnet/blaster mix |
//! | `e11` | §4.2.2 generalized hill climbing + learning automata |
//! | `e12` | §5.4 networks of switches |
//! | `e13` | footnote 5: M/G/1 kernels |
//! | `e14` | footnote 14: coalition resilience |
//! | `e15` | ablation along the FIFO→FS blend |
//! | `e16` | §5.2 closed-loop AIMD sources + ECN marking |
//! | `e17` | finite-N equilibria converge on the mean field |
//! | `e18` | heavy-traffic slack exponents per discipline |
//!
//! Every experiment implements [`greednet_runtime::Experiment`] in
//! [`experiments`] and is listed in the central [`experiments::registry`];
//! [`exp_cli`] holds the shared runner options and the one dispatch path
//! by id, which backs `greednet exp <id>` in the CLI crate and the
//! `run_all` binary (every experiment in-process). This `lib` target
//! additionally holds the shared utilities (the [`DisciplineSet`],
//! sampled utility profiles, standard game builders).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod exp_cli;
pub mod experiments;

use greednet_core::game::Game;
use greednet_core::utility::{
    BoxedUtility, LinearUtility, LogUtility, PowerUtility, QuadraticCongestionUtility, UtilityExt,
};
use greednet_queueing::alloc::AllocationFunction;
use greednet_queueing::{Blend, FairShare, Proportional, SerialPriority};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A typed, ordered set of named allocation disciplines.
///
/// Replaces the old free function returning `Vec<(&str, Box<dyn ...>)>`:
/// experiments now share one value with named constructors, iteration in
/// reporting order, and lookup by name.
pub struct DisciplineSet {
    entries: Vec<(&'static str, Box<dyn AllocationFunction>)>,
}

impl DisciplineSet {
    /// Empty set (extend with [`with`](Self::with)).
    #[must_use]
    pub fn empty() -> Self {
        DisciplineSet {
            entries: Vec::new(),
        }
    }

    /// The four disciplines every experiment sweeps, in reporting order:
    /// FIFO, Fair Share, serial priority, and the 50/50 blend.
    #[must_use]
    pub fn standard() -> Self {
        DisciplineSet::fifo_vs_fair_share()
            .with("SerialPrio", Box::new(SerialPriority::new()))
            .with("Blend(0.5)", Box::new(blend(0.5)))
    }

    /// Just the paper's two protagonists: FIFO and Fair Share.
    #[must_use]
    pub fn fifo_vs_fair_share() -> Self {
        DisciplineSet::empty()
            .with("FIFO", Box::new(Proportional::new()))
            .with("FairShare", Box::new(FairShare::new()))
    }

    /// Appends a named discipline.
    ///
    /// # Panics
    /// If the name is already present (lookup would be ambiguous).
    #[must_use]
    pub fn with(mut self, name: &'static str, alloc: Box<dyn AllocationFunction>) -> Self {
        assert!(
            self.get(name).is_none(),
            "duplicate discipline name {name:?}"
        );
        self.entries.push((name, alloc));
        self
    }

    /// Looks a discipline up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&dyn AllocationFunction> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| a.as_ref())
    }

    /// Names in reporting order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Iterates `(name, discipline)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &dyn AllocationFunction)> {
        self.entries.iter().map(|(n, a)| (*n, a.as_ref()))
    }

    /// Number of disciplines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for DisciplineSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DisciplineSet").field(&self.names()).finish()
    }
}

/// The FIFO→Fair-Share blend `C^θ = (1−θ)·C^FIFO + θ·C^FS`.
#[must_use]
pub fn blend(theta: f64) -> Blend {
    Blend::new(
        Box::new(Proportional::new()),
        Box::new(FairShare::new()),
        theta,
    )
    .expect("valid blend")
}

/// A deterministic sampler of heterogeneous AU utility profiles.
#[derive(Debug)]
pub struct ProfileSampler {
    rng: SmallRng,
}

impl ProfileSampler {
    /// Creates a sampler with a fixed seed.
    pub fn new(seed: u64) -> Self {
        ProfileSampler {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.random::<f64>()
    }

    /// Samples one utility from the mixed AU families.
    pub fn utility(&mut self) -> BoxedUtility {
        match self.rng.random_range(0..4u8) {
            0 => LogUtility::new(self.uniform(0.2, 1.2), self.uniform(0.5, 2.5)).boxed(),
            1 => PowerUtility::new(self.uniform(0.3, 0.8), self.uniform(0.4, 2.0)).boxed(),
            2 => LinearUtility::new(1.0, self.uniform(0.1, 0.7)).boxed(),
            _ => QuadraticCongestionUtility::new(1.0, self.uniform(0.5, 3.0)).boxed(),
        }
    }

    /// Samples a profile of `n` users.
    pub fn profile(&mut self, n: usize) -> Vec<BoxedUtility> {
        (0..n).map(|_| self.utility()).collect()
    }

    /// Samples a rate vector with total load below `max_load`.
    pub fn rates(&mut self, n: usize, max_load: f64) -> Vec<f64> {
        let mut r: Vec<f64> = (0..n).map(|_| self.uniform(0.01, 1.0)).collect();
        let total: f64 = r.iter().sum();
        let scale = self.uniform(0.3, 0.95) * max_load / total;
        for x in &mut r {
            *x *= scale;
        }
        r
    }
}

/// Builds a game of `n` identical linear users over `alloc`.
pub fn identical_linear_game(alloc: Box<dyn AllocationFunction>, n: usize, gamma: f64) -> Game {
    let users = (0..n)
        .map(|_| LinearUtility::new(1.0, gamma).boxed())
        .collect();
    Game::from_boxed(alloc, users).expect("non-empty game")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic() {
        let mut a = ProfileSampler::new(7);
        let mut b = ProfileSampler::new(7);
        assert_eq!(a.rates(3, 0.9), b.rates(3, 0.9));
    }

    #[test]
    fn sampled_rates_respect_load_cap() {
        let mut s = ProfileSampler::new(1);
        for _ in 0..50 {
            let r = s.rates(5, 0.9);
            assert!(r.iter().sum::<f64>() < 0.9);
            assert!(r.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn sampled_profiles_are_valid_au() {
        let mut s = ProfileSampler::new(2);
        for _ in 0..20 {
            let u = s.utility();
            assert!(u.du_dr(0.2, 0.5) > 0.0);
            assert!(u.du_dc(0.2, 0.5) < 0.0);
        }
    }

    #[test]
    fn standard_discipline_set() {
        let d = DisciplineSet::standard();
        assert_eq!(d.len(), 4);
        assert_eq!(
            d.names(),
            vec!["FIFO", "FairShare", "SerialPrio", "Blend(0.5)"]
        );
        assert!(d.get("FairShare").is_some());
        assert!(d.get("nope").is_none());
        for (name, alloc) in d.iter() {
            assert!(!name.is_empty());
            let c = alloc.congestion(&[0.1, 0.2]);
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate discipline name")]
    fn duplicate_discipline_names_rejected() {
        let _ = DisciplineSet::fifo_vs_fair_share()
            .with("FIFO", Box::new(greednet_queueing::Proportional::new()));
    }

    #[test]
    fn identical_linear_game_builds() {
        let g = identical_linear_game(Box::new(FairShare::new()), 3, 0.3);
        assert_eq!(g.n(), 3);
    }
}
