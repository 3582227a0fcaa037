//! The [`Experiment`] trait, its execution context, and the central
//! [`Registry`] all experiment binaries and the CLI dispatch through.

use crate::report::RunReport;
use crate::seed::child_seed;

/// Event/iteration budget knob.
///
/// Experiments scale their simulation horizons and replication counts by
/// `scale`, so the same code serves full paper-fidelity runs
/// (`Budget::full`) and sub-second smoke runs in tests
/// (`Budget::smoke`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Multiplier applied to horizons and counts (1.0 = paper fidelity).
    pub scale: f64,
}

impl Budget {
    /// Full paper-fidelity budget.
    #[must_use]
    pub fn full() -> Budget {
        Budget { scale: 1.0 }
    }

    /// Tiny budget for smoke tests (~1% of full horizons).
    #[must_use]
    pub fn smoke() -> Budget {
        Budget { scale: 0.01 }
    }

    /// Scales a simulation horizon, keeping it long enough that warm-up
    /// windows and batch-mean estimators stay valid.
    #[must_use]
    pub fn horizon(&self, base: f64) -> f64 {
        (base * self.scale).max(2_000.0)
    }

    /// Scales a replication/start/sample count, keeping at least 2 so
    /// variance estimates remain defined.
    #[must_use]
    pub fn count(&self, base: usize) -> usize {
        #[expect(
            clippy::cast_precision_loss,
            reason = "replication counts are far below 2^53, so the f64 is exact"
        )]
        let scaled = greednet_numerics::conv::f64_to_usize((base as f64 * self.scale).ceil());
        scaled.clamp(2, base.max(2))
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::full()
    }
}

/// Execution context handed to [`Experiment::run`].
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Root seed; all per-task seeds derive from it via
    /// [`child_seed`].
    pub seed: u64,
    /// Worker-thread cap for parallel stages (1 = serial).
    pub threads: usize,
    /// Horizon/count scaling.
    pub budget: Budget,
    /// Whether experiments should gather telemetry: extra
    /// histogram/metrics report sections (deterministic, task-order
    /// merged) plus stage timings and per-worker pool statistics in the
    /// report's non-deterministic telemetry side-channel. Must never
    /// change any numeric result — only add observability.
    pub telemetry: bool,
}

impl ExpCtx {
    /// Context with the given root seed and thread cap, full budget.
    #[must_use]
    pub fn new(seed: u64, threads: usize) -> ExpCtx {
        ExpCtx {
            seed,
            threads: threads.max(1),
            budget: Budget::full(),
            telemetry: false,
        }
    }

    /// Replaces the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> ExpCtx {
        self.budget = budget;
        self
    }

    /// Enables or disables telemetry gathering (see
    /// [`ExpCtx::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> ExpCtx {
        self.telemetry = telemetry;
        self
    }

    /// Stage-specific seed derived from the root seed and a salt, so
    /// different stages of one experiment never share an RNG stream.
    #[must_use]
    pub fn stage_seed(&self, salt: u64) -> u64 {
        child_seed(self.seed, salt)
    }

    /// Fresh report pre-stamped with this context's run parameters.
    #[must_use]
    pub fn report(&self, id: &str, title: &str) -> RunReport {
        RunReport::new(id, title).with_run_params(self.seed, self.threads)
    }
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx::new(0, 1)
    }
}

/// One reproducible experiment (a table or figure of the paper, or a
/// robustness study around it).
///
/// Implementations must treat `ctx.seed` as the *only* source of
/// randomness and route parallel work through [`crate::sweep`] /
/// [`crate::pool`], so that `run` is a pure function of
/// `(seed, budget)` — thread count must never change the report.
pub trait Experiment: Sync {
    /// Stable lowercase identifier (e.g. `"e9"`), unique in a registry.
    fn id(&self) -> &'static str;

    /// One-line human-readable title.
    fn title(&self) -> &'static str;

    /// Runs the experiment and returns its structured report.
    fn run(&self, ctx: &ExpCtx) -> RunReport;
}

/// Central collection of all known experiments.
pub struct Registry {
    entries: Vec<Box<dyn Experiment>>,
}

impl Registry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            entries: Vec::new(),
        }
    }

    /// Adds an experiment.
    ///
    /// # Panics
    /// If another experiment with the same id is already registered —
    /// duplicate ids would make CLI dispatch ambiguous.
    pub fn register(&mut self, experiment: Box<dyn Experiment>) {
        let id = experiment.id();
        assert!(
            self.get(id).is_none(),
            "duplicate experiment id {id:?} in registry"
        );
        self.entries.push(experiment);
    }

    /// Looks up an experiment by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&dyn Experiment> {
        self.entries
            .iter()
            .find(|e| e.id() == id)
            .map(AsRef::as_ref)
    }

    /// All ids, in registration order.
    #[must_use]
    pub fn ids(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.id()).collect()
    }

    /// Iterates experiments in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.entries.iter().map(AsRef::as_ref)
    }

    /// Number of registered experiments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(&'static str);

    impl Experiment for Dummy {
        fn id(&self) -> &'static str {
            self.0
        }

        fn title(&self) -> &'static str {
            "dummy"
        }

        fn run(&self, ctx: &ExpCtx) -> RunReport {
            let mut r = ctx.report(self.0, "dummy");
            r.metric("seed_echo", ctx.seed as f64);
            r
        }
    }

    #[test]
    fn registry_lookup_and_order() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy("a")));
        reg.register(Box::new(Dummy("b")));
        assert_eq!(reg.ids(), vec!["a", "b"]);
        assert!(reg.get("a").is_some());
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate experiment id")]
    fn duplicate_ids_rejected() {
        let mut reg = Registry::new();
        reg.register(Box::new(Dummy("a")));
        reg.register(Box::new(Dummy("a")));
    }

    #[test]
    fn budget_scaling_keeps_floors() {
        let b = Budget::smoke();
        assert!(b.horizon(1.0e6) >= 2_000.0);
        assert!(b.count(16) >= 2);
        assert_eq!(Budget::full().count(16), 16);
        assert_eq!(Budget::full().horizon(5.0e5), 5.0e5);
    }

    #[test]
    fn stage_seeds_differ() {
        let ctx = ExpCtx::new(7, 2);
        assert_ne!(ctx.stage_seed(0), ctx.stage_seed(1));
        assert_eq!(ctx.stage_seed(3), ExpCtx::new(7, 8).stage_seed(3));
    }
}
