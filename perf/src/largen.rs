//! The two large-`N` workloads: a FIFO solve over three log classes, and
//! a Fair Share solve near saturation.
//!
//! One pass is one `solve_finite` at the workload's `N` on one pool
//! thread, jittered from `child_seed(seed, pass)`; one operation is one
//! solve. Set-up builds the classes, solves the continuum reference
//! (`solve_mean_field`) every finite solution is checked against, and
//! warms the allocator and pool with a solve at a tenth of `N`. The
//! traced pass wraps each class utility in [`CountingUtility`] and
//! timestamps every `MeanFieldSweep` event with [`SweepClock`].

use crate::metrics::{self, MetricSet};
use crate::spans::Spans;
use crate::workload::{
    median_setup, secs, timed_passes, Measured, Scale, Settings, Tally, Workload,
};
use greednet_core::utility::{BoxedUtility, LogUtility, Utility, UtilityExt};
use greednet_largen::{
    solve_finite_probed, solve_mean_field, ClassSpec, FiniteSolution, LargenDiscipline,
    MeanFieldSolution, SolveOptions,
};
use greednet_runtime::{child_seed, ScopedTimer};
use greednet_telemetry::{NoopProbe, Probe, SolverEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Pool threads per solve. Solutions are bitwise identical at any thread
/// count, and on a shared 2-core host a 2-thread solve waits for both
/// cores to be free of other tenants' work: its run-to-run spread was
/// 3 times that of a 1-thread solve measured in the same minutes.
pub const THREADS: usize = 1;
/// Set-up repetitions; the median is reported (enough of them to get
/// past the slow first repetitions after process start).
const SETUP_REPS: usize = 9;
/// The set-up's warm-up solve has this fraction of the population.
const WARMUP_FRACTION: usize = 10;

/// One workload's game: discipline, classes, options and population.
#[derive(Debug, Clone)]
pub struct Game {
    /// The discipline solved.
    pub disc: LargenDiscipline,
    /// Utility classes.
    pub classes: Vec<ClassSpec>,
    /// Solver options.
    pub opts: SolveOptions,
    /// Population size.
    pub n: usize,
}

/// The game a workload solves.
///
/// * `largen_fifo`: the three `largen-bench` log classes under FIFO with
///   default options — sorting and Newton work, but no rank searches.
/// * `largen_fs_heavy`: one log class with `w = 1, γ = 10^-3` under Fair
///   Share, `tol = 1e-7`, up to 2000 sweeps — load ≈ 0.97, where every
///   Newton evaluation searches the sorted population and the damping
///   controller works.
#[must_use]
pub fn game(workload: Workload, scale: Scale) -> Game {
    let tiny = scale == Scale::Tiny;
    if workload == Workload::LargenFsHeavy {
        Game {
            disc: LargenDiscipline::FairShare,
            classes: vec![ClassSpec::new(LogUtility::new(1.0, 1e-3).boxed(), 1.0)],
            opts: SolveOptions {
                tol: 1e-7,
                max_sweeps: 2000,
                ..SolveOptions::default()
            },
            n: if tiny { 2_000 } else { 25_000 },
        }
    } else {
        Game {
            disc: LargenDiscipline::Fifo,
            classes: [0.6, 0.5, 0.4]
                .iter()
                .map(|&w| ClassSpec::new(LogUtility::new(w, 1.0).boxed(), 1.0))
                .collect(),
            opts: SolveOptions::default(),
            n: if tiny { 5_000 } else { 100_000 },
        }
    }
}

/// A counting [`Utility`] decorator: forwards every method to the wrapped
/// utility and counts `marginal_ratio` calls (one per Newton evaluation).
/// Solutions are bitwise identical to the undecorated solve.
#[derive(Debug)]
pub struct CountingUtility {
    inner: BoxedUtility,
    evals: Arc<AtomicU64>,
}

impl CountingUtility {
    /// Wraps `inner`, counting into `evals`.
    #[must_use]
    pub fn new(inner: BoxedUtility, evals: Arc<AtomicU64>) -> CountingUtility {
        CountingUtility { inner, evals }
    }
}

impl Utility for CountingUtility {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn value(&self, r: f64, c: f64) -> f64 {
        self.inner.value(r, c)
    }
    fn du_dr(&self, r: f64, c: f64) -> f64 {
        self.inner.du_dr(r, c)
    }
    fn du_dc(&self, r: f64, c: f64) -> f64 {
        self.inner.du_dc(r, c)
    }
    fn d2u_drr(&self, r: f64, c: f64) -> f64 {
        self.inner.d2u_drr(r, c)
    }
    fn d2u_dcc(&self, r: f64, c: f64) -> f64 {
        self.inner.d2u_dcc(r, c)
    }
    fn d2u_drc(&self, r: f64, c: f64) -> f64 {
        self.inner.d2u_drc(r, c)
    }
    fn marginal_ratio(&self, r: f64, c: f64) -> f64 {
        // A statistic only: it publishes no other data.
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.marginal_ratio(r, c)
    }
    fn dm_dr(&self, r: f64, c: f64) -> f64 {
        self.inner.dm_dr(r, c)
    }
    fn dm_dc(&self, r: f64, c: f64) -> f64 {
        self.inner.dm_dc(r, c)
    }
    fn clone_box(&self) -> BoxedUtility {
        Box::new(CountingUtility {
            inner: self.inner.clone_box(),
            evals: Arc::clone(&self.evals),
        })
    }
}

/// `classes` with every utility behind one shared [`CountingUtility`]
/// counter.
#[must_use]
pub fn counted(classes: &[ClassSpec], evals: &Arc<AtomicU64>) -> Vec<ClassSpec> {
    classes
        .iter()
        .map(|c| {
            ClassSpec::new(
                Box::new(CountingUtility::new(c.utility.clone(), Arc::clone(evals))),
                c.weight,
            )
        })
        .collect()
}

/// A [`Probe`] that timestamps every `MeanFieldSweep` event and notes
/// whether the sweep was an overload rescue (infinite residual).
#[derive(Debug)]
pub struct SweepClock {
    clock: ScopedTimer,
    /// `(time since the solve started, rescue?)` per sweep.
    pub marks: Vec<(Duration, bool)>,
}

impl SweepClock {
    /// A clock started now, at the solve's call.
    #[must_use]
    pub fn start() -> SweepClock {
        SweepClock {
            clock: ScopedTimer::start("solve"),
            marks: Vec::new(),
        }
    }
}

impl Probe for SweepClock {
    fn on_solver(&mut self, event: &SolverEvent) {
        if let SolverEvent::MeanFieldSweep { residual, .. } = event {
            self.marks
                .push((self.clock.elapsed(), residual.is_infinite()));
        }
    }
}

/// Checks a finite solution: converged, and its load within `10/N` of the
/// continuum reference (finite-`N` equilibria approach it at rate `1/N`).
///
/// # Errors
/// A description of the violated property.
pub fn check(sol: &FiniteSolution, reference: &MeanFieldSolution, n: usize) -> Result<(), String> {
    let err = (sol.load - reference.load).abs();
    if !sol.converged {
        Err(format!(
            "solve did not converge: {} sweeps, residual {:.3e}",
            sol.sweeps, sol.residual
        ))
    } else if err > 10.0 / n as f64 {
        Err(format!(
            "load {} vs mean-field {}: |err| {err:.3e} > 10/N",
            sol.load, reference.load
        ))
    } else {
        Ok(())
    }
}

fn fingerprint(sol: &FiniteSolution) -> (u32, u64, Vec<u64>) {
    (
        sol.sweeps,
        sol.load.to_bits(),
        sol.class_x.iter().map(|x| x.to_bits()).collect(),
    )
}

/// Measures a largen workload.
pub(crate) fn measure(
    workload: Workload,
    settings: &Settings,
    tally: &mut Tally,
    layers: &mut MetricSet,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let g = game(workload, settings.scale);
    let solve = |seed: u64, classes: &[ClassSpec], n: usize| {
        solve_finite_probed(g.disc, classes, n, seed, THREADS, &g.opts, &mut NoopProbe)
            .map_err(|e| e.to_string())
    };
    let mut mf_s = Vec::new();
    let ((classes, reference), setup_s) = median_setup(
        SETUP_REPS,
        || {
            let built = game(workload, settings.scale);
            let timer = ScopedTimer::start("mean-field");
            let reference = solve_mean_field(built.disc, &built.classes, &built.opts)
                .map_err(|e| e.to_string())?;
            mf_s.push(secs(&timer));
            solve(settings.seed, &built.classes, g.n / WARMUP_FRACTION)?;
            Ok((built.classes, reference))
        },
        |_| Ok(()),
    )?;

    let mut first = None;
    let pass_s = timed_passes(settings.seconds, tally, |pass, tally| {
        let timer = ScopedTimer::start("solve");
        let sol = solve(child_seed(settings.seed, pass), &classes, g.n)?;
        tally.op(secs(&timer) * 1e3, check(&sol, &reference, g.n));
        if pass == 0 {
            first = Some(fingerprint(&sol));
        }
        Ok(())
    })?;
    if !settings.trace {
        return Ok(Measured {
            setup_s,
            pass_s,
            traced_s: 0.0,
        });
    }

    // Traced pass: pass 0 again, counting Newton evaluations and
    // timestamping sweeps.
    let evals = Arc::new(AtomicU64::new(0));
    let traced_classes = counted(&classes, &evals);
    let root_start = spans.now_ns();
    let mut clock = SweepClock::start();
    let sol = solve_finite_probed(
        g.disc,
        &traced_classes,
        g.n,
        child_seed(settings.seed, 0),
        THREADS,
        &g.opts,
        &mut clock,
    )
    .map_err(|e| e.to_string())?;
    let traced_s = secs(&clock.clock);
    tally.op(traced_s * 1e3, check(&sol, &reference, g.n));
    tally.fail_on(if first == Some(fingerprint(&sol)) {
        Ok(())
    } else {
        Err("traced solve differs from the untraced solve".into())
    });

    let root = spans.record("largen.solve", 0, None, root_start, spans.now_ns());
    let at = |d: Duration| root_start + u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    let mut previous = Duration::ZERO;
    for (i, &(mark, _)) in clock.marks.iter().enumerate() {
        let name = if i == 0 {
            "largen.init+sweep"
        } else {
            "largen.sweep"
        };
        spans.record(name, root, None, at(previous), at(mark));
        previous = mark;
    }
    let last = clock.marks.last().map_or(Duration::ZERO, |m| m.0);
    spans.record(
        "largen.finalize",
        root,
        None,
        at(last),
        at(clock.clock.elapsed()),
    );

    let sweep_s: Vec<f64> = clock
        .marks
        .windows(2)
        .map(|w| (w[1].0 - w[0].0).as_secs_f64())
        .collect();
    let rescues = clock.marks.iter().filter(|m| m.1).count() as u64;
    let user_sweeps = g.n as f64 * f64::from(sol.sweeps).max(1.0);
    let evals = evals.load(Ordering::Relaxed) as f64;
    layers.set("largen.finite.sweeps", f64::from(sol.sweeps));
    layers.set("largen.finite.rescue_sweeps", rescues as f64);
    layers.set("largen.finite.sweep_s_mean", metrics::mean(&sweep_s));
    layers.set(
        "largen.finite.sweep_s_max",
        sweep_s.iter().copied().fold(0.0, f64::max),
    );
    layers.set(
        "largen.finite.init_s",
        clock.marks.first().map_or(0.0, |m| m.0.as_secs_f64()),
    );
    layers.set("largen.finite.finalize_s", traced_s - last.as_secs_f64());
    layers.set(
        "largen.finite.user_sweeps_per_s",
        user_sweeps / metrics::median(&pass_s),
    );
    layers.set("largen.finite.final_residual", sol.residual);
    layers.set("largen.finite.load", sol.load);
    layers.set("largen.kernel.newton_evals", evals);
    layers.set(
        "largen.kernel.newton_evals_per_user_sweep",
        evals / (g.n as f64 * (f64::from(sol.sweeps) - rescues as f64).max(1.0)),
    );
    layers.set(
        "largen.meanfield.load_err",
        (sol.load - reference.load).abs(),
    );
    layers.set("largen.meanfield.solve_s", metrics::median(&mf_s));
    Ok(Measured {
        setup_s,
        pass_s,
        traced_s,
    })
}
