//! The continuum (mean-field) fixed point: `K` utility classes, each a
//! mass `w_c` of identical users playing one scaled rate against the
//! aggregate.
//!
//! This is the `N → ∞` limit of the finite engine: the deviator has
//! measure zero (`self_mass = 0` in the shared kernel), so its deviation
//! moves no aggregate and its best response has no capacity cap. The
//! iteration is damped Jacobi with two safety valves: an overload rescue
//! (rescale the profile back under capacity) and bidirectional stall
//! control — halve the damping when the stalled updates oscillate, grow
//! it back when they creep monotonically — with a floor deep enough
//! (`10^-6`) to stabilize heavy-traffic best-response slopes of order
//! `w/γ` (experiment E18).

use crate::kernel::{best_response_continuum, load_sum, Population};
use crate::model::{validate, ClassSpec, LargenDiscipline, LargenError, SolveOptions};
use greednet_numerics::conv;
use greednet_telemetry::{NoopProbe, Probe, SolverEvent};

/// Default per-class initial scaled rate when `opts.init` is `None`.
const DEFAULT_INIT: f64 = 0.25;

/// Residual ratio above which a step counts as stalled (overload
/// rescues always count).
const STALL_CONTRACTION: f64 = 0.97;

/// Consecutive stalled steps before the damping is adjusted.
const STALL_PATIENCE: u32 = 4;

/// Damping floor for the stall-based halving.
const MIN_DAMPING: f64 = 1e-6;

/// A continuum equilibrium profile.
#[derive(Debug, Clone)]
pub struct MeanFieldSolution {
    /// Scaled rate `x_c` per class.
    pub x: Vec<f64>,
    /// Scaled congestion `Φ_c` per class.
    pub phi: Vec<f64>,
    /// Aggregate offered load `R = Σ w_c·x_c`.
    pub load: f64,
    /// Fixed-point steps performed (across all damping attempts).
    pub steps: u32,
    /// Final max best-response deviation `max_c |BR_c − x_c|`.
    pub residual: f64,
    /// Whether `residual < opts.tol` within the attempt budget.
    pub converged: bool,
}

/// Solves the `K`-class mean-field game without instrumentation.
///
/// # Errors
///
/// Returns [`LargenError`] on invalid classes/options, or
/// [`LargenError::Unbounded`] when a class best response diverges (its
/// utility rewards rate faster than the discipline charges for it).
pub fn solve_mean_field(
    disc: LargenDiscipline,
    classes: &[ClassSpec],
    opts: &SolveOptions,
) -> Result<MeanFieldSolution, LargenError> {
    solve_mean_field_probed(disc, classes, opts, &mut NoopProbe)
}

/// [`solve_mean_field`] with a telemetry probe observing one
/// [`SolverEvent::FixedPointStep`] per iteration.
///
/// # Errors
///
/// Returns [`LargenError`] on invalid classes/options or an unbounded
/// class best response.
pub fn solve_mean_field_probed<P: Probe>(
    disc: LargenDiscipline,
    classes: &[ClassSpec],
    opts: &SolveOptions,
    probe: &mut P,
) -> Result<MeanFieldSolution, LargenError> {
    let weights = validate(classes, opts)?;
    let k = classes.len();
    let mut x: Vec<f64> = match &opts.init {
        Some(v) => v.clone(),
        None => vec![DEFAULT_INIT; k],
    };

    let mut pop = Population::default();
    let mut br: Vec<f64> = vec![0.0; k];

    let inner_tol = opts.tol * 1e-2;
    let mut damping = opts.damping;
    let mut best_residual = f64::INFINITY;
    let mut stalls = 0u32;
    let mut flips = 0u32;
    let mut oks = 0u32;
    let mut prev_dir: Option<bool> = None;
    let mut steps = 0u32;
    let mut residual = f64::INFINITY;
    let mut converged = false;

    while steps < opts.max_sweeps {
        let total_load = load_sum(&x, |c| weights[c]);
        if total_load >= 1.0 {
            // Overload rescue: scale the whole profile back under
            // capacity. It counts as a step *and* as a stall — an
            // overshoot past capacity is direct evidence the damping is
            // too aggressive for the local best-response slope.
            let shrink = 0.9 / total_load;
            for v in &mut x {
                *v *= shrink;
            }
            steps += 1;
            stalls += 1;
            flips += 1;
            oks = 0;
            if stalls >= STALL_PATIENCE {
                damping = (damping * 0.5).max(MIN_DAMPING);
                stalls = 0;
                flips = 0;
            }
            prev_dir = Some(false);
            if P::ENABLED {
                probe.on_solver(&SolverEvent::FixedPointStep {
                    step: u64::from(steps),
                    classes: conv::index_to_u64(k),
                    residual: f64::INFINITY,
                    load: total_load,
                });
            }
            continue;
        }

        pop.rebuild(disc, &x, |c| weights[c], total_load);
        for c in 0..k {
            br[c] = best_response_continuum(disc, &pop, classes[c].utility.as_ref(), c, inner_tol)
                .ok_or(LargenError::Unbounded { class: c })?;
        }

        residual = 0.0;
        let mut drift = 0.0;
        for c in 0..k {
            let dev = (br[c] - x[c]).abs();
            if dev > residual {
                residual = dev;
            }
            drift += weights[c] * (br[c] - x[c]);
            x[c] += damping * (br[c] - x[c]);
        }
        steps += 1;
        if P::ENABLED {
            probe.on_solver(&SolverEvent::FixedPointStep {
                step: u64::from(steps),
                classes: conv::index_to_u64(k),
                residual,
                load: total_load,
            });
        }
        if residual < opts.tol {
            converged = true;
            break;
        }
        // Best-so-far comparison (not previous-step): limit cycles dip
        // below their own previous step without ever making progress.
        // The sign of the aggregate drift Σ w_c·(BR_c − x_c) separates
        // the two ways to stall: oscillation flips it step to step
        // (damping too hot → halve), monotone creep keeps it (damping
        // too cold, usually from earlier halving → grow back toward the
        // configured value).
        let dir = drift > 0.0;
        if residual > STALL_CONTRACTION * best_residual {
            stalls += 1;
            oks = 0;
            if prev_dir.is_some_and(|p| p != dir) {
                flips += 1;
            }
            if stalls >= STALL_PATIENCE {
                if flips * 2 >= stalls {
                    damping = (damping * 0.5).max(MIN_DAMPING);
                } else {
                    damping = (damping * 2.0).min(opts.damping);
                }
                stalls = 0;
                flips = 0;
            }
        } else {
            stalls = 0;
            flips = 0;
            // Upward probing: sustained progress at a previously-halved
            // damping means the stable band may sit higher — try it. An
            // overshoot just re-triggers the oscillation rule above, so
            // the controller hovers around the fastest stable damping
            // instead of crawling at the stall bar's contraction rate.
            oks += 1;
            if oks >= STALL_PATIENCE && damping < opts.damping {
                damping = (damping * 2.0).min(opts.damping);
                oks = 0;
            }
        }
        prev_dir = Some(dir);
        best_residual = best_residual.min(residual);
    }

    // Report Φ at the final profile so (x, Φ, load) are consistent.
    pop.rebuild(disc, &x, |c| weights[c], load_sum(&x, |c| weights[c]));
    Ok(MeanFieldSolution {
        phi: (0..k).map(|c| pop.phi(c)).collect(),
        x,
        load: pop.total_load(),
        steps,
        residual,
        converged,
    })
}
