//! The finite-`N` engine: every one of `N` users best-responds to the
//! previous sweep's population in a damped Jacobi iteration.
//!
//! Each sweep sums the load with the compensated `load_sum`, in user
//! index order, and rebuilds the population in place. A FIFO sweep
//! costs `O(N)`: its Φ reads only that load and each user's own rate. A
//! Fair Share/SFQ sweep costs `O(N log N)`: it sorts the population into
//! prefix sums and the sorted-prefix Φ profile, and each user's best
//! response searches it from that user's own rank, so a Newton probe `d`
//! ranks away costs `O(log d)`. The `N` best responses are sharded across
//! the deterministic pool in fixed-size chunks. Chunk boundaries never
//! depend on the thread count and the pool merges chunk results in task
//! order, so the solution is **bitwise identical** at any `--threads`.

use crate::kernel::{best_response_finite, load_sum, Population};
use crate::model::{apportion, validate, ClassSpec, LargenDiscipline, LargenError, SolveOptions};
use greednet_numerics::conv;
use greednet_runtime::{child_seed, parallel_map_indexed};
use greednet_telemetry::{NoopProbe, Probe, SolverEvent};

/// Fixed best-response chunk size. A constant (rather than `N/threads`)
/// keeps the work decomposition — and therefore every floating-point
/// reduction order — independent of the thread count.
const CHUNK: usize = 2048;

/// Default per-class initial scaled rate when `opts.init` is `None`.
const DEFAULT_INIT: f64 = 0.25;

/// Residual ratio above which a sweep counts as stalled.
const STALL_CONTRACTION: f64 = 0.97;

/// Consecutive stalled sweeps before the damping is adjusted.
const STALL_PATIENCE: u32 = 4;

/// Damping floor — deep enough for best-response slopes of order
/// `w/γ ~ 10^5` (the heavy-traffic regime of experiment E18).
const MIN_DAMPING: f64 = 1e-6;

/// A converged (or best-effort) finite-`N` equilibrium, reduced to
/// per-class summaries.
#[derive(Debug, Clone)]
pub struct FiniteSolution {
    /// Mean scaled rate `x = N·r` per class.
    pub class_x: Vec<f64>,
    /// Mean scaled congestion `Φ = N·C` per class (infinite if the
    /// class is drowned by an overloaded allocation).
    pub class_phi: Vec<f64>,
    /// Users apportioned to each class (sums to `n`).
    pub class_counts: Vec<u64>,
    /// Aggregate offered load `R = (1/N)·Σ x_i` at the final iterate.
    pub load: f64,
    /// Jacobi sweeps performed.
    pub sweeps: u32,
    /// Final max best-response deviation `max_i |BR_i − x_i|`.
    pub residual: f64,
    /// Whether `residual < opts.tol` within the sweep budget.
    pub converged: bool,
}

/// Solves the finite-`N` game without instrumentation.
///
/// # Errors
///
/// Returns [`LargenError`] when the classes/options fail validation or
/// `n == 0`.
pub fn solve_finite(
    disc: LargenDiscipline,
    classes: &[ClassSpec],
    n: usize,
    seed: u64,
    threads: usize,
    opts: &SolveOptions,
) -> Result<FiniteSolution, LargenError> {
    solve_finite_probed(disc, classes, n, seed, threads, opts, &mut NoopProbe)
}

/// [`solve_finite`] with a telemetry probe observing one
/// [`SolverEvent::MeanFieldSweep`] per Jacobi sweep.
///
/// # Errors
///
/// Returns [`LargenError`] when the classes/options fail validation or
/// `n == 0`.
#[expect(
    clippy::too_many_lines,
    reason = "one solve: setup, the damped sweep loop and finalize share buffers and controller state"
)]
pub fn solve_finite_probed<P: Probe>(
    disc: LargenDiscipline,
    classes: &[ClassSpec],
    n: usize,
    seed: u64,
    threads: usize,
    opts: &SolveOptions,
    probe: &mut P,
) -> Result<FiniteSolution, LargenError> {
    let weights = validate(classes, opts)?;
    if n == 0 {
        return Err(LargenError::ZeroUsers);
    }
    let counts = apportion(conv::index_to_u64(n), &weights);
    // Cumulative class ends: user i belongs to the first class whose end
    // exceeds i.
    let mut ends = Vec::with_capacity(counts.len());
    let mut acc = 0u64;
    for &c in &counts {
        acc += c;
        ends.push(acc);
    }
    let class_of = |i: usize| ends.partition_point(|&e| e <= conv::index_to_u64(i));

    let init: Vec<f64> = match &opts.init {
        Some(v) => v.clone(),
        None => vec![DEFAULT_INIT; classes.len()],
    };
    // A jittered start past f64::MAX would turn NaN at the overload rescue.
    for (c, &x) in init.iter().enumerate() {
        if !(x * (1.0 + opts.jitter)).is_finite() {
            return Err(LargenError::BadInit(format!(
                "class {c} init {x:e} overflows under jitter {}",
                opts.jitter
            )));
        }
    }
    let inv_n = 1.0 / n as f64;
    // Jittered start: a per-user multiplicative perturbation from the
    // user's own seed stream, so convergence to a jitter-independent
    // fixed point is exercised on every run.
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let z = child_seed(seed, conv::index_to_u64(i));
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            init[class_of(i)] * (1.0 + opts.jitter * (2.0 * u - 1.0))
        })
        .collect();

    let mut pop = Population::default();

    let chunks = n.div_ceil(CHUNK);
    let inner_tol = opts.tol * 1e-2;
    let self_mass = inv_n;
    let mut damping = opts.damping;
    let mut best_residual = f64::INFINITY;
    let mut stalls = 0u32;
    let mut flips = 0u32;
    let mut oks = 0u32;
    let mut prev_dir: Option<bool> = None;
    let mut sweeps = 0u32;
    let mut residual = f64::INFINITY;
    let mut converged = false;

    while sweeps < opts.max_sweeps {
        let pre_load = load_sum(&x, |_| inv_n);
        if pre_load >= 1.0 {
            // Overload rescue (mirrors the continuum solver): a Jacobi
            // sweep where everyone chases a large best response at once
            // can overshoot capacity, where the congestion profiles go
            // infinite. Scale the profile back under capacity; it counts
            // as a sweep *and* as an oscillating stall, since the
            // overshoot is direct evidence the damping is too hot.
            let shrink = 0.9 / pre_load;
            for v in &mut x {
                *v *= shrink;
            }
            sweeps += 1;
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
                probe.on_solver(&SolverEvent::MeanFieldSweep {
                    sweep: u64::from(sweeps),
                    users: conv::index_to_u64(n),
                    residual: f64::INFINITY,
                    load: pre_load,
                });
            }
            continue;
        }

        pop.rebuild(disc, &x, |_| inv_n, pre_load);

        // Best responses, sharded in fixed chunks; results merge in
        // chunk order so the reduction below is thread-invariant.
        let br_chunks: Vec<Vec<f64>> = {
            let pop = &pop;
            parallel_map_indexed(threads, chunks, move |c| {
                let lo = c * CHUNK;
                let hi = (lo + CHUNK).min(n);
                (lo..hi)
                    .map(|i| {
                        best_response_finite(
                            disc,
                            pop,
                            classes[class_of(i)].utility.as_ref(),
                            i,
                            self_mass,
                            inner_tol,
                        )
                    })
                    .collect()
            })
        };

        residual = 0.0;
        let mut drift = 0.0;
        let mut idx = 0usize;
        for chunk in &br_chunks {
            for &br in chunk {
                let dev = (br - x[idx]).abs();
                if dev > residual {
                    residual = dev;
                }
                drift += br - x[idx];
                x[idx] += damping * (br - x[idx]);
                idx += 1;
            }
        }
        sweeps += 1;

        if P::ENABLED {
            probe.on_solver(&SolverEvent::MeanFieldSweep {
                sweep: u64::from(sweeps),
                users: conv::index_to_u64(n),
                residual,
                load: pop.total_load(),
            });
        }

        if residual < opts.tol {
            converged = true;
            break;
        }
        // Stall-based damping control. A stall = failing to beat the best
        // residual so far by 3% (best-so-far, not previous-step: limit
        // cycles dip below their own previous step without progressing).
        // The *sign* of the aggregate drift Σ(BR_i − x_i) separates the
        // two ways to stall: oscillation/divergence flips it sweep to
        // sweep (damping too hot for the best-response slope → halve),
        // slow monotone creep keeps it (damping too cold, usually from
        // earlier halving → grow back toward the configured value).
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

    // Final per-class summaries at the last iterate (Φ recomputed so it
    // matches the reported rates, not the pre-update profile).
    pop.rebuild(disc, &x, |_| inv_n, load_sum(&x, |_| inv_n));

    let k = classes.len();
    let mut class_x = vec![0.0; k];
    let mut class_phi = vec![0.0; k];
    for (i, &xi) in x.iter().enumerate() {
        let c = class_of(i);
        class_x[c] += xi;
        class_phi[c] += pop.phi(i);
    }
    for c in 0..k {
        if counts[c] > 0 {
            let m = counts[c] as f64;
            class_x[c] /= m;
            class_phi[c] /= m;
        }
    }

    Ok(FiniteSolution {
        class_x,
        class_phi,
        class_counts: counts,
        load: pop.total_load(),
        sweeps,
        residual,
        converged,
    })
}
