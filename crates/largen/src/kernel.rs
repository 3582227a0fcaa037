//! Shared numeric kernels: the sorted population both solvers play
//! against, the deviator's congestion slope per discipline, and the
//! safeguarded Newton/bisection inner solve.
//!
//! Both solvers summarize the opposing population the same way — one
//! [`Population`] of scaled rates sorted ascending with cumulative
//! masses, mass-weighted loads and Φ by rank, rebuilt in place every
//! sweep — so one kernel serves the finite-`N` engine (uniform masses
//! `1/N`, self-exclusion, capacity cap) and the continuum fixed point
//! (class masses `w_c`, measure-zero deviator) alike. A best response
//! names its deviator by member index; the Fair Share/SFQ slope searches
//! the sorted rates from that member's own rank, so a Newton probe `d`
//! ranks away costs `O(log d)` and a probe outside the population `O(1)`.

use crate::model::{LargenDiscipline, SFQ_BETA};
use greednet_core::utility::Utility;
use greednet_queueing::mm1::{g, g_double_prime, g_prime};

/// The previous iterate's population in sorted order, in buffers reused
/// across sweeps.
///
/// `order[r]` is the member at rank `r` (ascending scaled rate, ties in
/// index order) and `rank_of` its inverse; `cum_mass[k]` / `cum_load[k]`
/// are the total mass and mass-weighted scaled load of the first `k`
/// ranks (so index `n` holds the totals); `phi_by_rank[r]` is the scaled
/// congestion `Φ` of rank `r` at the aggregate offered load `total_load`.
#[derive(Default)]
pub(crate) struct Population {
    order: Vec<usize>,
    rank_of: Vec<usize>,
    sorted_x: Vec<f64>,
    cum_mass: Vec<f64>,
    cum_load: Vec<f64>,
    phi_by_rank: Vec<f64>,
    total_load: f64,
}

impl Population {
    /// Rebuilds the summary of scaled rates `x` with member masses
    /// `mass(i)`. `Φ` is evaluated at `total_load` when the caller has
    /// already summed the load in its own order, else at the sorted
    /// total `cum_load[n]`.
    // gn:hot(amortized)
    pub(crate) fn rebuild(
        &mut self,
        disc: LargenDiscipline,
        x: &[f64],
        mass: impl Fn(usize) -> f64,
        total_load: Option<f64>,
    ) {
        let n = x.len();
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
        self.sorted_x.clear();
        self.sorted_x.extend(self.order.iter().map(|&i| x[i]));
        self.rank_of.resize(n, 0);
        self.cum_mass.clear();
        self.cum_mass.resize(n + 1, 0.0);
        self.cum_load.clear();
        self.cum_load.resize(n + 1, 0.0);
        for (rank, &i) in self.order.iter().enumerate() {
            self.rank_of[i] = rank;
            let m = mass(i);
            self.cum_mass[rank + 1] = self.cum_mass[rank] + m;
            self.cum_load[rank + 1] = self.cum_load[rank] + self.sorted_x[rank] * m;
        }
        self.total_load = total_load.unwrap_or(self.cum_load[n]);
        phi_sorted(
            disc,
            &self.sorted_x,
            &self.cum_mass,
            &self.cum_load,
            self.total_load,
            &mut self.phi_by_rank,
        );
    }

    /// The aggregate offered load `R` the profile was evaluated at.
    pub(crate) fn total_load(&self) -> f64 {
        self.total_load
    }

    /// Scaled congestion `Φ` of member `i`.
    pub(crate) fn phi(&self, i: usize) -> f64 {
        self.phi_by_rank[self.rank_of[i]]
    }

    /// Mass and load of members with scaled rate strictly below `x`,
    /// searched from rank `*finger` (see [`rank_below`]).
    /// Strict inequality makes the serialized load tie-invariant: members
    /// tied with the deviator are clamped at `x` either way.
    fn below(&self, x: f64, finger: &mut usize) -> (f64, f64) {
        let k = rank_below(&self.sorted_x, x, finger);
        (self.cum_mass[k], self.cum_load[k])
    }
}

/// `sorted.partition_point(|&v| v < x)` for a NaN-free slice in
/// ascending order, searched from rank `*finger`.
///
/// A probe at or below the first member (NaN included) or above the last
/// is answered in `O(1)` and leaves the finger alone: best responses
/// probe `X_FLOOR` and the capacity cap before Newton starts. Any other
/// probe gallops outward from the finger (clamped into the slice),
/// binary-searches the bracket it finds and moves the finger to its
/// answer, so it costs `O(log d)` for an answer `d` ranks away.
// gn:hot
fn rank_below(sorted: &[f64], x: f64, finger: &mut usize) -> usize {
    let n = sorted.len();
    // A NaN probe fails this comparison too and lands at 0.
    if !sorted.first().is_some_and(|&first| first < x) {
        return 0;
    }
    if x > sorted[n - 1] {
        return n;
    }
    // Now sorted[0] < x <= sorted[n - 1]; find lo <= hi with
    // sorted[lo - 1] < x <= sorted[hi], so the answer lies in lo..=hi.
    let f = (*finger).min(n - 1);
    let mut step = 1;
    let (lo, hi) = if sorted[f] < x {
        let mut lo = f + 1;
        while f + step < n - 1 && sorted[f + step] < x {
            lo = f + step + 1;
            step *= 2;
        }
        (lo, (f + step).min(n - 1))
    } else {
        let mut hi = f;
        while step < f && sorted[f - step] >= x {
            hi = f - step;
            step *= 2;
        }
        (f.saturating_sub(step) + 1, hi)
    };
    let k = lo + sorted[lo..hi].partition_point(|&v| v < x);
    *finger = k;
    k
}

/// First and second derivatives of the deviator's scaled congestion
/// `Φ(x)` when it plays `x` against the frozen population.
///
/// `self_mass` is the deviator's own population mass: `1/N` in the
/// finite engine (its deviation moves the aggregate, and its previous
/// rate `self_prev` must be excluded from the opposing population) and
/// `0` in the continuum (a measure-zero deviation leaves every aggregate
/// untouched, and the exclusion terms vanish identically). `finger` is
/// the rank the Fair Share/SFQ search for `x` starts from.
// gn:hot
fn phi_slope(
    disc: LargenDiscipline,
    pop: &Population,
    x: f64,
    finger: &mut usize,
    self_prev: f64,
    self_mass: f64,
) -> (f64, f64) {
    match disc {
        LargenDiscipline::Fifo => {
            // Φ(x) = x/(1−R(x)) with R(x) = R_others + self_mass·x.
            let r = pop.total_load - self_mass * self_prev + self_mass * x;
            if r >= 1.0 {
                return (f64::INFINITY, f64::INFINITY);
            }
            let om = 1.0 - r;
            let d1 = 1.0 / om + self_mass * x / (om * om);
            let d2 = 2.0 * self_mass / (om * om) + 2.0 * self_mass * self_mass * x / (om * om * om);
            (d1, d2)
        }
        LargenDiscipline::FairShare | LargenDiscipline::Sfq => {
            // dΦ/dx = g'(s(x)) with the serialized load
            // s(x) = load_below + (1 − mass_below)·x  (everyone at or
            // above the deviator clamped down to x).
            let (mut mb, mut lb) = pop.below(x, finger);
            if self_prev < x {
                mb -= self_mass;
                lb -= self_mass * self_prev;
            }
            let s = lb + (1.0 - mb) * x;
            let mut d1 = g_prime(s);
            let d2 = g_double_prime(s) * (1.0 - mb);
            if disc == LargenDiscipline::Sfq {
                d1 += SFQ_BETA;
            }
            (d1, d2)
        }
    }
}

/// Scaled congestion `Φ` of every population member, in sorted order.
///
/// Fair Share uses the serial recursion on mass-weighted serialized loads
/// `S_k = load_below(k) + W_k·x_(k)` (with `W_k` the mass at or above
/// member `k`): `Φ_(k) = Φ_(k-1) + (g(S_k) − g(S_{k-1})) / W_k` — the
/// mass-measure generalization of the sorted-prefix evaluation in
/// `greednet_queueing::fair_share`. Members whose serialized subsystem is
/// overloaded (`S_k ≥ 1`) get `+∞`, as do all heavier members.
// gn:hot(amortized)
fn phi_sorted(
    disc: LargenDiscipline,
    sorted_x: &[f64],
    cum_mass: &[f64],
    cum_load: &[f64],
    total_load: f64,
    out: &mut Vec<f64>,
) {
    let n = sorted_x.len();
    out.clear();
    out.reserve(n);
    match disc {
        LargenDiscipline::Fifo => {
            if total_load >= 1.0 {
                out.resize(n, f64::INFINITY);
            } else {
                let om = 1.0 - total_load;
                out.extend(sorted_x.iter().map(|&x| x / om));
            }
        }
        LargenDiscipline::FairShare | LargenDiscipline::Sfq => {
            let mut phi_prev = 0.0;
            let mut s_prev = 0.0;
            for k in 0..n {
                let w_rem = 1.0 - cum_mass[k];
                let s_k = cum_load[k] + w_rem * sorted_x[k];
                let phik = if s_k >= 1.0 {
                    f64::INFINITY
                } else {
                    phi_prev + (g(s_k) - g(s_prev)) / w_rem
                };
                out.push(phik);
                phi_prev = phik;
                s_prev = s_k;
                if phik.is_infinite() {
                    out.resize(n, f64::INFINITY);
                    break;
                }
            }
            if disc == LargenDiscipline::Sfq {
                for (p, &x) in out.iter_mut().zip(sorted_x.iter()) {
                    *p += SFQ_BETA * x;
                }
            }
        }
    }
}

/// Safeguarded Newton on an increasing function with a validated bracket
/// `F(lo) < 0 < F(hi)`: Newton proposals are accepted only inside the
/// shrinking bracket, otherwise the step falls back to bisection, so the
/// iteration is unconditionally convergent and fully deterministic.
// gn:hot
pub(crate) fn solve_increasing<F: FnMut(f64) -> (f64, f64)>(
    mut eval: F,
    mut lo: f64,
    mut hi: f64,
    x0: f64,
    tol: f64,
) -> f64 {
    let mut x = x0.clamp(lo, hi);
    for _ in 0..100 {
        let (f, fp) = eval(x);
        if f > 0.0 {
            hi = x;
        } else if f < 0.0 {
            lo = x;
        } else {
            return x;
        }
        let newton = x - f / fp;
        x = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if hi - lo <= tol * (1.0 + x.abs()) {
            return x;
        }
    }
    x
}

/// Smallest scaled rate a best response considers (below this the first
/// derivative condition is treated as cornered at zero).
const X_FLOOR: f64 = 1e-12;

/// The finite-`N` best response of member `i`: the deviator (mass `1/N`)
/// re-optimizes its scaled rate against the frozen population, with its
/// congestion sensitivity `M` evaluated at the previous sweep's `Φ`
/// (exact at the fixed point). The response is capped at the residual
/// capacity `(1 − R_others)·N`, where both FIFO and the serial
/// disciplines saturate.
// gn:hot
pub(crate) fn best_response_finite(
    disc: LargenDiscipline,
    pop: &Population,
    utility: &dyn Utility,
    i: usize,
    self_mass: f64,
    tol: f64,
) -> f64 {
    let mut finger = pop.rank_of[i];
    let (self_prev, phi_frozen) = (pop.sorted_x[finger], pop.phi_by_rank[finger]);
    let load_others = pop.total_load - self_mass * self_prev;
    let cap = (1.0 - load_others) / self_mass;
    if cap <= X_FLOOR {
        return 0.0;
    }
    let mut eval = |x: f64| {
        let (d1, d2) = phi_slope(disc, pop, x, &mut finger, self_prev, self_mass);
        (
            utility.marginal_ratio(x, phi_frozen) + d1,
            utility.dm_dr(x, phi_frozen) + d2,
        )
    };
    let hi = cap * (1.0 - 1e-9);
    let (f_lo, _) = eval(X_FLOOR);
    if f_lo >= 0.0 || f_lo.is_nan() {
        return 0.0;
    }
    let (f_hi, _) = eval(hi);
    if f_hi <= 0.0 {
        // Capacity-clamped: the damped outer iteration pulls the
        // aggregate back under control on the next sweep.
        return hi;
    }
    solve_increasing(eval, X_FLOOR, hi, self_prev, tol)
}

/// The continuum best response of class `i`: a measure-zero deviator
/// re-optimizes against the fixed aggregate. There is no capacity cap —
/// the bracket grows by doubling — so a utility that outruns the
/// discipline's marginal congestion forever yields `None` (an unbounded
/// best response, surfaced as an error by the fixed-point solver).
// gn:hot
pub(crate) fn best_response_continuum(
    disc: LargenDiscipline,
    pop: &Population,
    utility: &dyn Utility,
    i: usize,
    tol: f64,
) -> Option<f64> {
    let mut finger = pop.rank_of[i];
    let (self_prev, phi_frozen) = (pop.sorted_x[finger], pop.phi_by_rank[finger]);
    let mut eval = |x: f64| {
        let (d1, d2) = phi_slope(disc, pop, x, &mut finger, self_prev, 0.0);
        (
            utility.marginal_ratio(x, phi_frozen) + d1,
            utility.dm_dr(x, phi_frozen) + d2,
        )
    };
    let (f_lo, _) = eval(X_FLOOR);
    if f_lo >= 0.0 || f_lo.is_nan() {
        return Some(0.0);
    }
    let mut hi = (2.0 * self_prev).max(1.0);
    let mut bracketed = false;
    for _ in 0..64 {
        let (f_hi, _) = eval(hi);
        if f_hi > 0.0 {
            bracketed = true;
            break;
        }
        hi *= 2.0;
    }
    if !bracketed {
        return None;
    }
    Some(solve_increasing(eval, X_FLOOR, hi, self_prev, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_core::utility::LogUtility;
    use proptest::prelude::*;

    fn population(disc: LargenDiscipline, x: &[f64], mass: f64) -> Population {
        let mut pop = Population::default();
        pop.rebuild(disc, x, |_| mass, None);
        pop
    }

    #[test]
    fn fifo_slope_matches_closed_form() {
        // Two continuum classes at x = 0.3, 0.4 with masses 0.5/0.5:
        // R = 0.35, dΦ/dx = 1/(1−R), d² = 0 for a measure-zero deviator.
        let pop = population(LargenDiscipline::Fifo, &[0.3, 0.4], 0.5);
        let (d1, d2) = phi_slope(LargenDiscipline::Fifo, &pop, 0.7, &mut 0, 0.3, 0.0);
        assert!((d1 - 1.0 / 0.65).abs() < 1e-12);
        assert_eq!(d2, 0.0);
    }

    #[test]
    fn serial_slope_is_g_prime_of_clamped_load() {
        // Deviator at x between the two classes: s = w1·x1 + (1−w1)·x.
        let pop = population(LargenDiscipline::FairShare, &[0.2, 0.6], 0.5);
        let x = 0.4;
        let s = 0.1 + 0.5 * x;
        let (d1, _) = phi_slope(LargenDiscipline::FairShare, &pop, x, &mut 1, 0.6, 0.0);
        assert!((d1 - g_prime(s)).abs() < 1e-12);
        // SFQ adds the packetization slack.
        let (d1_sfq, _) = phi_slope(LargenDiscipline::Sfq, &pop, x, &mut 1, 0.6, 0.0);
        assert!((d1_sfq - (g_prime(s) + SFQ_BETA)).abs() < 1e-12);
    }

    #[test]
    fn phi_sorted_matches_queueing_fair_share_at_uniform_mass() {
        // Uniform masses 1/n reduce the mass recursion to the per-user
        // serial recursion: Φ_i must equal n·C_i from the queueing crate.
        use greednet_queueing::{AllocationFunction, FairShare};
        let x = [0.9, 0.3, 0.6, 0.3];
        let nf = x.len() as f64;
        let rates: Vec<f64> = x.iter().map(|&v| v / nf).collect();
        let c = FairShare::new().congestion(&rates);
        let pop = population(LargenDiscipline::FairShare, &x, 1.0 / nf);
        for (i, &ci) in c.iter().enumerate() {
            assert!(
                (pop.phi(i) - nf * ci).abs() < 1e-9,
                "user {i}: {} vs {}",
                pop.phi(i),
                nf * ci
            );
        }
    }

    #[test]
    fn solve_increasing_finds_the_root() {
        // F(x) = x² − 2 on [0, 4]: root √2, derivative 2x.
        let eval = |x: f64| (x * x - 2.0, 2.0 * x);
        let root = solve_increasing(eval, 0.0, 4.0, 3.5, 1e-14);
        assert!((root - 2.0f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn continuum_fifo_log_best_response_is_closed_form() {
        // −w/(γx) + 1/(1−R) = 0  ⇒  x* = (w/γ)(1−R).
        let u = LogUtility::new(0.8, 1.0);
        let pop = population(LargenDiscipline::Fifo, &[0.5], 1.0);
        let x =
            best_response_continuum(LargenDiscipline::Fifo, &pop, &u, 0, 1e-14).expect("bounded");
        assert!((x - 0.8 * 0.5).abs() < 1e-10, "{x}");
    }

    /// Values with edges of their own: infinities, signed zeros, and a
    /// short grid that repeats into runs of ties.
    const EDGES: [f64; 7] = [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 0.5, 1.0, f64::INFINITY];

    /// A sorted slice of up to 40 values, each an edge value or an
    /// arbitrary one; empty slices included.
    fn sorted_slice() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0..EDGES.len() + 3, -2.0..2.0f64), 0..40).prop_map(|picks| {
            let mut v: Vec<f64> = picks
                .into_iter()
                .map(|(k, r)| EDGES.get(k).copied().unwrap_or(r))
                .collect();
            v.sort_by(f64::total_cmp);
            v
        })
    }

    proptest! {
        #[test]
        fn rank_below_is_partition_point_from_any_finger(
            sorted in sorted_slice(),
            (pick, at, r) in (0usize..9, 0usize..64, -3.0..3.0f64),
        ) {
            let n = sorted.len();
            let x = match pick {
                0 => f64::NAN,
                1 => f64::NEG_INFINITY,
                2 => f64::INFINITY,
                3 => sorted.first().map_or(r, |&v| v - 1.0),
                4 => sorted.last().map_or(r, |&v| v + 1.0),
                5 | 6 if n > 0 => sorted[at % n],
                _ => r,
            };
            let want = sorted.partition_point(|&v| v < x);
            for hint in 0..=n + 2 {
                let mut finger = hint;
                let k = rank_below(&sorted, x, &mut finger);
                prop_assert!(k == want, "x {x}, hint {hint}: {k} vs {want} in {sorted:?}");
                // Only a probe strictly inside the population moves the finger.
                let moved = if (1..n).contains(&want) { want } else { hint };
                prop_assert!(finger == moved, "x {x}, hint {hint}: finger {finger}");
            }
        }
    }
}
