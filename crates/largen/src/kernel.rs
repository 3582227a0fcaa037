//! Shared numeric kernels: the load accumulator, the population both
//! solvers play against, the deviator's congestion slope per discipline,
//! and the safeguarded Newton/bisection inner solve.
//!
//! Both solvers summarize the opposing population the same way — one
//! [`Population`] rebuilt in place every sweep — so one kernel serves the
//! finite-`N` engine (uniform masses `1/N`, self-exclusion, capacity cap)
//! and the continuum fixed point (class masses `w_c`, measure-zero
//! deviator) alike. Every N-term load, the population's total included,
//! is one [`load_sum`], whose bits do not depend on the order of the
//! terms. FIFO reads only that total and each member's own rate, so its
//! population is built in `O(N)` without a sort. Fair Share/SFQ sort the
//! scaled rates with cumulative masses, loads and Φ by rank; a best
//! response names its deviator by member index, and their slope searches
//! the sorted rates from that member's own rank, so a Newton probe `d`
//! ranks away costs `O(log d)` and a probe outside the population `O(1)`.
//!
//! Both best responses run one Newton loop, [`solve_increasing`]. It
//! evaluates a bracket end only when no iterate has shown that end's
//! sign, and it stops on a converged Newton step.

use crate::model::{LargenDiscipline, SFQ_BETA};
use greednet_core::utility::Utility;
use greednet_queueing::mm1::{g, g_double_prime, g_prime};

/// Independent partial sums per bin of [`load_sum`], so the additions of
/// neighbouring terms overlap.
const LANES: usize = 4;

/// Bins of [`load_sum`], each grid `2^(54−L)` finer than the last.
const BINS: usize = 3;

/// `2^e` for a normal exponent `e`.
const fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023).unsigned_abs() as u64) << 52)
}

/// Bins reach `2·top·2^L`, so a top with `top·2^L ≥ 2^1000` is binned
/// scaled down by [`SHRINK`] to keep every bin and splitter finite.
const HUGE: f64 = pow2(1000);

/// The scale-down for huge tops: exact, except that a term it takes
/// below `2^-1022` loses bits by its own value alone.
const SHRINK: f64 = pow2(-128);

/// `Σ x_i·mass(i)`, rounded once from an exact sum of its binned terms,
/// so the bits do not depend on the order of the terms.
///
/// A first pass finds the largest |term|, below `2^E`. That top and
/// `N ≤ 2^L` alone fix the grids of [`BINS`] bins: `u_1 = 2^(E+L−53)`
/// and each next grid `2^(54−L)` finer, so that `N` terms rounded to a
/// grid add up exactly in one f64. The second pass deposits each term
/// bin by bin: bin `k` takes what is left of the term rounded to `u_k`,
/// `(t + C_k) − C_k` with `C_k = 1.5·2^52·u_k`, which depends on that
/// term alone. The lanes and bins are added exactly, and the bins'
/// total is rounded once. The bins hold every term, so the result is
/// the correctly rounded sum, when the nonzero terms span at most
/// `108 − 3L` binades (69 at `N ≤ 8192`, 48 at `N = 10^6`; subnormals
/// count as the lowest normal binade); otherwise each term drops its
/// bits below `u_3`. No allocation, and no float→int conversion per
/// term.
///
/// An infinite or NaN term propagates as it does in a plain sum.
// gn:hot
pub(crate) fn load_sum(x: &[f64], mass: impl Fn(usize) -> f64) -> f64 {
    let term = |i: usize, v: f64| v * mass(i);
    let mut tops = [0.0f64; LANES];
    for_each_lanes(x, &term, |t| {
        for (top, v) in tops.iter_mut().zip(t) {
            if v.abs() > *top {
                *top = v.abs();
            }
        }
    });
    let top = tops.iter().fold(0.0f64, |m, &t| m.max(t));
    if top == 0.0 || top == f64::INFINITY {
        // Nothing to bin: zeros (a NaN among them included) or an
        // infinite term.
        return x.iter().enumerate().fold(0.0, |s, (i, &v)| s + term(i, v));
    }
    let room = x.len().next_power_of_two().max(4) as f64;
    if top * room < HUGE {
        binned_sum(x, &term, top, room)
    } else {
        binned_sum(x, &|i, v| term(i, v) * SHRINK, top * SHRINK, room) / SHRINK
    }
}

/// Calls `f` with the terms `term(i, x_i)` in groups of [`LANES`], the
/// last group padded with zeros.
#[inline(always)]
fn for_each_lanes(x: &[f64], term: &impl Fn(usize, f64) -> f64, mut f: impl FnMut([f64; LANES])) {
    let chunks = x.chunks_exact(LANES);
    let tail = chunks.remainder();
    for (c, xs) in chunks.enumerate() {
        f(std::array::from_fn(|l| term(c * LANES + l, xs[l])));
    }
    let base = x.len() - tail.len();
    f(std::array::from_fn(|l| {
        tail.get(l).map_or(0.0, |&v| term(base + l, v))
    }));
}

/// The terms deposited in [`BINS`] bins (see [`load_sum`]), whose
/// largest magnitude is `top` with `top·room < HUGE`, and the bins'
/// total rounded once.
#[inline(always)]
fn binned_sum(x: &[f64], term: &impl Fn(usize, f64) -> f64, top: f64, room: f64) -> f64 {
    // 2^floor(log2 top); a subnormal top is treated as 2^-1023.
    let binade = f64::from_bits(top.to_bits() & 0x7ff0_0000_0000_0000).max(f64::MIN_POSITIVE / 2.0);
    let finer = room * pow2(-54);
    let mut split = [0.0; BINS];
    let mut c = 1.5 * binade * room;
    for s in &mut split {
        *s = c;
        // Below 2^-1022 the splitter underflows, and the exact subnormal
        // arithmetic hands the whole rest to the bin.
        c *= finer;
    }
    let mut bins = [[0.0f64; LANES]; BINS];
    for_each_lanes(x, term, |mut t| {
        for (bin, &c) in bins.iter_mut().zip(&split) {
            for l in 0..LANES {
                let hi = (t[l] + c) - c;
                bin[l] += hi;
                t[l] -= hi;
            }
        }
    });
    round_sum(bins.map(|lanes| lanes.iter().sum::<f64>()))
}

/// The exact sum of a few floats, rounded once: Shewchuk's
/// grow-expansion turns them into non-overlapping partials, which are
/// added from the largest with the half-way correction of Python's
/// `math.fsum`. A NaN input gives NaN.
fn round_sum(values: [f64; BINS]) -> f64 {
    let mut partials = [0.0f64; BINS];
    let mut len = 0;
    for mut v in values {
        let mut kept = 0;
        for i in 0..len {
            let mut p = partials[i];
            if v.abs() < p.abs() {
                std::mem::swap(&mut v, &mut p);
            }
            let hi = v + p;
            let lo = p - (hi - v);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            v = hi;
        }
        partials[kept] = v;
        len = kept + 1;
    }
    let mut k = len - 1;
    let mut hi = partials[k];
    let mut lo = 0.0;
    while k > 0 {
        k -= 1;
        let x = hi;
        hi = x + partials[k];
        lo = partials[k] - (hi - x);
        if lo != 0.0 {
            break;
        }
    }
    // `hi + lo` is exact. If `lo` is half an ulp of `hi`, ties-to-even
    // chose `hi`, but partials below with the sign of `lo` put the exact
    // sum past the half-way point: round the other way.
    if k > 0 && ((lo < 0.0 && partials[k - 1] < 0.0) || (lo > 0.0 && partials[k - 1] > 0.0)) {
        let y = 2.0 * lo;
        let x = hi + y;
        if x - hi == y {
            hi = x;
        }
    }
    hi
}

/// The previous iterate's population, in buffers reused across sweeps.
///
/// `total_load` is the [`load_sum`] of the scaled rates `x` at masses
/// `mass(i)`, `x_by_rank[r]` the rate of rank `r` and `phi_by_rank[r]`
/// its scaled congestion `Φ` at that load. Fair Share/SFQ rank members
/// by ascending scaled rate, ties in index order: `order[r]` is the
/// member at rank `r` and `rank_of` its inverse, and `cum_mass[k]` /
/// `cum_load[k]` are the total mass and mass-weighted scaled load of the
/// first `k` ranks. FIFO ranks members by index, and `order`, `rank_of`
/// and the prefix sums stay empty.
#[derive(Default)]
pub(crate) struct Population {
    order: Vec<usize>,
    rank_of: Vec<usize>,
    x_by_rank: Vec<f64>,
    cum_mass: Vec<f64>,
    cum_load: Vec<f64>,
    phi_by_rank: Vec<f64>,
    total_load: f64,
}

impl Population {
    /// Rebuilds the summary of scaled rates `x` with member masses
    /// `mass(i)` and total load `total_load`, which must be
    /// `load_sum(x, mass)`: the sort and prefix sums for Fair Share/SFQ,
    /// then `Φ` by rank at the total.
    // gn:hot(amortized)
    pub(crate) fn rebuild(
        &mut self,
        disc: LargenDiscipline,
        x: &[f64],
        mass: impl Fn(usize) -> f64,
        total_load: f64,
    ) {
        let n = x.len();
        self.total_load = total_load;
        self.order.clear();
        self.x_by_rank.clear();
        self.cum_mass.clear();
        self.cum_load.clear();
        if disc == LargenDiscipline::Fifo {
            self.rank_of.clear();
            self.x_by_rank.extend_from_slice(x);
        } else {
            self.order.extend(0..n);
            self.order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
            self.x_by_rank.extend(self.order.iter().map(|&i| x[i]));
            // Every rank is overwritten below.
            self.rank_of.resize(n, 0);
            self.cum_mass.resize(n + 1, 0.0);
            self.cum_load.resize(n + 1, 0.0);
            for (rank, &i) in self.order.iter().enumerate() {
                self.rank_of[i] = rank;
                let m = mass(i);
                self.cum_mass[rank + 1] = self.cum_mass[rank] + m;
                self.cum_load[rank + 1] = self.cum_load[rank] + self.x_by_rank[rank] * m;
            }
        }
        phi_sorted(
            disc,
            &self.x_by_rank,
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

    /// Rank of member `i` (the member itself when FIFO skipped the sort).
    fn rank(&self, i: usize) -> usize {
        if self.rank_of.is_empty() {
            i
        } else {
            self.rank_of[i]
        }
    }

    /// Scaled congestion `Φ` of member `i`.
    pub(crate) fn phi(&self, i: usize) -> f64 {
        self.phi_by_rank[self.rank(i)]
    }

    /// Mass and load of members with scaled rate strictly below `x`,
    /// searched from rank `*finger` (see [`rank_below`]).
    /// Strict inequality makes the serialized load tie-invariant: members
    /// tied with the deviator are clamped at `x` either way.
    fn below(&self, x: f64, finger: &mut usize) -> (f64, f64) {
        let k = rank_below(&self.x_by_rank, x, finger);
        (self.cum_mass[k], self.cum_load[k])
    }
}

/// `sorted.partition_point(|&v| v < x)` for a NaN-free slice in
/// ascending order, searched from rank `*finger`.
///
/// A probe at or below the first member (NaN included) or above the last
/// is answered in `O(1)` and leaves the finger alone: best responses
/// probe `X_FLOOR` and the capacity cap to check their bracket. Any other
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

/// Scaled congestion `Φ` of every population member, by rank.
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
    x_by_rank: &[f64],
    cum_mass: &[f64],
    cum_load: &[f64],
    total_load: f64,
    out: &mut Vec<f64>,
) {
    let n = x_by_rank.len();
    out.clear();
    out.reserve(n);
    match disc {
        LargenDiscipline::Fifo => {
            if total_load >= 1.0 {
                out.resize(n, f64::INFINITY);
            } else {
                let om = 1.0 - total_load;
                out.extend(x_by_rank.iter().map(|&x| x / om));
            }
        }
        LargenDiscipline::FairShare | LargenDiscipline::Sfq => {
            let mut phi_prev = 0.0;
            let mut s_prev = 0.0;
            for k in 0..n {
                let w_rem = 1.0 - cum_mass[k];
                let s_k = cum_load[k] + w_rem * x_by_rank[k];
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
                for (p, &x) in out.iter_mut().zip(x_by_rank.iter()) {
                    *p += SFQ_BETA * x;
                }
            }
        }
    }
}

/// How [`solve_increasing`] ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Solve {
    /// `F(lo) ≥ 0` or NaN: the root is cornered at the lower end.
    Floor,
    /// `F(hi) ≤ 0`: no sign change below the upper end.
    Cap,
    /// A root inside the bracket.
    Root(f64),
}

impl Solve {
    /// The best response a solve over `[X_FLOOR, hi]` names: zero at the
    /// floor, `hi` at the cap, and otherwise the root.
    fn response(self, hi: f64) -> f64 {
        match self {
            Solve::Floor => 0.0,
            Solve::Cap => hi,
            Solve::Root(x) => x,
        }
    }
}

/// Safeguarded Newton on an increasing `F` over `[lo, hi]`, from `x0`:
/// Newton proposals are accepted only inside the shrinking bracket,
/// otherwise the step falls back to bisection, so the iteration is
/// unconditionally convergent and fully deterministic. It stops once an
/// accepted Newton step moves less than `tol·(1 + |x|)` (the `rtsafe`
/// rule) or the bracket is narrower than that.
///
/// The bracket must satisfy `F(lo) < 0 < F(hi)`. Unless `ends_known`
/// says the caller has checked that, the iterates check it: any
/// `F(x) < 0` proves `F(lo) < 0` and any `F(x) > 0` proves `F(hi) > 0`,
/// so an end is evaluated only when no iterate has shown its sign by the
/// first bisection or by the exit. A failed end reports [`Solve::Floor`]
/// (checked first) or [`Solve::Cap`], exactly when checking both ends
/// before the first step would have.
// gn:hot
pub(crate) fn solve_increasing<F: FnMut(f64) -> (f64, f64)>(
    mut eval: F,
    bracket: (f64, f64),
    x0: f64,
    tol: f64,
    ends_known: bool,
) -> Solve {
    // Ends whose sign no evaluation has shown yet: lower, upper.
    let mut unproven = [!ends_known; 2];
    let (mut lo, mut hi) = bracket;
    if hi < lo {
        // No interior: for an increasing `F` the ends decide.
        return failed_end(&mut eval, bracket, &mut unproven).unwrap_or(Solve::Cap);
    }
    let mut x = x0.clamp(lo, hi);
    for _ in 0..100 {
        let (f, fp) = eval(x);
        if f > 0.0 {
            hi = x;
            unproven[1] = false;
        } else if f < 0.0 {
            lo = x;
            unproven[0] = false;
        } else {
            break;
        }
        let newton = x - f / fp;
        if newton.is_finite() && newton > lo && newton < hi {
            let step = newton - x;
            x = newton;
            if step.abs() < tol * (1.0 + x.abs()) {
                break;
            }
        } else {
            if let Some(end) = failed_end(&mut eval, bracket, &mut unproven) {
                return end;
            }
            x = 0.5 * (lo + hi);
        }
        if hi - lo <= tol * (1.0 + x.abs()) {
            break;
        }
    }
    failed_end(&mut eval, bracket, &mut unproven).unwrap_or(Solve::Root(x))
}

/// Evaluates the ends of `bracket` still `unproven` (lower first, as the
/// up-front checks did) and reports the first that fails: `F(lo) ≥ 0` or
/// NaN, or `F(hi) ≤ 0`. Each end is evaluated at most once.
#[inline(always)]
fn failed_end<F: FnMut(f64) -> (f64, f64)>(
    eval: &mut F,
    (lo, hi): (f64, f64),
    unproven: &mut [bool; 2],
) -> Option<Solve> {
    if std::mem::take(&mut unproven[0]) {
        let (f, _) = eval(lo);
        if f >= 0.0 || f.is_nan() {
            return Some(Solve::Floor);
        }
    }
    if std::mem::take(&mut unproven[1]) && eval(hi).0 <= 0.0 {
        return Some(Solve::Cap);
    }
    None
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
    let mut finger = pop.rank(i);
    let (self_prev, phi_frozen) = (pop.x_by_rank[finger], pop.phi_by_rank[finger]);
    let load_others = pop.total_load - self_mass * self_prev;
    let cap = (1.0 - load_others) / self_mass;
    if cap <= X_FLOOR {
        return 0.0;
    }
    let eval = |x: f64| {
        let (d1, d2) = phi_slope(disc, pop, x, &mut finger, self_prev, self_mass);
        (
            utility.marginal_ratio(x, phi_frozen) + d1,
            utility.dm_dr(x, phi_frozen) + d2,
        )
    };
    // A capacity-clamped response is `hi`: the damped outer iteration
    // pulls the aggregate back under control on the next sweep.
    let hi = cap * (1.0 - 1e-9);
    solve_increasing(eval, (X_FLOOR, hi), self_prev, tol, false).response(hi)
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
    let mut finger = pop.rank(i);
    let (self_prev, phi_frozen) = (pop.x_by_rank[finger], pop.phi_by_rank[finger]);
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
    // Both ends are checked above.
    Some(solve_increasing(eval, (X_FLOOR, hi), self_prev, tol, true).response(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_core::utility::LogUtility;
    use proptest::prelude::*;

    fn population(disc: LargenDiscipline, x: &[f64], mass: f64) -> Population {
        let mut pop = Population::default();
        pop.rebuild(disc, x, |_| mass, load_sum(x, |_| mass));
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
        let root = solve_increasing(eval, (0.0, 4.0), 3.5, 1e-14, false).response(4.0);
        assert!((root - 2.0f64.sqrt()).abs() < 1e-10);
    }

    /// The order [`solve_increasing`] replaced: both ends checked before
    /// the first step, then bracketed Newton until the bracket is
    /// narrower than `tol·(1 + |x|)`.
    fn checked_then_solved(
        mut eval: impl FnMut(f64) -> (f64, f64),
        (mut lo, mut hi): (f64, f64),
        x0: f64,
        tol: f64,
    ) -> Solve {
        let (f_lo, _) = eval(lo);
        if f_lo >= 0.0 || f_lo.is_nan() {
            return Solve::Floor;
        }
        if eval(hi).0 <= 0.0 {
            return Solve::Cap;
        }
        let mut x = x0.clamp(lo, hi);
        for _ in 0..100 {
            let (f, fp) = eval(x);
            if f > 0.0 {
                hi = x;
            } else if f < 0.0 {
                lo = x;
            } else {
                return Solve::Root(x);
            }
            let newton = x - f / fp;
            x = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if hi - lo <= tol * (1.0 + x.abs()) {
                return Solve::Root(x);
            }
        }
        Solve::Root(x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn deferred_ends_match_checking_them_first(
            (fs, pick) in (0u8..2, 0usize..40),
            rates in proptest::collection::vec(0.01..0.9f64, 1..40),
            (a, log_tol) in (1e-3..10.0f64, 5.0..12.0f64),
            (where_root, u, cap_frac) in (0u8..3, 1e-3..1.0f64, 0.05..1.0f64),
            (start_near, dx) in (0u8..2, -0.5..0.5f64),
            nan_at_x0 in 0u8..4,
        ) {
            // F(x) = M(x) + Φ'(x) − (M(r) + Φ'(r)) with a log utility's
            // M(x) = −a/x and the deviator's congestion slope against a
            // random population, so F is increasing with its root at `r`.
            let disc = if fs == 1 { LargenDiscipline::FairShare } else { LargenDiscipline::Fifo };
            let n = rates.len();
            let mass = 1.0 / n as f64;
            let pop = population(disc, &rates, mass);
            let i = pick % n;
            let self_prev = rates[i];
            let capacity = (1.0 - (pop.total_load() - mass * self_prev)) / mass;
            let hi = 0.6 * capacity.min(1.0) * cap_frac;
            let r = match where_root {
                0 => X_FLOOR * u,
                1 => X_FLOOR + (hi - X_FLOOR) * u,
                _ => hi * (1.0 + 0.5 * u),
            };
            let shape = |x: f64| {
                let (d1, d2) = phi_slope(disc, &pop, x, &mut pop.rank(i), self_prev, mass);
                (-a / x + d1, a / (x * x) + d2)
            };
            let at_root = shape(r).0;
            let x0 = if start_near == 1 { r * (1.0 + dx) } else { hi * (0.6 + 1.2 * dx) };
            let first = x0.clamp(X_FLOOR, hi);
            let f = |x: f64| {
                let (v, slope) = shape(x);
                if nan_at_x0 == 0 && x == first {
                    (f64::NAN, slope)
                } else {
                    (v - at_root, slope)
                }
            };
            let tol = 10f64.powf(-log_tol);
            let (mut want_evals, mut got_evals) = (0usize, 0usize);
            let want = checked_then_solved(|x| { want_evals += 1; f(x) }, (X_FLOOR, hi), x0, tol);
            let got = solve_increasing(|x| { got_evals += 1; f(x) }, (X_FLOOR, hi), x0, tol, false);
            let case = format!("{disc:?} r {r:e} hi {hi:e} x0 {x0:e} nan {}", nan_at_x0 == 0);
            match (want, got) {
                (Solve::Root(w), Solve::Root(g)) => {
                    let close = (g - w).abs() <= 2.0 * tol * (1.0 + w.abs());
                    prop_assert!(close, "{case}: {g:e} vs {w:e}");
                    // A corner costs whatever ran before an end was
                    // evaluated; a root never costs more.
                    prop_assert!(got_evals <= want_evals, "{case}: {got_evals} > {want_evals}");
                }
                _ => prop_assert!(got == want, "{case}: {got:?} vs {want:?}"),
            }
            // Without the NaN, the known root decides the outcome.
            if nan_at_x0 != 0 {
                let known = match (where_root, got) {
                    (0, Solve::Floor) | (2, Solve::Cap) => true,
                    (1, Solve::Root(x)) => (x - r).abs() <= 2.0 * tol * (1.0 + r),
                    _ => false,
                };
                prop_assert!(known, "{case}: {got:?}");
            }
        }
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

    /// Lists of up to 4,100 terms: short (0–16), long (0–4100, so every
    /// remainder modulo [`LANES`] occurs) or a power of two (1–4096, full
    /// bins). Each term is a zero, a subnormal (when `subnormals`) or a
    /// float whose biased exponent lies in `lo..=lo + span`, `lo` drawn
    /// from `lows` (biased exponent 0 is subnormal too), of either sign
    /// when `signed` and positive otherwise.
    fn terms(
        lows: std::ops::RangeInclusive<u64>,
        span: u64,
        subnormals: bool,
        signed: bool,
    ) -> impl Strategy<Value = Vec<f64>> {
        let lens = (0usize..3, 0usize..=16, 0usize..=4100, 0u32..=12);
        (lows, lens).prop_flat_map(move |(lo, (pick, short, long, log2))| {
            let len = match pick {
                0 => short,
                1 => long,
                _ => 1 << log2,
            };
            let term = (0u8..8, 0u64..1 << 52, 0..=span, 0u64..2);
            proptest::collection::vec(term, len).prop_map(move |picks| {
                picks
                    .into_iter()
                    .map(|(kind, frac, up, sign)| {
                        let magnitude = match kind {
                            0 => 0,
                            1 if subnormals => frac,
                            _ => (lo + up) << 52 | frac,
                        };
                        f64::from_bits((u64::from(signed) & sign) << 63 | magnitude)
                    })
                    .collect()
            })
        })
    }

    /// The exact sum of `terms`, rounded once. Every term is an integer
    /// multiple of the smallest ulp among them, and those integers add up
    /// exactly in an `i128` while the terms span at most ~60 binades.
    fn exact_sum(terms: &[f64]) -> f64 {
        let parts: Vec<(i128, u64)> = terms
            .iter()
            .filter(|t| **t != 0.0)
            .map(|&t| {
                let bits = t.to_bits();
                let biased = (bits >> 52) & 0x7ff;
                let frac = i128::from(bits & ((1 << 52) - 1));
                let (m, ulp) = if biased == 0 {
                    (frac, 1)
                } else {
                    (frac | 1 << 52, biased)
                };
                (if t < 0.0 { -m } else { m }, ulp)
            })
            .collect();
        let Some(q) = parts.iter().map(|p| p.1).min() else {
            return 0.0;
        };
        let sum: i128 = parts.iter().map(|&(m, ulp)| m << (ulp - q)).sum();
        // 2^(q − 1075): the ulp of biased exponent q, subnormal below 53.
        let unit = if q > 52 {
            f64::from_bits((q - 52) << 52)
        } else {
            f64::from_bits(1 << (q - 1))
        };
        // `as` rounds once and scaling by `unit` is exact, except for a
        // subnormal result: that comes from |sum| < 2^52, where `as` is
        // exact and the scaling rounds once instead.
        (sum as f64) * unit
    }

    /// Fisher–Yates shuffle from a SplitMix64 stream.
    fn shuffle<T>(v: &mut [T], seed: u64) {
        let mut z = seed;
        for i in (1..v.len()).rev() {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut r = z;
            r = (r ^ (r >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            r ^= r >> 31;
            v.swap(i, usize::try_from(r % (i as u64 + 1)).expect("index fits"));
        }
    }

    /// [`load_sum`] of `(x_i, mass_i)` pairs.
    fn pair_sum(pairs: &[(f64, f64)]) -> f64 {
        let x: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        load_sum(&x, |i| pairs[i].1)
    }

    #[test]
    fn load_sum_rounds_half_way_cases_by_the_partials_below() {
        // 1 + 2^-53 is half-way between 1 and 1 + 2^-52; the tiny third
        // term decides, and a plain left-to-right sum misses it.
        let tiny = f64::from_bits(1);
        for (terms, want) in [
            (
                vec![1.0, 2f64.powi(-53), 2f64.powi(-120)],
                1.0 + f64::EPSILON,
            ),
            (vec![1.0, 2f64.powi(-53), -(2f64.powi(-120))], 1.0),
            (
                vec![1.0, -(2f64.powi(-54)), -(2f64.powi(-120))],
                1.0 - f64::EPSILON / 2.0,
            ),
            (vec![1.0, 2f64.powi(-53)], 1.0),
            (vec![tiny, -tiny, 0.0], 0.0),
            (vec![-0.0, -0.0], 0.0),
            (vec![], 0.0),
        ] {
            let got = load_sum(&terms, |_| 1.0);
            assert_eq!(got.to_bits(), want.to_bits(), "{terms:?}: {got}");
        }
    }

    #[test]
    fn load_sum_bins_hold_rests_at_their_headroom() {
        // Three rests just below half of bin 1's grid fill bin 2 to its
        // headroom, and their total sits 2^-104 past a half-way point:
        // a bin 2 grid one bit finer, with one bit less headroom, would
        // round that away.
        let terms = [
            0x3ff0_0000_0000_0000,
            0x3cbf_ffff_fff1_b4df,
            0x3ca0_0000_0029_1dbc,
            0x3cbf_ffff_fff9_bc42,
        ]
        .map(f64::from_bits);
        let got = load_sum(&terms, |_| 1.0);
        assert_eq!(got.to_bits(), 0x3ff0_0000_0000_0004, "{got:e}");
    }

    #[test]
    fn load_sum_propagates_non_finite_terms_like_a_plain_sum() {
        let inf = f64::INFINITY;
        let sum = |t: &[f64]| load_sum(t, |_| 1.0);
        assert_eq!(sum(&[0.3, inf, 1e300]), inf);
        assert_eq!(sum(&[0.3, -inf]), -inf);
        assert!(sum(&[inf, 0.3, -inf]).is_nan());
        assert!(sum(&[0.3, f64::NAN, 0.1]).is_nan());
        assert!(sum(&[0.0, f64::NAN]).is_nan());
        assert!(sum(&[inf, f64::NAN]).is_nan());
        // Finite terms whose sum overflows round to infinity, and terms
        // near f64::MAX are still summed exactly.
        assert_eq!(sum(&[f64::MAX, f64::MAX, -1.0]), inf);
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn load_sum_is_order_free(
            x in terms(1..=1926, 120, true, true),
            (turn, seed, mass_seed) in (0usize..4100, 0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            // Masses drawn per term travel with it.
            const MASS: [f64; 4] = [1.0, 0.5, 1.0 / 3.0, 1e-3];
            let mut pairs: Vec<(f64, f64)> = x.iter().enumerate().map(|(i, &v)| {
                let pick = (mass_seed >> (2 * (i % 32))) & 3;
                (v, MASS[usize::try_from(pick).expect("two bits")])
            }).collect();
            let want = pair_sum(&pairs);
            pairs.reverse();
            let reversed = pair_sum(&pairs);
            let turn = turn % pairs.len().max(1);
            pairs.rotate_left(turn);
            let rotated = pair_sum(&pairs);
            shuffle(&mut pairs, seed);
            let shuffled = pair_sum(&pairs);
            let orders = [("reversed", reversed), ("rotated", rotated), ("shuffled", shuffled)];
            for (label, got) in orders {
                prop_assert!(got.to_bits() == want.to_bits(), "{label}: {got:e} vs {want:e}");
            }
        }

        #[test]
        fn load_sum_is_exact_within_fifty_binades(
            x in terms(0..=1996, 50, false, true),
            seed in 0u64..u64::MAX,
        ) {
            let want = exact_sum(&x);
            let got = load_sum(&x, |_| 1.0);
            prop_assert!(got.to_bits() == want.to_bits(), "{got:e} vs exact {want:e}");
            let mut y = x.clone();
            shuffle(&mut y, seed);
            prop_assert!(load_sum(&y, |_| 1.0).to_bits() == want.to_bits(), "shuffled");
            // Cancel the larger half exactly, so the lowest bits decide.
            let mut mags: Vec<f64> = x.iter().map(|t| t.abs()).collect();
            mags.sort_by(f64::total_cmp);
            let cut = mags.get(mags.len() / 2).copied().unwrap_or(0.0);
            y.extend(x.iter().filter(|t| t.abs() > cut).map(|&t| -t));
            let want = exact_sum(&y);
            let got = load_sum(&y, |_| 1.0);
            prop_assert!(got.to_bits() == want.to_bits(), "cancelled: {got:e} vs exact {want:e}");
        }

        #[test]
        fn load_sum_is_exact_on_copies(
            (frac, biased) in (0u64..1 << 52, 1u64..=2030),
            (n, log2, pick) in (1usize..=4100, 0u32..=12, 0usize..2),
        ) {
            // Equal terms leave equal rests, the worst case for every
            // bin's headroom.
            let v = f64::from_bits(biased << 52 | frac);
            let n = if pick == 0 { n } else { 1 << log2 };
            let x = vec![v; n];
            let want = exact_sum(&x);
            let got = load_sum(&x, |_| 1.0);
            prop_assert!(got.to_bits() == want.to_bits(), "{n} × {v:e}: {got:e} vs {want:e}");
        }

        #[test]
        fn load_sum_is_exact_on_loads(x in terms(1..=2045, 1, false, false)) {
            // Positive terms within two binades fill the bins' headroom.
            let want = exact_sum(&x);
            let got = load_sum(&x, |_| 1.0);
            prop_assert!(got.to_bits() == want.to_bits(), "{got:e} vs exact {want:e}");
        }

        #[test]
        fn load_sum_propagates_inserted_infinities_and_nans(
            x in terms(1..=1100, 120, true, true),
            (at, pick) in (0usize..4100, 0usize..3),
        ) {
            let mut y = x;
            let at = at % (y.len() + 1);
            match pick {
                0 => y.insert(at, f64::INFINITY),
                1 => y.insert(at, f64::NAN),
                _ => {
                    y.insert(at, f64::INFINITY);
                    y.insert(at / 2, f64::NEG_INFINITY);
                }
            }
            let got = load_sum(&y, |_| 1.0);
            if pick == 0 {
                prop_assert!(got == f64::INFINITY, "{got}");
            } else {
                prop_assert!(got.is_nan(), "{got}");
            }
        }

        #[test]
        fn fifo_population_is_permutation_equivariant(
            x in proptest::collection::vec(0.0..0.9f64, 1..300),
            seed in 0u64..u64::MAX,
        ) {
            let n = x.len();
            let pop = population(LargenDiscipline::Fifo, &x, 1.0 / n as f64);
            let mut perm: Vec<usize> = (0..n).collect();
            shuffle(&mut perm, seed);
            let y: Vec<f64> = perm.iter().map(|&i| x[i]).collect();
            let moved = population(LargenDiscipline::Fifo, &y, 1.0 / n as f64);
            prop_assert!(moved.total_load().to_bits() == pop.total_load().to_bits());
            for (j, &i) in perm.iter().enumerate() {
                prop_assert!(moved.phi(j).to_bits() == pop.phi(i).to_bits(), "member {i}");
            }
        }
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
