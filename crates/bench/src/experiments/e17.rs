//! Experiment E17 — finite-N convergence to the mean field.
//!
//! The paper's analysis is stated for finite user sets; the large-N
//! engine solves the same game as `N → ∞`. This experiment (an extension
//! beyond the paper's own evaluation) quantifies the bridge: for a
//! 3-class log-utility population, the finite-`N` equilibrium rates must
//! converge on the continuum fixed point with monotonically shrinking
//! error across `N = 10^2..10^6` for every discipline. FIFO is also
//! checked against its closed-form continuum limit `R = A/(1+A)`.

use greednet_core::utility::{LogUtility, UtilityExt};
use greednet_largen::{solve_finite, solve_mean_field, ClassSpec, LargenDiscipline, SolveOptions};
use greednet_runtime::{Cell, ExpCtx, Experiment, RunReport, Table};

/// E17: finite-N equilibria converge on the mean field (extension).
pub struct E17LargeN;

fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::new(LogUtility::new(0.6, 1.0).boxed(), 1.0),
        ClassSpec::new(LogUtility::new(0.5, 1.0).boxed(), 1.0),
        ClassSpec::new(LogUtility::new(0.4, 1.0).boxed(), 1.0),
    ]
}

impl Experiment for E17LargeN {
    fn id(&self) -> &'static str {
        "e17"
    }

    fn title(&self) -> &'static str {
        "E17: finite-N equilibria converge on the mean field (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> RunReport {
        let mut report = ctx.report(self.id(), self.title());
        // 1e-10 was set to clear a best-response jitter blamed on the
        // plain f64 load sum at N = 10^6. Measured with these classes at
        // N = 10^6, both that sum and the order-free load sum converge
        // below 1e-12 in 37 sweeps for every discipline. 1e-10 stays
        // because tightening it would move the table for no paper result.
        let opts = SolveOptions {
            tol: 1e-10,
            ..SolveOptions::default()
        };

        report.section("(a) continuum fixed points, 3 log classes w = 0.6/0.5/0.4");
        let mf: Vec<_> = LargenDiscipline::ALL
            .iter()
            .map(|&disc| {
                (
                    disc,
                    solve_mean_field(disc, &classes(), &opts).expect("continuum solves"),
                )
            })
            .collect();
        let mut t = Table::new(&["discipline", "x0", "x1", "x2", "load", "steps"]);
        for (disc, sol) in &mf {
            t.row(vec![
                disc.name().into(),
                Cell::num_text(sol.x[0], format!("{:.9}", sol.x[0])),
                Cell::num_text(sol.x[1], format!("{:.9}", sol.x[1])),
                Cell::num_text(sol.x[2], format!("{:.9}", sol.x[2])),
                Cell::num_text(sol.load, format!("{:.9}", sol.load)),
                i64::from(sol.steps).into(),
            ]);
        }
        report.table(t);
        // FIFO + log has the closed form x_c = (w_c/γ)/(1+A), A = Σ m_c·w_c/γ.
        let a_sum = (0.6 + 0.5 + 0.4) / 3.0;
        let fifo_load = mf[0].1.load;
        report.metric(
            "fifo_closed_form_err",
            (fifo_load - a_sum / (1.0 + a_sum)).abs(),
        );

        report.section("(b) finite-N error vs the continuum, per discipline");
        let full = [100usize, 1_000, 10_000, 100_000, 1_000_000];
        let smoke_cap = if ctx.budget.scale < 1.0 {
            10_000
        } else {
            usize::MAX
        };
        let sizes: Vec<usize> = full.iter().copied().filter(|&n| n <= smoke_cap).collect();
        let mut t = Table::new(&["N", "err fifo", "err fs", "err sfq"]);
        let mut errs: Vec<Vec<f64>> = vec![Vec::new(); LargenDiscipline::ALL.len()];
        for &n in &sizes {
            let mut cells = vec![Cell::from(n)];
            for (d, (disc, cont)) in mf.iter().enumerate() {
                let fin = solve_finite(*disc, &classes(), n, ctx.stage_seed(2), ctx.threads, &opts)
                    .expect("finite solves");
                assert!(
                    fin.converged,
                    "{} at N={n}: residual {}",
                    disc.name(),
                    fin.residual
                );
                let err = fin
                    .class_x
                    .iter()
                    .zip(cont.x.iter())
                    .map(|(xf, xm)| (xf - xm).abs())
                    .fold(0.0f64, f64::max);
                errs[d].push(err);
                cells.push(Cell::num_text(err, format!("{err:.3e}")));
            }
            t.row(cells);
        }
        report.table(t);

        for (d, (disc, _)) in mf.iter().enumerate() {
            let monotone = errs[d].windows(2).all(|w| w[1] < w[0]);
            report.metric(
                format!("{}_monotone", disc.name()),
                f64::from(u8::from(monotone)),
            );
            report.metric(
                format!("{}_final_err", disc.name()),
                *errs[d].last().expect("at least one size"),
            );
        }
        report.note("the error is the max per-class |x_c(N) − x_c(∞)|; the apportionment");
        report.note("gives the first class the rounding remainder at every N, so the");
        report.note("class-fraction bias keeps one sign and the error decays like 1/N");
        report.note("instead of oscillating with the rounding");
        report
    }
}
