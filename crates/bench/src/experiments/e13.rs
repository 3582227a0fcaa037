//! Experiment E13 — footnote 5: the theory beyond M/M/1.
//!
//! The paper notes its results hold for any strictly increasing, strictly
//! convex congestion curve — in particular M/G/1. This experiment (an
//! extension beyond the paper's own evaluation) re-verifies the headline
//! properties over Pollaczek–Khinchine kernels; the four service-law
//! packet validations run in parallel.

use greednet_core::game::{Game, NashOptions};
use greednet_core::utility::{BoxedUtility, LogUtility, UtilityExt};
use greednet_des::{Engine, EngineConfig, Fifo, ServiceDist};
use greednet_queueing::kernelized::{KernelFairShare, KernelProportional};
use greednet_queueing::mm1::{CongestionKernel, Mg1Kernel};
use greednet_queueing::AllocationFunction;
use greednet_runtime::{Cell, ExpCtx, Experiment, ParallelSweep, RunReport, Table};
use std::sync::Arc;

/// E13: beyond M/M/1 — M/G/1 kernels (paper footnote 5; extension).
pub struct E13Mg1;

impl Experiment for E13Mg1 {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn title(&self) -> &'static str {
        "E13: beyond M/M/1 — M/G/1 kernels (paper footnote 5; extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> RunReport {
        let mut report = ctx.report(self.id(), self.title());
        let horizon = ctx.budget.horizon(200_000.0);

        report.section(format!(
            "(a) packet totals vs Pollaczek-Khinchine, FIFO, load 0.6, horizon {horizon}"
        ));
        let rates = vec![0.25, 0.35];
        let dists = [
            ServiceDist::Deterministic,
            ServiceDist::Erlang(4),
            ServiceDist::Exponential,
            ServiceDist::Hyperexponential { cs2: 4.0 },
        ];
        let rows =
            ParallelSweep::new(ctx.threads).map_seeded(ctx.stage_seed(1), &dists, |seed, &dist| {
                let kernel = Mg1Kernel::new(dist.cs2());
                let expect = kernel.g(0.6);
                let mut cfg = EngineConfig::open_loop(&rates, horizon, seed);
                cfg.service = dist;
                let engine = Engine::new(cfg).expect("valid config");
                let r = engine.run(&mut Fifo::default()).expect("simulate").result;
                (dist, expect, r.total_mean_queue)
            });
        let mut t = Table::new(&["service", "cs2", "P-K total", "simulated", "rel.err"]);
        for (dist, expect, got) in rows {
            let rel = (got - expect).abs() / expect;
            t.row(vec![
                dist.label().into(),
                Cell::num_text(dist.cs2(), format!("{:.2}", dist.cs2())),
                Cell::num_text(expect, format!("{expect:.4}")),
                Cell::num_text(got, format!("{got:.4}")),
                Cell::num_text(rel, format!("{:.2}%", rel * 100.0)),
            ]);
        }
        report.table(t);

        report.section("(b) the theorems' signatures survive the kernel change (M/D/1)");
        let kernel: Arc<dyn CongestionKernel> = Arc::new(Mg1Kernel::new(0.0));
        let users = || -> Vec<BoxedUtility> {
            vec![
                LogUtility::new(0.4, 1.0).boxed(),
                LogUtility::new(0.8, 1.2).boxed(),
                LogUtility::new(1.2, 0.9).boxed(),
            ]
        };
        let fs_game = Game::from_boxed(Box::new(KernelFairShare::new(kernel.clone())), users())
            .expect("game");
        let fifo_game =
            Game::from_boxed(Box::new(KernelProportional::new(kernel.clone())), users())
                .expect("game");
        let nash_fs = fs_game
            .solve_nash(&NashOptions::default())
            .expect("fs nash");
        let nash_fifo = fifo_game
            .solve_nash(&NashOptions::default())
            .expect("fifo nash");
        let mut t = Table::new(&["property", "KernelFS", "KernelFIFO"]);
        t.row(vec![
            "Nash converged".into(),
            nash_fs.converged.into(),
            nash_fifo.converged.into(),
        ]);
        let envy_fs = fs_game.max_envy(&nash_fs.rates).expect("envy");
        let envy_fifo = fifo_game.max_envy(&nash_fifo.rates).expect("envy");
        t.row(vec![
            "max envy at Nash".into(),
            Cell::num_text(envy_fs, format!("{envy_fs:.6}")),
            Cell::num_text(envy_fifo, format!("{envy_fifo:.6}")),
        ]);
        // Insularity of the kernelized Fair Share.
        let kfs = KernelFairShare::new(kernel.clone());
        let light = nash_fs
            .rates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut bumped = nash_fs.rates.clone();
        let heavy = (light + 1) % 3;
        bumped[heavy] += 0.3;
        let before = kfs.congestion(&nash_fs.rates)[light];
        let after = kfs.congestion(&bumped)[light];
        t.row(vec![
            "light-user insularity".into(),
            Cell::num_text(
                (after - before).abs(),
                format!("{:.6}", (after - before).abs()),
            ),
            "n/a".into(),
        ]);
        // Protection bound shape: all peers at the victim's rate is the worst case.
        let victim = 0.1;
        let worst = kfs.congestion(&[victim, 10.0, 10.0])[0];
        let at_bound = kfs.congestion(&[victim; 3])[0];
        t.row(vec![
            "protection tightness".into(),
            Cell::num_text(
                (worst - at_bound).abs(),
                format!("{:.6}", (worst - at_bound).abs()),
            ),
            "unbounded".into(),
        ]);
        report.table(t);
        report.note("(zero envy / insularity / tight protection for the kernelized Fair");
        report.note("Share; the proportional kernel allocation keeps none of them)");

        report.section("(c) realizability");
        report.note("the preemptive Table 1 scheduler vs the kernel serialization under");
        report.note("deterministic service (see the DES test");
        report.note("`md1_fair_share_table_is_exact_for_the_lightest_user_only`): exact for");
        report.note("the lightest user, ~5-10% over-charge for preempted heavy users —");
        report.note("mean queue length is scheduling-dependent outside M/M/1.");
        report
    }
}
