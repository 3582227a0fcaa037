//! Experiment T1 — reproduces **Table 1** of the paper: the priority-level
//! decomposition that realizes the Fair Share allocation, validated by a
//! parallel batch of packet-simulation replications.

use crate::experiments::{histogram_rows, mean_and_hw};
use greednet_des::{Engine, EngineConfig, FsPriorityTable, MetricsProbe, SimMetrics};
use greednet_queueing::fair_share::priority_table;
use greednet_queueing::{AllocationFunction, FairShare};
use greednet_runtime::{child_seed, Cell, ExpCtx, Experiment, Replications, RunReport, Table};

/// T1: Table 1 — priority queueing that implements Fair Share.
pub struct T1PriorityTable;

impl Experiment for T1PriorityTable {
    fn id(&self) -> &'static str {
        "t1"
    }

    fn title(&self) -> &'static str {
        "T1: Table 1 — priority queueing that implements Fair Share"
    }

    fn run(&self, ctx: &ExpCtx) -> RunReport {
        let mut report = ctx.report(self.id(), self.title());
        // Four users, ascending rates, as in the paper's example table.
        let rates = [0.05, 0.10, 0.20, 0.30];
        report.note(format!("rates r = {rates:?} (ascending, as in the paper)"));
        report.note("(paper: user k sends r_1, r_2-r_1, ..., r_k-r_{k-1} into levels A..)");

        let table = priority_table(&rates);
        let mut t = Table::new(&["user", "A", "B", "C", "D"]).with_title("priority decomposition");
        for (u, row) in table.iter().enumerate() {
            let mut cells = vec![Cell::from(u + 1)];
            for &v in row {
                cells.push(if v > 0.0 {
                    Cell::num_text(v, format!("{v:.3}"))
                } else {
                    "-".into()
                });
            }
            t.row(cells);
        }
        report.table(t);

        report.section("packet validation (preemptive priority on these levels)");
        let reps = Replications::new(ctx.budget.count(8), ctx.stage_seed(1));
        let horizon = ctx.budget.horizon(120_000.0);
        report.note(format!(
            "{} replications of horizon {horizon} each",
            reps.count()
        ));
        let simulate = |seed: u64| {
            let engine =
                Engine::new(EngineConfig::open_loop(&rates, horizon, seed)).expect("valid config");
            let d = FsPriorityTable::new(&rates, child_seed(seed, 1)).expect("discipline");
            (engine, d)
        };
        // Telemetry runs probed: same estimates bitwise (the probe only
        // observes), with per-replication metrics merged in task order.
        let (runs, metrics) = if ctx.telemetry {
            let (out, pool) = reps.run_profiled(ctx.threads, |_, seed| {
                let (engine, mut d) = simulate(seed);
                let mut probe = MetricsProbe::new(rates.len());
                let r = engine
                    .run_probed(&mut d, &mut probe)
                    .expect("simulate")
                    .result;
                ((r.mean_queue, r.events), probe.into_metrics())
            });
            report
                .telemetry_mut()
                .add_pool("replications:fs-table", pool);
            let mut merged = SimMetrics::new(rates.len());
            let mut data = Vec::with_capacity(out.len());
            for (rep, m) in out {
                merged.merge(&m);
                data.push(rep);
            }
            (data, Some(merged))
        } else {
            let data = reps.run(ctx.threads, |_, seed| {
                let (engine, mut d) = simulate(seed);
                let r = engine.run(&mut d).expect("simulate").result;
                (r.mean_queue, r.events)
            });
            (data, None)
        };
        let events: u64 = runs.iter().map(|(_, e)| e).sum();
        let expect = FairShare::new().congestion(&rates);

        let mut t = Table::new(&["user", "C^FS closed", "simulated", "rel.err", "CI (95%)"]);
        let mut worst = 0.0f64;
        for (u, &exp_u) in expect.iter().enumerate() {
            let samples: Vec<f64> = runs.iter().map(|(q, _)| q[u]).collect();
            let (mean, hw) = mean_and_hw(&samples);
            let rel = (mean - exp_u).abs() / exp_u;
            worst = worst.max(rel);
            t.row(vec![
                (u + 1).into(),
                Cell::num(exp_u),
                Cell::num(mean),
                Cell::num_text(rel, format!("{:.2}%", rel * 100.0)),
                Cell::num(hw),
            ]);
        }
        report.table(t);
        report.metric("worst_rel_err", worst);
        report.metric("events", events as f64);
        report.note(format!(
            "RESULT: priority table realizes C^FS within {:.2}% over {events} packet events.",
            worst * 100.0
        ));

        if let Some(m) = metrics {
            report.section("telemetry: log2 histograms (all replications merged)");
            let mut t = Table::new(&["histogram", "bucket", "count"]);
            for u in 0..rates.len() {
                histogram_rows(&mut t, &format!("delay user {}", u + 1), &m.delay[u]);
            }
            histogram_rows(&mut t, "occupancy@arrival", &m.occupancy);
            histogram_rows(&mut t, "busy period", &m.busy_periods);
            report.table(t);
            report.metric("telemetry_preemptions", m.preemptions.get() as f64);
            report.metric("telemetry_service_starts", m.service_starts.get() as f64);
            report.note("(histograms merge in task order: identical at any --threads.)");
        }
        report
    }
}
