//! Experiment E9 — §3.1: closed-form allocation functions vs simulated
//! packets, for every discipline, with across-replication confidence
//! intervals. The replication batch is the workspace's flagship parallel
//! workload: each discipline runs `budget.count(16)` independent
//! replications whose seeds split off the root seed by index, so the
//! report is identical at any `--threads` setting.

use crate::experiments::{histogram_rows, mean_and_hw};
use greednet_des::scenarios::DisciplineKind;
use greednet_des::{Engine, EngineConfig, MetricsProbe, SimMetrics};
use greednet_queueing::{mm1, AllocationFunction, FairShare, Proportional, SerialPriority};
use greednet_runtime::{
    child_seed, Cell, ExpCtx, Experiment, PoolStats, Replications, RunReport, Table,
};

/// E9: packet-level validation of the allocation formulas (§3.1).
pub struct E9DesValidation;

/// Per-replication estimates: `(mean_queue, total_queue_dist)` pairs.
type BatchEstimates = Vec<(Vec<f64>, Vec<f64>)>;

/// Runs one discipline's replication batch. With `ctx.telemetry` the
/// simulations run probed: the per-replication estimates are bitwise
/// identical to the unprobed path (the probe only observes), and the
/// per-replication [`SimMetrics`] are merged in task order so the merged
/// histograms are thread-count independent too.
fn replicate(
    ctx: &ExpCtx,
    kind: DisciplineKind,
    rates: &[f64],
    horizon: f64,
    reps: usize,
    stage: u64,
) -> (BatchEstimates, Option<(SimMetrics, PoolStats)>) {
    let batch = Replications::new(reps, ctx.stage_seed(stage));
    let simulate = |seed: u64| {
        let engine =
            Engine::new(EngineConfig::open_loop(rates, horizon, seed)).expect("valid config");
        let d = kind.build(rates, child_seed(seed, 1)).expect("discipline");
        (engine, d)
    };
    if ctx.telemetry {
        let (out, pool) = batch.run_profiled(ctx.threads, |_, seed| {
            let (engine, mut d) = simulate(seed);
            let mut probe = MetricsProbe::new(rates.len());
            let r = engine
                .run_probed(d.as_mut(), &mut probe)
                .expect("simulate")
                .result;
            ((r.mean_queue, r.total_queue_dist), probe.into_metrics())
        });
        let mut merged = SimMetrics::new(rates.len());
        let mut data = Vec::with_capacity(out.len());
        for (rep, metrics) in out {
            merged.merge(&metrics);
            data.push(rep);
        }
        (data, Some((merged, pool)))
    } else {
        let data = batch.run(ctx.threads, |_, seed| {
            let (engine, mut d) = simulate(seed);
            let r = engine.run(d.as_mut()).expect("simulate").result;
            (r.mean_queue, r.total_queue_dist)
        });
        (data, None)
    }
}

impl Experiment for E9DesValidation {
    fn id(&self) -> &'static str {
        "e9"
    }

    fn title(&self) -> &'static str {
        "E9: packet-level validation of the allocation formulas (§3.1)"
    }

    fn run(&self, ctx: &ExpCtx) -> RunReport {
        let mut report = ctx.report(self.id(), self.title());
        let rates = vec![0.08, 0.22, 0.35];
        let horizon = ctx.budget.horizon(100_000.0);
        let reps = ctx.budget.count(16);
        let load: f64 = rates.iter().sum();
        report.note(format!(
            "rates {rates:?} (load {load:.2}), {reps} replications x horizon {horizon} per discipline"
        ));

        let closed: Vec<(DisciplineKind, Vec<f64>)> = vec![
            (DisciplineKind::Fifo, Proportional::new().congestion(&rates)),
            (
                DisciplineKind::LifoPreemptive,
                Proportional::new().congestion(&rates),
            ),
            (
                DisciplineKind::ProcessorSharing,
                Proportional::new().congestion(&rates),
            ),
            (
                DisciplineKind::SerialPriority,
                SerialPriority::new().congestion(&rates),
            ),
            (DisciplineKind::FsTable, FairShare::new().congestion(&rates)),
        ];

        let mut t = Table::new(&[
            "discipline",
            "user",
            "closed",
            "simulated",
            "rel.err",
            "CI half",
            "in CI?",
        ]);
        let mut worst = 0.0f64;
        let mut last_dists: Vec<Vec<f64>> = Vec::new();
        let mut fs_metrics: Option<SimMetrics> = None;
        for (stage, (kind, expect)) in closed.iter().enumerate() {
            let (runs, tele) = replicate(ctx, *kind, &rates, horizon, reps, stage as u64);
            if let Some((metrics, pool)) = tele {
                report
                    .telemetry_mut()
                    .add_pool(format!("replications:{}", kind.label()), pool);
                if *kind == DisciplineKind::FsTable {
                    fs_metrics = Some(metrics);
                }
            }
            for (u, &exp_u) in expect.iter().enumerate() {
                let samples: Vec<f64> = runs.iter().map(|(q, _)| q[u]).collect();
                let (mean, hw) = mean_and_hw(&samples);
                let rel = (mean - exp_u).abs() / exp_u;
                worst = worst.max(rel);
                t.row(vec![
                    kind.label().into(),
                    u.into(),
                    Cell::num(exp_u),
                    Cell::num(mean),
                    Cell::num_text(rel, format!("{:.2}%", rel * 100.0)),
                    Cell::num(hw),
                    ((mean - exp_u).abs() <= hw).into(),
                ]);
            }
            let total: f64 =
                runs.iter().map(|(q, _)| q.iter().sum::<f64>()).sum::<f64>() / runs.len() as f64;
            t.row(vec![
                kind.label().into(),
                "TOTAL".into(),
                Cell::num(mm1::g(load)),
                Cell::num(total),
                "(work conservation)".into(),
                "".into(),
                "".into(),
            ]);
            if *kind == DisciplineKind::FsTable {
                last_dists = runs.into_iter().map(|(_, d)| d).collect();
            }
        }
        report.table(t);
        report.metric("worst_rel_err", worst);
        report.note("SFQ has no closed form here (non-preemptive FQ approximation); its");
        report.note("work-conservation total is checked in the integration tests.");

        // Total-queue occupancy distribution: geometric for M/M/1 under any
        // non-anticipating work-conserving discipline.
        report.section(format!(
            "occupancy distribution P(N = k) vs the geometric law (load {load:.2})"
        ));
        let mut t = Table::new(&["k", "geometric", "simulated", "abs.err"]);
        for k in 0..8usize {
            let expect = (1.0 - load) * load.powi(i32::try_from(k).unwrap_or(i32::MAX));
            let got = last_dists.iter().filter_map(|d| d.get(k)).sum::<f64>()
                / last_dists.len().max(1) as f64;
            t.row(vec![
                k.into(),
                Cell::num(expect),
                Cell::num(got),
                Cell::num((got - expect).abs()),
            ]);
        }
        report.table(t);
        report.note("(run under the Fair Share table: total occupancy is discipline-");
        report.note("invariant for M/M/1, and matches (1-rho) rho^k.)");

        if let Some(m) = fs_metrics {
            report
                .section("telemetry: log2 histograms (Fair Share table, all replications merged)");
            let mut t = Table::new(&["histogram", "bucket", "count"]);
            for u in 0..rates.len() {
                histogram_rows(&mut t, &format!("delay user {u}"), &m.delay[u]);
            }
            histogram_rows(&mut t, "occupancy@arrival", &m.occupancy);
            histogram_rows(&mut t, "busy period", &m.busy_periods);
            report.table(t);
            let arrivals: u64 = m
                .arrivals
                .iter()
                .map(greednet_telemetry::Counter::get)
                .sum();
            report.metric("telemetry_arrivals", arrivals as f64);
            report.metric("telemetry_preemptions", m.preemptions.get() as f64);
            report.metric(
                "telemetry_delay_p50_user0",
                m.delay[0].quantile(0.5).unwrap_or(f64::NAN),
            );
            report.note("(histograms merge in task order: identical at any --threads.)");
        }
        report
    }
}
