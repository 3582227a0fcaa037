//! Cross-crate integration: the closed-form allocation theory
//! (`greednet-queueing`) against the packet-level simulator
//! (`greednet-des`) — §3.1 of the paper made executable.

use greednet::des::scenarios::DisciplineKind;
use greednet::des::{Engine, EngineConfig, EngineReport};
use greednet::queueing::{mm1, AllocationFunction, FairShare, Proportional, SerialPriority};

fn simulate(rates: &[f64], kind: DisciplineKind, horizon: f64, seed: u64) -> Vec<f64> {
    let engine = Engine::new(EngineConfig::open_loop(rates, horizon, seed)).unwrap();
    let mut d = kind.build(rates, seed ^ 0xF00D).unwrap();
    engine.run(d.as_mut()).unwrap().result.mean_queue
}

#[test]
fn closed_forms_match_packets_across_disciplines() {
    let rates = [0.08, 0.22, 0.35];
    let horizon = 250_000.0;
    let cases: Vec<(DisciplineKind, Vec<f64>)> = vec![
        (DisciplineKind::Fifo, Proportional::new().congestion(&rates)),
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
    for (kind, expect) in cases {
        let sim = simulate(&rates, kind, horizon, 31337);
        for u in 0..rates.len() {
            let rel = (sim[u] - expect[u]).abs() / expect[u];
            assert!(
                rel < 0.08,
                "{} user {u}: simulated {} vs closed form {}",
                kind.label(),
                sim[u],
                expect[u]
            );
        }
    }
}

#[test]
fn work_conservation_in_packets() {
    let rates = [0.1, 0.15, 0.2];
    let expect = mm1::g(0.45);
    for kind in DisciplineKind::all() {
        let total: f64 = simulate(&rates, kind, 150_000.0, 555).iter().sum();
        assert!(
            (total - expect).abs() / expect < 0.06,
            "{}: total {} vs {}",
            kind.label(),
            total,
            expect
        );
    }
}

#[test]
fn protection_bound_holds_in_packets() {
    // Theorem 8 at packet level: under the Table 1 discipline, a victim at
    // rate r with ANY opponent behaviour stays below r/(1 - N r).
    let victim = 0.1;
    let n = 3;
    let bound = victim / (1.0 - n as f64 * victim);
    for blaster in [0.3, 0.6, 1.2] {
        let rates = vec![victim, blaster, 0.05];
        let mut cfg = EngineConfig::open_loop(&rates, 60_000.0, 808);
        cfg.allow_overload = true;
        let engine = Engine::new(cfg).unwrap();
        let mut d = DisciplineKind::FsTable.build(&rates, 1).unwrap();
        let q = engine.run(d.as_mut()).unwrap().result.mean_queue[0];
        assert!(
            q <= bound * 1.08,
            "victim queue {q} above protection bound {bound} (blaster {blaster})"
        );
    }
}

/// `rates` under `kind` past capacity, through `Engine` so the report
/// carries the peak backlog.
fn overloaded(rates: &[f64], kind: DisciplineKind, horizon: f64) -> EngineReport {
    let mut cfg = EngineConfig::open_loop(rates, horizon, 808);
    cfg.allow_overload = true;
    let mut d = kind.build(rates, 1).unwrap();
    Engine::new(cfg).unwrap().run(d.as_mut()).unwrap()
}

#[test]
fn protection_bound_holds_at_2x_and_5x_overload() {
    // Theorem 8 far past capacity: the blaster drives total load to 2
    // and to 5, the backlog grows without bound, and the Table 1 victim
    // still stays below r/(1 - N r).
    let victim = 0.1;
    let n = 3;
    let bound = victim / (1.0 - n as f64 * victim);
    let horizon = 60_000.0;
    for blaster in [1.85, 4.85] {
        let rates = [victim, 0.05, blaster];
        let load: f64 = rates.iter().sum();
        let report = overloaded(&rates, DisciplineKind::FsTable, horizon);
        let q = report.result.mean_queue[0];
        assert!(
            q <= bound * 1.08,
            "victim queue {q} above protection bound {bound} (load {load})"
        );
        let backlog = report.max_active as f64;
        assert!(
            backlog >= 0.9 * (load - 1.0) * horizon,
            "peak backlog {backlog} at load {load}: the overload is not real"
        );
    }
}

#[test]
fn fifo_breaks_protection_at_2x_overload() {
    let victim = 0.1;
    let n = 3;
    let bound = victim / (1.0 - n as f64 * victim);
    let report = overloaded(&[victim, 0.05, 1.85], DisciplineKind::Fifo, 60_000.0);
    let q = report.result.mean_queue[0];
    assert!(q > 2.0 * bound, "FIFO victim queue {q} vs bound {bound}");
}

#[test]
fn fifo_violates_protection_in_packets() {
    let victim = 0.1;
    let n = 3;
    let bound = victim / (1.0 - n as f64 * victim);
    let rates = vec![victim, 0.85, 0.02];
    let engine = Engine::new(EngineConfig::open_loop(&rates, 60_000.0, 808)).unwrap();
    let mut d = DisciplineKind::Fifo.build(&rates, 1).unwrap();
    let q = engine.run(d.as_mut()).unwrap().result.mean_queue[0];
    assert!(q > 2.0 * bound, "FIFO victim queue {q} vs bound {bound}");
}
