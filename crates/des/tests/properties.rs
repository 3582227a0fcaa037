//! Property-based tests for the packet simulator: invariants that must
//! hold for every discipline on every workload (short seeded runs).

use greednet_des::scenarios::DisciplineKind;
use greednet_des::{Engine, EngineConfig};
use greednet_queueing::mm1;
use proptest::prelude::*;

fn workloads() -> impl Strategy<Value = (Vec<f64>, u64)> {
    (
        proptest::collection::vec(0.02..0.25f64, 2..=4).prop_map(|mut v| {
            let total: f64 = v.iter().sum();
            if total > 0.85 {
                let s = 0.8 / total;
                for x in &mut v {
                    *x *= s;
                }
            }
            v
        }),
        0u64..10_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn work_conservation_for_all_disciplines((rates, seed) in workloads()) {
        let expect = mm1::g(rates.iter().sum());
        for kind in DisciplineKind::all() {
            let engine = Engine::new(EngineConfig::open_loop(&rates, 20_000.0, seed)).unwrap();
            let mut d = kind.build(&rates, seed).unwrap();
            let r = engine.run(d.as_mut()).unwrap().result;
            let rel = (r.total_mean_queue - expect).abs() / expect;
            prop_assert!(rel < 0.35, "{}: total {} vs {} (seed {seed})",
                kind.label(), r.total_mean_queue, expect);
        }
    }

    #[test]
    fn throughput_matches_offered_load((rates, seed) in workloads()) {
        let engine = Engine::new(EngineConfig::open_loop(&rates, 20_000.0, seed)).unwrap();
        let mut d = DisciplineKind::Fifo.build(&rates, seed).unwrap();
        let r = engine.run(d.as_mut()).unwrap().result;
        for (u, &rate) in rates.iter().enumerate() {
            prop_assert!((r.throughput[u] - rate).abs() < 0.1 * rate + 0.01,
                "user {u}: throughput {} vs rate {rate}", r.throughput[u]);
        }
    }

    #[test]
    fn little_law_holds_for_every_discipline((rates, seed) in workloads()) {
        for kind in [DisciplineKind::Fifo, DisciplineKind::FsTable, DisciplineKind::Sfq] {
            let engine = Engine::new(EngineConfig::open_loop(&rates, 20_000.0, seed)).unwrap();
            let mut d = kind.build(&rates, seed).unwrap();
            let r = engine.run(d.as_mut()).unwrap().result;
            for u in 0..rates.len() {
                let lhs = r.mean_queue[u];
                let rhs = r.throughput[u] * r.mean_delay[u];
                prop_assert!((lhs - rhs).abs() < 0.15 * lhs.max(0.05),
                    "{} user {u}: L {} vs lambda*W {}", kind.label(), lhs, rhs);
            }
        }
    }

    #[test]
    fn same_seed_same_result_across_disciplines_is_not_required_but_within_one_is((rates, seed) in workloads()) {
        // Determinism: identical config + discipline => identical output.
        let run = |kind: DisciplineKind| {
            let engine = Engine::new(EngineConfig::open_loop(&rates, 10_000.0, seed)).unwrap();
            let mut d = kind.build(&rates, seed).unwrap();
            engine.run(d.as_mut()).unwrap().result
        };
        let a = run(DisciplineKind::FsTable);
        let b = run(DisciplineKind::FsTable);
        prop_assert_eq!(a.mean_queue, b.mean_queue);
        prop_assert_eq!(a.events, b.events);
    }

    #[test]
    fn fs_table_bounds_light_users_even_against_blasters(seed in 0u64..500, blaster in 0.5..2.5f64) {
        let rates = vec![0.08, blaster];
        let mut cfg = EngineConfig::open_loop(&rates, 25_000.0, seed);
        cfg.allow_overload = true;
        let engine = Engine::new(cfg).unwrap();
        let mut d = DisciplineKind::FsTable.build(&rates, seed).unwrap();
        let r = engine.run(d.as_mut()).unwrap().result;
        let bound = 0.08 / (1.0 - 2.0 * 0.08);
        prop_assert!(r.mean_queue[0] <= bound * 1.3,
            "victim queue {} above bound {bound} (blaster {blaster})", r.mean_queue[0]);
    }
}
