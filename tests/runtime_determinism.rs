//! Tier-1 guarantees for the experiment runtime: the central registry is
//! complete and runnable, and every experiment's report is bitwise
//! identical at any worker-thread count (the deterministic-parallelism
//! contract of `greednet-runtime`).

use greednet_bench::experiments::registry;
use greednet_runtime::{Budget, ExpCtx, Format};

fn ctx(seed: u64, threads: usize) -> ExpCtx {
    ExpCtx::new(seed, threads).with_budget(Budget::smoke())
}

#[test]
fn registry_ids_are_unique_and_all_experiments_run_on_a_tiny_budget() {
    let reg = registry();
    assert_eq!(reg.len(), 20, "T1 + E1..E18 (E10 split in two)");
    let ids = reg.ids();
    let unique: std::collections::BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate experiment id");
    let c = ctx(3, 2);
    for exp in reg.iter() {
        let report = exp.run(&c);
        let text = report.render(Format::Text);
        assert!(
            text.contains(exp.title()),
            "{} report lacks its title",
            exp.id()
        );
        // Every format must render without panicking.
        assert!(!report.render(Format::Json).is_empty());
        assert!(!report.render(Format::Csv).is_empty());
    }
}

// The report intentionally records the thread count it ran with
// (`"threads":N` in the run params); mask that one metadata field so
// comparisons cover exactly the scientific content.
fn masked(report: &greednet_runtime::RunReport, threads: usize) -> String {
    report
        .render(Format::Json)
        .replace(&format!("\"threads\":{threads}"), "\"threads\":#")
}

#[test]
fn parallel_runs_are_bitwise_identical_to_serial() {
    // The flagship contract: for the same root seed, an N-thread run of a
    // replication batch (E9, DES packet simulations) or a parallel sweep
    // produces exactly the same report as the serial run — every float,
    // every digit.
    let reg = registry();
    for id in ["e9", "e1", "e3", "e10a"] {
        let exp = reg.get(id).expect(id);
        let serial = masked(&exp.run(&ctx(42, 1)), 1);
        let four = masked(&exp.run(&ctx(42, 4)), 4);
        let eight = masked(&exp.run(&ctx(42, 8)), 8);
        assert_eq!(serial, four, "{id}: 4-thread run diverged from serial");
        assert_eq!(serial, eight, "{id}: 8-thread run diverged from serial");
    }
}

#[test]
fn telemetry_mode_is_bitwise_deterministic_and_only_adds_to_reports() {
    // With `ctx.telemetry` the probed experiments (E9, T1) append
    // histogram sections whose integer bucket counts merge in task order,
    // so the determinism contract must hold with telemetry on too — and
    // wall-clock profiling must stay in the non-rendered side channel.
    let reg = registry();
    for id in ["e9", "t1"] {
        let exp = reg.get(id).expect(id);
        let run =
            |threads: usize, telemetry: bool| exp.run(&ctx(42, threads).with_telemetry(telemetry));
        for telemetry in [false, true] {
            let serial = masked(&run(1, telemetry), 1);
            assert_eq!(
                serial,
                masked(&run(4, telemetry), 4),
                "{id} (telemetry={telemetry}): 4-thread run diverged"
            );
            assert_eq!(
                serial,
                masked(&run(8, telemetry), 8),
                "{id} (telemetry={telemetry}): 8-thread run diverged"
            );
        }
        // Telemetry only *adds* report content; every line of the plain
        // report survives verbatim in the telemetry-enabled one.
        let plain = run(1, false);
        let with = run(1, true);
        let with_text = with.render(Format::Text);
        for line in plain.render(Format::Text).lines() {
            assert!(
                with_text.contains(line),
                "{id}: telemetry dropped/changed report line {line:?}"
            );
        }
        assert!(
            with_text.contains("telemetry:"),
            "{id}: telemetry-enabled report lacks its histogram section"
        );
        // Profiling lives only in the side channel, never in renders.
        assert!(!with.telemetry().is_empty(), "{id}: side channel empty");
        assert!(!with_text.contains("utilization"));
        assert!(with.render_telemetry().contains("utilization"));
    }
}

#[test]
fn the_seed_changes_the_numbers_but_the_thread_count_never_does() {
    // Guards against accidentally ignoring ctx.seed (reports would be
    // trivially "deterministic" if nothing consumed the seed).
    let reg = registry();
    let exp = reg.get("e9").expect("e9");
    let a = exp.run(&ctx(1, 2)).render(Format::Json);
    let b = exp.run(&ctx(2, 2)).render(Format::Json);
    assert_ne!(a, b, "different root seeds must change stochastic results");
}
