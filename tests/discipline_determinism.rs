//! Thread-count invariance of the stateful disciplines in
//! `greednet_des::qdisc`: the queue-backed ones (`FsPriorityTable`'s
//! per-level id deques, `StartTimeFairQueueing`'s start-tag min-heap)
//! and the `total_cmp`-ordered ones (`PreemptivePriority::by_ascending_rate`,
//! SFQ's heap keyed by the start tag's `total_cmp` order) must produce
//! **bitwise identical per-user allocations** however many worker
//! threads run the replication batch. Their per-packet state once lived
//! in `HashMap`s ordered by `partial_cmp(..).unwrap()` comparators; these
//! tests pin the deterministic behavior so a regression is caught by
//! `cargo test`, not by a corrupted paper-vs-measured table.

use greednet_des::qdisc::{FsPriorityTable, PreemptivePriority, QDisc, StartTimeFairQueueing};
use greednet_des::{Engine, EngineConfig};
use greednet_runtime::Replications;

const RATES: [f64; 3] = [0.1, 0.2, 0.35];
const HORIZON: f64 = 3_000.0;
const REPLICATIONS: usize = 8;

/// Runs one replication batch of `make` under `threads` workers and
/// returns the exact f64 bit patterns of every per-user mean queue, in
/// replication order.
fn batch_bits<D, F>(threads: usize, make: F) -> Vec<Vec<u64>>
where
    D: QDisc,
    F: Fn(u64) -> D + Sync,
{
    Replications::new(REPLICATIONS, 0xD15C_0171).run(threads, |_, seed| {
        let cfg = EngineConfig::open_loop(&RATES, HORIZON, seed);
        let engine = Engine::new(cfg).expect("valid config");
        let mut d = make(seed);
        let r = engine.run(&mut d).expect("simulation runs").result;
        r.mean_queue.iter().map(|q| q.to_bits()).collect()
    })
}

fn assert_thread_invariant<D, F>(make: F, label: &str)
where
    D: QDisc,
    F: Fn(u64) -> D + Sync + Copy,
{
    let serial = batch_bits(1, make);
    for threads in [4, 8] {
        let parallel = batch_bits(threads, make);
        assert_eq!(
            serial, parallel,
            "{label}: {threads}-thread replication batch diverged bitwise from serial"
        );
    }
    // Sanity: the simulations did something (non-zero queues) and are
    // per-user (3 users).
    assert!(serial.iter().all(|rep| rep.len() == RATES.len()));
    assert!(serial.iter().flatten().any(|&b| b != 0));
}

#[test]
fn fs_priority_table_allocations_are_thread_count_invariant() {
    assert_thread_invariant(
        |seed| FsPriorityTable::new(&RATES, seed ^ 0xA5).expect("discipline"),
        "FsPriorityTable (level deques)",
    );
}

#[test]
fn start_time_fair_queueing_allocations_are_thread_count_invariant() {
    assert_thread_invariant(
        |_| StartTimeFairQueueing::new(RATES.len()).expect("discipline"),
        "StartTimeFairQueueing (start-tag heap)",
    );
}

#[test]
fn preemptive_priority_total_cmp_order_is_thread_count_invariant() {
    // `by_ascending_rate` now orders rates with `f64::total_cmp` (GN07
    // migration); equal-rate users must still tie-break by index, and the
    // resulting allocations must stay bitwise thread-invariant.
    assert_thread_invariant(
        |_| PreemptivePriority::by_ascending_rate(&RATES).expect("discipline"),
        "PreemptivePriority (total_cmp rate order)",
    );
}

#[test]
fn equal_rate_ties_keep_index_order_under_total_cmp() {
    // Duplicate rates exercise exactly the comparator's Equal branch —
    // the case where a partial_cmp/unwrap_or(Equal) comparator could
    // let the input permutation leak into the priority order.
    let tied = [0.2, 0.2, 0.2];
    let serial = Replications::new(REPLICATIONS, 0xD15C_0172).run(1, |_, seed| {
        let cfg = EngineConfig::open_loop(&tied, HORIZON, seed);
        let engine = Engine::new(cfg).expect("valid config");
        let mut d = PreemptivePriority::by_ascending_rate(&tied).expect("discipline");
        let r = engine.run(&mut d).expect("simulation runs").result;
        r.mean_queue
            .iter()
            .map(|q| q.to_bits())
            .collect::<Vec<u64>>()
    });
    for threads in [4, 8] {
        let parallel = Replications::new(REPLICATIONS, 0xD15C_0172).run(threads, |_, seed| {
            let cfg = EngineConfig::open_loop(&tied, HORIZON, seed);
            let engine = Engine::new(cfg).expect("valid config");
            let mut d = PreemptivePriority::by_ascending_rate(&tied).expect("discipline");
            let r = engine.run(&mut d).expect("simulation runs").result;
            r.mean_queue
                .iter()
                .map(|q| q.to_bits())
                .collect::<Vec<u64>>()
        });
        assert_eq!(
            serial, parallel,
            "tied-rate batch diverged at {threads} threads"
        );
    }
}

#[test]
fn repeated_runs_of_the_same_seed_are_bitwise_identical() {
    // Within-process repeatability: two identical batches must agree bit
    // for bit (this is what HashMap's randomized state would break if it
    // ever influenced scheduling decisions).
    let a = batch_bits(4, |seed| {
        FsPriorityTable::new(&RATES, seed).expect("discipline")
    });
    let b = batch_bits(4, |seed| {
        FsPriorityTable::new(&RATES, seed).expect("discipline")
    });
    assert_eq!(a, b, "same-seed batches diverged");
}
