//! Pinned reports of the packet-level experiments.
//!
//! `runtime_determinism.rs` compares runs with each other; these goldens
//! pin the values. Each entry is an FNV-1a-64 hash of the JSON report of
//! one experiment that runs the discrete-event simulator (E9, E10a, E10b,
//! E13, E16 and T1), at the smoke budget on one thread, for seeds 0
//! and 1. A mismatch prints the whole table of fresh hashes; re-pin only
//! for a deliberate change of simulation semantics, and say why.
//!
//! Re-pinned once: the E9 and E10b rows, the two pinned experiments that
//! run processor sharing, moved when its even split moved onto a GPS
//! virtual clock, which rounds differently from each packet's own drain.
//! Their PS numbers moved by at most 2e-13 relative; no other number in
//! either report moved, and every other row is the hash recorded before
//! the simulator API changed.

use greednet_bench::experiments::registry;
use greednet_runtime::{Budget, ExpCtx, Format};

/// FNV-1a-64 over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(experiment id, seed, hash of its JSON report)`.
#[rustfmt::skip]
const GOLDENS: &[(&str, u64, u64)] = &[
    ("e9", 0, 0x9b2f36a2dfc8b79d),
    ("e9", 1, 0xb5b9b2c8093f5d26),
    ("e10a", 0, 0xa4f32390a3f4718d),
    ("e10a", 1, 0x86036515fb3f542f),
    ("e10b", 0, 0x2067f1b6b4f24656),
    ("e10b", 1, 0x01fb03e72dcf8c33),
    ("e13", 0, 0xe27d86107a5ebff5),
    ("e13", 1, 0xff88fab7308f0164),
    ("e16", 0, 0xde94adcb8f16090e),
    ("e16", 1, 0xcf0f24060e0c5a19),
    ("t1", 0, 0xcab837a497093a19),
    ("t1", 1, 0x75b12f8fcb522f9d),
];

#[test]
fn packet_level_experiment_reports_are_pinned() {
    let reg = registry();
    let fresh: Vec<(&str, u64, u64)> = GOLDENS
        .iter()
        .map(|&(id, seed, _)| {
            let exp = reg.get(id).expect("registered experiment");
            let ctx = ExpCtx::new(seed, 1).with_budget(Budget::smoke());
            let json = exp.run(&ctx).render(Format::Json);
            (id, seed, fnv1a(json.as_bytes()))
        })
        .collect();
    let table: String = fresh
        .iter()
        .map(|(id, seed, h)| format!("    (\"{id}\", {seed}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(fresh, GOLDENS, "fresh hashes:\n{table}");
}
