//! Pinned result goldens for every discipline.
//!
//! `engine_equivalence.rs` compares the engine against a reference loop
//! that calls each discipline's own `shares`, so a discipline that picked
//! the wrong packet would move both sides together. These goldens close
//! that gap: each entry is an FNV-1a hash over the bits of every
//! `SimResult` field, recorded before the disciplines moved from
//! per-event share scans to id queues. They cover
//!
//! * every configuration `engine_equivalence.rs` runs (six disciplines ×
//!   seeds 0..8, the overloaded Fair Share case, three service laws under
//!   SFQ, and zero-rate users; its overloaded PS case is left to the
//!   overload mix's deeper PS backlog), and
//! * the benchmark's overload mix (§5.2 FTP/Telnet plus a rate-1.0
//!   blaster, load 1.66) under its five disciplines, run through
//!   `Engine` with no warm-up.
//!
//! A mismatch prints the whole table of fresh hashes; re-pin only for a
//! deliberate change of simulation semantics, and say why.
//!
//! Re-pinned once, the ten PS rows only: processor sharing moved onto a
//! GPS virtual clock, which rounds differently from each packet's own
//! drain (`engine_equivalence.rs` holds it within 1e-9 relative).

use greednet_des::scenarios::{DisciplineKind, Scenario};
use greednet_des::{Engine, EngineConfig, ServiceDist, SimResult, SimTime};

/// FNV-1a over the little-endian bytes of a `u64` stream.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Hash of every `SimResult` field, floats by their bits.
fn result_hash(r: &SimResult) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    let floats = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    words.extend(floats(&r.mean_queue));
    for ci in &r.queue_ci {
        words.extend([ci.mean.to_bits(), ci.half_width.to_bits()]);
        words.push(u64::try_from(ci.batches).expect("batch count fits u64"));
    }
    words.extend(floats(&r.mean_delay));
    words.extend(floats(&r.throughput));
    words.extend(&r.completed);
    words.push(r.total_mean_queue.to_bits());
    words.push(r.events);
    words.push(r.measured_time.get().to_bits());
    for p in &r.delay_percentiles {
        words.extend([p.0.to_bits(), p.1.to_bits(), p.2.to_bits()]);
    }
    words.extend(floats(&r.total_queue_dist));
    fnv1a(words)
}

/// One `engine_equivalence.rs` configuration through `Engine`.
fn simulated(cfg: &EngineConfig, kind: DisciplineKind) -> u64 {
    let rates = cfg.rate_values();
    let mut d = kind.build(&rates, cfg.seed ^ 0xE0).expect("discipline");
    let engine = Engine::new(cfg.clone()).expect("valid config");
    result_hash(&engine.run(d.as_mut()).expect("simulation runs").result)
}

/// Every configuration `engine_equivalence.rs` runs, labelled.
fn equivalence_cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let rates = vec![0.08, 0.22, 0.35];
    for kind in DisciplineKind::all() {
        for seed in 0..9u64 {
            let cfg = EngineConfig::open_loop(&rates, 3_000.0, seed);
            out.push((
                format!("{} seed {seed}", kind.label()),
                simulated(&cfg, kind),
            ));
        }
    }
    for seed in 0..4u64 {
        let mut cfg = EngineConfig::open_loop(&[0.1, 1.5], 2_000.0, seed);
        cfg.allow_overload = true;
        out.push((
            format!("overload seed {seed}"),
            simulated(&cfg, DisciplineKind::FsTable),
        ));
    }
    for (service, name) in [
        (ServiceDist::Deterministic, "D"),
        (ServiceDist::Erlang(3), "E3"),
        (ServiceDist::Hyperexponential { cs2: 4.0 }, "H2"),
    ] {
        let mut cfg = EngineConfig::open_loop(&[0.2, 0.3], 2_500.0, 42);
        cfg.service = service;
        out.push((
            format!("service {name}"),
            simulated(&cfg, DisciplineKind::Sfq),
        ));
    }
    let cfg = EngineConfig::open_loop(&[0.0, 0.4, 0.0], 2_000.0, 7);
    out.push((
        "zero-rate users".to_string(),
        simulated(&cfg, DisciplineKind::Fifo),
    ));
    out
}

/// The benchmark's overload mix under its five disciplines.
fn overload_mix_cases() -> Vec<(String, u64)> {
    let seed = 1u64;
    let rates = Scenario::ftp_telnet(2, 0.30, 3, 0.02)
        .with_blaster(1.0)
        .rates();
    [
        DisciplineKind::Fifo,
        DisciplineKind::ProcessorSharing,
        DisciplineKind::SerialPriority,
        DisciplineKind::Sfq,
        DisciplineKind::FsTable,
    ]
    .into_iter()
    .map(|kind| {
        let mut cfg = EngineConfig::open_loop(&rates, 2_500.0, seed);
        cfg.warmup = SimTime::ZERO;
        cfg.allow_overload = true;
        let engine = Engine::new(cfg).expect("valid config");
        let mut d = kind.build(&rates, seed ^ 0xD15C).expect("discipline");
        let report = engine.run(d.as_mut()).expect("simulation runs");
        (
            format!("overload mix {}", kind.label()),
            result_hash(&report.result),
        )
    })
    .collect()
}

fn assert_goldens(got: &[(String, u64)], want: &[(&str, u64)]) {
    let table: String = got
        .iter()
        .map(|(label, h)| format!("    ({label:?}, {h:#018x}),\n"))
        .collect();
    let labels: Vec<&str> = got.iter().map(|(l, _)| l.as_str()).collect();
    let want_labels: Vec<&str> = want.iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels, want_labels,
        "golden labels moved; fresh table:\n{table}"
    );
    let moved: Vec<&str> = got
        .iter()
        .zip(want)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((l, _), _)| l.as_str())
        .collect();
    assert!(
        moved.is_empty(),
        "result bits moved for {moved:?}; fresh table:\n{table}"
    );
}

#[test]
fn equivalence_configurations_match_pinned_goldens() {
    assert_goldens(&equivalence_cases(), EQUIVALENCE_GOLDENS);
}

#[test]
fn overload_mix_matches_pinned_goldens() {
    assert_goldens(&overload_mix_cases(), OVERLOAD_GOLDENS);
}

const EQUIVALENCE_GOLDENS: &[(&str, u64)] = &[
    ("FIFO seed 0", 0xaa81d352f62a8b2b),
    ("FIFO seed 1", 0xdbdd40df6f700a8c),
    ("FIFO seed 2", 0x9f01934f565805c8),
    ("FIFO seed 3", 0xed09f4df3a5ecd52),
    ("FIFO seed 4", 0xde13721fe482a7c0),
    ("FIFO seed 5", 0x8a6df74feafc0bb6),
    ("FIFO seed 6", 0x9985ac2872093249),
    ("FIFO seed 7", 0x240a5985c349217d),
    ("FIFO seed 8", 0xef04e256cbb7c79b),
    ("LIFO-PR seed 0", 0xafef112dcb9eaf3f),
    ("LIFO-PR seed 1", 0xbd5f83d6c340d5dc),
    ("LIFO-PR seed 2", 0x7ca68b074a3f92d6),
    ("LIFO-PR seed 3", 0xe35cfdf22492ee8e),
    ("LIFO-PR seed 4", 0x05c7c8be606d5173),
    ("LIFO-PR seed 5", 0x0f7ec29885f2d6de),
    ("LIFO-PR seed 6", 0xff13522e1cf552d6),
    ("LIFO-PR seed 7", 0x25a5adef0f6387c8),
    ("LIFO-PR seed 8", 0xe3435e1df371deb3),
    ("PS seed 0", 0x30614b9d77c803e3),
    ("PS seed 1", 0xc6f99bd8d7da4d5b),
    ("PS seed 2", 0x61fa8d7da1b08f59),
    ("PS seed 3", 0x600eedd7d359acbe),
    ("PS seed 4", 0x3fafa9bbd9ee2391),
    ("PS seed 5", 0x3917de5bfc89b329),
    ("PS seed 6", 0xed6373fecfa0c5e1),
    ("PS seed 7", 0x7d633ece7e0e6e22),
    ("PS seed 8", 0x71466719b0a59aab),
    ("SerialPrio seed 0", 0xcdf04b349c8f6394),
    ("SerialPrio seed 1", 0x046323d50e43161f),
    ("SerialPrio seed 2", 0x016e8c2cdcddb0d3),
    ("SerialPrio seed 3", 0x344f1d1590063d4d),
    ("SerialPrio seed 4", 0x4038e723a1221b12),
    ("SerialPrio seed 5", 0xe5dd13bbaec74107),
    ("SerialPrio seed 6", 0xf7b5a44d64e96844),
    ("SerialPrio seed 7", 0x34b55ee10ec90134),
    ("SerialPrio seed 8", 0x1d7db74b62318e43),
    ("FairShare seed 0", 0x54af448048cf5b0f),
    ("FairShare seed 1", 0x66ac5cd008adb7d0),
    ("FairShare seed 2", 0x04c26da7f49db20f),
    ("FairShare seed 3", 0x91fea20b74260e84),
    ("FairShare seed 4", 0x0231c331016798ff),
    ("FairShare seed 5", 0x021b842bc6d59c8f),
    ("FairShare seed 6", 0x669bdeb906961d86),
    ("FairShare seed 7", 0x15c61ab8ea979f31),
    ("FairShare seed 8", 0x44b51cd45f60404a),
    ("FQ(SFQ) seed 0", 0xfe28495415b60f32),
    ("FQ(SFQ) seed 1", 0xe39c8c1a8b1425e2),
    ("FQ(SFQ) seed 2", 0x9e45acffaeaab49c),
    ("FQ(SFQ) seed 3", 0x6400513f3dd520d3),
    ("FQ(SFQ) seed 4", 0x0bfcc0a45f9964d7),
    ("FQ(SFQ) seed 5", 0xd26444ee20467f59),
    ("FQ(SFQ) seed 6", 0x6d760f7c23d5bbe1),
    ("FQ(SFQ) seed 7", 0x5156cb64b5f33f0c),
    ("FQ(SFQ) seed 8", 0x79facf8ad3cea702),
    ("overload seed 0", 0x93256981244fd411),
    ("overload seed 1", 0x94cd311e5123d003),
    ("overload seed 2", 0xf6752327fecc7ac4),
    ("overload seed 3", 0x797f12c74d5d801c),
    ("service D", 0xbcd37518c0909c0c),
    ("service E3", 0xe5a815c7bb504eae),
    ("service H2", 0x7d8ce49296c47bed),
    ("zero-rate users", 0x1bb88b0f0ec0dc47),
];

const OVERLOAD_GOLDENS: &[(&str, u64)] = &[
    ("overload mix FIFO", 0x10dd0a9e5cd75dea),
    ("overload mix PS", 0x6a30486510f36c8a),
    ("overload mix SerialPrio", 0x3af44c4b2bb8e166),
    ("overload mix FQ(SFQ)", 0x9d7ee7c97860a412),
    ("overload mix FairShare", 0x112eb0844a752a94),
];
