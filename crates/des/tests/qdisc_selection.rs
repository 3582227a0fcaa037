//! Selection-rule property test for the queue-backed disciplines.
//!
//! FIFO, LIFO-PR, serial priority, the Table 1 discipline and SFQ answer
//! `QDisc::service` from id queues kept in their arrival and departure
//! hooks. Random arrival/departure sequences drive each of them next to
//! the share-scan rule it replaced, kept here as the reference:
//!
//! * FIFO serves the oldest id, LIFO-PR the newest;
//! * serial priority serves the min `(class, id)`, classes ranked by
//!   ascending rate with ties to the lower user index;
//! * Table 1 serves the min `(level, id)`, each packet's level drawn from
//!   the discipline's seed exactly as the discipline draws it;
//! * SFQ serves the min `(start tag, id)` under `f64::total_cmp`, and
//!   keeps the packet in service until it leaves.
//!
//! Most departures remove the served packet, as in the engine; the rest
//! remove a random active packet, which the public trait allows.

use greednet_des::rng::ExpStream;
use greednet_des::scenarios::DisciplineKind;
use greednet_des::{ActivePacket, Service, SimTime, Work};
use greednet_queueing::fair_share::priority_table;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The scan rule one discipline used before it kept id queues.
enum Reference {
    Fifo,
    Lifo,
    Serial {
        class: Vec<usize>,
    },
    Table1 {
        cumulative: Vec<Vec<f64>>,
        rng: ExpStream,
        level: BTreeMap<u64, usize>,
    },
    Sfq {
        v: f64,
        finish_prev: Vec<f64>,
        tag: BTreeMap<u64, f64>,
        current: Option<u64>,
    },
}

impl Reference {
    fn new(kind: DisciplineKind, rates: &[f64], seed: u64) -> Reference {
        match kind {
            DisciplineKind::Fifo => Reference::Fifo,
            DisciplineKind::LifoPreemptive => Reference::Lifo,
            DisciplineKind::SerialPriority => {
                let mut order: Vec<usize> = (0..rates.len()).collect();
                order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]).then(a.cmp(&b)));
                let mut class = vec![0; rates.len()];
                for (rank, &u) in order.iter().enumerate() {
                    class[u] = rank;
                }
                Reference::Serial { class }
            }
            DisciplineKind::FsTable => Reference::Table1 {
                cumulative: table1_cumulative(rates),
                rng: ExpStream::new(seed),
                level: BTreeMap::new(),
            },
            DisciplineKind::Sfq => Reference::Sfq {
                v: 0.0,
                finish_prev: vec![0.0; rates.len()],
                tag: BTreeMap::new(),
                current: None,
            },
            DisciplineKind::ProcessorSharing => unreachable!("PS splits the server"),
        }
    }

    fn on_arrival(&mut self, p: &ActivePacket) {
        match self {
            Reference::Fifo | Reference::Lifo | Reference::Serial { .. } => {}
            Reference::Table1 {
                cumulative,
                rng,
                level,
            } => {
                let u = rng.uniform();
                let cum = &cumulative[p.user];
                let l = cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
                level.insert(p.id, l);
            }
            Reference::Sfq {
                v,
                finish_prev,
                tag,
                ..
            } => {
                let s = v.max(finish_prev[p.user]);
                tag.insert(p.id, s);
                finish_prev[p.user] = s + p.size.get();
            }
        }
    }

    fn on_departure(&mut self, id: u64) {
        match self {
            Reference::Fifo | Reference::Lifo | Reference::Serial { .. } => {}
            Reference::Table1 { level, .. } => {
                level.remove(&id);
            }
            Reference::Sfq { tag, current, .. } => {
                tag.remove(&id);
                if *current == Some(id) {
                    *current = None;
                }
            }
        }
    }

    /// The packet the scan rule serves among `active`.
    fn pick(&mut self, active: &[ActivePacket]) -> Option<u64> {
        match self {
            Reference::Fifo => active.iter().map(|p| p.id).min(),
            Reference::Lifo => active.iter().map(|p| p.id).max(),
            Reference::Serial { class } => active
                .iter()
                .min_by_key(|p| (class[p.user], p.id))
                .map(|p| p.id),
            Reference::Table1 { level, .. } => active
                .iter()
                .min_by_key(|p| (level[&p.id], p.id))
                .map(|p| p.id),
            Reference::Sfq {
                v, tag, current, ..
            } => {
                if let Some(cur) = *current {
                    if active.iter().any(|p| p.id == cur) {
                        return Some(cur);
                    }
                }
                let best = active
                    .iter()
                    .min_by(|a, b| tag[&a.id].total_cmp(&tag[&b.id]).then(a.id.cmp(&b.id)))?;
                *current = Some(best.id);
                *v = tag[&best.id];
                Some(best.id)
            }
        }
    }
}

/// Table 1's per-user cumulative level probabilities.
fn table1_cumulative(rates: &[f64]) -> Vec<Vec<f64>> {
    priority_table(rates)
        .iter()
        .map(|row| {
            let total: f64 = row.iter().sum();
            let mut acc = 0.0;
            let mut c: Vec<f64> = row
                .iter()
                .map(|&x| {
                    acc += if total > 0.0 { x / total } else { 0.0 };
                    acc
                })
                .collect();
            if let Some(last) = c.last_mut() {
                *last = 1.0;
            }
            c
        })
        .collect()
}

/// One step: `(kind, user, size)`. Kinds 0..=5 are arrivals, 6..=8
/// depart the served packet, 9 departs the active packet at `user`
/// modulo the backlog.
type Op = (u8, usize, f64);

fn scenario() -> impl Strategy<Value = (Vec<f64>, u64, Vec<Op>)> {
    (
        // A coarse grid, so equal rates (and zero rates) are common.
        proptest::collection::vec((0u8..=4).prop_map(|k| f64::from(k) * 0.05), 1..=5),
        0u64..1_000_000,
        proptest::collection::vec((0u8..10, 0usize..64, 0.01..4.0f64), 0..300),
    )
}

/// Drives `kind` and its reference through `ops`; returns the first
/// disagreement.
fn disagreement(kind: DisciplineKind, rates: &[f64], seed: u64, ops: &[Op]) -> Option<String> {
    let mut d = kind.build(rates, seed).expect("discipline");
    let mut reference = Reference::new(kind, rates, seed);
    let mut active: Vec<ActivePacket> = Vec::new();
    let mut shares = Vec::new();
    let mut next_id = 0u64;
    for (step, &(op, user, size)) in ops.iter().enumerate() {
        let now = SimTime::raw(step as f64);
        if op <= 5 {
            let p = ActivePacket {
                id: next_id,
                user: user % rates.len(),
                arrival: now,
                size: Work::raw(size),
            };
            next_id += 1;
            d.on_arrival(&p, now);
            reference.on_arrival(&p);
            active.push(p);
        } else if !active.is_empty() {
            let idx = if op <= 8 {
                let served = reference.pick(&active);
                let Some(idx) = active.iter().position(|p| Some(p.id) == served) else {
                    return Some(format!("step {step}: scan rule picked {served:?}"));
                };
                idx
            } else {
                user % active.len()
            };
            let p = active.swap_remove(idx);
            d.on_departure(&p, now);
            reference.on_departure(p.id);
        }
        let want = reference.pick(&active);
        let got = d.service(now);
        if got != want.map_or(Service::Idle, Service::One) {
            return Some(format!("step {step}: service {got:?}, scan rule {want:?}"));
        }
        d.shares(&active, now, &mut shares);
        let named = shares.iter().position(|&s| s == 1.0).map(|i| active[i].id);
        if named != want
            || shares.iter().filter(|&&s| s != 0.0).count() != usize::from(named.is_some())
        {
            return Some(format!(
                "step {step}: shares {shares:?}, scan rule {want:?}"
            ));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn queue_backed_disciplines_serve_what_the_scan_rules_pick((rates, seed, ops) in scenario()) {
        for kind in [
            DisciplineKind::Fifo,
            DisciplineKind::LifoPreemptive,
            DisciplineKind::SerialPriority,
            DisciplineKind::FsTable,
            DisciplineKind::Sfq,
        ] {
            let diff = disagreement(kind, &rates, seed, &ops);
            prop_assert!(diff.is_none(), "{} rates {rates:?} seed {seed}: {}",
                kind.label(), diff.unwrap_or_default());
        }
    }
}
