//! Queueing disciplines (`QDisc`s) for the packet engine.
//!
//! A `QDisc` decides how the unit-rate server's effort is split across
//! the active packets at every instant. It answers in one of two ways:
//!
//! * [`QDisc::service`] names the one packet that holds the whole server
//!   ([`Service::One`]), says every active packet holds an equal share
//!   ([`Service::Even`]), or says nothing is queued ([`Service::Idle`]).
//!   The single-server disciplines below keep id queues in their
//!   `on_arrival`/`on_departure` hooks and answer in O(1) or
//!   O(log backlog), so an overloaded switch costs no more per event
//!   than a lightly loaded one; processor sharing answers `Even` with no
//!   state at all.
//! * [`QDisc::shares`] writes *service shares*: non-negative weights,
//!   one per active packet, summing to 1. A discipline that keeps the
//!   default `service`, which returns [`Service::Split`], answers only
//!   here.
//!
//! Every discipline's `shares` are its `service` answer written out as
//! a vector (the single-server disciplines write them from it), so each
//! discipline has exactly one selection rule and callers that only
//! speak `shares` (decorators, reference loops) see the same schedule.
//! Work conservation is automatic (service only ever goes to active
//! packets); preemption is expressed simply by the answer changing when
//! an arrival occurs.
//!
//! | QDisc | Serves | Induced allocation (mean queues) |
//! |---|---|---|
//! | [`Fifo`] | oldest packet (id deque) | proportional `r_i/(1−Σr)` |
//! | [`LifoPreemptive`] | newest packet (id stack) | proportional |
//! | [`ProcessorSharing`] | `1/k` each (even split, on a virtual clock) | proportional |
//! | [`PreemptivePriority`] | oldest packet of best class (deque per class) | serial `g(Λ_k)−g(Λ_{k−1})` |
//! | [`FsPriorityTable`] | oldest packet of best Table 1 level (deque per level) | **Fair Share** |
//! | [`StartTimeFairQueueing`] | min start tag, non-preemptive (tag min-heap) | ≈ Fair-Share-like (§5.2) |
//!
//! The engine-equivalence tests and the pinned result goldens
//! (`tests/result_goldens.rs`) pin that every single-server discipline
//! produces bitwise-identical simulations to the share-scan
//! implementations this module started from, and processor sharing, on
//! a virtual clock, within 1e-9 relative; `tests/even_split.rs` pins it
//! through `service` and through `shares` bit for bit.

use crate::error::DesError;
use crate::rng::ExpStream;
use crate::units::{SimTime, Work};
use crate::Result;
use greednet_queueing::fair_share::priority_table;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Debug;

/// A packet currently in the system.
#[derive(Debug, Clone)]
pub struct ActivePacket {
    /// Unique, monotonically increasing packet id.
    pub id: u64,
    /// Originating user.
    pub user: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Total service requirement (drawn from the service distribution at
    /// arrival). The engine tracks the work still to be done itself.
    pub size: Work,
}

/// A discipline's answer to "who holds the server now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// No packet is queued.
    Idle,
    /// The packet with this id holds the whole server.
    One(u64),
    /// Each of the `k` active packets holds `1/k` of the server.
    Even,
    /// The effort is split across packets: read [`QDisc::shares`].
    Split,
}

/// A queueing discipline: decides how the server's effort is split
/// across the active packets at every instant.
///
/// The engine calls the hooks in event order: `on_arrival` before a
/// packet joins the active set, `on_departure` after it leaves, then
/// `service` once per event. It serves a [`Service::One`] or
/// [`Service::Even`] answer without a share vector, and calls `shares`
/// only when `service` returns [`Service::Split`], or when the answer
/// names a packet the engine does not hold (a discipline that missed a
/// hook); the server never idles while packets wait, and an even share
/// vector is served as `Even`.
pub trait QDisc: Send + Debug {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Notification that `pkt` has entered the system.
    fn on_arrival(&mut self, pkt: &ActivePacket, now: SimTime);

    /// Notification that `pkt` has completed service and left.
    fn on_departure(&mut self, pkt: &ActivePacket, now: SimTime);

    /// Writes the service share of each packet in `active` into `out`
    /// (same indexing). Shares must be non-negative and sum to 1 whenever
    /// `active` is non-empty.
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>);

    /// What holds the server until the next event: one packet, an even
    /// split over every active packet, or nothing. The default,
    /// [`Service::Split`], routes every event through [`QDisc::shares`].
    fn service(&mut self, _now: SimTime) -> Service {
        Service::Split
    }
}

/// Writes the share vector of a single-server answer: the whole server on
/// the named packet. An answer that names no active packet (a missed
/// hook) splits the server evenly instead, so packets never wait on an
/// idle server.
// gn:hot(amortized)
fn single_server_shares(service: Service, active: &[ActivePacket], out: &mut Vec<f64>) {
    out.clear();
    let served = match service {
        Service::One(id) => active.iter().position(|p| p.id == id),
        Service::Idle | Service::Even | Service::Split => None,
    };
    match served {
        Some(idx) => {
            out.resize(active.len(), 0.0);
            out[idx] = 1.0;
        }
        None if active.is_empty() => {}
        None => out.resize(active.len(), 1.0 / active.len() as f64),
    }
}

/// Packet ids per priority class, each class in arrival (= id) order.
/// The served packet is the head of the first non-empty class.
#[derive(Debug, Clone, Default)]
struct ClassQueues {
    queues: Vec<VecDeque<u64>>,
}

impl ClassQueues {
    // gn:hot(amortized)
    fn push(&mut self, class: usize, id: u64) {
        if self.queues.len() <= class {
            self.queues.resize_with(class + 1, VecDeque::new);
        }
        self.queues[class].push_back(id);
    }

    /// Removes `id`. The served head, which is what departs in the
    /// engine, is the first id the scan meets: O(classes).
    // gn:hot
    fn remove(&mut self, id: u64) {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|&x| x == id) {
                q.remove(pos);
                return;
            }
        }
    }

    // gn:hot
    fn service(&self) -> Service {
        self.queues
            .iter()
            .find_map(|q| q.front().copied())
            .map_or(Service::Idle, Service::One)
    }
}

/// First-in-first-out: the oldest packet holds the server. Induces the
/// proportional allocation.
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    queue: ClassQueues,
}

impl QDisc for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queue.push(0, pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queue.remove(pkt.id);
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        single_server_shares(self.service(now), active, out);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        self.queue.service()
    }
}

/// Last-in-first-out with preemptive resume: the newest packet always
/// holds the server. Also induces the proportional allocation (mean queue
/// lengths are scheduling-invariant within symmetric non-anticipating
/// disciplines for exponential sizes).
#[derive(Debug, Clone, Default)]
pub struct LifoPreemptive {
    stack: Vec<u64>,
}

impl QDisc for LifoPreemptive {
    fn name(&self) -> &'static str {
        "LIFO-PR"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.stack.push(pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        // The served top is the first id the scan meets: O(1).
        if let Some(pos) = self.stack.iter().rposition(|&x| x == pkt.id) {
            self.stack.remove(pos);
        }
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        single_server_shares(self.service(now), active, out);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        self.stack
            .last()
            .copied()
            .map_or(Service::Idle, Service::One)
    }
}

/// Egalitarian processor sharing: every active packet receives `1/k` of
/// the server ([`Service::Even`]). Induces the proportional allocation.
#[derive(Debug, Clone, Default)]
pub struct ProcessorSharing;

impl QDisc for ProcessorSharing {
    fn name(&self) -> &'static str {
        "PS"
    }
    // gn:hot
    fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot
    fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
        out.clear();
        if active.is_empty() {
            return;
        }
        out.resize(active.len(), 1.0 / active.len() as f64);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        Service::Even
    }
}

/// Preemptive-resume head-of-line priority by *user class*: user `u` has
/// fixed priority `class[u]` (smaller = served first); FIFO within class.
/// With classes ordered by ascending rate this induces the serial
/// allocation `c_(k) = g(Λ_k) − g(Λ_{k−1})`.
#[derive(Debug, Clone)]
pub struct PreemptivePriority {
    /// Dense priority rank per user (0 = served first): the given classes
    /// renumbered `0..distinct`, order preserved.
    pub(crate) class: Vec<usize>,
    queues: ClassQueues,
}

impl PreemptivePriority {
    /// Priority by explicit classes (smaller class = higher priority).
    ///
    /// # Errors
    /// [`DesError::InvalidDiscipline`] if `class` is empty.
    pub fn new(class: Vec<usize>) -> Result<Self> {
        if class.is_empty() {
            return Err(DesError::InvalidDiscipline {
                detail: "no user classes".into(),
            });
        }
        let mut distinct = class.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let class: Vec<usize> = class
            .iter()
            .map(|&c| distinct.partition_point(|&d| d < c))
            .collect();
        Ok(PreemptivePriority {
            class,
            queues: ClassQueues::default(),
        })
    }

    /// Classes assigned by ascending rate (lightest user = highest
    /// priority), the ordering that realizes the serial allocation.
    pub fn by_ascending_rate(rates: &[f64]) -> Result<Self> {
        if rates.is_empty() {
            return Err(DesError::InvalidDiscipline {
                detail: "no users".into(),
            });
        }
        let mut order: Vec<usize> = (0..rates.len()).collect();
        // Total comparator (GN07): identical to `partial_cmp` on the
        // finite rates `Engine::new` validates; NaN would sort last
        // instead of silently breaking the priority ranking.
        order.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
        let mut class = vec![0usize; rates.len()];
        for (rank, &u) in order.iter().enumerate() {
            class[u] = rank;
        }
        PreemptivePriority::new(class)
    }
}

impl QDisc for PreemptivePriority {
    fn name(&self) -> &'static str {
        "preemptive priority"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queues.push(self.class[pkt.user], pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.queues.remove(pkt.id);
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        single_server_shares(self.service(now), active, out);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        self.queues.service()
    }
}

/// The paper's **Table 1** discipline: each arriving packet of user `u` is
/// assigned a priority *level* with probability proportional to user `u`'s
/// per-level rate in the Fair Share priority table; levels are then served
/// by preemptive-resume priority (FIFO within level). Realizes the Fair
/// Share allocation function packet-by-packet.
#[derive(Debug)]
pub struct FsPriorityTable {
    /// Per-user cumulative level probabilities.
    cumulative: Vec<Vec<f64>>,
    /// Packet ids per priority level, in arrival order.
    levels: ClassQueues,
    rng: ExpStream,
}

impl FsPriorityTable {
    /// Builds the Table 1 discipline for the given *declared* rates. The
    /// actual traffic should match the declared rates for the allocation
    /// to be exact (the engine passes the same rate vector to both).
    ///
    /// # Errors
    /// [`DesError::InvalidDiscipline`] if `rates` is empty.
    pub fn new(rates: &[f64], seed: u64) -> Result<Self> {
        if rates.is_empty() {
            return Err(DesError::InvalidDiscipline {
                detail: "no users".into(),
            });
        }
        let table = priority_table(rates);
        let cumulative = table
            .iter()
            .map(|row| {
                let total: f64 = row.iter().sum();
                let mut acc = 0.0;
                row.iter()
                    .map(|&x| {
                        acc += if total > 0.0 { x / total } else { 0.0 };
                        acc
                    })
                    .collect::<Vec<f64>>()
            })
            .map(|mut c| {
                if let Some(last) = c.last_mut() {
                    *last = 1.0; // guard against rounding
                }
                c
            })
            .collect();
        Ok(FsPriorityTable {
            cumulative,
            levels: ClassQueues::default(),
            rng: ExpStream::new(seed),
        })
    }
}

impl QDisc for FsPriorityTable {
    fn name(&self) -> &'static str {
        "fair share (Table 1)"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let u = self.rng.uniform();
        let cum = &self.cumulative[pkt.user];
        let level = cum.iter().position(|&c| u < c).unwrap_or(cum.len() - 1);
        self.levels.push(level, pkt.id);
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        self.levels.remove(pkt.id);
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        single_server_shares(self.service(now), active, out);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        self.levels.service()
    }
}

/// `f64::total_cmp` order as an unsigned key: the sign-magnitude flip
/// `total_cmp` itself applies, shifted so negatives sort below positives.
// gn:hot
pub(crate) fn tag_key(tag: f64) -> u64 {
    let bits = tag.to_bits();
    bits ^ ((bits.cast_signed() >> 63).cast_unsigned() >> 1) ^ (1 << 63)
}

/// Inverse of [`tag_key`].
// gn:hot
pub(crate) fn tag_of_key(key: u64) -> f64 {
    let bits = key ^ (1 << 63);
    f64::from_bits(bits ^ ((bits.cast_signed() >> 63).cast_unsigned() >> 1))
}

/// Start-time Fair Queueing (SFQ): a practical, non-preemptive
/// approximation of head-of-line processor sharing in the spirit of the
/// Fair Queueing of Demers–Keshav–Shenker \[3\] discussed in §5.2. Each
/// packet gets a start tag `S = max(v, F_prev(user))` and finish tag
/// `F = S + size`; the server (non-preemptively) serves the packet with
/// the smallest start tag (ties to the older packet) and the virtual time
/// `v` is the start tag of the packet in service.
#[derive(Debug)]
pub struct StartTimeFairQueueing {
    v: f64,
    finish_prev: Vec<f64>,
    /// Waiting packets as `(tag_key(start tag), id)`, smallest first.
    waiting: BinaryHeap<Reverse<(u64, u64)>>,
    current: Option<u64>,
}

impl StartTimeFairQueueing {
    /// Creates the SFQ discipline for `n` users.
    ///
    /// # Errors
    /// [`DesError::InvalidDiscipline`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(DesError::InvalidDiscipline {
                detail: "no users".into(),
            });
        }
        Ok(StartTimeFairQueueing {
            v: 0.0,
            finish_prev: vec![0.0; n],
            waiting: BinaryHeap::new(),
            current: None,
        })
    }
}

impl QDisc for StartTimeFairQueueing {
    fn name(&self) -> &'static str {
        "fair queueing (SFQ)"
    }
    // gn:hot(amortized)
    fn on_arrival(&mut self, pkt: &ActivePacket, _now: SimTime) {
        let s = self.v.max(self.finish_prev[pkt.user]);
        self.waiting.push(Reverse((tag_key(s), pkt.id)));
        self.finish_prev[pkt.user] = s + pkt.size.get();
    }
    // gn:hot
    fn on_departure(&mut self, pkt: &ActivePacket, _now: SimTime) {
        if self.current == Some(pkt.id) {
            self.current = None;
        } else {
            self.waiting.retain(|&Reverse((_, id))| id != pkt.id);
        }
    }
    // gn:hot(amortized)
    fn shares(&mut self, active: &[ActivePacket], now: SimTime, out: &mut Vec<f64>) {
        single_server_shares(self.service(now), active, out);
    }
    // gn:hot
    fn service(&mut self, _now: SimTime) -> Service {
        // Non-preemptive: the packet in service keeps the server.
        if let Some(id) = self.current {
            return Service::One(id);
        }
        match self.waiting.pop() {
            Some(Reverse((key, id))) => {
                self.current = Some(id);
                self.v = tag_of_key(key);
                Service::One(id)
            }
            None => Service::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, user: usize, arrival: f64) -> ActivePacket {
        ActivePacket {
            id,
            user,
            arrival: SimTime::raw(arrival),
            size: Work::raw(1.0),
        }
    }

    fn t(now: f64) -> SimTime {
        SimTime::raw(now)
    }

    /// Announces every packet of `active` in id order, as the engine does.
    fn arrive_all(d: &mut dyn QDisc, active: &[ActivePacket]) {
        let mut by_id: Vec<&ActivePacket> = active.iter().collect();
        by_id.sort_by_key(|p| p.id);
        for p in by_id {
            d.on_arrival(p, p.arrival);
        }
    }

    #[test]
    fn fifo_serves_oldest() {
        let mut d = Fifo::default();
        let active = vec![pkt(3, 0, 0.3), pkt(1, 1, 0.1), pkt(2, 0, 0.2)];
        arrive_all(&mut d, &active);
        assert_eq!(d.service(t(1.0)), Service::One(1));
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn lifo_serves_newest() {
        let mut d = LifoPreemptive::default();
        let active = vec![pkt(3, 0, 0.3), pkt(1, 1, 0.1)];
        arrive_all(&mut d, &active);
        assert_eq!(d.service(t(1.0)), Service::One(3));
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![1.0, 0.0]);
        // Departure of a non-head id leaves the head in place.
        d.on_departure(&active[1], t(1.0));
        assert_eq!(d.service(t(1.0)), Service::One(3));
        d.on_departure(&active[0], t(1.0));
        assert_eq!(d.service(t(1.0)), Service::Idle);
    }

    #[test]
    fn ps_splits_evenly() {
        let mut d = ProcessorSharing;
        let active = vec![
            pkt(1, 0, 0.1),
            pkt(2, 1, 0.2),
            pkt(3, 0, 0.3),
            pkt(4, 2, 0.4),
        ];
        assert_eq!(d.service(t(1.0)), Service::Even);
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.25; 4]);
    }

    #[test]
    fn empty_active_set_gives_empty_shares() {
        let mut out = vec![1.0];
        let mut fifo = Fifo::default();
        assert_eq!(fifo.service(t(0.0)), Service::Idle);
        fifo.shares(&[], t(0.0), &mut out);
        assert!(out.is_empty());
        ProcessorSharing.shares(&[], t(0.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn missed_hooks_split_the_server_instead_of_idling() {
        // No `on_arrival`: the queue is empty, yet packets wait.
        let active = vec![pkt(1, 0, 0.1), pkt(2, 1, 0.2)];
        let mut out = Vec::new();
        Fifo::default().shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.5, 0.5]);
        // The named packet already left the active set.
        let mut d = LifoPreemptive::default();
        d.on_arrival(&pkt(9, 0, 0.0), t(0.0));
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn priority_serves_best_class_oldest() {
        let mut d = PreemptivePriority::new(vec![1, 0]).unwrap(); // user 1 first
        let active = vec![pkt(1, 0, 0.1), pkt(2, 1, 0.2), pkt(3, 1, 0.3)];
        arrive_all(&mut d, &active);
        let mut out = Vec::new();
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]); // oldest of user 1's packets
        d.on_departure(&active[1], t(1.0));
        assert_eq!(d.service(t(1.0)), Service::One(3));
        d.on_departure(&active[2], t(1.0));
        assert_eq!(d.service(t(1.0)), Service::One(1));
    }

    #[test]
    fn priority_classes_are_renumbered_densely() {
        let d = PreemptivePriority::new(vec![40, 7, 40, 1000]).unwrap();
        assert_eq!(d.class, vec![1, 0, 1, 2]);
    }

    #[test]
    fn priority_by_ascending_rate_ranks_lightest_first() {
        let d = PreemptivePriority::by_ascending_rate(&[0.3, 0.1, 0.2]).unwrap();
        assert_eq!(d.class, vec![2, 0, 1]);
    }

    /// The level the Table 1 discipline gave packet `id`.
    fn level_of(d: &FsPriorityTable, id: u64) -> Option<usize> {
        d.levels.queues.iter().position(|q| q.contains(&id))
    }

    #[test]
    fn fs_table_assigns_levels_within_user_bounds() {
        // User sorted position k may only get levels 0..=k.
        let rates = [0.05, 0.1, 0.2, 0.3];
        let mut d = FsPriorityTable::new(&rates, 9).unwrap();
        for trial in 0..200u64 {
            let user = (trial % 4) as usize;
            let p = pkt(trial, user, 0.0);
            d.on_arrival(&p, t(0.0));
            let level = level_of(&d, trial).unwrap();
            assert!(level <= user, "user {user} got level {level}");
            d.on_departure(&p, t(0.0));
        }
        assert_eq!(d.service(t(0.0)), Service::Idle);
    }

    #[test]
    fn fs_table_level_frequencies_match_table() {
        // The heaviest of [0.1, 0.3] should send 1/3 of packets at level 0
        // and 2/3 at level 1.
        let mut d = FsPriorityTable::new(&[0.1, 0.3], 1234).unwrap();
        let mut level0 = 0;
        let n = 30_000u64;
        for id in 0..n {
            let p = pkt(id, 1, 0.0);
            d.on_arrival(&p, t(0.0));
            if level_of(&d, id) == Some(0) {
                level0 += 1;
            }
            d.on_departure(&p, t(0.0));
        }
        let frac = level0 as f64 / n as f64;
        assert!((frac - 1.0 / 3.0).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn sfq_is_non_preemptive_and_alternates_users() {
        let mut d = StartTimeFairQueueing::new(2).unwrap();
        let p1 = pkt(1, 0, 0.0);
        let p2 = pkt(2, 0, 0.0);
        let p3 = pkt(3, 1, 0.1);
        d.on_arrival(&p1, t(0.0));
        d.on_arrival(&p2, t(0.0));
        let mut out = Vec::new();
        let active = vec![p1.clone(), p2.clone()];
        d.shares(&active, t(0.0), &mut out);
        assert_eq!(out, vec![1.0, 0.0]); // p1 in service
                                         // User 1 arrives with an earlier start tag than p2 (v = 0 still).
        d.on_arrival(&p3, t(0.1));
        let active = vec![p1.clone(), p2.clone(), p3.clone()];
        d.shares(&active, t(0.1), &mut out);
        assert_eq!(out, vec![1.0, 0.0, 0.0]); // non-preemptive: p1 keeps it
                                              // After p1 departs, p3 (start tag 0) beats p2 (start tag 1).
        d.on_departure(&p1, t(1.0));
        let active = vec![p2.clone(), p3.clone()];
        d.shares(&active, t(1.0), &mut out);
        assert_eq!(out, vec![0.0, 1.0]);
    }

    #[test]
    fn sfq_tag_key_orders_like_total_cmp_and_round_trips() {
        let tags = [
            f64::NEG_INFINITY,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            3.0e300,
            f64::INFINITY,
        ];
        for a in tags {
            assert_eq!(tag_of_key(tag_key(a)).to_bits(), a.to_bits());
            for b in tags {
                assert_eq!(tag_key(a).cmp(&tag_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn constructors_reject_empty() {
        assert!(PreemptivePriority::new(vec![]).is_err());
        assert!(PreemptivePriority::by_ascending_rate(&[]).is_err());
        assert!(FsPriorityTable::new(&[], 0).is_err());
        assert!(StartTimeFairQueueing::new(0).is_err());
    }

    #[test]
    fn deprecated_discipline_alias_is_gone() {
        // The alias completed its deprecation cycle; its absence is the
        // contract now. Pin it at the source level so a compat re-export
        // cannot quietly reappear. The needle is assembled at runtime so
        // this test's own source (included below) never matches it.
        let needle = format!("QDisc as {}", "Discipline");
        for src in [include_str!("lib.rs"), include_str!("qdisc.rs")] {
            assert!(
                !src.contains(&needle),
                "deprecated `Discipline` alias re-introduced"
            );
        }
    }
}
