//! Simulation entities — sources, the bottleneck, flows — and the typed
//! commands they exchange through the event calendar.
//!
//! The engine is structured in the minim style: *entities* hold state and
//! react to [`Cmd`]s popped from the calendar; reactions mutate entity
//! state and schedule further commands. Two source families exist:
//!
//! * **Open-loop** Poisson sources (the paper's model): each `Fire`
//!   injects one packet and schedules the next `Fire` one exponential
//!   inter-arrival ahead. Exactly one `Fire` per open-loop source is
//!   outstanding at any time, so the calendar stays O(#sources).
//! * **Closed-loop** ACK-clocked sources (minim's DCTCP-style path): a
//!   window of packets is kept in flight; each departure generates an
//!   [`Cmd::Ack`] delivered after the flow's feedback delay, carrying an
//!   ECN-style congestion mark when the bottleneck queue was at or above
//!   its marking threshold. Marked ACKs shrink the window
//!   multiplicatively; clean ACKs grow it additively (AIMD), so the mix
//!   self-regulates instead of offering a fixed load.
//!
//! The `Bottleneck` entity owns the active-packet set, each packet's
//! remaining work (packed in its own vector, in the active set's order),
//! and what its [`QDisc`] serves: one packet, an even split, or a share
//! vector, the even split on a GPS virtual clock at O(log k) per event.
//! Its next completion is a *derived* event (recomputed from what is
//! served after every state change), not a calendar entry — see
//! `crate::calendar`.

use crate::error::DesError;
use crate::qdisc::{tag_key, tag_of_key, ActivePacket, QDisc, Service};
use crate::rng::ExpStream;
use crate::units::{Rate, SimTime, Work};
use crate::Result;
use greednet_numerics::conv;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A command in flight on the event calendar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmd {
    /// Wake source `source`: an open-loop source emits its next Poisson
    /// arrival; a closed-loop source fills its initial window.
    Fire {
        /// Index of the source to wake.
        source: usize,
    },
    /// Deliver an acknowledgement to closed-loop source `source`.
    Ack {
        /// Index of the flow the ACK belongs to.
        source: usize,
        /// ECN-style congestion mark: the bottleneck queue was at or
        /// above its marking threshold when the packet departed.
        marked: bool,
    },
}

/// Parameters of a closed-loop (ACK-clocked, AIMD) source.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopSpec {
    /// Initial congestion window (packets; ≥ 1).
    pub initial_window: f64,
    /// Upper bound on the window (packets).
    pub max_window: f64,
    /// Delay between a packet's departure and its ACK reaching the
    /// source (the feedback loop's round-trip latency).
    pub feedback_delay: SimTime,
    /// Additive increase per clean-ACK round-trip (the classic
    /// `ai / window` per ACK).
    pub additive_increase: f64,
    /// Multiplicative decrease factor applied on a marked ACK
    /// (in `(0, 1)`).
    pub multiplicative_decrease: f64,
}

impl ClosedLoopSpec {
    /// The default AIMD flow: window 2→64, unit feedback delay,
    /// increase 1 per RTT, halve on mark.
    #[must_use]
    pub fn new() -> Self {
        ClosedLoopSpec {
            initial_window: 2.0,
            max_window: 64.0,
            feedback_delay: SimTime::raw(1.0),
            additive_increase: 1.0,
            multiplicative_decrease: 0.5,
        }
    }

    /// Sets the feedback (ACK) delay.
    #[must_use]
    pub fn feedback_delay(mut self, delay: f64) -> Self {
        self.feedback_delay = SimTime::raw(delay);
        self
    }

    /// Sets the initial window.
    #[must_use]
    pub fn initial_window(mut self, w: f64) -> Self {
        self.initial_window = w;
        self
    }

    /// Sets the maximum window.
    #[must_use]
    pub fn max_window(mut self, w: f64) -> Self {
        self.max_window = w;
        self
    }

    /// Validates the spec for source index `source`.
    ///
    /// # Errors
    /// [`DesError::InvalidSource`] naming the offending field.
    pub fn validate(&self, source: usize) -> Result<()> {
        let fail = |detail: &str| {
            Err(DesError::InvalidSource {
                source,
                detail: detail.into(),
            })
        };
        if !(self.initial_window.is_finite() && self.initial_window >= 1.0) {
            return fail("initial window must be finite and >= 1");
        }
        if !(self.max_window.is_finite() && self.max_window >= self.initial_window) {
            return fail("max window must be finite and >= the initial window");
        }
        if !(self.feedback_delay.get().is_finite() && self.feedback_delay.get() > 0.0) {
            return fail("feedback delay must be finite and positive");
        }
        if !(self.additive_increase.is_finite() && self.additive_increase > 0.0) {
            return fail("additive increase must be finite and positive");
        }
        if !(self.multiplicative_decrease > 0.0 && self.multiplicative_decrease < 1.0) {
            return fail("multiplicative decrease must lie in (0, 1)");
        }
        Ok(())
    }
}

impl Default for ClosedLoopSpec {
    fn default() -> Self {
        ClosedLoopSpec::new()
    }
}

/// Specification of one traffic source.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// Open-loop Poisson source at the given arrival rate (zero-rate
    /// sources are allowed and never send).
    OpenLoop {
        /// Poisson packet arrival rate.
        rate: Rate,
    },
    /// Closed-loop ACK-clocked source.
    ClosedLoop(ClosedLoopSpec),
}

impl SourceSpec {
    /// An open-loop source from an unvalidated `f64` rate (validated
    /// once, by [`Engine::new`](crate::Engine::new)).
    #[must_use]
    pub fn open(rate: f64) -> Self {
        SourceSpec::OpenLoop {
            rate: Rate::raw(rate),
        }
    }

    /// The declared open-loop rate (`0.0` for closed-loop sources, which
    /// offer load adaptively rather than by declaration).
    #[must_use]
    pub fn rate_value(&self) -> f64 {
        match self {
            SourceSpec::OpenLoop { rate } => rate.get(),
            SourceSpec::ClosedLoop(_) => 0.0,
        }
    }

    /// Whether this is a closed-loop source.
    #[must_use]
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, SourceSpec::ClosedLoop(_))
    }
}

/// Per-flow accounting returned by the engine alongside the aggregate
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Source index.
    pub source: usize,
    /// Packets injected into the bottleneck.
    pub sent: u64,
    /// ACKs delivered (closed-loop only; zero for open-loop).
    pub acked: u64,
    /// Of those, ACKs carrying a congestion mark.
    pub marked: u64,
    /// Final congestion window (zero for open-loop sources).
    pub final_window: f64,
}

/// Runtime state of an open-loop Poisson source.
#[derive(Debug)]
pub(crate) struct OpenLoopSource {
    pub rate: f64,
    pub arrivals: ExpStream,
    pub sizes: ExpStream,
    pub sent: u64,
}

impl OpenLoopSource {
    /// Draws the next inter-arrival gap.
    // gn:hot
    pub fn next_gap(&mut self) -> SimTime {
        SimTime::raw(self.arrivals.sample(self.rate))
    }
}

/// Runtime state of a closed-loop AIMD source.
#[derive(Debug)]
pub(crate) struct ClosedLoopSource {
    pub spec: ClosedLoopSpec,
    pub sizes: ExpStream,
    pub window: f64,
    pub outstanding: usize,
    pub sent: u64,
    pub acked: u64,
    pub marked: u64,
}

impl ClosedLoopSource {
    pub fn new(spec: ClosedLoopSpec, sizes: ExpStream) -> Self {
        let window = spec.initial_window;
        ClosedLoopSource {
            spec,
            sizes,
            window,
            outstanding: 0,
            sent: 0,
            acked: 0,
            marked: 0,
        }
    }

    /// Whether the window admits another in-flight packet.
    // gn:hot
    pub fn can_send(&self) -> bool {
        self.outstanding < conv::f64_to_usize(self.window)
    }

    /// Records one packet injected.
    // gn:hot
    pub fn on_sent(&mut self) {
        self.outstanding += 1;
        self.sent += 1;
    }

    /// Applies one ACK: AIMD window update (halve on mark, grow
    /// `ai / window` on clean) and releases one in-flight slot.
    // gn:hot
    pub fn on_ack(&mut self, marked: bool) {
        self.acked += 1;
        self.outstanding = self.outstanding.saturating_sub(1);
        if marked {
            self.marked += 1;
            self.window = (self.window * self.spec.multiplicative_decrease).max(1.0);
        } else {
            self.window =
                (self.window + self.spec.additive_increase / self.window).min(self.spec.max_window);
        }
    }
}

/// Runtime state of one source (either family).
#[derive(Debug)]
pub(crate) enum SourceState {
    Open(OpenLoopSource),
    Closed(ClosedLoopSource),
}

impl SourceState {
    pub fn flow_record(&self, source: usize) -> FlowRecord {
        match self {
            SourceState::Open(s) => FlowRecord {
                source,
                sent: s.sent,
                acked: 0,
                marked: 0,
                final_window: 0.0,
            },
            SourceState::Closed(s) => FlowRecord {
                source,
                sent: s.sent,
                acked: s.acked,
                marked: s.marked,
                final_window: s.window,
            },
        }
    }
}

/// What the bottleneck serves between two events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Served {
    /// Nothing is active.
    Idle,
    /// The packet at this index of `active` holds the whole server.
    One(usize),
    /// Every active packet holds this share, on the virtual clock.
    Even(f64),
    /// The server is split by the `shares` vector.
    Split,
}

/// Slot-index entry of a packet id that has left the system.
const VACANT: usize = usize::MAX;

/// No completion is pending.
const NONE: (f64, usize) = (f64::INFINITY, usize::MAX);

/// The switch: the active-packet set, each packet's remaining work, what
/// its `QDisc` serves, per-user counts, and the ECN marking threshold.
///
/// Packets enter through [`Bottleneck::admit`] and leave through
/// [`Bottleneck::depart`], which keep `work` in step with `active` and a
/// slot index from packet id to position in `active`. The engine numbers
/// packets consecutively, so the index is a deque over the ids from the
/// oldest active packet to the newest: a [`Service::One`] answer
/// resolves in O(1).
///
/// An even split runs on the GPS virtual clock of Demers–Keshav–Shenker
/// and Parekh–Gallager: `v` advances by each packet's share of the
/// elapsed time, a packet admitted at `v` with work `w` holds the finish
/// tag `v + w`, and the smallest tag completes next.
#[derive(Debug)]
pub(crate) struct Bottleneck {
    pub active: Vec<ActivePacket>,
    /// `work[i]` belongs to `active[i]`: its remaining work, or its
    /// finish tag while the clock runs (`served` is `Even`).
    work: Vec<Work>,
    shares: Vec<f64>,
    served: Served,
    /// Virtual time since the clock started.
    v: f64,
    /// `(tag_key(tag), id)` while the clock runs, smallest first.
    tags: BinaryHeap<Reverse<(u64, u64)>>,
    /// `slots[k]` is the position in `active` of packet id `base + k`,
    /// or [`VACANT`] once it has left.
    slots: VecDeque<usize>,
    base: u64,
    /// Largest active-set size so far.
    pub peak: usize,
    /// Packets in the system per user, as floats for the statistics'
    /// `count × dt` (exact below 2^53).
    pub counts: Vec<f64>,
    pub marking_threshold: Option<usize>,
}

impl Bottleneck {
    pub fn new(n: usize, marking_threshold: Option<usize>) -> Self {
        Bottleneck {
            active: Vec::new(),
            work: Vec::new(),
            shares: Vec::new(),
            served: Served::Idle,
            v: 0.0,
            tags: BinaryHeap::new(),
            slots: VecDeque::new(),
            base: 0,
            peak: 0,
            counts: vec![0.0f64; n],
            marking_threshold,
        }
    }

    /// Offset of packet `id` in the slot index, if `id` is not below it.
    // gn:hot
    fn offset(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// Position in `active` of packet `id`, if this bottleneck holds it
    /// and its id is indexed.
    // gn:hot
    pub fn position(&self, id: u64) -> Option<usize> {
        let slot = *self.slots.get(self.offset(id)?)?;
        (slot != VACANT).then_some(slot)
    }

    // gn:hot
    fn set_slot(&mut self, id: u64, pos: usize) {
        if let Some(k) = self.offset(id) {
            if let Some(slot) = self.slots.get_mut(k) {
                *slot = pos;
            }
        }
    }

    /// Adds `pkt` to the active set with its whole size still to serve
    /// (as the finish tag `v + size` while the clock runs). The engine
    /// numbers packets consecutively from 0, so `pkt.id` extends the slot
    /// window by one; an id out of that sequence stays unindexed, and
    /// answers naming it fall back to `shares`.
    // gn:hot(amortized)
    pub fn admit(&mut self, pkt: ActivePacket) {
        if pkt.id == self.base + conv::index_to_u64(self.slots.len()) {
            self.slots.push_back(self.active.len());
        }
        self.counts[pkt.user] += 1.0;
        if self.serves_all() {
            let tag = self.v + pkt.size.get();
            self.tags.push(Reverse((tag_key(tag), pkt.id)));
            self.work.push(Work::raw(tag));
        } else {
            self.work.push(pkt.size);
        }
        self.active.push(pkt);
        self.peak = self.peak.max(self.active.len());
    }

    /// Removes and returns the packet at `idx` (`swap_remove` order on
    /// `active` and `work` alike, so the active set is ordered exactly as
    /// before the slot index), and its finish tag: the heap top in the
    /// engine, which departs the earliest completion.
    // gn:hot
    pub fn depart(&mut self, idx: usize) -> ActivePacket {
        let pkt = self.active.swap_remove(idx);
        self.work.swap_remove(idx);
        if self.serves_all() {
            let top = self.tags.peek().map(|&Reverse((_, id))| id);
            if top == Some(pkt.id) {
                self.tags.pop();
            } else {
                self.tags.retain(|&Reverse((_, id))| id != pkt.id);
            }
        }
        self.counts[pkt.user] -= 1.0;
        self.set_slot(pkt.id, VACANT);
        if let Some(moved) = self.active.get(idx).map(|p| p.id) {
            self.set_slot(moved, idx);
        }
        while self.slots.front() == Some(&VACANT) {
            self.slots.pop_front();
            self.base += 1;
        }
        pkt
    }

    /// Asks `qdisc` what to serve until the next event: the named packet
    /// when it answers [`Service::One`] with an id this bottleneck holds,
    /// `1 / k` of the server for each of the `k` active packets when it
    /// answers [`Service::Even`], nothing when it answers
    /// [`Service::Idle`] or `Even` and nothing is active, and otherwise
    /// the share vector it writes — itself an even split when every share
    /// is bitwise equal, positive and finite. A lone packet holding the
    /// whole server is served as `One`, the same bits as its share scan.
    /// The clock restarts at `v = 0` with each even split (each packet's
    /// tag is then its remaining work), and each tag turns back into
    /// remaining work, `tag − v`, when the split ends.
    // gn:hot(amortized)
    pub fn serve(&mut self, qdisc: &mut dyn QDisc, now: SimTime) {
        let answer = qdisc.service(now);
        if let (Service::One(id), false) = (answer, self.serves_all()) {
            if let Some(i) = self.position(id) {
                self.served = Served::One(i);
                return;
            }
        }
        self.serve_any(answer, qdisc, now);
    }

    /// [`Bottleneck::serve`] past the single-server answer, kept out of
    /// line so that answer costs one flag test.
    // gn:hot(amortized)
    #[inline(never)]
    fn serve_any(&mut self, answer: Service, qdisc: &mut dyn QDisc, now: SimTime) {
        let k = self.active.len();
        let served = match answer {
            Service::One(id) => self.position(id).map(Served::One),
            Service::Idle | Service::Even if k == 0 => Some(Served::Idle),
            Service::Even if k == 1 => Some(Served::One(0)),
            // The expression `ProcessorSharing::shares` writes.
            Service::Even => Some(Served::Even(1.0 / k as f64)),
            Service::Idle | Service::Split => None,
        };
        let served = served.unwrap_or_else(|| {
            qdisc.shares(&self.active, now, &mut self.shares);
            let s = self.shares.first().copied().unwrap_or(0.0);
            let same = |x: &f64| x.to_bits() == s.to_bits();
            let even = self.shares.len() == k && s > 0.0 && s.is_finite();
            match (even && self.shares.iter().all(same), k == 1 && s == 1.0) {
                (false, _) => Served::Split,
                (true, true) => Served::One(0),
                (true, false) => Served::Even(s),
            }
        });
        match (self.serves_all(), matches!(served, Served::Even(_))) {
            (true, false) => {
                for w in &mut self.work {
                    *w -= Work::raw(self.v);
                }
                self.tags.clear();
            }
            (false, true) => {
                self.v = 0.0;
                let tagged = self.active.iter().zip(&self.work);
                let tags = tagged.map(|(p, w)| Reverse((tag_key(w.get()), p.id)));
                self.tags.extend(tags);
            }
            _ => {}
        }
        self.served = served;
    }

    /// What the bottleneck serves until the next event.
    pub fn served(&self) -> Served {
        self.served
    }

    /// Whether every active packet holds a share until the next event.
    pub fn serves_all(&self) -> bool {
        matches!(self.served, Served::Even(_))
    }

    /// The service share of the packet at `idx` until the next event.
    // gn:hot
    pub fn share(&self, idx: usize) -> f64 {
        match self.served {
            Served::One(i) if i == idx => 1.0,
            Served::Idle | Served::One(_) => 0.0,
            Served::Even(s) => s,
            Served::Split => self.shares.get(idx).copied().unwrap_or(0.0),
        }
    }

    /// The earliest completion time under the current service, as
    /// `(time, index)` — `(∞, usize::MAX)` when nothing is draining.
    ///
    /// This is the engine's *derived* event. A single served packet
    /// completes at `now + remaining`, bit for bit the share scan's
    /// `now + remaining / 1.0`; an even split completes the smallest
    /// finish tag at `now + (tag − v) / s`, its packet found through the
    /// slot index or, for an unindexed id, a scan of the active set; a
    /// share vector keeps the exact scan (strict `<`, first index wins)
    /// of the pre-calendar engine.
    // gn:hot
    pub fn peek_completion(&self, now: f64) -> (f64, usize) {
        match self.served {
            Served::Idle => NONE,
            Served::One(i) => self.work.get(i).map_or(NONE, |r| (now + r.get(), i)),
            Served::Even(s) => {
                let Some(&Reverse((key, id))) = self.tags.peek() else {
                    return NONE;
                };
                let scan = || self.active.iter().position(|p| p.id == id);
                let at = |i| (now + (tag_of_key(key) - self.v) / s, i);
                self.position(id).or_else(scan).map_or(NONE, at)
            }
            Served::Split => {
                let scan = self.work.iter().zip(&self.shares).enumerate();
                scan.fold(NONE, |(t_done, done), (i, (r, &s))| {
                    let t = now + r.get() / s;
                    if s > 0.0 && t < t_done {
                        (t, i)
                    } else {
                        (t_done, done)
                    }
                })
            }
        }
    }

    /// Drains `share × dt` of remaining work from every served packet:
    /// `dt` itself from a single served packet (the same bits as
    /// `1.0 × dt`), and one step `s × dt` of the virtual clock under an
    /// even split.
    // gn:hot
    pub fn drain(&mut self, dt: f64) {
        match self.served {
            Served::Idle => {}
            Served::One(i) => {
                if let Some(r) = self.work.get_mut(i) {
                    *r -= Work::raw(dt);
                }
            }
            Served::Even(s) => self.v += s * dt,
            Served::Split => {
                for (r, &s) in self.work.iter_mut().zip(&self.shares) {
                    if s > 0.0 {
                        *r -= Work::raw(s * dt);
                    }
                }
            }
        }
    }

    /// ECN decision for a departing packet: the queue (after removal) is
    /// at or above the marking threshold.
    // gn:hot
    pub fn ecn_mark(&self) -> bool {
        self.marking_threshold
            .is_some_and(|th| self.active.len() >= th)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation_names_the_field() {
        assert!(ClosedLoopSpec::new().validate(0).is_ok());
        let bad = ClosedLoopSpec::new().initial_window(0.5);
        let err = bad.validate(3).unwrap_err();
        assert!(matches!(err, DesError::InvalidSource { source: 3, .. }));
        assert!(err.to_string().contains("initial window"));
        let bad = ClosedLoopSpec {
            multiplicative_decrease: 1.0,
            ..ClosedLoopSpec::new()
        };
        assert!(bad.validate(0).is_err());
        let bad = ClosedLoopSpec::new().feedback_delay(0.0);
        assert!(bad.validate(0).is_err());
        let bad = ClosedLoopSpec::new().initial_window(8.0).max_window(4.0);
        assert!(bad.validate(0).is_err());
    }

    #[test]
    fn source_spec_helpers() {
        let open = SourceSpec::open(0.3);
        assert_eq!(open.rate_value(), 0.3);
        assert!(!open.is_closed_loop());
        let closed = SourceSpec::ClosedLoop(ClosedLoopSpec::new());
        assert_eq!(closed.rate_value(), 0.0);
        assert!(closed.is_closed_loop());
    }

    #[test]
    fn aimd_window_dynamics() {
        let mut s = ClosedLoopSource::new(ClosedLoopSpec::new(), ExpStream::new(1));
        assert!(s.can_send());
        s.on_sent();
        s.on_sent();
        assert_eq!(s.outstanding, 2);
        assert!(!s.can_send(), "window 2 fully in flight");
        // Clean ACK: additive increase, slot released.
        s.on_ack(false);
        assert_eq!(s.acked, 1);
        assert!((s.window - 2.5).abs() < 1e-12);
        assert!(s.can_send());
        // Marked ACK: halved, floored at 1.
        s.on_ack(true);
        assert_eq!(s.marked, 1);
        assert!((s.window - 1.25).abs() < 1e-12);
        for _ in 0..10 {
            s.on_ack(true);
        }
        assert_eq!(s.window, 1.0, "window floors at one packet");
        // Growth saturates at max_window.
        let mut g = ClosedLoopSource::new(
            ClosedLoopSpec::new().initial_window(3.0).max_window(4.0),
            ExpStream::new(2),
        );
        for _ in 0..100 {
            g.on_ack(false);
        }
        assert_eq!(g.window, 4.0);
    }

    #[test]
    fn flow_records_distinguish_families() {
        let open = SourceState::Open(OpenLoopSource {
            rate: 0.2,
            arrivals: ExpStream::new(1),
            sizes: ExpStream::new(2),
            sent: 7,
        });
        let r = open.flow_record(0);
        assert_eq!((r.sent, r.acked, r.final_window), (7, 0, 0.0));
        let mut c = ClosedLoopSource::new(ClosedLoopSpec::new(), ExpStream::new(3));
        c.on_sent();
        c.on_ack(true);
        let r = SourceState::Closed(c).flow_record(1);
        assert_eq!(r.source, 1);
        assert_eq!((r.sent, r.acked, r.marked), (1, 1, 1));
        assert_eq!(r.final_window, 1.0);
    }

    /// Packet `id` of `user`, of size `id + 1`.
    fn packet(id: u64, user: usize) -> ActivePacket {
        ActivePacket {
            id,
            user,
            arrival: SimTime::ZERO,
            size: Work::raw(1.0 + id as f64),
        }
    }

    #[test]
    fn ecn_marks_at_threshold() {
        let mut b = Bottleneck::new(1, Some(2));
        assert!(!b.ecn_mark());
        for id in 0..2 {
            b.admit(packet(id, 0));
        }
        assert!(b.ecn_mark());
        assert!(!Bottleneck::new(1, None).ecn_mark());
    }

    /// Every active packet is indexed at its position, and its remaining
    /// work (undrained: its size) sits at the same position.
    fn assert_index_consistent(b: &Bottleneck) {
        assert_eq!(b.work.len(), b.active.len());
        for (i, p) in b.active.iter().enumerate() {
            assert_eq!(b.position(p.id), Some(i), "packet {}", p.id);
            assert_eq!(b.work[i], p.size, "packet {}", p.id);
        }
        assert_ne!(b.slots.front(), Some(&VACANT), "window starts at a live id");
    }

    #[test]
    fn slot_index_follows_swap_remove_and_trims_the_window() {
        let mut b = Bottleneck::new(2, None);
        for id in 0..6 {
            b.admit(packet(id, usize::from(id % 2 == 1)));
        }
        assert_eq!((b.peak, b.counts.clone()), (6, vec![3.0, 3.0]));
        // Removing index 1 moves the last packet (id 5) into its place.
        assert_eq!(b.depart(1).id, 1);
        assert_eq!(b.active[1].id, 5);
        assert_index_consistent(&b);
        assert_eq!(b.position(1), None);
        // Departing the oldest trims the window past every gone id.
        assert_eq!(b.depart(0).id, 0);
        assert_eq!(b.base, 2);
        assert_index_consistent(&b);
        b.admit(packet(6, 0));
        assert_index_consistent(&b);
        while !b.active.is_empty() {
            b.depart(b.active.len() - 1);
            assert_index_consistent(&b);
        }
        assert!(b.slots.is_empty());
        assert_eq!(b.base, 7);
        assert_eq!((b.peak, b.counts.clone()), (6, vec![0.0, 0.0]));
        // An id out of sequence stays unindexed.
        b.admit(packet(40, 1));
        assert_eq!(b.position(40), None);
        assert!(b.slots.is_empty());
    }

    #[test]
    fn serve_resolves_one_packet_and_falls_back_to_shares() {
        use crate::qdisc::{Fifo, ProcessorSharing};
        let mut b = Bottleneck::new(1, None);
        let mut fifo = Fifo::default();
        b.serve(&mut fifo, SimTime::ZERO);
        assert_eq!(b.served, Served::Idle);
        assert_eq!(b.peek_completion(0.0), NONE);
        b.serve(&mut ProcessorSharing, SimTime::ZERO);
        assert_eq!(b.served, Served::Idle);
        for id in 0..3 {
            let p = packet(id, 0);
            fifo.on_arrival(&p, SimTime::ZERO);
            b.admit(p);
        }
        b.serve(&mut fifo, SimTime::ZERO);
        assert_eq!(b.served, Served::One(0));
        assert_eq!(b.peek_completion(2.0), (3.0, 0));
        b.drain(0.25);
        assert_eq!(b.work[0], Work::raw(0.75));
        assert_eq!((b.share(0), b.share(1)), (1.0, 0.0));
        // A discipline that never saw these packets: an even split.
        b.serve(&mut Fifo::default(), SimTime::ZERO);
        assert_eq!(b.served, Served::Even(1.0 / 3.0));
        assert_eq!(b.share(2), 1.0 / 3.0);
        // Processor sharing: the same even split, without shares.
        b.serve(&mut ProcessorSharing, SimTime::ZERO);
        assert_eq!(b.served, Served::Even(1.0 / 3.0));
        assert_eq!(b.share(2), 1.0 / 3.0);
        let (t, idx) = b.peek_completion(0.0);
        assert_eq!((t, idx), (0.75 / (1.0 / 3.0), 0));
        // An unindexed packet named by the discipline: shares again.
        let late = packet(99, 0);
        fifo.on_departure(&b.active[0].clone(), SimTime::ZERO);
        b.depart(0);
        let mut lifo = crate::qdisc::LifoPreemptive::default();
        lifo.on_arrival(&late, SimTime::ZERO);
        b.admit(late);
        b.serve(&mut lifo, SimTime::ZERO);
        assert_eq!(b.served, Served::Split);
        assert_eq!(b.share(2), 1.0);
    }

    /// A discipline answering `service` with `.0` and `shares` with `.1`.
    #[derive(Debug)]
    struct Answer(Service, Vec<f64>);

    impl QDisc for Answer {
        fn name(&self) -> &'static str {
            "answer"
        }
        fn on_arrival(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
        fn on_departure(&mut self, _pkt: &ActivePacket, _now: SimTime) {}
        fn shares(&mut self, _active: &[ActivePacket], _now: SimTime, out: &mut Vec<f64>) {
            out.clone_from(&self.1);
        }
        fn service(&mut self, _now: SimTime) -> Service {
            self.0
        }
    }

    /// A bottleneck holding packets `0..k`, served by `answer`.
    fn serving(k: u64, answer: Service, shares: Vec<f64>) -> Bottleneck {
        let mut b = Bottleneck::new(1, None);
        for id in 0..k {
            b.admit(packet(id, 0));
        }
        b.serve(&mut Answer(answer, shares), SimTime::ZERO);
        b
    }

    #[test]
    fn even_share_vectors_run_on_the_clock_and_others_stay_split() {
        let third = 1.0 / 3.0;
        let mut b = serving(3, Service::Split, vec![third; 3]);
        assert_eq!((b.served, b.tags.len()), (Served::Even(third), 3));
        assert_eq!(b.peek_completion(2.0), (2.0 + 1.0 / third, 0));
        let next_up = f64::from_bits(third.to_bits() + 1);
        for uneven in [
            vec![0.5, 0.25, 0.25],
            vec![0.5, 0.5],
            vec![0.25; 4],
            vec![third, third, next_up],
            vec![0.0; 3],
            vec![f64::INFINITY; 3],
            vec![f64::NAN; 3],
        ] {
            b.serve(&mut Answer(Service::Split, uneven.clone()), SimTime::ZERO);
            assert_eq!((b.served, b.tags.len()), (Served::Split, 0), "{uneven:?}");
            // Each tag came back as the packet's work, its whole size.
            assert_index_consistent(&b);
            b.serve(&mut Answer(Service::Split, vec![third; 3]), SimTime::ZERO);
        }
        // A lone packet holding the whole server is served as `One`.
        for (answer, shares) in [(Service::Split, vec![1.0]), (Service::Even, vec![])] {
            let lone = serving(1, answer, shares);
            assert_eq!((lone.served, lone.tags.len()), (Served::One(0), 0));
        }
    }

    #[test]
    fn tags_leave_with_their_packets_and_unindexed_ids_are_scanned() {
        let mut b = serving(4, Service::Even, vec![]);
        // Packet 0 holds the smallest tag; packet 2 leaves first.
        assert_eq!(b.depart(2).id, 2);
        assert!(b.tags.iter().all(|&Reverse((_, id))| id != 2));
        // Out of sequence, so unindexed, and holding the least work.
        b.admit(ActivePacket {
            size: Work::raw(0.5),
            ..packet(40, 0)
        });
        assert_eq!(b.position(40), None);
        // Serving each completion in turn departs every packet in tag
        // order, the last one alone on the server, off the clock.
        let (mut now, mut order) = (0.0, Vec::new());
        while !b.active.is_empty() {
            b.serve(&mut Answer(Service::Even, vec![]), SimTime::raw(now));
            assert_eq!(b.tags.len(), usize::from(b.serves_all()) * b.active.len());
            let (t, i) = b.peek_completion(now);
            b.drain(t - now);
            now = t;
            order.push(b.depart(i).id);
        }
        assert_eq!(order, vec![40, 0, 1, 3]);
        // Work conservation: sizes 0.5, 1, 2 and 4 take 7.5 time units.
        assert!((now - 7.5).abs() < 1e-12, "{now}");
    }

    #[test]
    fn even_one_even_round_trip_keeps_each_packets_work() {
        /// Serves `answer` for `dt`, and drains `want` by hand alike.
        fn step(b: &mut Bottleneck, want: &mut [f64], answer: Service, dt: f64) {
            b.serve(&mut Answer(answer, vec![]), SimTime::ZERO);
            b.drain(dt);
            let k = want.len() as f64;
            match b.served {
                Served::One(i) => want[i] -= dt,
                _ => want.iter_mut().for_each(|w| *w -= dt / k),
            }
        }
        let mut b = serving(5, Service::Even, vec![]);
        let mut want: Vec<f64> = (1..=5).map(f64::from).collect();
        step(&mut b, &mut want, Service::Even, 0.3);
        step(&mut b, &mut want, Service::One(0), 0.2);
        step(&mut b, &mut want, Service::Even, 1.1);
        // Admitted on the clock, at its whole size.
        b.admit(packet(5, 0));
        want.push(6.0);
        step(&mut b, &mut want, Service::Even, 0.5);
        b.serve(&mut Answer(Service::One(0), vec![]), SimTime::ZERO);
        assert_eq!((b.served, b.tags.len()), (Served::One(0), 0));
        for (got, w) in b.work.iter().zip(&want) {
            assert!((got.get() - w).abs() <= 1e-12 * w, "{got:?} vs {w}");
        }
    }
}
