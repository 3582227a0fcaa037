//! The event calendar: pending timer events ordered by fire time.
//!
//! The engine schedules *source-side* events here — the next open-loop
//! Poisson arrival per source and in-flight closed-loop ACKs — while the
//! bottleneck's next completion remains a *derived* event recomputed from
//! what it serves after every state change (processor sharing's `1/k`
//! moves at every arrival and departure, so a cached completion time
//! would be stale the moment it was scheduled).
//!
//! Ordering contract (property-tested in `tests/calendar_props.rs`):
//! events pop in non-decreasing fire time under `f64::total_cmp`, and
//! events with *bitwise equal* times pop in schedule order (a
//! monotonically increasing sequence number breaks ties). That makes the
//! pop order a pure function of the schedule history — no dependence on
//! heap internals — which the workspace's bitwise-determinism contract
//! requires.
//!
//! A fired event usually schedules its own successor (an open-loop
//! `Fire` schedules the next one), so the engine peeks at the earliest
//! event, lets it fire, and then puts the first command its reaction
//! scheduled in its place with [`EventQueue::replace_earliest`]: one
//! sift of the heap instead of a pop and a push, with the sequence number
//! `schedule` would assign, so the pending set and the pop order are
//! those of the pop followed by the schedule.
//!
//! The storage backend is abstracted behind [`EventQueue`] so a calendar
//! queue or hierarchical timing wheel can replace the binary heap
//! without touching the engine; [`EventCalendar`] is the binary-heap
//! implementation used today.

use crate::units::SimTime;
use std::collections::BinaryHeap;

/// A pending event: the fire time, the tie-breaking sequence number
/// assigned at schedule time, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledEvent<T> {
    /// Absolute fire time.
    pub time: SimTime,
    /// Schedule-order sequence number (unique per calendar).
    pub seq: u64,
    /// The scheduled payload.
    pub item: T,
}

/// Priority-queue interface for the event calendar.
///
/// Implementations must pop in non-decreasing `total_cmp` time order
/// with schedule-order tie-breaking (see the module docs); the engine is
/// written against this trait so the backend can be swapped for a
/// calendar queue / timing wheel later.
pub trait EventQueue<T> {
    /// Schedules `item` to fire at absolute `time`; returns the sequence
    /// number assigned for tie-breaking.
    fn schedule(&mut self, time: SimTime, item: T) -> u64;

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<ScheduledEvent<T>>;

    /// The earliest pending event, left in place.
    fn peek(&self) -> Option<&ScheduledEvent<T>>;

    /// Replaces the earliest pending event with `item` firing at `time`,
    /// exactly as [`pop`](EventQueue::pop) then
    /// [`schedule`](EventQueue::schedule) would (on an empty queue, as
    /// `schedule` alone): the same sequence number, which it returns, the
    /// same pending events and the same pop order.
    fn replace_earliest(&mut self, time: SimTime, item: T) -> u64;

    /// Fire time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|e| e.time)
    }

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Binary-heap [`EventQueue`] backend.
#[derive(Debug)]
pub struct EventCalendar<T> {
    heap: BinaryHeap<Slot<T>>,
    next_seq: u64,
}

impl<T> EventCalendar<T> {
    /// An empty calendar.
    #[must_use]
    pub fn new() -> Self {
        EventCalendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Assigns the next sequence number.
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        EventCalendar::new()
    }
}

impl<T> EventQueue<T> for EventCalendar<T> {
    // gn:hot(amortized)
    fn schedule(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.take_seq();
        self.heap.push(Slot(ScheduledEvent { time, seq, item }));
        seq
    }

    // gn:hot
    fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        self.heap.pop().map(|s| s.0)
    }

    // gn:hot
    fn peek(&self) -> Option<&ScheduledEvent<T>> {
        self.heap.peek().map(|s| &s.0)
    }

    // gn:hot(amortized)
    fn replace_earliest(&mut self, time: SimTime, item: T) -> u64 {
        let seq = self.take_seq();
        let slot = Slot(ScheduledEvent { time, seq, item });
        if let Some(mut top) = self.heap.peek_mut() {
            // Dropping `top` sifts the new event down from the root.
            *top = slot;
            return seq;
        }
        self.heap.push(slot);
        seq
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Heap slot. `BinaryHeap` is a max-heap, so the `Ord` impl is reversed:
/// the "greatest" slot is the one with the earliest (`total_cmp`) time,
/// lowest sequence number on ties.
#[derive(Debug)]
struct Slot<T>(ScheduledEvent<T>);

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Slot<T> {}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed on both keys: earliest time first, then FIFO on ties.
        let (a, b) = (&self.0, &other.0);
        b.time
            .get()
            .total_cmp(&a.time.get())
            .then_with(|| b.seq.cmp(&a.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(t: f64) -> SimTime {
        SimTime::raw(t)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(at(3.0), "c");
        cal.schedule(at(1.0), "a");
        cal.schedule(at(2.0), "b");
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.peek_time(), Some(at(1.0)));
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop()).map(|e| e.item).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert!(cal.is_empty());
    }

    #[test]
    fn bitwise_equal_times_pop_in_schedule_order() {
        let mut cal = EventCalendar::new();
        let s0 = cal.schedule(at(5.0), 0);
        let s1 = cal.schedule(at(5.0), 1);
        let s2 = cal.schedule(at(5.0), 2);
        assert!(s0 < s1 && s1 < s2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop()).map(|e| e.item).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn total_cmp_handles_infinities_and_zero_signs() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime::INFINITY, "inf");
        cal.schedule(at(0.0), "pz");
        cal.schedule(at(-0.0), "nz");
        // total_cmp: -0.0 < +0.0 < inf.
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop()).map(|e| e.item).collect();
        assert_eq!(order, ["nz", "pz", "inf"]);
    }

    #[test]
    fn replacing_the_earliest_takes_the_next_seq() {
        let mut cal = EventCalendar::new();
        // On an empty calendar a replacement is a schedule.
        assert_eq!(cal.replace_earliest(at(4.0), "a"), 0);
        assert_eq!(cal.schedule(at(4.0), "b"), 1);
        assert_eq!(cal.peek().map(|e| (e.seq, e.item)), Some((0, "a")));
        // "a" fires and its successor ties with "b": seq 2 pops after it.
        assert_eq!(cal.replace_earliest(at(4.0), "c"), 2);
        assert_eq!(cal.len(), 2);
        let order: Vec<&str> = std::iter::from_fn(|| cal.pop()).map(|e| e.item).collect();
        assert_eq!(order, ["b", "c"]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = EventCalendar::new();
        cal.schedule(at(10.0), 10);
        cal.schedule(at(4.0), 4);
        assert_eq!(cal.pop().unwrap().item, 4);
        cal.schedule(at(7.0), 7);
        cal.schedule(at(2.0), 2);
        assert_eq!(cal.pop().unwrap().item, 2);
        assert_eq!(cal.pop().unwrap().item, 7);
        assert_eq!(cal.pop().unwrap().item, 10);
        assert_eq!(cal.pop(), None);
        assert_eq!(cal.peek_time(), None);
    }
}
