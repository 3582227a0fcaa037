//! Property tests for the event calendar: [`EventCalendar`] must pop in
//! exactly the order a sorted-vector reference model would — earliest
//! time first (by `f64::total_cmp`), FIFO by sequence number on ties —
//! for arbitrary interleavings of schedules, pops and replacements of
//! the earliest event. A replacement must match the model's pop followed
//! by a schedule: the same sequence numbers, pending count and pop order.
//! The engine's determinism contract rests on this ordering being total
//! and stable.

use greednet_des::calendar::{EventCalendar, EventQueue};
use greednet_des::SimTime;
use proptest::prelude::*;

/// Reference model: a plain vector re-sorted on every operation with the
/// exact comparator the calendar promises (total_cmp time, then seq).
#[derive(Default)]
struct SortedVecModel {
    items: Vec<(f64, u64, u32)>, // (time, seq, payload)
    next_seq: u64,
}

impl SortedVecModel {
    fn schedule(&mut self, time: f64, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push((time, seq, payload));
        self.items
            .sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        seq
    }

    fn pop(&mut self) -> Option<(f64, u64, u32)> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }

    fn peek_time(&self) -> Option<f64> {
        self.items.first().map(|&(t, _, _)| t)
    }
}

/// One step of the interleaving: schedule at the given time, pop, or
/// peek and then replace the earliest event with one at the given time.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64),
    Pop,
    Replace(f64),
}

/// Draws ops at a 6:2:2 schedule:pop:replace ratio. A coarse integer
/// grid forces bitwise-equal time collisions, for schedules and
/// replacements alike, so the seq tie-break is exercised constantly; the
/// signed zeros and fine-grained times cover the total_cmp path.
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0u8..10, 0.0f64..100.0).prop_map(|(pick, grid, fine)| match pick {
        0..=2 => Op::Schedule(f64::from(grid)),
        3 => Op::Schedule(-0.0),
        4 => Op::Schedule(0.0),
        5 => Op::Schedule(fine),
        6 | 7 => Op::Pop,
        _ => Op::Replace(f64::from(grid)),
    })
}

proptest! {
    #[test]
    fn calendar_pops_in_sorted_vec_reference_order(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut calendar: EventCalendar<u32> = EventCalendar::new();
        let mut model = SortedVecModel::default();
        for (i, op) in ops.into_iter().enumerate() {
            let payload = u32::try_from(i).unwrap();
            match op {
                Op::Schedule(t) => {
                    let seq_c = calendar.schedule(SimTime::raw(t), payload);
                    let seq_m = model.schedule(t, payload);
                    prop_assert_eq!(seq_c, seq_m);
                }
                Op::Pop => {
                    match (calendar.pop(), model.pop()) {
                        (None, None) => {}
                        (Some(ev), Some((t, seq, payload))) => {
                            prop_assert_eq!(ev.time.get().to_bits(), t.to_bits());
                            prop_assert_eq!(ev.seq, seq);
                            prop_assert_eq!(ev.item, payload);
                        }
                        (c, m) => prop_assert!(false, "emptiness diverged: calendar {:?} vs model {:?}", c.is_some(), m.is_some()),
                    }
                }
                Op::Replace(t) => {
                    let earliest = calendar.peek().map(|ev| (ev.time.get().to_bits(), ev.seq, ev.item));
                    let popped = model.pop().map(|(t, seq, payload)| (t.to_bits(), seq, payload));
                    prop_assert_eq!(earliest, popped);
                    let seq_c = calendar.replace_earliest(SimTime::raw(t), payload);
                    let seq_m = model.schedule(t, payload);
                    prop_assert_eq!(seq_c, seq_m);
                }
            }
            // Invariants checked at every step, not just at pops.
            prop_assert_eq!(calendar.len(), model.items.len());
            prop_assert_eq!(calendar.is_empty(), model.items.is_empty());
            match (calendar.peek_time(), model.peek_time()) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert_eq!(a.get().to_bits(), b.to_bits()),
                (a, b) => prop_assert!(false, "peek diverged: {:?} vs {:?}", a, b),
            }
        }
    }

    #[test]
    fn draining_a_batch_yields_a_stable_sort(times in proptest::collection::vec(0u8..5, 1..60)) {
        // Schedule everything up front, then drain: the pop order must be
        // a STABLE sort of the input by time (ties in schedule order).
        let mut calendar: EventCalendar<usize> = EventCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            calendar.schedule(SimTime::raw(f64::from(t)), i);
        }
        let mut expected: Vec<(u8, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        let mut drained = Vec::new();
        while let Some(ev) = calendar.pop() {
            drained.push(ev.item);
        }
        let expected: Vec<usize> = expected.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(drained, expected);
    }
}

#[test]
fn negative_zero_sorts_before_positive_zero() {
    // total_cmp distinguishes the zeros; schedule +0 first to prove the
    // ordering comes from the comparator, not insertion order.
    let mut calendar: EventCalendar<&str> = EventCalendar::new();
    calendar.schedule(SimTime::raw(0.0), "positive");
    calendar.schedule(SimTime::raw(-0.0), "negative");
    assert_eq!(calendar.pop().unwrap().item, "negative");
    assert_eq!(calendar.pop().unwrap().item, "positive");
}
