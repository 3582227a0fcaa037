//! Compatibility shim for the pre-calendar module layout.
//!
//! The disciplines now live in [`crate::qdisc`] under the `QDisc` trait
//! name (ROADMAP item 1 / the minim-style entity architecture). This
//! module re-exports the discipline *types* under their old paths so
//! external callers keep compiling. The deprecated `Discipline` trait
//! alias that used to live here was removed after its deprecation
//! cycle — the trait is [`QDisc`](crate::qdisc::QDisc), full stop.

pub use crate::qdisc::{
    ActivePacket, Fifo, FsPriorityTable, LifoPreemptive, PreemptivePriority, ProcessorSharing,
    StartTimeFairQueueing,
};

#[cfg(test)]
mod tests {
    use super::{Fifo, ProcessorSharing};
    use crate::qdisc::QDisc;

    #[test]
    fn old_paths_still_resolve_under_the_qdisc_trait() {
        let boxed: Box<dyn QDisc> = Box::new(Fifo::default());
        assert_eq!(boxed.name(), "FIFO");
        assert_eq!(ProcessorSharing.name(), "PS");
    }

    #[test]
    fn deprecated_discipline_alias_is_gone() {
        // The alias completed its deprecation cycle; its absence is the
        // contract now. Pin it at the source level so a compat re-export
        // cannot quietly reappear. The needle is assembled at runtime so
        // this test's own source (included below) never matches it.
        let needle = format!("QDisc as {}", "Discipline");
        for src in [
            include_str!("lib.rs"),
            include_str!("disciplines.rs"),
            include_str!("qdisc.rs"),
        ] {
            assert!(
                !src.contains(&needle),
                "deprecated `Discipline` alias re-introduced"
            );
        }
    }
}
