//! Packet-level discrete-event simulation of the paper's switch.
//!
//! The analytical layers (`greednet-queueing`, `greednet-core`) work with
//! closed-form M/M/1 allocation functions; this crate builds the actual
//! switch those formulas describe: `N` packet sources feeding an
//! exponential unit-rate server under a configurable service discipline.
//! It exists for three reasons:
//!
//! 1. **Validation** — every closed-form allocation function is checked
//!    against simulated packets (experiment E9), including the Table 1
//!    priority-table realization of Fair Share (experiment T1);
//! 2. **Realism** — the hill-climbing users of `greednet-learning` can
//!    optimize against *noisy measurements* from this simulator rather
//!    than exact formulas, reproducing the paper's "adjust the knob until
//!    the picture looks best" story (§2.2);
//! 3. **The §5.2 scenarios** — FTP/Telnet/ill-behaved source mixes under
//!    FIFO vs Fair Queueing, including closed-loop ACK-clocked sources
//!    with ECN-style congestion marking.
//!
//! # Architecture
//!
//! The crate is layered as a small event-calendar DES framework
//! specialized to the paper's single-bottleneck topology:
//!
//! * [`units`] — [`SimTime`], [`Rate`], [`Work`]: `#[repr(transparent)]`
//!   `f64` newtypes with checked constructors, so physically distinct
//!   quantities cannot be swapped at an API boundary.
//! * [`calendar`] — the pending-event set: a binary-heap
//!   [`calendar::EventCalendar`] behind the swappable
//!   [`calendar::EventQueue`] trait, ordered by `f64::total_cmp` with
//!   FIFO sequence tie-breaking.
//! * [`qdisc`] — the [`QDisc`] trait (queueing discipline): names the
//!   packet that holds the whole server ([`Service::One`]), answered
//!   from id queues the discipline keeps in its arrival/departure hooks
//!   (FIFO serves the oldest packet; priority disciplines the oldest of
//!   the highest non-empty level; fair queueing the smallest virtual
//!   start tag, non-preemptively), gives every active packet `1/k` of
//!   the server ([`Service::Even`], processor sharing), or splits the
//!   server by a vector of non-negative *service shares* summing to 1.
//! * [`entities`] — [`entities::SourceSpec`] sources (open-loop Poisson
//!   or closed-loop AIMD), the bottleneck, which keeps each active
//!   packet's remaining work packed beside the active set, and the typed
//!   [`entities::Cmd`]s they exchange through the calendar.
//! * [`engine`] — the [`Engine`] event loop, the one simulator API:
//!   an [`EngineConfig`] (open-loop rates via
//!   [`EngineConfig::open_loop`], or any mix of sources) validated once
//!   by [`Engine::new`]. The loop pops commands, dispatches them to
//!   entities, drains work between events from the served packet, the
//!   even split or the QDisc's shares, and integrates statistics into a
//!   [`SimResult`]. Bottleneck completions are *derived* events
//!   recomputed from what is served after every state change, so
//!   processor sharing never leaves stale entries on the calendar; the
//!   [`EngineReport`] carries the result, per-flow records, and the
//!   run's peak backlog and calendar depth.
//!
//! Packet sizes are i.i.d. unit-mean (`Exp(1)` by default), open-loop
//! arrivals are Poisson, so every discipline sees the same M/M/1
//! workload modulo scheduling.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calendar;
pub mod engine;
pub mod entities;
pub mod error;
pub mod qdisc;
pub mod rng;
pub mod scenarios;
pub mod service;
pub mod units;

pub use engine::{
    Engine, EngineConfig, EngineReport, SimResult, DEFAULT_WARMUP_FRACTION, DEFAULT_WINDOWS,
};
pub use entities::{ClosedLoopSpec, Cmd, FlowRecord, SourceSpec};
pub use error::DesError;
pub use qdisc::{
    ActivePacket, Fifo, FsPriorityTable, LifoPreemptive, PreemptivePriority, ProcessorSharing,
    QDisc, Service, StartTimeFairQueueing,
};
pub use service::ServiceDist;
pub use units::{Rate, SimTime, Work};

// Instrumentation surface for `Engine::run_probed`, re-exported so
// simulation callers don't need a direct greednet-telemetry dependency.
pub use greednet_telemetry::{
    CalendarEvent, CalendarEventKind, MetricsProbe, NoopProbe, PacketEvent, PacketEventKind, Probe,
    SimMetrics, TraceBuffer,
};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DesError>;
