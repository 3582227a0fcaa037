//! Library backing the `greednet` command-line tool: argument parsing and
//! the command implementations, kept in a lib target so they are unit
//! testable.
//!
//! Commands:
//!
//! * `nash` — compute the Nash equilibrium of a utility profile under a
//!   chosen discipline;
//! * `simulate` — run the packet simulator and report per-user queues,
//!   delays and throughputs;
//! * `table` — print the Table 1 priority decomposition for a rate
//!   vector;
//! * `protect` — sweep adversarial opponents against a victim and compare
//!   with the Theorem 8 bound;
//! * `largen` — solve the large-N (or continuum) mean-field equilibrium
//!   for a K-class population (see `greednet_largen`);
//! * `network` — solve the parking-lot network equilibrium;
//! * `exp` — run (or list) the paper-reproduction experiments from the
//!   central registry, with `--seed/--threads/--json/--csv/--smoke`;
//! * `serve` — the long-running scenario service: JSONL requests over
//!   stdin/stdout or TCP, answered through a canonical-hash result cache
//!   (see `greednet_serve`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};

/// Runs a parsed command, writing human-readable output to stdout.
///
/// # Errors
/// Returns a human-readable error string on invalid input or solver
/// failure.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Scenario {
            kind,
            trace,
            metrics,
        } => commands::scenario(kind, trace.as_deref(), metrics),
        Command::Network(a) => commands::network(a),
        Command::Exp(a) => commands::exp(a),
        Command::Serve(a) => commands::serve(a),
        Command::Help => {
            print!("{}", args::USAGE);
            Ok(())
        }
    }
}
