//! Shared experiment-runner options and the one dispatch path over the
//! central registry.
//!
//! `greednet exp <id>` (the CLI crate), the `run_all` binary and the
//! serve `exp` request all parse [`ExpArgs`] or call
//! [`run_experiment`], so there is exactly one way to run an experiment
//! by id.

use crate::experiments::registry;
use greednet_runtime::{available_threads, Budget, ExpCtx, Format, RunReport};

/// Parsed experiment-runner options (shared by all entry points).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Root seed (default 0).
    pub seed: u64,
    /// Worker threads (default: all hardware threads).
    pub threads: usize,
    /// Output format (default text).
    pub format: Format,
    /// Run with the tiny smoke budget instead of paper fidelity.
    pub smoke: bool,
    /// Gather telemetry (histogram sections + pool-utilization side
    /// channel); never changes the deterministic numeric results.
    pub metrics: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            seed: 0,
            threads: available_threads(),
            format: Format::Text,
            smoke: false,
            metrics: false,
        }
    }
}

impl ExpArgs {
    /// Parses `--seed N`, `--threads N`, `--json` / `--csv` /
    /// `--format F`, `--smoke`, and `--metrics` from an argument list.
    ///
    /// # Errors
    /// A human-readable message naming the offending flag or value.
    pub fn parse(args: &[String]) -> Result<ExpArgs, String> {
        let mut out = ExpArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => out.format = Format::Json,
                "--csv" => out.format = Format::Csv,
                "--smoke" => out.smoke = true,
                "--metrics" => out.metrics = true,
                "--format" => {
                    let v = it.next().ok_or("--format needs a value (text|json|csv)")?;
                    out.format = Format::parse(v).ok_or_else(|| format!("unknown format {v:?}"))?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    out.seed = v.parse().map_err(|_| format!("invalid seed {v:?}"))?;
                }
                "--threads" => {
                    let v = it.next().ok_or("--threads needs a value")?;
                    let t: usize = v
                        .parse()
                        .map_err(|_| format!("invalid thread count {v:?}"))?;
                    if t == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                    out.threads = t;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(out)
    }

    /// The execution context these options describe.
    #[must_use]
    pub fn ctx(&self) -> ExpCtx {
        let budget = if self.smoke {
            Budget::smoke()
        } else {
            Budget::full()
        };
        ExpCtx::new(self.seed, self.threads)
            .with_budget(budget)
            .with_telemetry(self.metrics)
    }
}

/// Runs the experiment `id` from the central registry.
///
/// # Errors
/// If `id` is not registered (the message lists all known ids).
pub fn run_experiment(id: &str, ctx: &ExpCtx) -> Result<RunReport, String> {
    let reg = registry();
    let exp = reg.get(id).ok_or_else(|| {
        format!(
            "unknown experiment {id:?}; known ids: {}",
            reg.ids().join(", ")
        )
    })?;
    Ok(exp.run(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let d = ExpArgs::parse(&[]).unwrap();
        assert_eq!(d.seed, 0);
        assert_eq!(d.format, Format::Text);
        assert!(!d.smoke);

        let a = ExpArgs::parse(&s(&[
            "--seed",
            "7",
            "--threads",
            "4",
            "--json",
            "--smoke",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 4);
        assert_eq!(a.format, Format::Json);
        assert!(a.smoke);
        assert!(a.metrics);
        assert_eq!(a.ctx().threads, 4);
        assert!(a.ctx().telemetry);
        assert!(!ExpArgs::parse(&[]).unwrap().ctx().telemetry);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(ExpArgs::parse(&s(&["--threads", "0"])).is_err());
        assert!(ExpArgs::parse(&s(&["--format", "xml"])).is_err());
        assert!(ExpArgs::parse(&s(&["--wat"])).is_err());
        assert!(ExpArgs::parse(&s(&["--seed"])).is_err());
    }

    #[test]
    fn unknown_experiment_lists_ids() {
        let err = run_experiment("nope", &ExpCtx::default()).unwrap_err();
        assert!(err.contains("e9"), "{err}");
        assert!(err.contains("t1"), "{err}");
    }
}
