//! Hand-rolled argument parsing for the `greednet` CLI (no external
//! dependencies; the grammar is tiny).

use greednet_bench::exp_cli::ExpArgs;
use greednet_serve::request::{DEFAULT_CLASSES, DEFAULT_USERS};
use std::fmt;

/// Usage text.
pub const USAGE: &str = "\
greednet — selfish flow control over a shared switch (Shenker, SIGCOMM 1994)

USAGE:
    greednet <COMMAND> [OPTIONS]

COMMANDS:
    nash       Compute a Nash equilibrium
               --discipline fifo|fs|sp   (default fs)
               --users SPEC              semicolon-separated utilities:
                                         linear:A,GAMMA | log:W,GAMMA |
                                         power:A,GAMMA  | quad:A,GAMMA
               --trace FILE              write solver iterates as JSONL
    simulate   Run the packet-level simulator
               --rates R1,R2,...         Poisson rates (required)
               --discipline fifo|lifo|ps|sp|fs|sfq   (default fs)
               --horizon T               (default 100000)
               --warmup T                (default horizon/10)
               --windows K               batch-means windows (default 32)
               --seed S                  (default 1)
               --service M|D|E<k>|H2:<cs2>   (default M)
               --trace FILE              write packet events as JSONL
               --metrics                 print delay/occupancy/busy-period
                                         histograms and event counters
    table      Print the Table 1 priority decomposition
               --rates R1,R2,...         (required)
    protect    Adversarial congestion vs the Theorem 8 bound
               --n N                     total users (default 4)
               --victim R                victim rate (default 0.1)
               --discipline fifo|fs|sp   (default fs)
    network    Nash equilibrium on a parking-lot network (one through
               user crossing k switches + one local user per switch)
               --switches K              (default 3)
               --discipline fifo|fs|sp   (default fs)
    largen     Large-N equilibrium via the mean-field engine
               --discipline fifo|fs|sfq  (default fs)
               --n N                     users; 0 solves the continuum
                                         limit (default 10000)
               --classes SPEC            semicolon-separated class
                                         utilities, family:a,b (default
                                         three log classes w=0.6/0.5/0.4)
               --weights W1,W2,...       class mass fractions (default
                                         equal; normalized to sum 1)
               --seed S                  (default 1)
               --threads N               sweep shards; results are
                                         bitwise identical at any count
                                         (default 1)
    exp        Run a paper-reproduction experiment from the registry
               (no id: list all experiments)
               greednet exp <ID> [--seed N] [--threads N]
                                 [--json|--csv|--format F] [--smoke]
                                 [--metrics]
    serve      Long-running scenario service: newline-delimited JSON
               requests on stdin (or a TCP socket), streaming
               accepted/progress/result records back, with a canonical-
               hash LRU cache answering repeated scenarios bitwise-
               identically (see README § greednet serve)
               --tcp ADDR                listen on ADDR instead of stdio
                                         (use 127.0.0.1:0 for any port)
               --threads N               batch fan-out threads (default 1)
               --cache N                 result-cache entries (default 1024)
    help       Show this message

EXAMPLES:
    greednet nash --discipline fs --users 'log:0.5,1.0;linear:1.0,0.3'
    greednet simulate --rates 0.1,0.3 --discipline sfq --horizon 50000
    greednet simulate --rates 0.3,0.3 --trace /tmp/t.jsonl --metrics
    greednet table --rates 0.05,0.1,0.2,0.3
    greednet protect --n 4 --victim 0.1 --discipline fifo
    greednet largen --discipline fs --n 100000 --threads 4
    greednet exp e9 --threads 4 --json
    echo '{\"kind\":\"nash\"}' | greednet serve
";

/// A parsed CLI command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compute a Nash equilibrium.
    Nash(NashArgs),
    /// Run the packet simulator.
    Simulate(SimulateArgs),
    /// Print the Table 1 decomposition.
    Table(TableArgs),
    /// Protection sweep.
    Protect(ProtectArgs),
    /// Parking-lot network equilibrium.
    Network(NetworkArgs),
    /// Large-N mean-field equilibrium.
    Largen(LargenArgs),
    /// Registry experiment runner.
    Exp(ExpCmdArgs),
    /// Long-running scenario service.
    Serve(ServeArgs),
    /// Show usage.
    Help,
}

/// Arguments for `nash`.
#[derive(Debug, Clone, PartialEq)]
pub struct NashArgs {
    /// Discipline name (fifo/fs/sp).
    pub discipline: String,
    /// Utility specs.
    pub users: Vec<UtilitySpec>,
    /// Write best-response solver iterates to this file as JSONL.
    pub trace: Option<String>,
}

/// Arguments for `simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Poisson rates.
    pub rates: Vec<f64>,
    /// Discipline name (fifo/lifo/ps/sp/fs/sfq).
    pub discipline: String,
    /// Simulated horizon.
    pub horizon: f64,
    /// Warm-up interval (`None` keeps the engine default, horizon/10).
    pub warmup: Option<f64>,
    /// Batch-means window count (`None` keeps the engine default).
    pub windows: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Service-time spec (`M`/`D`/`E<k>`/`H2:<cs2>`).
    pub service: String,
    /// Write packet lifecycle events to this file as JSONL.
    pub trace: Option<String>,
    /// Print telemetry histograms and event counters after the run.
    pub metrics: bool,
}

/// Arguments for `table`.
#[derive(Debug, Clone, PartialEq)]
pub struct TableArgs {
    /// Rates to decompose.
    pub rates: Vec<f64>,
}

/// Arguments for `protect`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectArgs {
    /// Total number of users.
    pub n: usize,
    /// Victim rate.
    pub victim: f64,
    /// Discipline name.
    pub discipline: String,
}

/// Arguments for `largen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LargenArgs {
    /// Discipline name (fifo/fs/sfq).
    pub discipline: String,
    /// User count; `0` solves the continuum limit.
    pub n: u64,
    /// Class utility specs.
    pub classes: Vec<UtilitySpec>,
    /// Class mass fractions (empty = equal split).
    pub weights: Vec<f64>,
    /// RNG seed for the jittered start.
    pub seed: u64,
    /// Sweep shards (bitwise identical at any count).
    pub threads: usize,
}

/// Arguments for `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP listen address (e.g. `127.0.0.1:4650`); `None` serves
    /// stdin/stdout.
    pub tcp: Option<String>,
    /// Worker threads for `batch` fan-out (response bytes are identical
    /// at any width).
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache: usize,
}

/// Arguments for `exp`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpCmdArgs {
    /// Experiment id (`t1`, `e1`..`e18`); `None` lists the registry.
    pub id: Option<String>,
    /// The shared experiment-runner flags (`--seed`, `--threads`,
    /// `--json`, ...), parsed with the rest of the command line so a bad
    /// flag is a usage error.
    pub opts: ExpArgs,
}

/// Arguments for `network`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkArgs {
    /// Number of switches in the parking lot.
    pub switches: usize,
    /// Discipline name.
    pub discipline: String,
}

/// A user utility specification.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilitySpec {
    /// Family: linear/log/power/quad.
    pub family: String,
    /// First parameter.
    pub a: f64,
    /// Second parameter.
    pub b: f64,
}

/// Parse error with a message suitable for the terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Removes every occurrence of the boolean flag (which takes no value),
/// returning the remaining arguments and whether it was present — run
/// this *before* [`options`], which pairs every `--key` with a value.
fn strip_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let mut found = false;
    let kept = args
        .iter()
        .filter(|a| {
            let hit = a.as_str() == flag;
            found |= hit;
            !hit
        })
        .cloned()
        .collect();
    (kept, found)
}

/// Extracts `--key value` options from the tail of an argument list.
fn options(args: &[String]) -> Result<Vec<(String, String)>, ParseError> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return err(format!("expected --option, got '{k}'"));
        };
        let Some(v) = it.next() else {
            return err(format!("--{key} needs a value"));
        };
        out.push((key.to_string(), v.clone()));
    }
    Ok(out)
}

fn get<'a>(opts: &'a [(String, String)], key: &str) -> Option<&'a str> {
    opts.iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Parses a comma-separated list of rates.
pub fn parse_rates(s: &str) -> Result<Vec<f64>, ParseError> {
    let rates: Result<Vec<f64>, _> = s.split(',').map(|x| x.trim().parse::<f64>()).collect();
    match rates {
        Ok(r) if !r.is_empty() && r.iter().all(|x| x.is_finite() && *x >= 0.0) => Ok(r),
        _ => err(format!("invalid rate list '{s}' (expected e.g. 0.1,0.2)")),
    }
}

/// Parses the semicolon-separated utility list.
pub fn parse_users(s: &str) -> Result<Vec<UtilitySpec>, ParseError> {
    let mut out = Vec::new();
    for part in s.split(';') {
        let part = part.trim();
        let Some((family, params)) = part.split_once(':') else {
            return err(format!("bad utility '{part}' (expected family:a,b)"));
        };
        let family = family.trim().to_lowercase();
        if !["linear", "log", "power", "quad"].contains(&family.as_str()) {
            return err(format!("unknown utility family '{family}'"));
        }
        let Some((a, b)) = params.split_once(',') else {
            return err(format!("bad parameters in '{part}' (expected a,b)"));
        };
        let (Ok(a), Ok(b)) = (a.trim().parse::<f64>(), b.trim().parse::<f64>()) else {
            return err(format!("bad numbers in '{part}'"));
        };
        out.push(UtilitySpec { family, a, b });
    }
    if out.is_empty() {
        return err("at least one utility is required");
    }
    Ok(out)
}

/// Parses a full command line (excluding the program name).
///
/// # Errors
/// [`ParseError`] with a user-facing message.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "nash" => {
            let opts = options(rest)?;
            let users = parse_users(get(&opts, "users").unwrap_or(DEFAULT_USERS))?;
            Ok(Command::Nash(NashArgs {
                discipline: get(&opts, "discipline").unwrap_or("fs").to_string(),
                users,
                trace: get(&opts, "trace").map(String::from),
            }))
        }
        "simulate" => {
            let (rest, metrics) = strip_flag(rest, "--metrics");
            let opts = options(&rest)?;
            let Some(rates) = get(&opts, "rates") else {
                return err("simulate requires --rates");
            };
            let horizon: f64 = get(&opts, "horizon")
                .unwrap_or("100000")
                .parse()
                .map_err(|_| ParseError("bad --horizon".into()))?;
            let warmup: Option<f64> = match get(&opts, "warmup") {
                Some(v) => Some(v.parse().map_err(|_| ParseError("bad --warmup".into()))?),
                None => None,
            };
            let windows: Option<usize> = match get(&opts, "windows") {
                Some(v) => Some(v.parse().map_err(|_| ParseError("bad --windows".into()))?),
                None => None,
            };
            let seed: u64 = get(&opts, "seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| ParseError("bad --seed".into()))?;
            Ok(Command::Simulate(SimulateArgs {
                rates: parse_rates(rates)?,
                discipline: get(&opts, "discipline").unwrap_or("fs").to_string(),
                horizon,
                warmup,
                windows,
                seed,
                service: get(&opts, "service").unwrap_or("M").to_string(),
                trace: get(&opts, "trace").map(String::from),
                metrics,
            }))
        }
        "table" => {
            let opts = options(rest)?;
            let Some(rates) = get(&opts, "rates") else {
                return err("table requires --rates");
            };
            Ok(Command::Table(TableArgs {
                rates: parse_rates(rates)?,
            }))
        }
        "network" => {
            let opts = options(rest)?;
            let switches: usize = get(&opts, "switches")
                .unwrap_or("3")
                .parse()
                .map_err(|_| ParseError("bad --switches".into()))?;
            Ok(Command::Network(NetworkArgs {
                switches,
                discipline: get(&opts, "discipline").unwrap_or("fs").to_string(),
            }))
        }
        "exp" => {
            let (id, flags) = match rest.split_first() {
                Some((first, flags)) if !first.starts_with("--") => (Some(first.clone()), flags),
                _ => (None, rest),
            };
            let opts = ExpArgs::parse(flags).map_err(ParseError)?;
            Ok(Command::Exp(ExpCmdArgs { id, opts }))
        }
        "serve" => {
            let opts = options(rest)?;
            let threads: usize = get(&opts, "threads")
                .unwrap_or("1")
                .parse()
                .map_err(|_| ParseError("bad --threads".into()))?;
            if threads == 0 {
                return err("--threads must be >= 1");
            }
            let cache: usize = get(&opts, "cache")
                .unwrap_or("1024")
                .parse()
                .map_err(|_| ParseError("bad --cache".into()))?;
            Ok(Command::Serve(ServeArgs {
                tcp: get(&opts, "tcp").map(String::from),
                threads,
                cache,
            }))
        }
        "largen" => {
            let opts = options(rest)?;
            let n: u64 = get(&opts, "n")
                .unwrap_or("10000")
                .parse()
                .map_err(|_| ParseError("bad --n".into()))?;
            let classes = parse_users(get(&opts, "classes").unwrap_or(DEFAULT_CLASSES))?;
            let weights: Vec<f64> = match get(&opts, "weights") {
                Some(s) => {
                    parse_rates(s).map_err(|_| ParseError(format!("invalid weight list '{s}'")))?
                }
                None => Vec::new(),
            };
            let seed: u64 = get(&opts, "seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| ParseError("bad --seed".into()))?;
            let threads: usize = get(&opts, "threads")
                .unwrap_or("1")
                .parse()
                .map_err(|_| ParseError("bad --threads".into()))?;
            if threads == 0 {
                return err("--threads must be >= 1");
            }
            Ok(Command::Largen(LargenArgs {
                discipline: get(&opts, "discipline").unwrap_or("fs").to_string(),
                n,
                classes,
                weights,
                seed,
                threads,
            }))
        }
        "protect" => {
            let opts = options(rest)?;
            let n: usize = get(&opts, "n")
                .unwrap_or("4")
                .parse()
                .map_err(|_| ParseError("bad --n".into()))?;
            let victim: f64 = get(&opts, "victim")
                .unwrap_or("0.1")
                .parse()
                .map_err(|_| ParseError("bad --victim".into()))?;
            Ok(Command::Protect(ProtectArgs {
                n,
                victim,
                discipline: get(&opts, "discipline").unwrap_or("fs").to_string(),
            }))
        }
        other => err(format!("unknown command '{other}' (try 'greednet help')")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_runtime::Format;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn usage_states_the_default_window_count() {
        let line = USAGE
            .lines()
            .find(|l| l.contains("--windows K"))
            .expect("simulate lists --windows");
        let default = format!("(default {})", greednet_des::DEFAULT_WINDOWS);
        assert!(line.ends_with(&default), "{line}");
    }

    #[test]
    fn nash_defaults_and_overrides() {
        let Command::Nash(a) = parse(&argv("nash")).unwrap() else {
            panic!()
        };
        assert_eq!(a.discipline, "fs");
        assert_eq!(a.users.len(), 3);
        let Command::Nash(a) =
            parse(&argv("nash --discipline fifo --users linear:1.0,0.5")).unwrap()
        else {
            panic!()
        };
        assert_eq!(a.discipline, "fifo");
        assert_eq!(
            a.users,
            vec![UtilitySpec {
                family: "linear".into(),
                a: 1.0,
                b: 0.5
            }]
        );
    }

    #[test]
    fn simulate_parsing() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --rates 0.1,0.2 --discipline sfq --horizon 5000 --seed 9 --service D",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.rates, vec![0.1, 0.2]);
        assert_eq!(a.discipline, "sfq");
        assert_eq!(a.horizon, 5000.0);
        assert_eq!(a.seed, 9);
        assert_eq!(a.service, "D");
        assert_eq!(a.warmup, None);
        assert_eq!(a.windows, None);
        assert_eq!(a.trace, None);
        assert!(!a.metrics);
        assert!(parse(&argv("simulate")).is_err());
        assert!(parse(&argv("simulate --rates abc")).is_err());
    }

    #[test]
    fn simulate_telemetry_flags() {
        let Command::Simulate(a) = parse(&argv(
            "simulate --rates 0.3,0.3 --warmup 500 --windows 8 --trace /tmp/t.jsonl --metrics",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.warmup, Some(500.0));
        assert_eq!(a.windows, Some(8));
        assert_eq!(a.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(a.metrics);
        // --metrics is a bare flag: it must not swallow the next option.
        let Command::Simulate(a) =
            parse(&argv("simulate --metrics --rates 0.1,0.1 --seed 3")).unwrap()
        else {
            panic!()
        };
        assert!(a.metrics);
        assert_eq!(a.seed, 3);
        assert!(parse(&argv("simulate --rates 0.1 --warmup x")).is_err());
        assert!(parse(&argv("simulate --rates 0.1 --windows x")).is_err());
    }

    #[test]
    fn nash_trace_flag() {
        let Command::Nash(a) = parse(&argv("nash --trace /tmp/solver.jsonl")).unwrap() else {
            panic!()
        };
        assert_eq!(a.trace.as_deref(), Some("/tmp/solver.jsonl"));
    }

    #[test]
    fn table_and_protect() {
        let Command::Table(t) = parse(&argv("table --rates 0.05,0.1")).unwrap() else {
            panic!()
        };
        assert_eq!(t.rates.len(), 2);
        let Command::Protect(p) =
            parse(&argv("protect --n 5 --victim 0.12 --discipline fifo")).unwrap()
        else {
            panic!()
        };
        assert_eq!(p.n, 5);
        assert_eq!(p.victim, 0.12);
        assert_eq!(p.discipline, "fifo");
    }

    #[test]
    fn network_parsing() {
        let Command::Network(n) = parse(&argv("network --switches 5 --discipline fifo")).unwrap()
        else {
            panic!()
        };
        assert_eq!(n.switches, 5);
        assert_eq!(n.discipline, "fifo");
        let Command::Network(n) = parse(&argv("network")).unwrap() else {
            panic!()
        };
        assert_eq!(n.switches, 3);
    }

    #[test]
    fn exp_parsing() {
        let Command::Exp(e) = parse(&argv("exp e9 --threads 4 --json")).unwrap() else {
            panic!()
        };
        assert_eq!(e.id.as_deref(), Some("e9"));
        assert_eq!(e.opts, ExpArgs::parse(&argv("--threads 4 --json")).unwrap());
        assert_eq!((e.opts.threads, e.opts.format), (4, Format::Json));
        let Command::Exp(e) = parse(&argv("exp")).unwrap() else {
            panic!()
        };
        assert_eq!(e.id, None);
        assert_eq!(e.opts, ExpArgs::default());
        let Command::Exp(e) = parse(&argv("exp --smoke")).unwrap() else {
            panic!()
        };
        assert_eq!(e.id, None);
        assert!(e.opts.smoke);
    }

    #[test]
    fn exp_flags_are_parsed_with_the_command_line() {
        // A bad experiment flag is a usage error (exit 2 from `main`),
        // caught before any experiment runs.
        for bad in [
            "exp e9 --wat",
            "exp e9 --threads 0",
            "exp e9 --format xml",
            "exp e9 --seed",
            "exp --wat",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert!(!err.0.is_empty(), "{bad}");
        }
        assert_eq!(
            parse(&argv("exp e9 --wat")).unwrap_err().0,
            "unknown argument \"--wat\""
        );
    }

    #[test]
    fn largen_parsing() {
        let Command::Largen(a) = parse(&argv("largen")).unwrap() else {
            panic!()
        };
        assert_eq!(a.discipline, "fs");
        assert_eq!(a.n, 10_000);
        assert_eq!(a.classes.len(), 3);
        assert!(a.weights.is_empty());
        assert_eq!(a.seed, 1);
        assert_eq!(a.threads, 1);
        let Command::Largen(a) = parse(&argv(
            "largen --discipline sfq --n 0 --classes log:0.6,1.0;log:0.4,1.0 --weights 3,1 --seed 7 --threads 4",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(a.discipline, "sfq");
        assert_eq!(a.n, 0);
        assert_eq!(a.classes.len(), 2);
        assert_eq!(a.weights, vec![3.0, 1.0]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 4);
        assert!(parse(&argv("largen --n x")).is_err());
        assert!(parse(&argv("largen --threads 0")).is_err());
        assert!(parse(&argv("largen --weights 1,abc")).is_err());
    }

    #[test]
    fn option_errors() {
        assert!(parse(&argv("nash --users")).is_err());
        assert!(parse(&argv("nash users")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn utility_spec_errors() {
        assert!(parse_users("bogus:1,2").is_err());
        assert!(parse_users("linear:1").is_err());
        assert!(parse_users("linear:x,y").is_err());
        assert!(parse_users("").is_err());
        assert!(parse_users("log:0.5,1.0;power:0.5,1.0").is_ok());
    }

    #[test]
    fn rate_errors() {
        assert!(parse_rates("0.1,-0.2").is_err());
        assert!(parse_rates("").is_err());
        assert!(parse_rates("0.1,0.2,0.3").is_ok());
    }

    #[test]
    fn last_option_wins() {
        let Command::Protect(p) = parse(&argv("protect --n 3 --n 7")).unwrap() else {
            panic!()
        };
        assert_eq!(p.n, 7);
    }
}
