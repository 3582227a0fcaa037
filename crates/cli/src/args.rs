//! Argument parsing for the `greednet` CLI.
//!
//! The scenario commands (`nash`, `simulate`, `table`, `protect`,
//! `largen`) have no grammar here. Their `--name value` flags go to the
//! serve field walk ([`RequestKind::from_flags`]) as the wire fields of
//! the same names, so the CLI and the service share one parser, one set
//! of defaults and one error text. This module reads only `--trace` and
//! `--metrics`, which have no wire field, and the options of `network`,
//! `exp` and `serve`. Every command rejects a flag it does not know.

use greednet_bench::exp_cli::ExpArgs;
use greednet_serve::RequestKind;
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
    /// A scenario command (`nash`, `simulate`, `table`, `protect` or
    /// `largen`), parsed by the serve field walk.
    Scenario {
        /// The spec that the wire request with the same fields parses to.
        kind: RequestKind,
        /// `--trace FILE` (`nash`, `simulate`).
        trace: Option<String>,
        /// `--metrics` (`simulate`).
        metrics: bool,
    },
    /// Parking-lot network equilibrium.
    Network(NetworkArgs),
    /// Registry experiment runner.
    Exp(ExpCmdArgs),
    /// Long-running scenario service.
    Serve(ServeArgs),
    /// Show usage.
    Help,
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

/// Extracts `--key value` options from the tail of an argument list. A
/// repeated key keeps its last value.
fn options(args: &[String]) -> Result<Vec<(String, String)>, ParseError> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            return err(format!("expected --option, got '{k}'"));
        };
        let Some(v) = it.next() else {
            return err(format!("--{key} needs a value"));
        };
        out.retain(|(seen, _)| seen != key);
        out.push((key.to_string(), v.clone()));
    }
    Ok(out)
}

/// [`options`] for a command that takes only the `known` keys.
fn known_options(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, ParseError> {
    let opts = options(args)?;
    match opts.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => err(format!("unknown option --{k}")),
        None => Ok(opts),
    }
}

fn get<'a>(opts: &'a [(String, String)], key: &str) -> Option<&'a str> {
    opts.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// A scenario command: `--metrics` (on `simulate`) and `--trace` (on
/// `nash` and `simulate`) are read here, and every other flag is a wire
/// field for the walk.
fn scenario(cmd: &str, args: &[String]) -> Result<Command, ParseError> {
    let (args, metrics) = if cmd == "simulate" {
        strip_flag(args, "--metrics")
    } else {
        (args.to_vec(), false)
    };
    let mut flags = options(&args)?;
    let trace = match flags.iter().position(|(k, _)| k == "trace") {
        Some(i) if matches!(cmd, "nash" | "simulate") => Some(flags.remove(i).1),
        _ => None,
    };
    let kind = RequestKind::from_flags(cmd, &flags).map_err(|e| ParseError(e.to_string()))?;
    Ok(Command::Scenario {
        kind,
        trace,
        metrics,
    })
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
        "nash" | "simulate" | "table" | "protect" | "largen" => scenario(cmd, rest),
        "network" => {
            let opts = known_options(rest, &["switches", "discipline"])?;
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
            let opts = known_options(rest, &["tcp", "threads", "cache"])?;
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
        other => err(format!("unknown command '{other}' (try 'greednet help')")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greednet_runtime::Format;
    use greednet_serve::Request;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// What a scenario command line parses to: `(kind, trace, metrics)`.
    fn scenario(line: &str) -> (RequestKind, Option<String>, bool) {
        match parse(&argv(line)) {
            Ok(Command::Scenario {
                kind,
                trace,
                metrics,
            }) => (kind, trace, metrics),
            other => panic!("{line}: {other:?}"),
        }
    }

    fn kind(line: &str) -> RequestKind {
        scenario(line).0
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    /// `(flag line, wire line)`: both parse to the same spec, or fail with
    /// the same message up to how it names a field.
    #[rustfmt::skip]
    const ROWS: &[(&str, &str)] = &[
        // every scenario command at its defaults
        ("nash", r#"{"kind":"nash"}"#),
        ("simulate --rates 0.2,0.1", r#"{"kind":"simulate","rates":[0.2,0.1]}"#),
        ("table --rates 0.05,0.1,0.2", r#"{"kind":"table","rates":[0.05,0.1,0.2]}"#),
        ("protect", r#"{"kind":"protect"}"#),
        ("largen", r#"{"kind":"largen"}"#),
        // ... and with each field off its default
        ("nash --discipline fifo", r#"{"kind":"nash","discipline":"fifo"}"#),
        ("nash --users log:0.5,1.0;linear:1.0,0.4", r#"{"kind":"nash","users":"log:0.5,1.0;linear:1.0,0.4"}"#),
        ("simulate --rates 0.3,0.1", r#"{"kind":"simulate","rates":[0.3,0.1]}"#),
        ("simulate --rates 0.2,0.1 --discipline ps", r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"ps"}"#),
        ("simulate --rates 0.2,0.1 --horizon 5000", r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":5000}"#),
        ("simulate --rates 0.2,0.1 --warmup 500", r#"{"kind":"simulate","rates":[0.2,0.1],"warmup":500}"#),
        ("simulate --rates 0.2,0.1 --windows 16", r#"{"kind":"simulate","rates":[0.2,0.1],"windows":16}"#),
        ("simulate --rates 0.2,0.1 --seed 2", r#"{"kind":"simulate","rates":[0.2,0.1],"seed":2}"#),
        ("simulate --rates 0.2,0.1 --service D", r#"{"kind":"simulate","rates":[0.2,0.1],"service":"D"}"#),
        ("table --rates 0.1", r#"{"kind":"table","rates":[0.1]}"#),
        ("protect --n 5", r#"{"kind":"protect","n":5}"#),
        ("protect --victim 0.2", r#"{"kind":"protect","victim":0.2}"#),
        ("protect --discipline fifo", r#"{"kind":"protect","discipline":"fifo"}"#),
        ("largen --discipline sfq", r#"{"kind":"largen","discipline":"sfq"}"#),
        ("largen --n 0", r#"{"kind":"largen","n":0}"#),
        ("largen --classes log:0.6,1.0", r#"{"kind":"largen","classes":"log:0.6,1.0"}"#),
        ("largen --weights 1,2,3", r#"{"kind":"largen","weights":[1,2,3]}"#),
        ("largen --seed 2", r#"{"kind":"largen","seed":2}"#),
        ("largen --threads 4", r#"{"kind":"largen","threads":4}"#),
        // every alias
        ("nash --discipline fairshare", r#"{"kind":"nash","discipline":"fairshare"}"#),
        ("protect --discipline fair-share", r#"{"kind":"protect","discipline":"fair-share"}"#),
        ("nash --discipline serial", r#"{"kind":"nash","discipline":"serial"}"#),
        ("simulate --rates 0.2,0.1 --discipline fq", r#"{"kind":"simulate","rates":[0.2,0.1],"discipline":"fq"}"#),
        ("largen --discipline fq", r#"{"kind":"largen","discipline":"fq"}"#),
        ("simulate --rates 0.2,0.1 --service m", r#"{"kind":"simulate","rates":[0.2,0.1],"service":"m"}"#),
        ("simulate --rates 0.2,0.1 --service H2:4", r#"{"kind":"simulate","rates":[0.2,0.1],"service":"H2:4"}"#),
        // string utility lists, against both wire forms
        ("nash --users LOG:0.5,1.0;linear:1.0,0.4", r#"{"kind":"nash","users":"LOG:0.5,1.0;linear:1.0,0.4"}"#),
        ("nash --users LOG:0.5,1.0;linear:1.0,0.4", r#"{"kind":"nash","users":[{"family":"log","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#),
        ("largen --classes log:0.6,1.0;Log:0.4,1.0 --weights 3,1", r#"{"kind":"largen","classes":[{"family":"log","a":0.6,"b":1.0},{"family":"log","a":0.4,"b":1.0}],"weights":[3,1]}"#),
        // an unknown family parses, and fails at execution
        ("nash --users zap:1,1", r#"{"kind":"nash","users":"zap:1,1"}"#),
        // numbers read as the wire reads them
        ("simulate --rates 0.2,0.1 --seed 1e3", r#"{"kind":"simulate","rates":[0.2,0.1],"seed":1000}"#),
        ("protect --victim .5", r#"{"kind":"protect","victim":0.5}"#),
        ("largen --threads 0", r#"{"kind":"largen","threads":0}"#),
        // unknown fields, including --trace where the command has none
        ("simulate --rates 0.2,0.1 --horizn 3000", r#"{"kind":"simulate","rates":[0.2,0.1],"horizn":3000}"#),
        ("table --rates 0.1 --trace t.jsonl", r#"{"kind":"table","rates":[0.1],"trace":"t.jsonl"}"#),
        // missing and malformed values
        ("simulate", r#"{"kind":"simulate"}"#),
        ("table", r#"{"kind":"table"}"#),
        ("table --rates 0.1,-0.2", r#"{"kind":"table","rates":[0.1,-0.2]}"#),
        ("simulate --rates abc", r#"{"kind":"simulate","rates":["abc"]}"#),
        ("simulate --rates 0.2,0.1 --horizon x", r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":"x"}"#),
        ("simulate --rates 0.2,0.1 --horizon inf", r#"{"kind":"simulate","rates":[0.2,0.1],"horizon":"inf"}"#),
        ("simulate --rates 0.2,0.1 --warmup x", r#"{"kind":"simulate","rates":[0.2,0.1],"warmup":"x"}"#),
        ("simulate --rates 0.2,0.1 --windows 2.5", r#"{"kind":"simulate","rates":[0.2,0.1],"windows":2.5}"#),
        ("simulate --rates 0.2,0.1 --seed 9007199254740993", r#"{"kind":"simulate","rates":[0.2,0.1],"seed":9007199254740993}"#),
        ("protect --n -1", r#"{"kind":"protect","n":-1}"#),
        ("largen --n x", r#"{"kind":"largen","n":"x"}"#),
        ("largen --weights 1,abc", r#"{"kind":"largen","weights":[1,"abc"]}"#),
        ("largen --weights 0,1,1", r#"{"kind":"largen","weights":[0,1,1]}"#),
        ("nash --users linear:1", r#"{"kind":"nash","users":"linear:1"}"#),
        ("nash --users linear:x,y", r#"{"kind":"nash","users":"linear:x,y"}"#),
        // two bad fields: the first in walk order wins
        ("simulate --horizon y --rates x", r#"{"kind":"simulate","horizon":"y","rates":["x"]}"#),
    ];

    /// A flag-line error message in the wire's words: `--name` becomes
    /// `"name"`.
    fn as_wire(msg: &str) -> String {
        let mut parts = msg.split("--");
        let mut out = parts.next().unwrap_or_default().to_string();
        for part in parts {
            let end = part
                .find(|c: char| !c.is_ascii_alphanumeric())
                .unwrap_or(part.len());
            out += &format!("\"{}\"{}", &part[..end], &part[end..]);
        }
        out
    }

    #[test]
    fn flag_lines_parse_as_their_wire_lines() {
        for &(flags, json) in ROWS {
            let cli = match parse(&argv(flags)) {
                Ok(Command::Scenario { kind, .. }) => Ok(kind),
                Ok(other) => panic!("{flags}: {other:?}"),
                Err(e) => Err(as_wire(&e.0)),
            };
            let wire = Request::parse_line(json)
                .map(|r| r.kind)
                .map_err(|e| e.to_string());
            assert_eq!(cli, wire, "{flags}\n  vs {json}");
        }
    }

    #[test]
    fn last_option_wins() {
        assert_eq!(kind("protect --n 3 --n 7"), kind("protect --n 7"));
    }

    /// `(flag, X)` for each `(default X)` that `USAGE` states in the block
    /// of `cmd`, where X is one literal token (not `horizon/10` or prose).
    fn usage_defaults(cmd: &str) -> Vec<(String, String)> {
        let head = format!("    {cmd} ");
        let mut entries: Vec<String> = Vec::new();
        for line in USAGE
            .lines()
            .skip_while(|l| !l.starts_with(&head))
            .skip(1)
            .take_while(|l| l.starts_with("     "))
        {
            let line = line.trim();
            match entries.last_mut() {
                Some(entry) if !line.starts_with("--") => *entry += &format!(" {line}"),
                _ => entries.push(line.to_string()),
            }
        }
        entries
            .iter()
            .filter_map(|entry| {
                let flag = entry.split_whitespace().next()?.strip_prefix("--")?;
                let x = entry.split("(default ").nth(1)?.split(')').next()?;
                let literal = x.chars().all(|c| c.is_ascii_alphanumeric() || c == '.');
                literal.then(|| (flag.to_string(), x.to_string()))
            })
            .collect()
    }

    #[test]
    fn usage_defaults_are_the_walk_defaults() {
        let mut checked = Vec::new();
        for (cmd, required) in [
            ("nash", ""),
            ("simulate", " --rates 0.1"),
            ("table", " --rates 0.1"),
            ("protect", ""),
            ("largen", ""),
        ] {
            let base = format!("{cmd}{required}");
            for (flag, default) in usage_defaults(cmd) {
                let spelled = format!("{base} --{flag} {default}");
                assert_eq!(
                    kind(&base).cache_key(),
                    kind(&spelled).cache_key(),
                    "USAGE states a default the walk does not have: {spelled}"
                );
                checked.push(spelled);
            }
        }
        assert!(checked.len() >= 13, "{checked:?}");
    }

    /// Every example command in `USAGE`, `README.md` and `EXPERIMENTS.md`
    /// parses. Unknown flags are errors, so a stale example fails here
    /// instead of running on defaults.
    #[test]
    fn documented_examples_parse() {
        let after = |line: &str, prefix: &str| {
            let (_, command) = line.split_once(prefix)?;
            command.split('#').next().map(str::to_string)
        };
        let mut examples: Vec<String> = USAGE
            .lines()
            .skip_while(|l| !l.starts_with("EXAMPLES:"))
            .filter_map(|l| after(l, "greednet "))
            .collect();
        for doc in ["README.md", "EXPERIMENTS.md"] {
            let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap().replace("\\\n", " ");
            let found: Vec<String> = text
                .lines()
                .filter_map(|l| after(l, "greednet-cli -- "))
                .collect();
            assert!(!found.is_empty(), "{doc} has no greednet-cli examples");
            examples.extend(found);
        }
        assert!(examples.len() >= 20, "{examples:?}");
        for example in &examples {
            // No quoted argument in the docs holds a space.
            let parsed = parse(&argv(&example.replace('\'', "")));
            assert!(parsed.is_ok(), "{example}: {parsed:?}");
        }
    }

    #[test]
    fn trace_and_metrics_are_read_where_the_command_has_them() {
        // --metrics is a bare flag: it must not swallow the next option.
        assert_eq!(
            scenario("simulate --metrics --rates 0.1,0.1 --trace /tmp/t.jsonl --seed 3"),
            (
                kind("simulate --rates 0.1,0.1 --seed 3"),
                Some("/tmp/t.jsonl".into()),
                true
            )
        );
        assert_eq!(
            scenario("nash --trace /tmp/solver.jsonl"),
            (kind("nash"), Some("/tmp/solver.jsonl".into()), false)
        );
        // Elsewhere they are usage errors.
        for line in [
            "protect --trace /tmp/t.jsonl",
            "largen --metrics 1",
            "nash --metrics",
        ] {
            assert!(parse(&argv(line)).is_err(), "{line}");
        }
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
    fn network_and_serve_reject_unknown_options() {
        for (line, flag) in [
            ("network --switch 5", "--switch"),
            ("network --discipline fifo --swiches 2", "--swiches"),
            ("serve --thread 4", "--thread"),
            ("serve --tcp 127.0.0.1:0 --cach 0", "--cach"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err.0, format!("unknown option {flag}"), "{line}");
        }
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
    fn option_errors() {
        assert!(parse(&argv("nash --users")).is_err());
        assert!(parse(&argv("nash users")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }
}
