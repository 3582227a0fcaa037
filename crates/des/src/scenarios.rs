//! Workload scenarios from §5.2 of the paper: FTP-like bulk transfers
//! (throughput-seeking), Telnet-like interactive sources (delay-
//! sensitive), and ill-behaved "blasters", run under FIFO or a
//! Fair-Share-family discipline to reproduce the qualitative claims that
//! motivated Fair Queueing: fair throughput allocation, lower delay for
//! sources using less than their share, and protection from misbehavers.
//!
//! Two scenario families:
//!
//! * [`Scenario`] — the classic open-loop mixes (every source offers a
//!   fixed Poisson load).
//! * [`ClosedScenario`] — bulk transfers modeled as *closed-loop*
//!   ACK-clocked AIMD flows that probe for bandwidth instead of
//!   declaring a rate, optionally disciplined by an ECN-style marking
//!   threshold at the bottleneck. This is the more faithful reading of
//!   the paper's FTP sources ("use whatever the network will give
//!   you"), and lets the FIFO-vs-FQ comparison include the feedback
//!   loop's behavior, not just the switch's.

use crate::engine::{Engine, EngineConfig, EngineReport, SimResult};
use crate::entities::{ClosedLoopSpec, SourceSpec};
use crate::qdisc::{
    Fifo, FsPriorityTable, LifoPreemptive, PreemptivePriority, ProcessorSharing, QDisc,
    StartTimeFairQueueing,
};
use crate::Result;

/// A buildable discipline selector, convenient for tables and sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisciplineKind {
    /// First-in-first-out.
    Fifo,
    /// Last-in-first-out, preemptive resume.
    LifoPreemptive,
    /// Egalitarian processor sharing.
    ProcessorSharing,
    /// Ascending-rate preemptive priority (serial allocation).
    SerialPriority,
    /// The paper's Table 1 Fair Share priority table.
    FsTable,
    /// Start-time fair queueing (non-preemptive FQ approximation).
    Sfq,
}

impl DisciplineKind {
    /// All kinds, in reporting order.
    pub fn all() -> [DisciplineKind; 6] {
        [
            DisciplineKind::Fifo,
            DisciplineKind::LifoPreemptive,
            DisciplineKind::ProcessorSharing,
            DisciplineKind::SerialPriority,
            DisciplineKind::FsTable,
            DisciplineKind::Sfq,
        ]
    }

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            DisciplineKind::Fifo => "FIFO",
            DisciplineKind::LifoPreemptive => "LIFO-PR",
            DisciplineKind::ProcessorSharing => "PS",
            DisciplineKind::SerialPriority => "SerialPrio",
            DisciplineKind::FsTable => "FairShare",
            DisciplineKind::Sfq => "FQ(SFQ)",
        }
    }

    /// Builds the queueing-discipline instance for a system with declared
    /// `rates` (closed-loop sources declare rate 0, so the rate-aware
    /// kinds treat them as lightest).
    ///
    /// # Errors
    /// Propagates discipline construction errors (empty systems).
    pub fn build(&self, rates: &[f64], seed: u64) -> Result<Box<dyn QDisc>> {
        Ok(match self {
            DisciplineKind::Fifo => Box::new(Fifo::default()),
            DisciplineKind::LifoPreemptive => Box::new(LifoPreemptive::default()),
            DisciplineKind::ProcessorSharing => Box::new(ProcessorSharing),
            DisciplineKind::SerialPriority => {
                Box::new(PreemptivePriority::by_ascending_rate(rates)?)
            }
            DisciplineKind::FsTable => Box::new(FsPriorityTable::new(rates, seed)?),
            DisciplineKind::Sfq => Box::new(StartTimeFairQueueing::new(rates.len())?),
        })
    }
}

/// A labeled traffic source in a scenario.
#[derive(Debug, Clone)]
pub struct Source {
    /// Human-readable role ("ftp-1", "telnet-2", "blaster").
    pub label: String,
    /// Poisson packet rate.
    pub rate: f64,
}

/// A named workload mix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// The traffic sources.
    pub sources: Vec<Source>,
}

impl Scenario {
    /// The §5.2 mix: `n_ftp` bulk-transfer sources at `ftp_rate` and
    /// `n_telnet` interactive sources at `telnet_rate`.
    pub fn ftp_telnet(n_ftp: usize, ftp_rate: f64, n_telnet: usize, telnet_rate: f64) -> Self {
        let mut sources = Vec::new();
        for i in 0..n_ftp {
            sources.push(Source {
                label: format!("ftp-{}", i + 1),
                rate: ftp_rate,
            });
        }
        for i in 0..n_telnet {
            sources.push(Source {
                label: format!("telnet-{}", i + 1),
                rate: telnet_rate,
            });
        }
        Scenario {
            name: "ftp-telnet".into(),
            sources,
        }
    }

    /// Adds an ill-behaved source that ignores all congestion feedback.
    pub fn with_blaster(mut self, rate: f64) -> Self {
        self.sources.push(Source {
            label: "blaster".into(),
            rate,
        });
        self.name = format!("{}+blaster", self.name);
        self
    }

    /// The rate vector.
    pub fn rates(&self) -> Vec<f64> {
        self.sources.iter().map(|s| s.rate).collect()
    }

    /// Total offered load.
    pub fn load(&self) -> f64 {
        self.rates().iter().sum()
    }

    /// Runs the scenario under `kind` for `horizon` time units.
    ///
    /// # Errors
    /// Propagates engine configuration errors.
    pub fn run(&self, kind: DisciplineKind, horizon: f64, seed: u64) -> Result<ScenarioResult> {
        let rates = self.rates();
        let mut cfg = EngineConfig::open_loop(&rates, horizon, seed);
        cfg.allow_overload = true; // blaster scenarios overload on purpose
        let engine = Engine::new(cfg)?;
        let mut discipline = kind.build(&rates, seed ^ 0xD15C)?;
        let result = engine.run(discipline.as_mut())?.result;
        Ok(ScenarioResult {
            scenario: self.clone(),
            kind,
            result,
        })
    }
}

/// A scenario's simulation output with labels attached.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// Discipline used.
    pub kind: DisciplineKind,
    /// Raw simulation result.
    pub result: SimResult,
}

impl ScenarioResult {
    /// Formats a per-source summary table (label, rate, throughput, mean
    /// delay, mean queue).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "source", "rate", "thruput", "delay", "p95", "p99", "queue"
        ));
        for (i, s) in self.scenario.sources.iter().enumerate() {
            let (_, p95, p99) = self.result.delay_percentiles[i];
            out.push_str(&format!(
                "{:<12} {:>8.3} {:>10.4} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                s.label,
                s.rate,
                self.result.throughput[i],
                self.result.mean_delay[i],
                p95,
                p99,
                self.result.mean_queue[i],
            ));
        }
        out
    }

    /// Indices of sources whose label starts with `prefix`.
    pub fn indices(&self, prefix: &str) -> Vec<usize> {
        self.scenario
            .sources
            .iter()
            .enumerate()
            .filter(|(_, s)| s.label.starts_with(prefix))
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean delay over the sources whose label starts with `prefix`.
    pub fn mean_delay_of(&self, prefix: &str) -> f64 {
        let idx = self.indices(prefix);
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter().map(|&i| self.result.mean_delay[i]).sum::<f64>() / idx.len() as f64
    }

    /// Mean throughput over the sources whose label starts with `prefix`.
    pub fn throughput_of(&self, prefix: &str) -> f64 {
        let idx = self.indices(prefix);
        // `+ 0.0` normalizes an empty sum's negative zero for display.
        idx.iter().map(|&i| self.result.throughput[i]).sum::<f64>() + 0.0
    }

    /// Worst p99 delay among sources whose label starts with `prefix`.
    pub fn p99_delay_of(&self, prefix: &str) -> f64 {
        self.indices(prefix)
            .iter()
            .map(|&i| self.result.delay_percentiles[i].2)
            .fold(0.0, f64::max)
    }
}

/// A workload mix containing closed-loop (ACK-clocked AIMD) flows next
/// to open-loop sources, run through the event-calendar engine.
#[derive(Debug, Clone)]
pub struct ClosedScenario {
    /// Scenario name.
    pub name: String,
    /// Labeled sources (either family), in user order.
    pub sources: Vec<(String, SourceSpec)>,
    /// ECN marking threshold at the bottleneck (`None` = no marking, so
    /// AIMD flows only stop growing at their maximum window).
    pub marking_threshold: Option<usize>,
}

impl ClosedScenario {
    /// The closed-loop reading of §5.2: `n_aimd` bulk transfers as
    /// ACK-clocked AIMD flows plus `n_telnet` open-loop interactive
    /// sources at `telnet_rate`.
    pub fn aimd_ftp_telnet(n_aimd: usize, n_telnet: usize, telnet_rate: f64) -> Self {
        let mut sources = Vec::new();
        for i in 0..n_aimd {
            sources.push((
                format!("ftp-{}", i + 1),
                SourceSpec::ClosedLoop(ClosedLoopSpec::new()),
            ));
        }
        for i in 0..n_telnet {
            sources.push((format!("telnet-{}", i + 1), SourceSpec::open(telnet_rate)));
        }
        ClosedScenario {
            name: "aimd-ftp-telnet".into(),
            sources,
            marking_threshold: None,
        }
    }

    /// Enables ECN-style marking at the given queue threshold.
    #[must_use]
    pub fn marking(mut self, threshold: usize) -> Self {
        self.marking_threshold = Some(threshold);
        self.name = format!("{}+ecn{threshold}", self.name);
        self
    }

    /// Declared open-loop rates (closed-loop flows declare 0).
    pub fn rates(&self) -> Vec<f64> {
        self.sources.iter().map(|(_, s)| s.rate_value()).collect()
    }

    /// Runs the scenario under `kind` for `horizon` time units.
    ///
    /// # Errors
    /// Propagates engine configuration errors.
    pub fn run(
        &self,
        kind: DisciplineKind,
        horizon: f64,
        seed: u64,
    ) -> Result<ClosedScenarioResult> {
        let rates = self.rates();
        let cfg = EngineConfig {
            sources: self.sources.iter().map(|(_, s)| s.clone()).collect(),
            allow_overload: true,
            marking_threshold: self.marking_threshold,
            ..EngineConfig::open_loop(&[], horizon, seed)
        };
        let engine = Engine::new(cfg)?;
        let mut discipline = kind.build(&rates, seed ^ 0xD15C)?;
        let report = engine.run(discipline.as_mut())?;
        Ok(ClosedScenarioResult {
            scenario: self.clone(),
            kind,
            report,
        })
    }
}

/// A closed scenario's engine output with labels attached.
#[derive(Debug, Clone)]
pub struct ClosedScenarioResult {
    /// The scenario that was run.
    pub scenario: ClosedScenario,
    /// Discipline used.
    pub kind: DisciplineKind,
    /// Raw engine report (aggregate statistics + per-flow records).
    pub report: EngineReport,
}

impl ClosedScenarioResult {
    /// Formats a per-source summary table (label, throughput, mean
    /// delay, queue, final window, mark fraction).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>10} {:>10} {:>10} {:>8} {:>8}\n",
            "source", "thruput", "delay", "queue", "cwnd", "mark%"
        ));
        for (i, (label, _)) in self.scenario.sources.iter().enumerate() {
            let flow = &self.report.flows[i];
            let mark_pct = if flow.acked == 0 {
                0.0
            } else {
                100.0 * flow.marked as f64 / flow.acked as f64
            };
            out.push_str(&format!(
                "{:<12} {:>10.4} {:>10.3} {:>10.3} {:>8.2} {:>8.2}\n",
                label,
                self.report.result.throughput[i],
                self.report.result.mean_delay[i],
                self.report.result.mean_queue[i],
                flow.final_window,
                mark_pct,
            ));
        }
        out
    }

    /// Indices of sources whose label starts with `prefix`.
    pub fn indices(&self, prefix: &str) -> Vec<usize> {
        self.scenario
            .sources
            .iter()
            .enumerate()
            .filter(|(_, (label, _))| label.starts_with(prefix))
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean delay over the sources whose label starts with `prefix`.
    pub fn mean_delay_of(&self, prefix: &str) -> f64 {
        let idx = self.indices(prefix);
        if idx.is_empty() {
            return 0.0;
        }
        idx.iter()
            .map(|&i| self.report.result.mean_delay[i])
            .sum::<f64>()
            / idx.len() as f64
    }

    /// Mean throughput over the sources whose label starts with `prefix`.
    pub fn throughput_of(&self, prefix: &str) -> f64 {
        self.indices(prefix)
            .iter()
            .map(|&i| self.report.result.throughput[i])
            .sum::<f64>()
            + 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_construction() {
        let s = Scenario::ftp_telnet(2, 0.25, 3, 0.02).with_blaster(2.0);
        assert_eq!(s.sources.len(), 6);
        assert!((s.load() - (0.5 + 0.06 + 2.0)).abs() < 1e-12);
        assert_eq!(s.sources[5].label, "blaster");
        assert!(s.name.contains("blaster"));
    }

    #[test]
    fn discipline_kinds_build() {
        let rates = [0.1, 0.2];
        for kind in DisciplineKind::all() {
            let d = kind.build(&rates, 1).unwrap();
            assert!(!d.name().is_empty());
            assert!(!kind.label().is_empty());
        }
    }

    #[test]
    fn telnet_delay_better_under_fq_than_fifo() {
        // The central §5.2 claim: interactive sources see lower delay under
        // fair queueing, especially with a blaster present.
        let s = Scenario::ftp_telnet(2, 0.3, 2, 0.02).with_blaster(0.8);
        let fifo = s.run(DisciplineKind::Fifo, 20_000.0, 404).unwrap();
        let fq = s.run(DisciplineKind::Sfq, 20_000.0, 404).unwrap();
        let d_fifo = fifo.mean_delay_of("telnet");
        let d_fq = fq.mean_delay_of("telnet");
        assert!(
            d_fq < 0.5 * d_fifo,
            "telnet delay FQ {d_fq} vs FIFO {d_fifo}"
        );
    }

    #[test]
    fn blaster_cannot_starve_ftp_under_fs_table() {
        let s = Scenario::ftp_telnet(2, 0.2, 0, 0.0).with_blaster(1.2);
        let fs = s.run(DisciplineKind::FsTable, 15_000.0, 17).unwrap();
        // FTP sources keep their full throughput despite the overload.
        let tput = fs.throughput_of("ftp");
        assert!((tput - 0.4).abs() < 0.02, "ftp throughput {tput}");
    }

    #[test]
    fn table_formatting() {
        let s = Scenario::ftp_telnet(1, 0.2, 1, 0.05);
        let r = s.run(DisciplineKind::Fifo, 5_000.0, 3).unwrap();
        let t = r.table();
        assert!(t.contains("ftp-1"));
        assert!(t.contains("telnet-1"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn prefix_helpers() {
        let s = Scenario::ftp_telnet(2, 0.1, 1, 0.05);
        let r = s.run(DisciplineKind::ProcessorSharing, 5_000.0, 9).unwrap();
        assert_eq!(r.indices("ftp").len(), 2);
        assert_eq!(r.indices("telnet").len(), 1);
        assert_eq!(r.indices("blaster").len(), 0);
        assert_eq!(r.mean_delay_of("blaster"), 0.0);
    }

    #[test]
    fn closed_scenario_construction_and_rates() {
        let s = ClosedScenario::aimd_ftp_telnet(2, 3, 0.02).marking(5);
        assert_eq!(s.sources.len(), 5);
        assert!(s.name.contains("ecn5"));
        assert_eq!(s.rates(), vec![0.0, 0.0, 0.02, 0.02, 0.02]);
        assert!(s.sources[0].1.is_closed_loop());
        assert!(!s.sources[2].1.is_closed_loop());
    }

    #[test]
    fn marked_aimd_flows_protect_telnet_delay() {
        // With marking, the AIMD transfers back off before the queue
        // grows, so the interactive sources' delay stays near their solo
        // M/M/1 value even under FIFO.
        let base = ClosedScenario::aimd_ftp_telnet(2, 2, 0.02);
        let greedy = base.clone().run(DisciplineKind::Fifo, 8_000.0, 31).unwrap();
        let ecn = base
            .marking(3)
            .run(DisciplineKind::Fifo, 8_000.0, 31)
            .unwrap();
        let d_greedy = greedy.mean_delay_of("telnet");
        let d_ecn = ecn.mean_delay_of("telnet");
        assert!(
            d_ecn < 0.5 * d_greedy,
            "telnet delay ECN {d_ecn} vs greedy {d_greedy}"
        );
        // The transfers still move real traffic under marking.
        assert!(ecn.throughput_of("ftp") > 0.3);
        let t = ecn.table();
        assert!(t.contains("cwnd"));
        assert!(t.contains("ftp-1"));
    }
}
