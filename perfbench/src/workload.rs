//! The workloads and their untraced rounds.
//!
//! A round enters the study through the program's own public entry point
//! (`run_study` or `run_study_stream`), then computes and renders the
//! report, and on `paper-2013` serialises the public release. Everything
//! from entering the study to the last of those is the round's wall time.

use crate::stats::{ms, quantile};
use bismark::study::{run_study, run_study_stream, StudyConfig, StudyOutput};
use cgn::CgnScenario;
use simnet::time::SimDuration;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Worker threads every workload runs with (the benchmark host has two
/// cores; the load comes from this one process).
pub const THREADS: usize = 2;

/// Set-up repetitions before each round. They are spread over the run so
/// that their median samples the host over the whole run.
pub const SETUP_REPS: usize = 8;

/// Window cadence of `stream-cgn-6h`.
pub const STREAM_CADENCE: SimDuration = SimDuration::from_hours(6);

/// Distance between the study seeds of one run (see
/// [`Workload::configs`]).
pub const SEED_STRIDE: u64 = 1_000_003;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `StudyConfig::full`: the paper's 126 homes over 197 days, batch,
    /// report rendered and public release serialised.
    Paper2013,
    /// `quick(seed, 60)` streamed at a 6 h cadence with the `isp-mix` CGN
    /// scenario armed.
    StreamCgn6h,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 2] = [Workload::Paper2013, Workload::StreamCgn6h];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper2013 => "paper-2013",
            Workload::StreamCgn6h => "stream-cgn-6h",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The study configuration for `seed`.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = match self {
            Workload::Paper2013 => StudyConfig::full(seed),
            Workload::StreamCgn6h => {
                let mut cfg = StudyConfig::quick(seed, 60);
                cfg.cgn = Some(CgnScenario::IspMix);
                cfg
            }
        };
        cfg.threads = THREADS;
        cfg
    }

    /// The stream cadence, for the streamed workload.
    pub fn cadence(self) -> Option<SimDuration> {
        (self == Workload::StreamCgn6h).then_some(STREAM_CADENCE)
    }

    /// Does a round serialise the public release?
    pub fn exports(self) -> bool {
        self == Workload::Paper2013
    }

    /// How many deployments one run cycles through. Which homes consent
    /// to traffic capture, and which of them upload around the clock,
    /// follows the seed, so at 126 homes a round's work differs from seed
    /// to seed; rounds on several seeds average that out. A
    /// `stream-cgn-6h` round is shorter, so its cycle has more seeds.
    pub fn study_seeds(self) -> u64 {
        match self {
            Workload::Paper2013 => 3,
            Workload::StreamCgn6h => 8,
        }
    }

    /// The configurations one run cycles through: study seeds `seed`,
    /// `seed + SEED_STRIDE`, ... (so the first round of a run is always
    /// the study at `seed` itself).
    pub fn configs(self, seed: u64) -> Vec<StudyConfig> {
        (0..self.study_seeds())
            .map(|i| self.config(seed.wrapping_add(i * SEED_STRIDE)))
            .collect()
    }
}

/// Homes × virtual days of a configuration.
pub fn home_days(cfg: &StudyConfig) -> f64 {
    f64::from(cfg.homes) * cfg.windows.span.duration().as_days_f64()
}

/// What one round produced.
pub struct Output {
    /// The study output (its datasets are the final snapshot).
    pub study: StudyOutput,
    /// The rendered final report.
    pub report: String,
    /// The serialised public release (`paper-2013` only).
    pub export: Option<String>,
    /// Stream windows emitted (1 for a batch round).
    pub windows: u32,
}

/// Wall-clock of one round.
pub struct Timing {
    /// Entering the study to the rendered report (and the serialised
    /// release, where the workload exports).
    pub wall: Duration,
    /// The study's simulate phase.
    pub simulate: Duration,
    /// Intervals between consecutive window emissions, in ms; the first
    /// runs from entering the study. A batch round is one window that
    /// ends with the rendered report.
    pub windows_ms: Vec<f64>,
}

impl Timing {
    /// Median window interval.
    pub fn window_p50(&self) -> f64 {
        quantile(&self.windows_ms, 0.5)
    }

    /// 95th-percentile window interval.
    pub fn window_p95(&self) -> f64 {
        quantile(&self.windows_ms, 0.95)
    }
}

/// Run one untraced round through the program's entry point.
pub fn run_round(w: Workload, cfg: &StudyConfig) -> (Timing, Output) {
    let start = Instant::now();
    match w.cadence() {
        None => {
            let study = run_study(cfg);
            let report = study.report().render(&study.datasets);
            let window = start.elapsed();
            let export = w.exports().then(|| {
                collector::export::to_json(&study.datasets).expect("public release must serialise")
            });
            let wall = start.elapsed();
            let timing = Timing {
                wall,
                simulate: study.timings.simulate,
                windows_ms: vec![ms(window)],
            };
            (
                timing,
                Output {
                    study,
                    report,
                    export,
                    windows: 1,
                },
            )
        }
        Some(cadence) => {
            let mut emitted: Vec<Duration> = Vec::new();
            let out = run_study_stream(cfg, cadence, |_| emitted.push(start.elapsed()));
            let report = out.report.render(&out.study.datasets);
            let wall = start.elapsed();
            let timing = Timing {
                wall,
                simulate: out.study.timings.simulate,
                windows_ms: intervals_ms(&emitted),
            };
            (
                timing,
                Output {
                    study: out.study,
                    report,
                    export: None,
                    windows: out.windows_run,
                },
            )
        }
    }
}

/// Consecutive differences of emission instants (the first from zero).
pub fn intervals_ms(emitted: &[Duration]) -> Vec<f64> {
    let mut prev = Duration::ZERO;
    emitted
        .iter()
        .map(|&at| {
            let gap = at - prev;
            prev = at;
            ms(gap)
        })
        .collect()
}

/// The exact work a round did: the `obs` registry (counters, gauges and
/// histograms; wall spans excluded), every table's record count, and
/// hashes of the rendered report and the serialised release. Equal
/// fingerprints mean the same work and the same outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub obs: obs::Snapshot,
    pub tables: Vec<(&'static str, u64)>,
    pub report_hash: u64,
    pub export_hash: Option<u64>,
}

impl Fingerprint {
    /// Fingerprint a round, reading the `obs` registry as it stands.
    pub fn of(out: &Output) -> Fingerprint {
        let mut snap = obs::snapshot();
        snap.wall.clear();
        Fingerprint {
            obs: snap,
            tables: table_counts(&out.study.datasets),
            report_hash: hash_str(&out.report),
            export_hash: out.export.as_deref().map(hash_str),
        }
    }

    /// The same fingerprint without gauges: the traced run replays the
    /// entry point's public calls but not its private end-of-study gauge
    /// epilogue, whose values `tables` already covers.
    pub fn without_gauges(mut self) -> Fingerprint {
        self.obs.gauges.clear();
        self
    }

    /// Name the first part that differs from `other`, if any.
    pub fn diff(&self, other: &Fingerprint) -> Option<String> {
        if self.tables != other.tables {
            return Some(format!(
                "table counts {:?} vs {:?}",
                self.tables, other.tables
            ));
        }
        for (name, v) in &self.obs.counters {
            if other.obs.counters.get(name) != Some(v) {
                return Some(format!(
                    "counter {name}: {v} vs {:?}",
                    other.obs.counters.get(name)
                ));
            }
        }
        if self.obs != other.obs {
            return Some("obs gauges, histograms or key sets differ".to_string());
        }
        if self.report_hash != other.report_hash {
            return Some("rendered reports differ".to_string());
        }
        if self.export_hash != other.export_hash {
            return Some("serialised releases differ".to_string());
        }
        None
    }
}

/// Record count of every table in `data`.
pub fn table_counts(data: &collector::Datasets) -> Vec<(&'static str, u64)> {
    let heartbeats: u64 = data
        .heartbeats
        .values()
        .map(|log| log.total_heartbeats())
        .sum();
    vec![
        ("routers", data.routers.len() as u64),
        ("heartbeats", heartbeats),
        ("uptime", data.uptime.len() as u64),
        ("capacity", data.capacity.len() as u64),
        ("devices", data.devices.len() as u64),
        ("wifi", data.wifi.len() as u64),
        ("packet_stats", data.packet_stats.len() as u64),
        ("flows", data.flows.len() as u64),
        ("dns", data.dns.len() as u64),
        ("macs", data.macs.len() as u64),
        ("associations", data.associations.len() as u64),
        ("latency", data.latency.len() as u64),
        ("nat_probes", data.nat_probes.len() as u64),
        ("punch_trials", data.punch_trials.len() as u64),
        ("upload_gaps", data.upload_gaps.len() as u64),
    ]
}

/// A process-stable hash of a string.
pub fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}
