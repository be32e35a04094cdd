//! The traced run: the entry points' public calls, made in the order
//! `run_study` and `run_study_stream` make them, each wrapped in a span.
//!
//! The set-up half ([`Env::build`]) also serves the untraced set-up
//! repetitions behind `setup_s`, with the tracer off.

use crate::stats::peak_rss_bytes;
use crate::trace::{SpanId, Tracer};
use crate::workload::{intervals_ms, Output, Timing, Workload};
use bismark::homesim::{HomeSim, SimParams};
use bismark::study::{PhaseTimings, StudyConfig, StudyOutput};
use cgn::CgnPlan;
use collector::{Collector, Datasets, RouterMeta, SpillStats};
use faultlab::FaultPlan;
use firmware::records::RouterId;
use household::domains::DomainUniverse;
use household::home::{build_deployment_scaled, HomeConfig};
use simnet::dns::ZoneDb;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Everything the simulation borrows, built before the first home runs.
pub struct Env {
    pub homes: Vec<HomeConfig>,
    pub fault_plan: FaultPlan,
    pub cgn_plan: CgnPlan,
    pub universe: DomainUniverse,
    pub zone: ZoneDb,
}

impl Env {
    /// The entry points' set-up: deployment, fault and CGN plans, domain
    /// universe and DNS zone, then the collector with its spill store,
    /// outages and router registrations.
    pub fn build(cfg: &StudyConfig, t: &Tracer, parent: SpanId) -> (Env, Collector) {
        let homes = t.phase(parent, "household.build_deployment_scaled", |_| {
            build_deployment_scaled(cfg.seed, cfg.homes)
        });
        // The benchmark's workloads arm no fault scenario.
        assert!(cfg.faults.is_none(), "no workload arms a fault scenario");
        let fault_plan = t.phase(parent, "faultlab.FaultPlan::empty", |_| FaultPlan::empty());
        let cgn_plan = match cfg.cgn {
            Some(scenario) => t.phase(parent, "cgn.CgnPlan::scenario", |_| {
                let deployment: Vec<_> = homes
                    .iter()
                    .map(|h| (RouterId(h.id.0), h.country))
                    .collect();
                CgnPlan::scenario(scenario, cfg.seed, cfg.windows.span, &deployment)
            }),
            None => t.phase(parent, "cgn.CgnPlan::empty", |_| CgnPlan::empty()),
        };
        let universe = t.phase(parent, "household.DomainUniverse::standard", |_| {
            DomainUniverse::standard()
        });
        let zone = t.phase(parent, "household.DomainUniverse::build_zone", |_| {
            universe.build_zone()
        });
        let collector = t.phase(parent, "collector.Collector::new", |_| Collector::new());
        if let Some(spill) = &cfg.spill {
            t.phase(parent, "collector.Collector::set_spill", |_| {
                collector
                    .set_spill(spill)
                    .expect("spill directory must be creatable")
            });
        }
        t.phase(parent, "collector.Collector::set_outages", |_| {
            collector.set_outages(cfg.collector_outages.clone())
        });
        t.phase(parent, "collector.Collector::register", |_| {
            for home in &homes {
                collector.register(RouterMeta {
                    router: RouterId(home.id.0),
                    country: home.country,
                    traffic_consent: home.traffic_consent,
                });
            }
        });
        (
            Env {
                homes,
                fault_plan,
                cgn_plan,
                universe,
                zone,
            },
            collector,
        )
    }

    /// Simulation parameters for home `idx`.
    pub fn params<'a>(&'a self, cfg: &'a StudyConfig, idx: usize, reliable: bool) -> SimParams<'a> {
        let home = &self.homes[idx];
        let router = RouterId(home.id.0);
        SimParams {
            cfg: home,
            universe: &self.universe,
            zone: &self.zone,
            windows: &cfg.windows,
            seed: cfg.seed,
            reliable_upload: reliable,
            faults: self.fault_plan.for_router(router),
            cgn: self.cgn_plan.for_router(router),
        }
    }

    /// Build every home's simulation up front, as the stream entry point
    /// does, each paired with its home's id.
    pub fn build_sims<'a>(
        &'a self,
        cfg: &'a StudyConfig,
        t: &Tracer,
        parent: SpanId,
    ) -> Vec<(u32, HomeSim<'a>)> {
        self.homes
            .iter()
            .enumerate()
            .map(|(i, home)| {
                let id = home.id.0;
                (
                    id,
                    t.home_call(parent, "core.HomeSim::new", id, |_| {
                        HomeSim::new(self.params(cfg, i, true))
                    }),
                )
            })
            .collect()
    }
}

/// One set-up repetition, untraced: the time from entering the study to
/// the point where the first home would start simulating.
pub fn setup_once(w: Workload, cfg: &StudyConfig) -> Duration {
    let off = Tracer::off();
    let start = Instant::now();
    let (env, _collector) = Env::build(cfg, &off, SpanId(0));
    let sims = w.cadence().map(|_| env.build_sims(cfg, &off, SpanId(0)));
    let elapsed = start.elapsed();
    std::hint::black_box(&sims);
    elapsed
}

/// Extra per-layer facts of a traced round that spans do not carry.
pub struct TraceFacts {
    pub export_rss_growth_bytes: u64,
}

/// Run one traced round. Returns the same timing and output shapes as an
/// untraced round; the spans land in `t`.
pub fn traced_round(w: Workload, cfg: &StudyConfig, t: &Tracer) -> (Timing, Output, TraceFacts) {
    let start = Instant::now();
    t.phase(SpanId(0), "bench.round", |root| {
        let (env, collector) = Env::build(cfg, t, root);
        let (study, windows_ms, report, windows) = match w.cadence() {
            None => {
                let study = batch(cfg, t, root, env, collector);
                let report = t.phase(root, "analysis.StudyReport::compute", |_| study.report());
                let rendered = t.phase(root, "analysis.StudyReport::render", |_| {
                    report.render(&study.datasets)
                });
                (study, vec![crate::stats::ms(start.elapsed())], rendered, 1)
            }
            Some(cadence) => stream(cfg, cadence, t, root, env, collector, start),
        };
        let mut facts = TraceFacts {
            export_rss_growth_bytes: 0,
        };
        let export = w.exports().then(|| {
            let before = peak_rss_bytes();
            let json = t.phase(root, "collector.export::to_json", |_| {
                collector::export::to_json(&study.datasets).expect("public release must serialise")
            });
            facts.export_rss_growth_bytes = peak_rss_bytes().saturating_sub(before);
            json
        });
        let simulate = study.timings.simulate;
        let timing = Timing {
            wall: start.elapsed(),
            simulate,
            windows_ms,
        };
        (
            timing,
            Output {
                study,
                report,
                export,
                windows,
            },
            facts,
        )
    })
}

/// `run_study`'s body: workers pull homes off a shared index, build and
/// run each, then the collector is consumed into the datasets.
fn batch(
    cfg: &StudyConfig,
    t: &Tracer,
    root: SpanId,
    env: Env,
    collector: Collector,
) -> StudyOutput {
    let reliable = !env.fault_plan.is_empty() || !env.cgn_plan.is_empty();
    let next = AtomicUsize::new(0);
    let sim_start = Instant::now();
    t.phase(root, "core.simulate", |phase| {
        std::thread::scope(|scope| {
            for _ in 0..cfg.threads.max(1) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= env.homes.len() {
                        break;
                    }
                    let home = env.homes[idx].id.0;
                    let sim = t.home_call(phase, "core.HomeSim::new", home, |_| {
                        HomeSim::new(env.params(cfg, idx, reliable))
                    });
                    t.home_call(phase, "core.HomeSim::run", home, |_| sim.run(&collector));
                });
            }
        });
    });
    let simulate = sim_start.elapsed();
    let snap_start = Instant::now();
    let (upload_counters, dropped_in_downtime, spill) =
        t.phase(root, "collector.Collector::publish_metrics", |_| {
            collector.publish_metrics();
            (
                collector.upload_counters(),
                collector.dropped_in_downtime(),
                collector.spill_stats(),
            )
        });
    let datasets = t.phase(root, "collector.Collector::into_datasets", |_| {
        collector.into_datasets()
    });
    let snapshot = snap_start.elapsed();
    if !env.cgn_plan.is_empty() {
        t.phase(root, "cgn.CgnPlan::publish_metrics", |_| {
            env.cgn_plan.publish_metrics()
        });
    }
    StudyOutput {
        datasets,
        homes: env.homes,
        windows: cfg.windows.clone(),
        timings: PhaseTimings { simulate, snapshot },
        fault_plan: env.fault_plan,
        cgn_plan: env.cgn_plan,
        upload_counters,
        dropped_in_downtime,
        spill,
    }
}

/// `run_study_stream`'s body: every home built up front, then per window
/// advance all homes, drain, update, absorb and finalize.
fn stream(
    cfg: &StudyConfig,
    cadence: simnet::time::SimDuration,
    t: &Tracer,
    root: SpanId,
    env: Env,
    collector: Collector,
    start: Instant,
) -> (StudyOutput, Vec<f64>, String, u32) {
    let mut sims = t.phase(root, "core.build_sims", |p| env.build_sims(cfg, t, p));
    let span = cfg.windows.span;
    let workers = cfg.threads.max(1);
    let mut inc = analysis::IncrementalReport::new(cfg.windows.report_windows());
    let mut acc = Datasets::default();
    let mut absorber = collector::DatasetsAbsorber::default();
    let mut report = None;
    let mut spill_total: Option<SpillStats> = None;
    let mut simulate = Duration::ZERO;
    let mut snapshot = Duration::ZERO;
    let mut emitted = Vec::new();
    let mut index: u32 = 0;
    let mut cursor = span.start;
    while cursor < span.end {
        let until = (cursor + cadence).min(span.end);
        let last = until >= span.end;
        t.phase(root, "core.window", |win| {
            let sim_start = Instant::now();
            let chunk = sims.len().div_ceil(workers).max(1);
            t.phase(win, "core.simulate", |phase| {
                std::thread::scope(|scope| {
                    for part in sims.chunks_mut(chunk) {
                        let collector = &collector;
                        scope.spawn(move || {
                            for (home, sim) in part {
                                t.home_call(phase, "core.HomeSim::run_until", *home, |_| {
                                    sim.run_until(until, collector)
                                });
                            }
                        });
                    }
                });
                if last {
                    let mut parts: Vec<Vec<(u32, HomeSim<'_>)>> = Vec::new();
                    while !sims.is_empty() {
                        let at = sims.len().saturating_sub(chunk);
                        parts.push(sims.split_off(at));
                    }
                    std::thread::scope(|scope| {
                        for part in parts {
                            let collector = &collector;
                            scope.spawn(move || {
                                for (home, sim) in part {
                                    t.home_call(phase, "core.HomeSim::finish", home, |_| {
                                        sim.finish(collector)
                                    });
                                }
                            });
                        }
                    });
                }
            });
            simulate += sim_start.elapsed();
            if let Some(stats) = t.phase(win, "collector.Collector::spill_stats", |_| {
                collector.spill_stats()
            }) {
                let total = spill_total.get_or_insert_with(SpillStats::default);
                total.segments += stats.segments;
                total.bytes_written += stats.bytes_written;
                if total.error.is_none() {
                    total.error = stats.error;
                }
            }
            let drain_start = Instant::now();
            let delta = t.phase(win, "collector.Collector::drain_delta", |_| {
                collector.drain_delta()
            });
            snapshot += drain_start.elapsed();
            t.phase(win, "analysis.IncrementalReport::update", |_| {
                inc.update(&delta)
            });
            let absorb_start = Instant::now();
            t.phase(win, "collector.Datasets::absorb", |_| {
                acc.absorb(delta, &mut absorber)
            });
            snapshot += absorb_start.elapsed();
            let rolled = t.phase(win, "analysis.IncrementalReport::finalize", |_| {
                inc.finalize(&acc)
            });
            emitted.push(start.elapsed());
            report = Some(rolled);
            obs::counter("stream_windows_total").add(1);
        });
        index += 1;
        cursor = until;
    }
    let report = report.expect("span is non-empty, so at least one window ran");
    let (upload_counters, dropped_in_downtime) =
        t.phase(root, "collector.Collector::publish_metrics", |_| {
            collector.publish_metrics();
            (collector.upload_counters(), collector.dropped_in_downtime())
        });
    drop(collector);
    if !env.cgn_plan.is_empty() {
        t.phase(root, "cgn.CgnPlan::publish_metrics", |_| {
            env.cgn_plan.publish_metrics()
        });
    }
    let rendered = t.phase(root, "analysis.StudyReport::render", |_| {
        report.render(&acc)
    });
    let study = StudyOutput {
        datasets: acc,
        homes: env.homes,
        windows: cfg.windows.clone(),
        timings: PhaseTimings { simulate, snapshot },
        fault_plan: env.fault_plan,
        cgn_plan: env.cgn_plan,
        upload_counters,
        dropped_in_downtime,
        spill: spill_total,
    };
    (study, intervals_ms(&emitted), rendered, index)
}
