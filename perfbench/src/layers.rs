//! Per-layer metrics of a traced round: span times per layer, and the
//! exact work counters the program's `obs` registry keeps.

use crate::replica::TraceFacts;
use crate::stats::{mib, quantile};
use crate::trace::{Span, Tracer};
use crate::workload::{Output, Timing};
use crate::{metric, Metric};
use bismark::StudyConfig;
use std::collections::BTreeMap;

/// Share of the traced round its top-level spans must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// `obs` counters reported as per-layer work counts, by metric name.
const COUNTERS: [(&str, &str); 10] = [
    ("firmware.heartbeats_emitted", "heartbeats_emitted_total"),
    ("simnet.packets_forwarded", "packets_forwarded_total"),
    ("simnet.packets_dropped", "packets_dropped_total"),
    ("simnet.dhcp_leases", "dhcp_leases_total"),
    ("simnet.nat_evictions", "nat_evictions_total"),
    ("netstack.flows_started", "flows_started_total"),
    ("netstack.flows_completed", "flows_completed_total"),
    ("firmware.uploader_sealed", "uploader_sealed_total"),
    ("firmware.uploader_acked", "uploader_acked_total"),
    ("firmware.uploader_retries", "uploader_retries_total"),
];

/// The round's root span.
fn root(spans: &[Span]) -> &Span {
    spans
        .iter()
        .find(|s| s.name == "bench.round")
        .expect("a traced round records its root span")
}

/// Share of the root span covered by its direct children (which run one
/// after another on the orchestrating thread).
pub fn coverage(t: &Tracer) -> f64 {
    let spans = t.spans();
    let root = root(&spans);
    let covered: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent == root.id)
        .map(Span::secs)
        .collect();
    sum(&covered) / root.secs()
}

/// Sum of `v` (0 when empty; `Iterator::sum` of no floats gives -0).
fn sum<'a>(v: impl IntoIterator<Item = &'a f64>) -> f64 {
    v.into_iter().fold(0.0, |a, b| a + b)
}

/// Total seconds of the spans named `name`.
fn total_secs(spans: &[Span], name: &str) -> f64 {
    sum(&spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect::<Vec<_>>())
}

fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.secs() * 1e3)
        .collect()
}

/// Median of `v`, or 0 when the workload never made the call.
fn p50_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        quantile(v, 0.5)
    }
}

/// Every per-layer metric of the traced round.
pub fn per_layer(
    cfg: &StudyConfig,
    t: &Tracer,
    timing: &Timing,
    out: &Output,
    facts: &TraceFacts,
) -> Vec<Metric> {
    let spans = t.spans();
    let data = &out.study.datasets;
    let counters = obs::snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    // Per-home simulation time (run, or run_until across windows plus
    // finish) and the share of the simulate phases the workers were busy.
    let simulate_ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "core.simulate")
        .map(|s| s.id)
        .collect();
    let simulate_wall = total_secs(&spans, "core.simulate");
    let mut per_home: BTreeMap<u32, f64> = BTreeMap::new();
    let mut in_phase = 0.0;
    for s in &spans {
        if simulate_ids.contains(&s.parent) {
            in_phase += s.secs();
        }
        if matches!(
            s.name,
            "core.HomeSim::run" | "core.HomeSim::run_until" | "core.HomeSim::finish"
        ) {
            *per_home
                .entry(s.home.expect("per-home spans name their home"))
                .or_default() += s.secs() * 1e3;
        }
    }
    let home_ms: Vec<f64> = per_home.values().copied().collect();

    let drains = durations_ms(&spans, "collector.Collector::drain_delta");
    let absorbs = durations_ms(&spans, "collector.Datasets::absorb");
    let into = durations_ms(&spans, "collector.Collector::into_datasets");
    let updates = durations_ms(&spans, "analysis.IncrementalReport::update");
    let finalizes = durations_ms(&spans, "analysis.IncrementalReport::finalize");
    let heartbeat_records: u64 = data.heartbeats.values().map(|l| l.total_heartbeats()).sum();
    let records = data.record_count() as u64;
    let uploads = out.study.upload_counters;
    let export_bytes = out.export.as_ref().map_or(0, |s| s.len() as u64);
    let plan_ms = (total_secs(&spans, "cgn.CgnPlan::scenario")
        + total_secs(&spans, "cgn.CgnPlan::empty"))
        * 1e3;

    let mut m = vec![
        metric(
            "household.deploy_s",
            total_secs(&spans, "household.build_deployment_scaled"),
            "s",
        ),
        metric(
            "household.universe_zone_ms",
            (total_secs(&spans, "household.DomainUniverse::standard")
                + total_secs(&spans, "household.DomainUniverse::build_zone"))
                * 1e3,
            "ms",
        ),
        metric("cgn.plan_ms", plan_ms, "ms"),
        metric(
            "cgn.fronted_homes",
            out.study
                .cgn_plan
                .homes
                .iter()
                .filter(|h| h.is_fronted())
                .count() as f64,
            "count",
        ),
        metric(
            "cgn.nat_probe_records",
            data.nat_probes.len() as f64,
            "count",
        ),
        metric(
            "cgn.punch_trial_records",
            data.punch_trials.len() as f64,
            "count",
        ),
        metric(
            "core.homesim_new_s",
            total_secs(&spans, "core.HomeSim::new"),
            "s",
        ),
        metric("core.home_busy_s", sum(&home_ms) / 1e3, "s"),
        metric("core.home_ms_p50", quantile(&home_ms, 0.5), "ms"),
        metric("core.home_ms_max", quantile(&home_ms, 1.0), "ms"),
        metric(
            "core.parallel_efficiency",
            in_phase / (cfg.threads as f64 * simulate_wall),
            "ratio",
        ),
    ];
    m.extend(
        COUNTERS
            .iter()
            .map(|&(name, key)| metric(name, count(key), "count")),
    );
    m.extend([
        metric("collector.records", records as f64, "count"),
        metric(
            "collector.heartbeat_records",
            heartbeat_records as f64,
            "count",
        ),
        metric(
            "collector.non_heartbeat_records",
            (records - heartbeat_records) as f64,
            "count",
        ),
        metric("collector.accepted", uploads.accepted as f64, "count"),
        metric("collector.duplicates", uploads.duplicates as f64, "count"),
        metric("collector.rejected", uploads.rejected as f64, "count"),
        metric(
            "collector.snapshot_s",
            sum(into.iter().chain(&drains).chain(&absorbs)) / 1e3,
            "s",
        ),
        metric(
            "collector.columnar_heap_mib",
            mib(data.columnar_heap_bytes() as u64),
            "MiB",
        ),
        metric(
            "collector.drain_ms_p50",
            p50_or_zero(if drains.is_empty() { &into } else { &drains }),
            "ms",
        ),
        metric("collector.absorb_ms_p50", p50_or_zero(&absorbs), "ms"),
        metric(
            "collector.export_s",
            total_secs(&spans, "collector.export::to_json"),
            "s",
        ),
        metric("collector.export_mib", mib(export_bytes), "MiB"),
        metric(
            "collector.export_rss_growth_mib",
            mib(facts.export_rss_growth_bytes),
            "MiB",
        ),
        metric(
            "analysis.report_s",
            total_secs(&spans, "analysis.StudyReport::compute")
                + (sum(&updates) + sum(&finalizes)) / 1e3,
            "s",
        ),
        metric(
            "analysis.render_s",
            total_secs(&spans, "analysis.StudyReport::render"),
            "s",
        ),
        metric("analysis.update_ms_p50", p50_or_zero(&updates), "ms"),
        metric("analysis.finalize_ms_p50", p50_or_zero(&finalizes), "ms"),
        metric(
            "analysis.finalize_ms_last",
            finalizes.last().copied().unwrap_or(0.0),
            "ms",
        ),
        metric("trace.wall_s", timing.wall.as_secs_f64(), "s"),
        metric("trace.spans", spans.len() as f64, "count"),
    ]);
    m
}
