//! perfbench: the BISmark reproduction's end-to-end and per-layer
//! benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: whole cycles of
//! rounds through the program's entry point over the run's study seeds,
//! each round preceded by set-up repetitions, until `--seconds` have
//! passed; then the correctness checks. With `--trace 1` it runs one
//! traced round and two untraced rounds of one study seed, checks that
//! all three did the same work, and reports the per-layer metrics. The
//! last line of standard output is the result as one JSON object.

mod checks;
mod layers;
mod replica;
mod stats;
mod trace;
mod workload;

use stats::{median, mib, peak_rss_bytes, secs};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{home_days, run_round, Fingerprint, Timing, Workload, SETUP_REPS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("whole seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// Operations a run attempted and how many failed.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Count a round: every home simulated, every window emitted, every
    /// upload batch offered to the collector (rejected ones fail).
    fn round(&mut self, out: &workload::Output) {
        let c = out.study.upload_counters;
        self.attempted += out.study.homes.len() as u64
            + u64::from(out.windows)
            + c.accepted
            + c.duplicates
            + c.rejected;
        self.failed += c.rejected;
    }

    /// Count checks; report each failure on stderr.
    fn checks(&mut self, checks: &[checks::Check]) {
        for c in checks {
            self.attempted += 1;
            match &c.result {
                Ok(()) => eprintln!("perfbench: check {} passed", c.name),
                Err(why) => {
                    self.failed += 1;
                    eprintln!("perfbench: check {} FAILED: {why}", c.name);
                }
            }
        }
    }
}

/// A metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn print_result(correct: bool, ops: &Ops, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.work_dir).expect("work directory must be creatable");
    eprintln!(
        "perfbench: workload {} seed {} threads {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        workload::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (correct, ops, metrics) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    print_result(correct, &ops, &metrics);
}

/// The end-to-end run.
fn untraced(args: &Args) -> (bool, Ops, Vec<Metric>) {
    let w = args.workload;
    let cfgs = w.configs(args.seed);
    let mut setups: Vec<f64> = Vec::new();
    let mut ops = Ops::default();
    let mut timings: Vec<Timing> = Vec::new();
    let mut prints: Vec<(usize, Fingerprint)> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Whole cycles over the run's study seeds, until the budget is spent.
    let (last_cfg, last) = loop {
        let which = timings.len() % cfgs.len();
        let cfg = &cfgs[which];
        setups.extend((0..SETUP_REPS).map(|_| secs(replica::setup_once(w, cfg))));
        obs::reset();
        let (timing, out) = run_round(w, cfg);
        ops.round(&out);
        prints.push((which, Fingerprint::of(&out)));
        eprintln!(
            "perfbench: round {} (study seed {}) wall {:.3}s",
            timings.len() + 1,
            cfg.seed,
            secs(timing.wall)
        );
        timings.push(timing);
        let whole_cycle = timings.len().is_multiple_of(cfgs.len());
        if whole_cycle && start.elapsed() >= budget {
            break (cfg, out);
        }
    };
    let peak_rss = peak_rss_bytes();
    eprintln!("perfbench: set-up repetitions (s) {setups:.4?}");

    let mut checks = checks::workload_checks(w, last_cfg, &last);
    if let Some(c) = repeat_check(&prints) {
        checks.push(c);
    }
    ops.checks(&checks);

    let per_round = |f: &dyn Fn(&Timing) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());
    let days = home_days(last_cfg);
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("wall_s", per_round(&|t| secs(t.wall)), "s"),
        metric(
            "home_days_per_s",
            per_round(&|t| days / secs(t.simulate)),
            "1/s",
        ),
        metric("peak_rss_mib", mib(peak_rss), "MiB"),
        metric("window_ms_p50", per_round(&|t| t.window_p50()), "ms"),
        metric("window_ms_p95", per_round(&|t| t.window_p95()), "ms"),
    ];
    (checks.iter().all(|c| c.result.is_ok()), ops, metrics)
}

/// Rounds of the same study seed must do exactly the same work; `None`
/// when no seed ran twice.
fn repeat_check(prints: &[(usize, Fingerprint)]) -> Option<checks::Check> {
    let mut compared = false;
    let mut diverged = None;
    for (i, (which, first)) in prints.iter().enumerate() {
        for (other, print) in &prints[i + 1..] {
            if other == which {
                compared = true;
                diverged = diverged.or_else(|| first.diff(print));
            }
        }
    }
    compared.then(|| checks::Check {
        name: "rounds-repeat-exactly",
        result: diverged.map_or(Ok(()), Err),
    })
}

/// The traced run: one traced round, then two untraced rounds of the same
/// study seed, which must repeat each other and the traced round exactly.
/// The first untraced round also gives the tracing overhead.
fn traced(args: &Args) -> (bool, Ops, Vec<Metric>) {
    let w = args.workload;
    let cfg = &w.configs(args.seed)[0];
    let tracer = trace::Tracer::on();
    let mut ops = Ops::default();

    obs::reset();
    let (traced_timing, traced_out, facts) = replica::traced_round(w, cfg, &tracer);
    ops.round(&traced_out);
    let traced_print = Fingerprint::of(&traced_out).without_gauges();
    let layer_metrics = layers::per_layer(cfg, &tracer, &traced_timing, &traced_out, &facts);

    let mut prints = Vec::new();
    let mut first = None;
    for _ in 0..2 {
        obs::reset();
        let (timing, out) = run_round(w, cfg);
        ops.round(&out);
        prints.push((0, Fingerprint::of(&out)));
        first.get_or_insert((timing, out));
    }
    let (timing, out) = &first.expect("two untraced rounds ran");

    let mut checks = checks::workload_checks(w, cfg, out);
    checks.extend(repeat_check(&prints));
    let same = traced_out.study.datasets == out.study.datasets && traced_out.report == out.report;
    checks.push(checks::Check {
        name: "traced-equals-untraced",
        result: match (
            same,
            prints[0].1.clone().without_gauges().diff(&traced_print),
        ) {
            (true, None) => Ok(()),
            (false, _) => Err("datasets or rendered report differ".to_string()),
            (true, Some(why)) => Err(why),
        },
    });
    let coverage = layers::coverage(&tracer);
    checks.push(checks::Check {
        name: "trace-coverage",
        result: if coverage >= layers::MIN_COVERAGE {
            Ok(())
        } else {
            Err(format!(
                "spans cover {:.1}% of the traced round",
                coverage * 100.0
            ))
        },
    });
    ops.checks(&checks);

    let path = args
        .work_dir
        .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&path, tracer.to_json()).expect("trace file must be writable");
    eprintln!("perfbench: spans written to {}", path.display());

    let mut metrics = layer_metrics;
    metrics.push(metric("trace.coverage", coverage, "ratio"));
    metrics.push(metric(
        "trace.overhead_s",
        secs(traced_timing.wall) - secs(timing.wall),
        "s",
    ));
    (checks.iter().all(|c| c.result.is_ok()), ops, metrics)
}
