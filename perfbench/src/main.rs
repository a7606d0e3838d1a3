//! The cmvrp end-to-end benchmark: runs one named workload in this
//! process for a fixed measuring time and prints, as the last line of
//! standard output, one JSON object with the operations it attempted,
//! the operations that failed, and every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quake-2048 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced iterations and prints the per-layer metrics, the
//! time no layer call accounts for, and the tracing overhead. Every
//! iteration checks the program's outputs against values this benchmark
//! computes itself or against properties the method must have; a failed
//! check exits with status 1 and prints no result. See README.md.

mod live;
mod naive;
mod protocol;
mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tracer::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["quake-2048", "uniform-256"];

/// Untraced iterations a run makes at least, whatever `--seconds` says:
/// a median needs three.
const MIN_ITERATIONS: usize = 3;

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A workload whose path never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("scenario.parse_s", "s"),
    ("scenario.becker_s", "s"),
    ("scenario.gn_s", "s"),
    ("workloads.generate_s", "s"),
    ("online.provision_s", "s"),
    ("core.omega_c_s", "s"),
    ("core.max_window_sum_s", "s"),
    ("core.omega_star_s", "s"),
    ("engine.build_s", "s"),
    ("engine.drain_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.rounds", "count"),
    ("engine.events", "count"),
    ("engine.shards_stepped", "count"),
    ("engine.busy_s", "s"),
    ("obs.sink_s", "s"),
    ("obs.trace_bytes_per_event", "bytes"),
    ("obs.load_s", "s"),
    ("obs.read_events_per_s", "1/s"),
    ("obs.stats_s", "s"),
    ("obs.query_s", "s"),
    ("obs.check_s", "s"),
    ("obs.diff_s", "s"),
    ("serve.open_s", "s"),
    ("serve.inject_us", "us"),
    ("serve.advance_us", "us"),
    ("serve.query_us", "us"),
    ("serve.trace_s", "s"),
    ("serve.close_s", "s"),
    ("serve.session_inject_us", "us"),
    ("serve.session_advance_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.inject_p50_us", "us"),
    ("serve.inject_p99_us", "us"),
    ("serve.advance_p50_us", "us"),
    ("serve.advance_p99_us", "us"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
];

/// What one iteration measured, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub setup_s: f64,
    pub run_s: f64,
}

/// Operations attempted and failed, as the program reported them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// One benchmark workload. `iterate` runs the user-facing path once —
/// set-up, then the run — and checks what it produced; spans go to the
/// tracer, which is recording only on traced iterations.
pub trait Workload {
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Timing, String>;

    /// Checks that need more than one iteration's outputs, or that are
    /// too costly to repeat; run once, after the measuring loop.
    fn finish(&mut self) -> Result<(), String>;

    fn ops(&self) -> Ops;

    /// The protocol's max energy used ÷ `ω_c` of the demand.
    fn energy_over_omega_c(&self) -> f64;

    /// Per-layer metrics that are not span self times (counts, ratios,
    /// per-operation latencies), from the traced iterations; `spans` holds
    /// the median self time of each layer span, by metric name.
    fn layer_values(&self, spans: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64>;
}

/// Runs a workload's set-up `repeats` times on an untraced iteration
/// (once on a traced one), each under a `setup` span, and returns the last
/// result with the median set-up time: a short set-up needs more samples
/// than the iterations alone give it. Each set-up is dropped, untimed,
/// before the next one is built, so no two are alive at once.
pub fn repeat_setup<T>(
    t: &mut Tracer,
    repeats: usize,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let repeats = if t.is_enabled() { 1 } else { repeats.max(1) };
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        let root = t.enter("setup");
        let out = setup(t)?;
        t.exit(root);
        samples.push(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((last.expect("at least one set-up"), median(&samples)))
}

/// Per-layer samples, one per traced iteration, reported as medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// A sink that only counts the events it is handed.
#[derive(Default)]
pub struct CountSink(pub u64);

impl cmvrp_obs::Sink for CountSink {
    fn record(&mut self, _: &cmvrp_obs::Event) {
        self.0 += 1;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: cmvrp-perfbench --workload <{}> --seed <n> [--seconds <n>] [--trace <0|1>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or_else(usage)?,
        seconds,
        trace,
    })
}

/// Scratch space inside the checkout: the build directory Cargo was
/// given, or `.bench_build` when none was.
fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args, work: &std::path::Path) -> Result<String, String> {
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "quake-2048" => Box::new(protocol::Protocol::quake(args.seed, work)?),
        "uniform-256" => Box::new(protocol::Protocol::uniform(args.seed)?),
        other => unreachable!("workload {other:?} was validated"),
    };
    let mut tracer = Tracer::new();
    let mut plain: Vec<Timing> = Vec::new();
    let mut traced: Vec<(u64, Timing)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // The traced run alternates untraced and traced iterations, so the
    // two halves see the same machine and the overhead is their gap.
    let mut iter = 0u64;
    let mut rss = None;
    while plain.len() < MIN_ITERATIONS
        || (args.trace && traced.len() < MIN_ITERATIONS)
        || Instant::now() < deadline
    {
        let on = args.trace && iter % 2 == 1;
        tracer.set_enabled(on);
        tracer.begin_iteration(iter);
        let t = w.iterate(&mut tracer)?;
        eprintln!(
            "iteration {iter}{}: setup {:.4} s, run {:.4} s",
            if on { " (traced)" } else { "" },
            t.setup_s,
            t.run_s
        );
        if on {
            traced.push((iter, t));
        } else {
            plain.push(t);
        }
        // The peak after one whole pass, as a CLI process would have it: a
        // later reading would grow with the number of iterations run.
        if rss.is_none() {
            rss = Some(peak_rss_mb()?);
        }
        iter += 1;
    }
    tracer.set_enabled(false);
    let rss = rss.expect("at least one iteration ran");
    w.finish()?;
    let ops = w.ops();

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        let setup: Vec<f64> = plain.iter().map(|t| t.setup_s).collect();
        let runs: Vec<f64> = plain.iter().map(|t| t.run_s).collect();
        metrics.push(("setup_s".into(), median(&setup), "s"));
        metrics.push(("run_s".into(), median(&runs), "s"));
        metrics.push(("peak_rss_mb".into(), rss, "MB"));
        metrics.push((
            "energy_over_omega_c".into(),
            w.energy_over_omega_c(),
            "ratio",
        ));
    } else {
        let per_iter = tracer.self_seconds();
        let mut values = BTreeMap::new();
        for (name, unit) in PER_LAYER {
            if unit != "s" {
                continue;
            }
            let span = name.trim_end_matches("_s");
            let samples: Vec<f64> = traced
                .iter()
                .map(|(i, _)| {
                    per_iter
                        .get(i)
                        .and_then(|m| m.get(span))
                        .copied()
                        .unwrap_or(0.0)
                })
                .collect();
            values.insert(name, median(&samples));
        }
        values.extend(w.layer_values(&values));
        // The setup/run root spans' self time is what no layer call covers.
        let gaps: Vec<f64> = traced
            .iter()
            .map(|(i, _)| {
                let m = &per_iter[i];
                m.get("setup").copied().unwrap_or(0.0) + m.get("run").copied().unwrap_or(0.0)
            })
            .collect();
        values.insert("unattributed_s", median(&gaps));
        let total = |ts: &mut dyn Iterator<Item = Timing>| -> f64 {
            median(&ts.map(|t| t.setup_s + t.run_s).collect::<Vec<_>>())
        };
        values.insert(
            "trace_overhead_s",
            total(&mut traced.iter().map(|(_, t)| *t)) - total(&mut plain.iter().copied()),
        );
        for (name, unit) in PER_LAYER {
            metrics.push((name.into(), values.get(name).copied().unwrap_or(0.0), unit));
        }
        let spans_dir = scratch_root().join("perfbench-spans");
        std::fs::create_dir_all(&spans_dir).map_err(|e| format!("{spans_dir:?}: {e}"))?;
        let path = spans_dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{path:?}: {e}"))?;
        eprintln!("spans written to {}", path.display());
    }
    eprintln!(
        "{}: {} untraced and {} traced iterations",
        args.workload,
        plain.len(),
        traced.len()
    );
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        // `{:?}` prints every digit an f64 holds, in a form JSON accepts.
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let work = scratch_root().join(format!("perfbench-work-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {work:?}: {e}"))
        .and_then(|_| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("check failed: {e}");
            std::process::exit(1);
        }
    }
}
