//! `quake-2048` and `uniform-256`: one protocol run through the CLI's
//! untraced `scenario run` and `simulate` paths, on the sharded engine
//! with one worker (`--threads=1`).
//!
//! Untraced, both commands call `ExecConfig::execute` with a `NullSink`,
//! which builds a `ShardedOnlineSim<_, NullSink>` and runs it to the end.
//! The benchmark makes the same two calls itself so it can time them
//! apart: `setup_s` ends when the simulation is built and ready to step.
//!
//! uniform-256 also carries the serve probe (see `live.rs`): its traced
//! iterations time a `serve` session and the `obs` calls over its trace,
//! and every run ends with that probe's checks.

use crate::live::Live;
use crate::naive::{self, Dense};
use crate::tracer::Tracer;
use crate::{repeat_setup, CountSink, Ops, Samples, Timing, Workload};
use cmvrp_core::Instance;
use cmvrp_engine::{ExecConfig, ShardedOnlineSim};
use cmvrp_grid::{DemandMap, GridBounds};
use cmvrp_obs::NullSink;
use cmvrp_online::{provision, OnlineConfig, OnlineReport};
use cmvrp_scenario::{baselines, Baseline, Scenario};
use cmvrp_util::Ratio;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Example 3 of the thesis: an earthquake puts all demand on one point.
const QUAKE_SIDE: u64 = 2048;
const QUAKE_DEMAND: u64 = 2000;
const UNIFORM_SIDE: u64 = 256;
const UNIFORM_JOBS: u64 = 200_000;

/// What the benchmark expects the provisioning to be, from its own
/// evaluation of the definitions.
struct Expected {
    omega_c: (u128, u128),
    side: u64,
    capacity: u64,
    window_max: u64,
    omega_star: Option<(u128, u128)>,
}

pub struct Protocol {
    /// `scenario run` (ω*, the recomputed ω_c and the baselines after the
    /// run) when true; `simulate` otherwise.
    scenario_run: bool,
    /// Set-ups per untraced iteration (see [`repeat_setup`]).
    setup_repeats: usize,
    spec: String,
    seed: u64,
    expected: Expected,
    last: Option<(GridBounds<2>, DemandMap<2>)>,
    ops: Ops,
    energy_ratio: f64,
    /// Events in the run's canonical trace, counted once.
    events: Option<u64>,
    layers: Samples,
    /// Whether the run carries the serve probe, built when first needed:
    /// after the peak-RSS reading, so it does not weigh on it.
    serve_probe: bool,
    serve: Option<Live>,
}

impl Protocol {
    /// `scenario run` over a scenario file, as a user would write it.
    pub fn quake(seed: u64, work: &Path) -> Result<Self, String> {
        let file = work.join("quake-2048.toml");
        let text = format!(
            "# Example 3 (the earthquake): all demand on the epicentre.\n\
             name = \"quake-2048\"\n\n[substrate]\nkind = grid\nside = {QUAKE_SIDE}\n\n\
             [demand]\nshape = point\ndemand = {QUAKE_DEMAND}\n\n\
             [report]\nbaselines = becker, gn\n"
        );
        std::fs::write(&file, text).map_err(|e| format!("{file:?}: {e}"))?;
        // A lone interior point: every window that holds it sums to d.
        let window_max = |_s: u64| QUAKE_DEMAND;
        let side = naive::cube_side(window_max);
        Ok(Protocol {
            scenario_run: true,
            setup_repeats: 1,
            spec: format!("@{}", file.display()),
            seed,
            expected: Expected {
                omega_c: naive::omega_c(window_max),
                side,
                capacity: naive::capacity(side, QUAKE_DEMAND),
                window_max: QUAKE_DEMAND,
                omega_star: Some(naive::omega_star_point(QUAKE_DEMAND)),
            },
            last: None,
            ops: Ops::default(),
            energy_ratio: 0.0,
            events: None,
            layers: Samples::default(),
            serve_probe: false,
            serve: None,
        })
    }

    /// `simulate` over an inline spec.
    pub fn uniform(seed: u64) -> Result<Self, String> {
        let spec = format!("uniform:grid={UNIFORM_SIDE},jobs={UNIFORM_JOBS},seed={seed}");
        let sc = Scenario::from_spec(&spec)?;
        let (bounds, demand, _) = sc.generate(seed).map_err(|e| e.to_string())?;
        let dense = Dense::new(&bounds, &demand);
        let window_max = |s: u64| dense.window_max(s);
        let side = naive::cube_side(window_max);
        let m = dense.window_max(side);
        Ok(Protocol {
            scenario_run: false,
            setup_repeats: 5,
            spec,
            seed,
            expected: Expected {
                omega_c: naive::omega_c(window_max),
                side,
                capacity: naive::capacity(side, m),
                window_max: m,
                omega_star: None,
            },
            last: None,
            ops: Ops::default(),
            energy_ratio: 0.0,
            events: None,
            layers: Samples::default(),
            serve_probe: true,
            serve: None,
        })
    }

    fn serve(&mut self) -> Result<&mut Live, String> {
        if self.serve.is_none() {
            self.serve = Some(Live::new(self.seed)?);
        }
        Ok(self.serve.as_mut().expect("built above"))
    }
}

/// The comparison table `scenario run` prints after the protocol run: ω*,
/// the recomputed ω_c, and the `[report]` baselines on the same demand.
/// Checks each baseline against its own lower bound and returns
/// `(ω*, ω_c)`.
fn scenario_report(
    t: &mut Tracer,
    sc: &Scenario,
    bounds: &GridBounds<2>,
    demand: &DemandMap<2>,
    report: &OnlineReport,
    out: &mut String,
) -> Result<(Ratio, Ratio), String> {
    let capacity = sc.report.capacity.unwrap_or(report.capacity).max(1);
    let fleet = sc
        .report
        .vehicles
        .unwrap_or_else(|| demand.total().div_ceil(capacity).max(1));
    let inst = Instance::new(*bounds, demand.clone());
    let star = t.span("core.omega_star", || inst.omega_star().value);
    let wc = t.span("core.omega_c", || inst.omega_c());
    let _ = writeln!(out, "omega_c {wc} omega* {star}");
    for baseline in &sc.report.baselines {
        match baseline {
            Baseline::Becker => {
                let b = t.span("scenario.becker", || {
                    baselines::becker(bounds, demand, capacity)
                });
                if b.tour_cost < b.lower_bound {
                    return Err(format!("becker tours {b:?} below their bound"));
                }
                let _ = writeln!(out, "becker {} {}", b.lower_bound, b.tour_cost);
            }
            Baseline::Gn => {
                let g = t.span("scenario.gn", || {
                    baselines::gn_makespan(bounds, demand, capacity, fleet)
                });
                if g.makespan < g.lower_bound {
                    return Err(format!("gn makespan {g:?} below its bound"));
                }
                let _ = writeln!(out, "gn {} {}", g.lower_bound, g.makespan);
            }
        }
    }
    Ok((star, wc))
}

impl Workload for Protocol {
    fn iterate(&mut self, t: &mut Tracer) -> Result<Timing, String> {
        let online = OnlineConfig {
            seed: self.seed,
            ..OnlineConfig::default()
        };
        let exec = ExecConfig::new().threads(1);

        let spec = &self.spec;
        let (built, setup_s) = repeat_setup(t, self.setup_repeats, |t| {
            let sc = t.span("scenario.parse", || Scenario::from_spec(spec))?;
            exec.validate().map_err(|e| e.to_string())?;
            let (bounds, demand, jobs) = t
                .span("workloads.generate", || sc.generate(online.seed))
                .map_err(|e| e.to_string())?;
            let sim = t
                .span("engine.build", || {
                    ShardedOnlineSim::<2, NullSink>::new(bounds, &jobs, online)
                })
                .map_err(|e| e.to_string())?;
            Ok((sc, bounds, demand, jobs, sim))
        })?;
        let (sc, bounds, demand, jobs, mut sim) = built;
        let built = Instant::now();

        let root = t.enter("run");
        let drain = t.enter("engine.drain");
        let drain_start = Instant::now();
        let report = sim.run(&exec);
        let drain_s = drain_start.elapsed().as_secs_f64();
        t.exit(drain);
        let metrics = t.span("engine.finish", || sim.metrics());
        let mut out = String::new();
        let mut star = None;
        if self.scenario_run {
            let (s, wc) = scenario_report(t, &sc, &bounds, &demand, &report, &mut out)?;
            if !naive::same(self.expected.omega_c, wc.numer(), wc.denom()) {
                return Err(format!(
                    "recomputed omega_c {wc} != {:?}",
                    self.expected.omega_c
                ));
            }
            star = Some(s);
        }
        let _ = writeln!(
            out,
            "served {}/{} max energy {} capacity {} omega_c {} side {}",
            report.served,
            report.served + report.unserved,
            report.max_energy_used,
            report.capacity,
            report.omega_c,
            report.cube_side
        );
        std::hint::black_box(&out);
        t.exit(root);
        let done = Instant::now();

        // Checks against the benchmark's own evaluation and the method.
        let jobs_n = jobs.len() as u64;
        self.ops.attempted += jobs_n;
        self.ops.failed += report.unserved;
        let e = &self.expected;
        let wc = report.omega_c;
        if report.served != jobs_n || report.unserved != 0 {
            return Err(format!("served {} of {jobs_n} jobs", report.served));
        }
        if !naive::same(e.omega_c, wc.numer(), wc.denom()) {
            return Err(format!("omega_c {wc} != expected {:?}", e.omega_c));
        }
        if report.cube_side != e.side || report.capacity != e.capacity {
            return Err(format!(
                "cube side {} / capacity {} != expected {} / {}",
                report.cube_side, report.capacity, e.side, e.capacity
            ));
        }
        if report.max_energy_used > report.capacity
            || !naive::at_least(report.max_energy_used, wc.numer(), wc.denom())
        {
            return Err(format!(
                "max energy {} outside [omega_c {wc}, capacity {}]",
                report.max_energy_used, report.capacity
            ));
        }
        if let Some(s) = star {
            let want = e.omega_star.expect("scenario run expects omega*");
            if !naive::same(want, s.numer(), s.denom()) {
                return Err(format!("omega* {s} != expected {want:?}"));
            }
            // A run that served every job is an off-line plan: ω* ≤ Woff ≤ max energy.
            if !naive::at_least(report.max_energy_used, s.numer(), s.denom()) {
                return Err(format!(
                    "max energy {} below omega* {s}",
                    report.max_energy_used
                ));
            }
        }
        self.energy_ratio = report.max_energy_used as f64 / wc.to_f64();

        if t.is_enabled() {
            // `build` derives the provisioning inside; time the same calls
            // from outside, on the same inputs, apart from the iteration.
            let probe = t.enter("probe");
            let prov = t.span("online.provision", || provision(&bounds, &demand, &online));
            let m = t.span("core.max_window_sum", || {
                cmvrp_core::max_window_sum(&bounds, &demand, prov.side)
            });
            t.exit(probe);
            if m != e.window_max || prov.capacity != e.capacity {
                return Err(format!("window max {m} != expected {}", e.window_max));
            }
            // The untraced path builds no events; count them once on a
            // streaming run of the same inputs.
            let events = match self.events {
                Some(n) => n,
                None => {
                    let mut sink = CountSink::default();
                    exec.execute(bounds, &jobs, online, &mut sink)
                        .map_err(|e| e.to_string())?;
                    *self.events.insert(sink.0)
                }
            };
            let l = &mut self.layers;
            l.push("engine.events", events as f64);
            l.push("engine.ns_per_event", drain_s * 1e9 / events as f64);
            l.push("engine.rounds", metrics.counter("engine.rounds") as f64);
            l.push(
                "engine.shards_stepped",
                metrics.counter("engine.worker0.shards_stepped") as f64,
            );
            l.push(
                "engine.busy_s",
                metrics.counter("engine.worker0.busy_us") as f64 * 1e-6,
            );
            if self.serve_probe {
                let probe = t.enter("probe");
                self.serve()?.probe(t)?;
                t.exit(probe);
            }
        }
        self.last = Some((bounds, demand));
        Ok(Timing {
            setup_s,
            run_s: (done - built).as_secs_f64(),
        })
    }

    fn finish(&mut self) -> Result<(), String> {
        let (bounds, demand) = self.last.as_ref().ok_or("no iteration ran")?;
        let m = cmvrp_core::max_window_sum(bounds, demand, self.expected.side);
        if m != self.expected.window_max {
            return Err(format!(
                "max_window_sum at side {} = {m}, naive scan says {}",
                self.expected.side, self.expected.window_max
            ));
        }
        if self.serve_probe {
            self.serve()?.finish()?;
        }
        Ok(())
    }

    fn ops(&self) -> Ops {
        let serve = self.serve.as_ref().map(Live::ops).unwrap_or_default();
        Ops {
            attempted: self.ops.attempted + serve.attempted,
            failed: self.ops.failed + serve.failed,
        }
    }

    fn energy_over_omega_c(&self) -> f64 {
        self.energy_ratio
    }

    fn layer_values(&self, _: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
        let mut v = self.layers.medians();
        if let Some(serve) = &self.serve {
            v.extend(serve.layer_values());
        }
        v
    }
}
