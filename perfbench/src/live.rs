//! The serve probe: one client on one connection of an in-process `cmvrp
//! serve` server, in a closed loop — each request waits for its reply, as
//! the lockstep protocol requires. The session is live (`preload:false`):
//! `open` provisions the fleet for the planning demand, and the client
//! injects the scenario's arrivals one job at a time, advancing the
//! session every few injects and querying it now and then; then it
//! drains, fetches the trace and closes. After the session the trace
//! codec and the analyzers (the `obs` layer) run over its trace.
//!
//! It is not a workload of its own: a closed loop of ~25k round trips
//! spent most of its time in the kernel's wake-ups, whose cost on a
//! shared 2-CPU VM moved by half between phases lasting minutes, so its
//! end-to-end time could not be held within a bound. It runs, timed by
//! layer, in uniform-256's traced iterations, and its checks run at the
//! end of every uniform-256 run.

use crate::tracer::Tracer;
use crate::{median, naive, quantile, Ops, Samples};
use cmvrp_engine::{ExecConfig, ShardMap};
use cmvrp_grid::{pt2, GridBounds};
use cmvrp_obs::{BinSink, Event, Sink, VecSink};
use cmvrp_online::OnlineConfig;
use cmvrp_scenario::Scenario;
use cmvrp_serve::{ServeConfig, Server};
use cmvrp_util::Ratio;
use cmvrp_workloads::JobSequence;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const SIDE: u64 = 1024;
const CLUSTERS: u64 = 8;
const JOBS: u64 = 20_000;
/// The cluster layout is part of the workload, not of the seed: moving the
/// clusters moves the event count by ±8%, more than the bounds allow
/// between seeds. `--seed` draws the arrival order and the protocol's
/// random choices.
const LAYOUT_SEED: u64 = 7;
/// The client considers advancing after every this many injects...
const ADVANCE_EVERY: usize = 4;
/// ...and queries the session after every this many advances.
const QUERY_EVERY: usize = 16;

/// One request of the client's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Inject(i64, i64),
    Advance(u64),
    Query,
    Drain,
}

/// The client's script: inject the arrivals in order and, every few
/// injects, advance as many rounds as the jobs already sent allow. Each
/// shard releases one queued job per round, so the session may advance
/// to round `r` once every shard still owed jobs has been sent at least
/// `r` of them; it then never runs a shard dry that the one-shot run
/// keeps busy, and its trace is the one-shot run's trace.
fn script(bounds: GridBounds<2>, jobs: &JobSequence<2>, side: u64) -> Vec<Op> {
    let map = ShardMap::new(bounds, side);
    let mut owed = vec![0u64; map.shard_count()];
    for job in jobs.iter() {
        owed[map.shard_of_point(job)] += 1;
    }
    let mut sent = vec![0u64; owed.len()];
    let mut ops = Vec::new();
    let (mut rounds, mut advances) = (0u64, 0usize);
    for (i, job) in jobs.iter().enumerate() {
        ops.push(Op::Inject(job[0], job[1]));
        sent[map.shard_of_point(job)] += 1;
        if (i + 1) % ADVANCE_EVERY != 0 {
            continue;
        }
        let safe = (0..owed.len())
            .filter(|&s| sent[s] < owed[s])
            .map(|s| sent[s])
            .min();
        if let Some(safe) = safe.filter(|&s| s > rounds) {
            ops.push(Op::Advance(safe - rounds));
            rounds = safe;
            advances += 1;
            if advances % QUERY_EVERY == 0 {
                ops.push(Op::Query);
            }
        }
    }
    ops.push(Op::Drain);
    ops
}

/// The value of an integer field in a flat JSON response line.
fn field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends one request and returns its response line.
    fn call(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.writer.flush())
            .map_err(|e| e.to_string())?;
        self.line()
    }
}

pub struct Live {
    seed: u64,
    spec: String,
    bounds: GridBounds<2>,
    jobs: JobSequence<2>,
    omega_c: Ratio,
    /// The one-shot offline run's trace over the same arrivals.
    reference: Vec<String>,
    /// `(cube side, capacity)` from the first `open`, and the script.
    plan: Option<(u64, u64, Vec<Op>)>,
    ops: Ops,
    /// Client-timed latencies of traced sessions, in µs, by op.
    latency: BTreeMap<&'static str, Vec<f64>>,
    layers: Samples,
}

impl Live {
    pub fn new(seed: u64) -> Result<Self, String> {
        let spec = format!("clusters:grid={SIDE},k={CLUSTERS},jobs={JOBS},seed={LAYOUT_SEED}");
        let sc = Scenario::from_spec(&spec)?;
        let (bounds, demand, jobs) = sc.generate(seed).map_err(|e| e.to_string())?;
        let mut sink = VecSink::new();
        ExecConfig::new()
            .threads(1)
            .execute(bounds, &jobs, online(seed), &mut sink)
            .map_err(|e| e.to_string())?;
        Ok(Live {
            seed,
            spec,
            bounds,
            omega_c: cmvrp_core::omega_c(&bounds, &demand),
            jobs,
            reference: sink.events().iter().map(Event::to_json).collect(),
            plan: None,
            ops: Ops::default(),
            latency: BTreeMap::new(),
            layers: Samples::default(),
        })
    }

    /// Replays the script in-process on an engine `Session`, timing each
    /// `inject` and `advance` call: the session's share of the wire ops.
    /// Returns the events the session streamed.
    fn replay(&mut self, script: &[Op]) -> Result<Vec<Event>, String> {
        let mut session = ExecConfig::new()
            .threads(1)
            .build_live(self.bounds, &self.jobs, online(self.seed))
            .map_err(|e| e.to_string())?;
        let mut sink = VecSink::new();
        let (mut inject, mut advance) = (Vec::new(), Vec::new());
        for op in script {
            let start = Instant::now();
            match *op {
                Op::Inject(x, y) => {
                    session.inject(pt2(x, y)).map_err(|e| e.to_string())?;
                    inject.push(start.elapsed().as_secs_f64() * 1e6);
                }
                Op::Advance(r) => {
                    session.advance_rounds(r, &mut sink);
                    advance.push(start.elapsed().as_secs_f64() * 1e6);
                }
                Op::Query => {
                    std::hint::black_box(session.report());
                }
                Op::Drain => {
                    session.drain(&mut sink);
                }
            }
        }
        let events = session.events();
        let run = session.finish();
        if run.report.served != self.jobs.len() as u64 || events != sink.len() as u64 {
            return Err(format!(
                "in-process replay served {} and streamed {} of {events} events",
                run.report.served,
                sink.len()
            ));
        }
        self.layers.push("serve.session_inject_us", mean(&inject));
        self.layers.push("serve.session_advance_us", mean(&advance));
        Ok(sink.drain())
    }

    /// The trace codec and the analyzers, called as the `trace`
    /// subcommands call them: the in-process replay's events are written
    /// through `BinSink` and loaded back, and `stats`, `query`, `check`
    /// and `diff` run over the wire trace.
    fn obs(
        &mut self,
        t: &mut Tracer,
        wire: &[String],
        events: &[Event],
        capacity: u64,
    ) -> Result<(), String> {
        let mut bin = BinSink::new(Vec::new());
        t.span("obs.sink", || {
            for ev in events {
                bin.record(ev);
            }
        });
        let bytes = bin.into_writer().map_err(|e| e.to_string())?;
        let start = Instant::now();
        let loaded = t
            .span("obs.load", || cmvrp_obs::load_trace_bytes(&bytes))
            .map_err(|e| e.to_string())?;
        let read_per_s = events.len() as f64 / start.elapsed().as_secs_f64();
        if loaded.events != events.len() {
            return Err(format!(
                "wrote {} events through BinSink, loaded {}",
                events.len(),
                loaded.events
            ));
        }
        let lines = || wire.iter().map(String::as_str);
        let jobs = self.jobs.len() as u64;
        let stats = t
            .span("obs.stats", || cmvrp_obs::summarize(lines()))
            .map_err(|(l, m)| format!("trace stats, line {l}: {m}"))?;
        if stats.jobs_served != jobs || stats.jobs_unserved() != 0 {
            return Err(format!(
                "trace stats: {} served, {} unserved of {jobs} jobs",
                stats.jobs_served,
                stats.jobs_unserved()
            ));
        }
        let served = t.span("obs.query", || -> Result<u64, String> {
            let expr = cmvrp_obs::parse_query("kind=served").map_err(|e| e.to_string())?;
            let mut n = 0;
            for line in lines() {
                n += u64::from(expr.matches(&Event::from_json(line)?));
            }
            Ok(n)
        })?;
        if served != jobs {
            return Err(format!(
                "trace query kind=served matched {served} of {jobs}"
            ));
        }
        let check = t
            .span("obs.check", || {
                cmvrp_obs::check_lines(lines(), Some(capacity))
            })
            .map_err(|(l, m)| format!("trace check, line {l}: {m}"))?;
        if !check.is_clean() || check.active.len() != cmvrp_obs::INVARIANTS.len() {
            return Err(format!(
                "trace check: {} violation(s), {} of {} monitors active",
                check.violations.len(),
                check.active.len(),
                cmvrp_obs::INVARIANTS.len()
            ));
        }
        let diff = t
            .span("obs.diff", || {
                cmvrp_obs::diff_lines(lines(), loaded.text.lines(), 3)
            })
            .map_err(|e| e.to_string())?;
        if let Some(d) = diff.divergence {
            return Err(format!(
                "wire trace diverges from the in-process replay at line {}: {:?}",
                d.line, d.kind
            ));
        }
        self.layers.push(
            "obs.trace_bytes_per_event",
            bytes.len() as f64 / events.len().max(1) as f64,
        );
        self.layers.push("obs.read_events_per_s", read_per_s);
        Ok(())
    }

    /// One session against a fresh server; returns the wire trace, checked
    /// to be identical under `diff` to the one-shot run's.
    fn wire(&mut self, t: &mut Tracer) -> Result<Vec<String>, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 1,
            connections: 1,
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let (trace, failed, sent) = std::thread::scope(|scope| {
            let handle = scope.spawn(move || server.run());
            // The client's connection ends when `session` returns, which
            // ends the server's only connection and its `run`.
            let result = self.session(t, addr);
            let served = handle.join().expect("server thread panicked");
            let stats = served.map_err(|e| format!("serve: {e}"))?;
            if stats.sessions != 1 {
                return Err(format!("server opened {} sessions", stats.sessions));
            }
            result
        })?;
        self.ops.attempted += sent;
        self.ops.failed += failed;
        let same = cmvrp_obs::diff_lines(
            trace.iter().map(String::as_str),
            self.reference.iter().map(String::as_str),
            3,
        )
        .map_err(|e| e.to_string())?;
        if let Some(d) = same.divergence {
            return Err(format!(
                "wire trace diverges from the one-shot run at line {}: {:?}",
                d.line, d.kind
            ));
        }
        Ok(trace)
    }
}

fn online(seed: u64) -> OnlineConfig {
    OnlineConfig {
        seed,
        ..OnlineConfig::default()
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

impl Live {
    /// One traced session, then the in-process replay of its script and
    /// the `obs` calls over its trace, each under its own span.
    pub fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        let wire = self.wire(t)?;
        let (_, capacity, script) = self.plan.clone().expect("set by the first open");
        let events = self.replay(&script)?;
        self.obs(t, &wire, &events, capacity)
    }

    /// One more session, its trace kept now that peak RSS has been read:
    /// the wire trace is identical under `diff` to the one-shot run's and
    /// passes all nine monitors, and a copy with one delivery mutated is
    /// named, by line, by both `check` and `diff`, so the checks are not
    /// vacuous.
    pub fn finish(&mut self) -> Result<(), String> {
        let wire = self.wire(&mut Tracer::new())?;
        let lines: Vec<&str> = self.reference.iter().map(String::as_str).collect();
        let clean = cmvrp_obs::check_lines(wire.iter().map(String::as_str), None)
            .map_err(|(l, m)| format!("{l}: {m}"))?;
        if !clean.is_clean() || clean.active.len() != cmvrp_obs::INVARIANTS.len() {
            return Err(format!(
                "trace check: {} violation(s), {} of {} monitors active",
                clean.violations.len(),
                clean.active.len(),
                cmvrp_obs::INVARIANTS.len()
            ));
        }
        // The middle delivery, from a sender outside the fleet: a delivery
        // with no matching send on its channel.
        let at = (lines.len() / 2..lines.len())
            .find(|&i| lines[i].starts_with("{\"ev\":\"msg_delivered\""))
            .ok_or("the trace has no delivery to mutate")?;
        let Ok(Event::MsgDelivered {
            t,
            from,
            to,
            delay,
            kind,
        }) = Event::from_json(lines[at])
        else {
            return Err(format!("cannot parse line {}: {}", at + 1, lines[at]));
        };
        let mutated_line = Event::MsgDelivered {
            t,
            from: from + 1_000_000_000,
            to,
            delay,
            kind,
        }
        .to_json();
        let mut mutated = lines.clone();
        mutated[at] = &mutated_line;
        let line = at + 1;
        let report = cmvrp_obs::check_lines(mutated.iter().copied(), None)
            .map_err(|(l, m)| format!("{l}: {m}"))?;
        if !report.violations.iter().any(|v| v.line == line) {
            return Err(format!(
                "trace check of a trace mutated at line {line} does not name it: {:?}",
                report.violations.first()
            ));
        }
        let diff = cmvrp_obs::diff_lines(lines.iter().copied(), mutated.iter().copied(), 3)
            .map_err(|e| e.to_string())?;
        match diff.divergence {
            Some(d) if d.line == line => Ok(()),
            other => Err(format!(
                "trace diff of a trace mutated at line {line} says {other:?}"
            )),
        }
    }

    pub fn ops(&self) -> Ops {
        self.ops
    }

    /// The probe's per-layer metrics that are not span self times.
    pub fn layer_values(&self) -> BTreeMap<&'static str, f64> {
        let mut v = self.layers.medians();
        let lat = |op: &str| self.latency.get(op).map_or(&[][..], Vec::as_slice);
        v.insert("serve.inject_us", mean(lat("inject")));
        v.insert("serve.advance_us", mean(lat("advance")));
        v.insert("serve.query_us", mean(lat("query")));
        v.insert("serve.inject_p50_us", median(lat("inject")));
        v.insert("serve.inject_p99_us", quantile(lat("inject"), 0.99));
        v.insert("serve.advance_p50_us", median(lat("advance")));
        v.insert("serve.advance_p99_us", quantile(lat("advance"), 0.99));
        if let Some(&inproc) = v.get("serve.session_inject_us") {
            v.insert("serve.wire_us", mean(lat("inject")) - inproc);
        }
        v
    }
}

impl Live {
    /// One client session. Returns the fetched trace, the `ok:false`
    /// replies and the requests sent.
    fn session(
        &mut self,
        t: &mut Tracer,
        addr: SocketAddr,
    ) -> Result<(Vec<String>, u64, u64), String> {
        let mut failed = 0u64;
        let mut sent = 0u64;
        let mut check = |resp: &str| -> bool {
            sent += 1;
            let ok = resp.starts_with("{\"ok\":true");
            if !ok {
                failed += 1;
                eprintln!("serve probe: {resp}");
            }
            ok
        };

        let span = t.enter("serve.open");
        let mut client = Client::connect(addr)?;
        let open = client.call(&format!(
            "{{\"op\":\"open\",\"session\":\"live\",\"workload\":\"{}\",\"seed\":{},\
             \"threads\":1,\"preload\":false}}",
            self.spec, self.seed
        ))?;
        t.exit(span);
        if !check(&open) {
            return Err(format!("open failed: {open}"));
        }
        let (Some(side), Some(capacity)) = (field(&open, "cube_side"), field(&open, "capacity"))
        else {
            return Err(format!("open reply lacks cube_side/capacity: {open}"));
        };
        let plan = self
            .plan
            .get_or_insert_with(|| (side, capacity, script(self.bounds, &self.jobs, side)));
        if (plan.0, plan.1) != (side, capacity) {
            return Err(format!(
                "open provisioned ({side}, {capacity}), before ({}, {})",
                plan.0, plan.1
            ));
        }
        let script = plan.2.clone();

        let traced = t.is_enabled();
        let mut lat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut injected = 0u64;
        for op in &script {
            let (name, request) = match *op {
                Op::Inject(x, y) => (
                    "inject",
                    format!("{{\"op\":\"inject\",\"session\":\"live\",\"job\":[{x},{y}]}}"),
                ),
                Op::Advance(r) => (
                    "advance",
                    format!("{{\"op\":\"advance\",\"session\":\"live\",\"rounds\":{r}}}"),
                ),
                Op::Query => (
                    "query",
                    "{\"op\":\"query\",\"session\":\"live\"}".to_string(),
                ),
                Op::Drain => (
                    "drain",
                    "{\"op\":\"advance\",\"session\":\"live\"}".to_string(),
                ),
            };
            let span = t.enter(match name {
                "inject" => "serve.inject",
                "advance" | "drain" => "serve.advance",
                _ => "serve.query",
            });
            let begin = Instant::now();
            let resp = client.call(&request)?;
            let us = begin.elapsed().as_secs_f64() * 1e6;
            t.exit(span);
            if check(&resp) && name == "inject" {
                injected += 1;
            }
            if traced {
                lat.entry(name).or_default().push(us);
            }
        }
        let span = t.enter("serve.trace");
        let header = client.call("{\"op\":\"trace\",\"session\":\"live\"}")?;
        let lines = field(&header, "lines").unwrap_or(0);
        let mut trace = Vec::with_capacity(lines as usize);
        for _ in 0..lines {
            trace.push(client.line()?);
        }
        t.exit(span);
        check(&header);
        let span = t.enter("serve.close");
        let close = client.call("{\"op\":\"close\",\"session\":\"live\"}")?;
        t.exit(span);
        check(&close);
        drop(client);

        let served = field(&close, "served");
        let unserved = field(&close, "unserved");
        let energy = field(&close, "max_energy").unwrap_or(u64::MAX);
        if served != Some(injected) || unserved != Some(0) || injected != self.jobs.len() as u64 {
            return Err(format!("close after {injected} injects says {close}"));
        }
        if field(&close, "events") != Some(lines) {
            return Err(format!(
                "close reports other events than the {lines} traced: {close}"
            ));
        }
        let wc = self.omega_c;
        if energy > capacity || !naive::at_least(energy, wc.numer(), wc.denom()) {
            return Err(format!(
                "max energy {energy} outside [omega_c {wc}, capacity {capacity}]"
            ));
        }
        for (name, v) in lat {
            self.latency.entry(name).or_default().extend(v);
        }
        Ok((trace, failed, sent))
    }
}
