//! The `serve-hot` and `serve-fresh` workloads: an in-process TCP server and
//! two closed-loop clients.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mim::core::{DesignSpace, MechanisticModel};
use mim::isa::BlockEngine;
use mim::profile::SweepProfiler;
use mim::runner::{CellMemo, EvalError, WorkloadStore};
use mim::serve::protocol::{ok_response, to_line, Request};
use mim::serve::{find_workload, Client, Engine, JobSpec, ServeError, Server};
use mim::workloads::WorkloadSize;
use serde::Value;

use crate::gen;
use crate::span::{self, Recorder};
use crate::stats::{median, Tally};
use crate::sweep::NoHooks;
use crate::{Args, Outcome};

/// Closed-loop clients, one connection each; no more than the box's cores.
const CLIENTS: usize = 2;
/// Engine worker threads.
const WORKERS: usize = 2;
const QUEUE: usize = 64;
const STORE_CAPACITY: usize = 64;
/// Set-ups timed per run; `setup_s` is their median. A `serve-fresh` set-up
/// only starts a server, some tens of microseconds, so it takes more.
const SETUP_REPS: usize = 5;
const FRESH_SETUP_REPS: usize = 51;
/// Fresh responses per client and window kept for the byte-for-byte check
/// against an in-process run of the same job.
const FRESH_KEPT: usize = 16;
/// A traced `serve-fresh` run re-times the stages of one request in this
/// many: composing a fresh job in process costs as much CPU as the server's
/// run of it, and the server has no core to spare.
const FRESH_TRACE_EVERY: u64 = 8;
/// Failures a client describes in notes; the rest are only counted.
const MAX_NOTES: u64 = 5;
/// Windows of a `serve-hot` run, each an eighth of `--seconds`; a traced
/// run alternates them untraced and traced, and a traced `serve-fresh` run
/// takes rounds in the same order until a multiple of four.
const HOT_WINDOWS: usize = 8;

pub struct ServeKind {
    hot: bool,
}

/// A server running on its own thread.
struct Running {
    engine: Engine,
    addr: String,
    handle: JoinHandle<Result<(), ServeError>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        // A bounded store, as `mim-serve --capacity 64` runs.
        let store = WorkloadStore::with_capacity(STORE_CAPACITY);
        let engine = Engine::start(store, CellMemo::new(), WORKERS, QUEUE);
        let server =
            Server::bind("tcp:127.0.0.1:0", engine.clone()).map_err(|e| format!("start: {e}"))?;
        let addr = server.addr().to_connect_string();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running {
            engine,
            addr,
            handle,
        })
    }

    /// Asks the server to shut down and waits for its thread.
    fn stop(self) -> Result<(), String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.handle.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    latencies: Vec<f64>,
    /// Which measurement window the log belongs to, and the seconds from
    /// that window's start to this client's last reply.
    window: usize,
    end: f64,
    tally: Tally,
    submits: u64,
    deduped: u64,
    /// `serve-fresh` responses kept for the byte check: (job index, report).
    kept: Vec<(u64, Value)>,
    notes: Vec<String>,
    /// Traced phase only: per-request transport seconds and stage totals.
    transport: Vec<f64>,
    rtt_total: f64,
    stages_total: f64,
    decoded_bytes: u64,
    job_insts: u64,
    run_total: f64,
}

/// One measurement window: the client logs (with spans when traced) and the
/// server's store and memo counters over it.
struct Window {
    logs: Vec<(ClientLog, Option<Recorder>)>,
    executions: u64,
    hits: u64,
    lookups: u64,
}

impl ServeKind {
    pub fn hot() -> ServeKind {
        ServeKind { hot: true }
    }

    pub fn fresh() -> ServeKind {
        ServeKind { hot: false }
    }

    /// Starts the server and, for `serve-hot`, primes its pool. Does so
    /// `SETUP_REPS` (`FRESH_SETUP_REPS`) times and keeps the last server.
    /// Priming goes through the engine rather than a client: the pool only
    /// has to be finished in the job table, and a client would spend set-up
    /// decoding reports.
    fn setup(&self, pool: &[JobSpec]) -> Result<(Running, f64), String> {
        let mut times = Vec::new();
        let mut kept = None;
        let reps = if self.hot {
            SETUP_REPS
        } else {
            FRESH_SETUP_REPS
        };
        for rep in 0..reps {
            let t = Instant::now();
            let running = Running::start()?;
            for job in pool {
                let (id, _) = running
                    .engine
                    .submit(job.clone())
                    .map_err(|e| format!("prime: {e}"))?;
                running
                    .engine
                    .wait_result(id)
                    .map_err(|e| format!("prime: {e}"))?;
            }
            times.push(t.elapsed().as_secs_f64());
            if rep + 1 < reps {
                running.stop()?;
            } else {
                kept = Some(running);
            }
        }
        Ok((kept.expect("at least one set-up"), median(&times)))
    }

    pub fn run(&self, args: &Args) -> Outcome {
        let pool = if self.hot {
            gen::hot_pool(args.seed)
        } else {
            Vec::new()
        };
        let (mut running, setup_s) = match self.setup(&pool) {
            Ok((r, s)) => (Some(r), s),
            Err(e) => {
                let mut out = Outcome::new(0.0);
                out.fail(format!("set-up failed: {e}"));
                return out;
            }
        };
        let mut out = Outcome::new(setup_s);
        // The in-process report bytes every hot response must equal.
        let expected: Vec<String> = pool
            .iter()
            .map(|job| in_process(job).unwrap_or_else(|e| format!("error: {e}")))
            .collect();
        // serve-hot measures eight windows on the primed server (traced,
        // alternating untraced and traced in the order U T T U U T T U).
        // serve-fresh measures whole rounds, each on a new server, until the
        // time is up; traced, the rounds alternate in the same order.
        let each = args.seconds / HOT_WINDOWS as f64;
        let begin = Instant::now();
        let mut rec = Recorder::new(begin);
        let (mut base_logs, mut logs) = (Vec::new(), Vec::new());
        let (mut executions, mut hits, mut lookups) = (0, 0, 0);
        for w in 0.. {
            let more = if self.hot {
                w < HOT_WINDOWS
            } else {
                begin.elapsed().as_secs_f64() < args.seconds || (args.trace && w % 4 != 0)
            };
            if !more {
                break;
            }
            if !self.hot && w > 0 {
                // The finished round's server stops before the next one
                // starts, so that no two rounds hold memory together.
                let next = running
                    .take()
                    .map_or(Ok(()), Running::stop)
                    .and_then(|()| Running::start());
                match next {
                    Ok(r) => running = Some(r),
                    Err(e) => {
                        out.fail(format!("round {w}: {e}"));
                        break;
                    }
                }
            }
            let Some(server) = &running else { break };
            let traced = args.trace && matches!(w % 4, 1 | 2);
            let ctx = Ctx {
                seed: args.seed,
                hot: self.hot,
                pool: &pool,
                expected: &expected,
                engine: &server.engine,
                addr: &server.addr,
                next: AtomicU64::new(w as u64 * gen::FRESH_ROUND),
                end: (w as u64 + 1) * gen::FRESH_ROUND,
            };
            let mut window = ctx.window(w, each, traced);
            // The kept fresh responses are checked and dropped after each
            // window, so that they do not pile up in memory over the run. A
            // mismatch fails the request, which the client counted as done.
            for (log, _) in &mut window.logs {
                for (index, value) in std::mem::take(&mut log.kept) {
                    if Ok(to_line(&value)) != in_process(&gen::fresh_job(args.seed, index)) {
                        log.tally.failed += 1;
                        log.notes.push(format!(
                            "CHECK FAILED: response to fresh job {index} differs from the \
                             in-process report"
                        ));
                    }
                }
            }
            if traced {
                for (log, r) in window.logs {
                    rec.absorb(r.expect("traced windows record spans"));
                    logs.push(log);
                }
            } else {
                // Store and memo counters come from the untraced windows: a
                // traced window's own memo lookups would count as hits.
                executions += window.executions;
                hits += window.hits;
                lookups += window.lookups;
                base_logs.extend(window.logs.into_iter().map(|(l, _)| l));
            }
        }
        if args.trace {
            let n = base_logs
                .iter()
                .map(|l| l.latencies.len())
                .sum::<usize>()
                .max(1) as f64;
            let mut l = layers(&rec, &logs);
            l.insert(
                "trace.overhead_frac",
                mean_window_p50(&logs) / mean_window_p50(&base_logs) - 1.0,
            );
            l.insert("store.functional_executions", executions as f64 / n);
            l.insert(
                "cells.hit_rate",
                if lookups > 0 {
                    hits as f64 / lookups as f64
                } else {
                    0.0
                },
            );
            out.layers = l;
            let frac = out.layers["stages_sum_frac"];
            out.note(format!(
                "timed stages cover {:.1}% of the client round trips; the rest is transport",
                100.0 * frac
            ));
            self.finish(base_logs, &mut out, false);
            self.finish(logs, &mut out, true);
            out.spans = Some(rec);
        } else {
            self.finish(base_logs, &mut out, true);
        }
        // A seeded sample of the served workloads' recordings against the
        // interpreter.
        let names: Vec<String> = match pool
            .first()
            .cloned()
            .unwrap_or_else(|| gen::fresh_job(args.seed, 0))
        {
            JobSpec::Experiment(s) => s.workloads,
            _ => Vec::new(),
        };
        for name in names {
            let program = find_workload(&name).map(|w| w.program(WorkloadSize::Tiny));
            match program.map(|p| crate::check::trace_matches_interpreter(&p)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) | Err(e) => out.fail(format!("{name}: {e}")),
            }
        }
        if let Some(Err(e)) = running.map(Running::stop) {
            out.fail(e);
        }
        out
    }

    /// Folds client logs into the outcome and checks that every hot
    /// submission was a dedup hit. The latencies count only with
    /// `report_ops` (a traced run reports its traced half).
    fn finish(&self, logs: Vec<ClientLog>, out: &mut Outcome, report_ops: bool) {
        let per_s = throughput(&logs);
        let mut latencies = Vec::new();
        let (mut submits, mut deduped) = (0, 0);
        for log in logs {
            latencies.extend(log.latencies);
            out.tally.merge(log.tally);
            submits += log.submits;
            deduped += log.deduped;
            for note in log.notes {
                out.note(note);
            }
        }
        if self.hot && deduped != submits {
            out.fail(format!(
                "{} of {submits} hot submissions were not dedup hits",
                submits - deduped
            ));
        }
        if !report_ops {
            return;
        }
        if latencies.is_empty() {
            out.fail("no request completed".into());
            return;
        }
        out.ops(&latencies, per_s);
    }
}

/// Requests per second: the median over windows of each window's rate, so
/// that a stall of the shared host that hits a few windows does not move
/// it. A window's rate is its requests over its clients' mean time to their
/// last reply: the client that finishes a round first does not wait out the
/// other's last request, and however a round's large jobs fall to the
/// clients, the rate counts the same work.
fn throughput(logs: &[ClientLog]) -> f64 {
    // Per window: requests, summed client times, clients.
    let mut windows: std::collections::BTreeMap<usize, (f64, f64, f64)> = Default::default();
    for log in logs.iter().filter(|l| !l.latencies.is_empty()) {
        let w = windows.entry(log.window).or_default();
        *w = (w.0 + log.latencies.len() as f64, w.1 + log.end, w.2 + 1.0);
    }
    let rates: Vec<f64> = windows
        .into_values()
        .map(|(n, time, clients)| n * clients / time)
        .collect();
    if rates.is_empty() {
        f64::NAN
    } else {
        median(&rates)
    }
}

/// What every client thread of one window shares.
struct Ctx<'a> {
    seed: u64,
    hot: bool,
    pool: &'a [JobSpec],
    /// serve-hot: the in-process report bytes of each pool job.
    expected: &'a [String],
    engine: &'a Engine,
    addr: &'a str,
    /// serve-fresh: the next job index of the round, and the first index
    /// past it.
    next: AtomicU64,
    end: u64,
}

impl Ctx<'_> {
    /// Runs the clients, on serve-hot for `seconds`, on serve-fresh for the
    /// round's requests, and returns their logs (and, traced, their spans).
    fn window(&self, id: usize, seconds: f64, traced: bool) -> Window {
        let store_before = self.engine.store().stats();
        let cells_before = self.engine.cells().stats();
        let barrier = Barrier::new(CLIENTS);
        let epoch = Mutex::new(None::<Instant>);
        let logs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let barrier = &barrier;
                    let epoch = &epoch;
                    scope.spawn(move || {
                        let mut client = Client::connect(self.addr);
                        barrier.wait();
                        let start = *epoch
                            .lock()
                            .expect("epoch lock")
                            .get_or_insert_with(Instant::now);
                        let mut log = ClientLog {
                            window: id,
                            ..ClientLog::default()
                        };
                        let mut rec = traced.then(|| Recorder::new(start));
                        match &mut client {
                            Ok(client) => {
                                self.client_loop(c, client, start, seconds, &mut log, &mut rec)
                            }
                            Err(e) => {
                                log.tally.record(false);
                                log.notes.push(format!("client {c}: connect: {e}"));
                            }
                        }
                        (log, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let store_after = self.engine.store().stats();
        let cells_after = self.engine.cells().stats();
        Window {
            logs,
            executions: store_after.functional_executions - store_before.functional_executions,
            hits: cells_after.hits - cells_before.hits,
            lookups: (cells_after.hits + cells_after.misses)
                - (cells_before.hits + cells_before.misses),
        }
    }

    fn client_loop(
        &self,
        c: usize,
        client: &mut Client,
        start: Instant,
        seconds: f64,
        log: &mut ClientLog,
        rec: &mut Option<Recorder>,
    ) {
        let mut order = gen::HotOrder::new(self.seed, c);
        loop {
            let (key, job) = if self.hot {
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                let i = order.next_index();
                (i as u64, self.pool[i].clone())
            } else {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.end {
                    break;
                }
                (i, gen::fresh_job(self.seed, i))
            };
            let op = key << 8 | c as u64;
            let t = Instant::now();
            let request = rec.as_mut().map(|r| r.enter("request", op));
            let outcome = timed(rec, "client.submit", op, || client.submit(&job)).and_then(|s| {
                timed(rec, "client.result", op, || client.result(s.id)).map(|v| (s, v))
            });
            let rtt = t.elapsed().as_secs_f64();
            if let (Some(r), Some(id)) = (rec.as_mut(), request) {
                r.exit(id);
            }
            let (submitted, value) = match outcome {
                Ok(ok) => ok,
                Err(e) => {
                    log.tally.record(false);
                    if log.tally.failed <= MAX_NOTES {
                        log.notes.push(format!("client {c}: request failed: {e}"));
                    }
                    if matches!(e, ServeError::Io(_) | ServeError::Protocol(_)) {
                        break;
                    }
                    continue;
                }
            };
            log.latencies.push(rtt);
            log.end = start.elapsed().as_secs_f64();
            log.submits += 1;
            log.deduped += u64::from(submitted.deduped);
            // Every hot response equals the in-process report byte for byte;
            // a seeded sample of fresh ones is compared after the run.
            let ok = if self.hot {
                to_line(&value) == self.expected[key as usize]
            } else {
                if log.kept.len() < FRESH_KEPT && keep_fresh(self.seed, key) {
                    log.kept.push((key, value));
                }
                true
            };
            log.tally.record(ok);
            if !ok && log.tally.failed <= MAX_NOTES {
                log.notes
                    .push(format!("client {c}: response to job {key} differs"));
            }
            if let Some(r) = rec.as_mut() {
                if self.hot || log.submits % FRESH_TRACE_EVERY == 1 {
                    self.stages(r, op, &job, submitted.id, rtt, log);
                }
            }
        }
    }

    /// Re-times, in process, the server and client stages of one finished
    /// request; the round trip minus these is transport.
    fn stages(
        &self,
        rec: &mut Recorder,
        op: u64,
        job: &JobSpec,
        id: u64,
        rtt: f64,
        log: &mut ClientLog,
    ) {
        let root = rec.enter("stages", op);
        let submit_line = Request::Submit(Box::new(job.clone())).to_line();
        let mut sum = rec_secs(rec, "protocol.parse", op, || Request::parse(&submit_line));
        sum += rec_secs(rec, "engine.submit", op, || self.engine.submit(job.clone()));
        let result_line = Request::Result(id).to_line();
        sum += rec_secs(rec, "protocol.parse", op, || Request::parse(&result_line));
        let s = rec.enter("engine.result", op);
        let report = self.engine.wait_result(id);
        sum += rec.exit(s);
        let Ok(report) = report else {
            rec.exit(root);
            return;
        };
        let s = rec.enter("protocol.render", op);
        let line = to_line(&ok_response(vec![
            ("id".into(), Value::UInt(id)),
            ("result".into(), (*report).clone()),
        ]));
        sum += rec.exit(s);
        sum += rec_secs(rec, "json.decode", op, || {
            serde_json::from_str::<Value>(&line)
        });
        log.decoded_bytes += line.len() as u64;
        rec.exit(root);
        if !self.hot {
            // The server's own record of the job's run, and the layer calls
            // that run makes, composed here.
            let run = self
                .engine
                .profile(id)
                .ok()
                .and_then(|p| match p.get("total_ns") {
                    Some(Value::UInt(ns)) => Some(*ns as f64 * 1e-9),
                    _ => None,
                })
                .unwrap_or(0.0);
            sum += run;
            log.run_total += run;
            log.job_insts += compose_job(rec, op, job, self.engine.cells());
        }
        log.rtt_total += rtt;
        log.stages_total += sum;
        log.transport.push(rtt - sum);
    }
}

/// The mean over windows of each window's median latency. Every window
/// weighs the same however many requests it completed, so that the U T T U
/// order cancels a steady drift between untraced and traced windows.
fn mean_window_p50(logs: &[ClientLog]) -> f64 {
    let mut windows: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for log in logs {
        windows
            .entry(log.window)
            .or_default()
            .extend(&log.latencies);
    }
    let p50s: Vec<f64> = windows
        .values()
        .filter(|l| !l.is_empty())
        .map(|l| median(l))
        .collect();
    p50s.iter().sum::<f64>() / p50s.len() as f64
}

fn timed<R>(rec: &mut Option<Recorder>, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.time(name, op, f),
        None => f(),
    }
}

fn rec_secs<R>(rec: &mut Recorder, name: &'static str, op: u64, f: impl FnOnce() -> R) -> f64 {
    let id = rec.enter(name, op);
    std::hint::black_box(f());
    rec.exit(id)
}

/// Whether fresh job `key` is one of the seeded sample kept for the byte
/// check.
fn keep_fresh(seed: u64, key: u64) -> bool {
    crate::check::fnv64(&(seed ^ key).to_le_bytes()).is_multiple_of(8)
}

/// The report bytes an in-process run of `job` produces on a fresh store.
fn in_process(job: &JobSpec) -> Result<String, String> {
    job.execute(&WorkloadStore::new(), &CellMemo::new())
        .map(|v| to_line(&v))
}

/// Composes one fresh job from the layer calls its run makes: per workload
/// a live profile pass, then per design point a cell key, a lookup of that
/// cell in the server's memo (a hit by now, standing for the run's miss and
/// insert) and a model prediction; then, outside the composed span, the
/// bare execution inside each profile pass. Returns the instructions
/// profiled.
fn compose_job(rec: &mut Recorder, op: u64, job: &JobSpec, cells: &CellMemo) -> u64 {
    let JobSpec::Experiment(spec) = job else {
        return 0;
    };
    let mut space = DesignSpace::paper_table2();
    if let Some(Some(widths)) = spec.space.as_ref().map(|s| s.widths.clone()) {
        space = space
            .with_widths(widths)
            .expect("generated widths are distinct");
    }
    let points: Vec<_> = space.points().step_by(spec.stride).collect();
    let profiler = SweepProfiler::for_design_space(&space);
    let mut programs = Vec::new();
    let mut insts = 0;
    let root = rec.enter("job", op);
    for name in &spec.workloads {
        let Ok(workload) = find_workload(name) else {
            continue;
        };
        let program = workload.program(WorkloadSize::Tiny);
        let Ok(profile) = rec.time("profile", op, || profiler.profile(&program, spec.limit)) else {
            continue;
        };
        insts += profile.num_insts;
        for point in &points {
            let key = rec.time("cells.key", op, || {
                CellMemo::key(
                    name,
                    WorkloadSize::Tiny,
                    spec.limit,
                    &point.machine,
                    "model",
                    false,
                    128,
                    None,
                )
            });
            rec.time("cells.lookup", op, || {
                cells.get_or_compute(key, || {
                    Err(EvalError::new(name, "perfbench", "cell is not in the memo"))
                })
            })
            .ok();
            let inputs = profile.inputs_for(point.l2_index, point.predictor_index);
            rec.time("model", op, || {
                MechanisticModel::new(&point.machine).predict(&inputs)
            });
        }
        programs.push(program);
    }
    rec.exit(root);
    let calibrate = rec.enter("calibrate", op);
    for program in &programs {
        rec.time("isa.exec", op, || {
            BlockEngine::new(program)
                .run_hooks(spec.limit, &mut NoHooks)
                .ok()
        });
    }
    rec.exit(calibrate);
    insts
}

/// Per-layer figures of a traced serve window.
fn layers(rec: &Recorder, logs: &[ClientLog]) -> std::collections::BTreeMap<&'static str, f64> {
    let spans = rec.spans();
    let own = span::self_by_name(spans, 0);
    let med = |name| {
        let d = span::durations(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let total = |name| own.get(name).copied().unwrap_or(0.0);
    let count = |name| span::durations(spans, name).len() as f64;
    let sum = |f: fn(&ClientLog) -> f64| logs.iter().map(f).sum::<f64>();
    // Per-request layer times average over the requests whose stages were
    // re-timed.
    let n = count("stages").max(1.0);
    let submits = logs.iter().map(|l| l.submits).sum::<u64>();
    let deduped = logs.iter().map(|l| l.deduped).sum::<u64>();
    let transport: Vec<f64> = logs.iter().flat_map(|l| l.transport.clone()).collect();
    let exec = total("isa.exec");
    let profile = total("profile") - exec;
    let insts = logs.iter().map(|l| l.job_insts).sum::<u64>() as f64;
    let rate = |s: f64| if s > 0.0 { insts / s / 1e6 } else { 0.0 };
    let mut l = std::collections::BTreeMap::new();
    l.insert("isa.record_s", exec / n);
    l.insert("isa.record_minst_per_s", rate(exec));
    l.insert("trace.replay_s", 0.0);
    l.insert("trace.replay_minst_per_s", 0.0);
    l.insert("trace.bytes_per_kinst", 0.0);
    l.insert("profile.self_s", profile / n);
    l.insert("profile.minst_per_s", rate(profile));
    l.insert("model.s", total("model") / n);
    l.insert(
        "model.predict_ns",
        if count("model") > 0.0 {
            total("model") / count("model") * 1e9
        } else {
            0.0
        },
    );
    l.insert("pipeline.self_s", 0.0);
    l.insert("pipeline.sim_minst_per_s", 0.0);
    l.insert("pipeline.sampled_minst_per_s", 0.0);
    let run = sum(|l| l.run_total);
    l.insert(
        "runner.unattributed_s",
        if run > 0.0 {
            (run - total("profile") - total("model") - total("cells.key") - total("cells.lookup"))
                / n
        } else {
            0.0
        },
    );
    l.insert("cells.key_ns", med("cells.key") * 1e9);
    l.insert("cells.lookup_us", med("cells.lookup") * 1e6);
    l.insert("engine.submit_us", med("engine.submit") * 1e6);
    l.insert("engine.result_us", med("engine.result") * 1e6);
    l.insert(
        "engine.dedup_rate",
        if submits > 0 {
            deduped as f64 / submits as f64
        } else {
            0.0
        },
    );
    l.insert("protocol.parse_us", med("protocol.parse") * 1e6);
    l.insert("protocol.render_ms", med("protocol.render") * 1e3);
    l.insert("json.decode_ms", med("json.decode") * 1e3);
    let decode = total("json.decode");
    l.insert(
        "json.decode_mb_per_s",
        if decode > 0.0 {
            sum(|l| l.decoded_bytes as f64) / decode / 1e6
        } else {
            0.0
        },
    );
    l.insert("client.submit_rtt_ms", med("client.submit") * 1e3);
    l.insert("client.result_rtt_ms", med("client.result") * 1e3);
    l.insert(
        "client.transport_ms",
        if transport.is_empty() {
            0.0
        } else {
            median(&transport) * 1e3
        },
    );
    let rtt = sum(|l| l.rtt_total);
    l.insert(
        "stages_sum_frac",
        if rtt > 0.0 {
            sum(|l| l.stages_total) / rtt
        } else {
            0.0
        },
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_window_rate() {
        let log = |window, n, end| ClientLog {
            window,
            latencies: vec![0.1; n],
            end,
            ..ClientLog::default()
        };
        let logs = [
            // 8 requests over a mean client time of 1 s, however they split.
            log(0, 6, 1.0),
            log(0, 2, 1.0),
            // A stalled window reads 4/s and is out-voted.
            log(1, 4, 2.0),
            log(1, 4, 2.0),
            // 8 requests over a mean of 1 s: one client finished early.
            log(2, 5, 1.2),
            log(2, 3, 0.8),
            // A client that completed nothing does not count.
            log(2, 0, 0.0),
        ];
        assert_eq!(throughput(&logs), 8.0);
        assert!(throughput(&[]).is_nan());
    }

    #[test]
    fn refused_requests_count_as_failed_attempts() {
        let running = Running::start().expect("server starts");
        // A stopped engine refuses every submission.
        running.engine.shutdown();
        let ctx = Ctx {
            seed: 1,
            hot: false,
            pool: &[],
            expected: &[],
            engine: &running.engine,
            addr: &running.addr,
            next: AtomicU64::new(0),
            end: 4,
        };
        let mut tally = Tally::default();
        for (log, _) in ctx.window(0, f64::INFINITY, false).logs {
            assert!(log.latencies.is_empty());
            tally.merge(log.tally);
        }
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, tally.attempted);
        running.stop().expect("server stops");
    }
}
