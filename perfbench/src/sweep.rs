//! The `explore` and `validate` workloads: cold `Experiment::run` sweeps
//! over the MiBench kernels plus seeded synthetic recipes.

use std::collections::BTreeMap;
use std::time::Instant;

use mim::core::{DesignPoint, DesignSpace, MechanisticModel};
use mim::isa::{BlockEngine, BlockHooks};
use mim::pipeline::PipelineSim;
use mim::profile::SweepProfiler;
use mim::runner::{EvalKind, Experiment, ExperimentReport, WorkloadSpec, WorkloadStore};
use mim::trace::{Sampling, Trace, TraceSource};
use mim::workloads::WorkloadSize;

use crate::check;
use crate::gen;
use crate::span::{self, Recorder};
use crate::stats::{median, Reconciliation};
use crate::{Args, Outcome};

/// Share of `Experiment::run` the composed layer calls may miss or
/// overshoot before the traced run reports that they do not add up.
const SWEEP_TOLERANCE: f64 = 0.10;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Sweeps measured per run at least, however long they take.
const MIN_REPS: usize = 3;

pub struct Sweep {
    name: &'static str,
    size: WorkloadSize,
    /// Dynamic instructions per synthetic recipe.
    recipe_len: u64,
    kinds: Vec<EvalKind>,
    /// Every `stride`-th point of Table 2.
    stride: usize,
}

impl Sweep {
    /// The paper's main use case: the model alone over the whole 192-point
    /// space, at the largest input size.
    pub fn explore() -> Sweep {
        Sweep {
            name: "explore",
            size: WorkloadSize::Large,
            recipe_len: 1_500_000,
            kinds: vec![EvalKind::Model],
            stride: 1,
        }
    }

    /// Model against detailed and sampled simulation. Stride 41 visits 5
    /// points that differ in every axis, including 5 of the 8 L2s.
    pub fn validate() -> Sweep {
        Sweep {
            name: "validate",
            size: WorkloadSize::Small,
            recipe_len: 250_000,
            kinds: vec![EvalKind::Model, EvalKind::Sim, EvalKind::Sampled],
            stride: 41,
        }
    }

    fn simulates(&self) -> bool {
        self.kinds.contains(&EvalKind::Sim)
    }

    fn points(&self, space: &DesignSpace) -> Vec<DesignPoint> {
        space.points().step_by(self.stride).collect()
    }

    fn experiment(&self, specs: &[WorkloadSpec], threads: usize) -> Experiment {
        Experiment::new()
            .title(format!("perfbench {}", self.name))
            .workloads(specs.iter().cloned())
            .size(self.size)
            .design_space(DesignSpace::paper_table2())
            .stride(self.stride)
            .evaluators(self.kinds.clone())
            .threads(threads)
    }

    /// Generates the seeded workloads `SETUP_REPS` times; returns the last
    /// set and the median set-up seconds.
    fn setup(&self, seed: u64) -> (Vec<WorkloadSpec>, f64) {
        let mut times = Vec::new();
        let mut specs = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            specs = gen::sweep_specs(seed, self.size, self.recipe_len);
            times.push(t.elapsed().as_secs_f64());
        }
        (specs, median(&times))
    }

    pub fn run(&self, args: &Args) -> Outcome {
        let (specs, setup_s) = self.setup(args.seed);
        let mut out = Outcome::new(setup_s);
        let digests = check::Digests::load();
        if args.trace {
            self.traced(args, &specs, &mut out, &digests);
        } else {
            self.untraced(args, &specs, &mut out, &digests);
        }
        for i in check::oracle_sample(args.seed, specs.len()) {
            let program = specs[i].program_at(self.size);
            if let Err(e) = check::trace_matches_interpreter(&program) {
                out.fail(format!("{}: {e}", specs[i].name()));
            }
        }
        out
    }

    /// Checks one report against the run's first digest and the recorded
    /// digest for this seed.
    fn check_report(
        &self,
        args: &Args,
        report: &ExperimentReport,
        first: &mut Option<u64>,
        digests: &check::Digests,
        out: &mut Outcome,
    ) -> bool {
        let digest = check::fnv64(report.to_json().as_bytes());
        let mut ok = true;
        match *first {
            None => {
                *first = Some(digest);
                out.note(format!("report digest {digest:016x}"));
                if let Err(e) = digests.verify(self.name, args.seed, digest) {
                    out.note(e);
                    ok = false;
                }
            }
            Some(d) if d != digest => {
                out.note(format!(
                    "report bytes differ between repetitions ({d:016x} vs {digest:016x})"
                ));
                ok = false;
            }
            Some(_) => {}
        }
        ok
    }

    fn untraced(
        &self,
        args: &Args,
        specs: &[WorkloadSpec],
        out: &mut Outcome,
        digests: &check::Digests,
    ) {
        let started = Instant::now();
        let mut times = Vec::new();
        let mut first = None;
        while times.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
            let t = Instant::now();
            let outcome = self.experiment(specs, 0).run();
            let elapsed = t.elapsed().as_secs_f64();
            match outcome {
                Ok(report) => {
                    times.push(elapsed);
                    if first.is_none() {
                        self.accuracy(&report, out);
                    }
                    let ok = self.check_report(args, &report, &mut first, digests, out);
                    out.tally.record(ok);
                }
                Err(e) => {
                    out.tally.record(false);
                    out.note(format!("sweep failed: {e}"));
                    if out.tally.failed >= 3 {
                        break;
                    }
                }
            }
        }
        if times.is_empty() {
            return;
        }
        out.ops(&times, times.len() as f64 / times.iter().sum::<f64>());
    }

    /// The deterministic accuracy figures of the validation sweep.
    fn accuracy(&self, report: &ExperimentReport, out: &mut Outcome) {
        if !self.simulates() {
            return;
        }
        let mean_abs = |subject: &str| {
            let rows = report.compare(subject, "sim");
            rows.iter().map(|r| r.error_percent.abs()).sum::<f64>() / rows.len().max(1) as f64
        };
        let sampled = report
            .evaluators
            .iter()
            .find(|e| e.starts_with("sampled"))
            .cloned()
            .unwrap_or_default();
        out.note(format!(
            "model_err_pct {:.4} sampled_err_pct {:.4} (mean |CPI - sim CPI| / sim CPI over {} cells)",
            mean_abs("model"),
            mean_abs(&sampled),
            report.compare("model", "sim").len()
        ));
    }

    fn traced(
        &self,
        args: &Args,
        specs: &[WorkloadSpec],
        out: &mut Outcome,
        digests: &check::Digests,
    ) {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch);
        let mut first = None;
        let mut reps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let mut e2e = Vec::new();
        let mut rep = 0u64;
        while reps.len() < 2 || epoch.elapsed().as_secs_f64() < args.seconds {
            // The untraced reference: one serial `Experiment::run`.
            let store = WorkloadStore::new();
            let id = rec.enter("experiment.run", rep);
            let report = self.experiment(specs, 1).with_cache(store.clone()).run();
            let t_exp = rec.exit(id);
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    out.tally.record(false);
                    out.note(format!("sweep failed: {e}"));
                    break;
                }
            };
            let ok = self.check_report(args, &report, &mut first, digests, out);
            match self.compose(specs, &report, &mut rec, rep) {
                Ok(mut layers) => {
                    layers.insert(
                        "store.functional_executions",
                        store.stats().functional_executions as f64,
                    );
                    let composed = layers.remove("composed").unwrap_or(0.0);
                    let stages = [
                        layers["isa.record_s"],
                        layers["trace.replay_s"],
                        layers["profile.self_s"],
                        layers["pipeline.self_s"],
                        layers["model.s"],
                    ];
                    let r = Reconciliation::new(t_exp, &stages);
                    layers.insert("runner.unattributed_s", r.unattributed());
                    layers.insert("stages_sum_frac", r.stages_frac());
                    layers.insert("trace.overhead_frac", composed / t_exp - 1.0);
                    reps.push(layers);
                    e2e.push(t_exp);
                }
                Err(e) => {
                    // A failed composition may leave spans open; stop here.
                    out.note(e);
                    out.tally.record(false);
                    break;
                }
            }
            out.tally.record(ok);
            rep += 1;
        }
        if e2e.is_empty() {
            return;
        }
        out.ops(&e2e, e2e.len() as f64 / e2e.iter().sum::<f64>());
        let keys: Vec<&'static str> = reps[0].keys().copied().collect();
        for key in keys {
            let values: Vec<f64> = reps.iter().map(|r| r[key]).collect();
            out.layers.insert(key, median(&values));
        }
        let frac = out.layers["stages_sum_frac"];
        let within = Reconciliation::new(1.0, &[frac]).within(SWEEP_TOLERANCE);
        out.note(format!(
            "layers account for {:.1}% of serial Experiment::run (tolerance {:.0}%): {}",
            100.0 * frac,
            100.0 * SWEEP_TOLERANCE,
            if within { "within" } else { "OUTSIDE" }
        ));
        out.spans = Some(rec);
    }

    /// Re-runs the sweep serially from the layer calls `Experiment::run`
    /// makes, one span per call, and checks every composed CPI against the
    /// report's row. Returns the layer times of this repetition.
    fn compose(
        &self,
        specs: &[WorkloadSpec],
        report: &ExperimentReport,
        rec: &mut Recorder,
        rep: u64,
    ) -> Result<BTreeMap<&'static str, f64>, String> {
        let space = DesignSpace::paper_table2();
        let points = self.points(&space);
        let profiler = SweepProfiler::for_design_space(&space);
        let plan = Sampling::default_plan();
        let first_span = rec.spans().len();
        let mut insts = 0u64;
        let mut trace_bytes = 0usize;
        let mut sim_insts = 0u64;
        let mut sampled_insts = 0u64;
        // Calibration totals: one replay drain per trace (and what it costs
        // summed over the trace's consumers), or the bare block-engine
        // execution inside a live profile pass.
        let mut drain_s = 0.0;
        let mut drain_consumers_s = 0.0;
        let mut drain_sim_s = 0.0;
        let mut exec_s = 0.0;
        let mut mismatches = Vec::new();
        let mut rows = report.rows.iter();
        for spec in specs {
            let name = spec.name();
            let program = &*spec.program_at(self.size);
            // One composed span per workload; the calibration between them
            // stays outside.
            let composed = rec.enter("composed", rep);
            let trace = if self.simulates() {
                let t = rec.time("isa.record", rep, || Trace::record(program, None));
                Some(t.map_err(|e| format!("{name}: record: {e}"))?)
            } else {
                None
            };
            let profile = match &trace {
                Some(trace) => rec.time("profile", rep, || {
                    trace
                        .replay(program)
                        .and_then(|mut replay| profiler.profile_source(&mut replay))
                        .map_err(|e| e.to_string())
                }),
                None => rec.time("profile", rep, || {
                    profiler.profile(program, None).map_err(|e| e.to_string())
                }),
            }
            .map_err(|e| format!("{name}: profile: {e}"))?;
            insts += profile.num_insts;
            for (pi, point) in points.iter().enumerate() {
                let inputs = profile.inputs_for(point.l2_index, point.predictor_index);
                let stack = rec.time("model", rep, || {
                    MechanisticModel::new(&point.machine).predict(&inputs)
                });
                let mut cpis = vec![stack.cpi()];
                if let Some(trace) = &trace {
                    let sim = rec.time("pipeline.sim", rep, || {
                        let mut replay = trace.replay(program).map_err(|e| e.to_string())?;
                        PipelineSim::new(&point.machine)
                            .simulate_source(&mut replay)
                            .map_err(|e| e.to_string())
                    })?;
                    sim_insts += sim.instructions;
                    cpis.push(sim.cpi());
                    let sampled = rec.time("pipeline.sampled", rep, || {
                        let mut replay = trace
                            .replay(program)
                            .map_err(|e| e.to_string())?
                            .with_sampling(plan);
                        PipelineSim::new(&point.machine)
                            .simulate_sampled(&mut replay)
                            .map_err(|e| e.to_string())
                    })?;
                    sampled_insts += sim.instructions;
                    cpis.push(sampled.sampling.as_ref().map_or(f64::NAN, |s| s.cpi));
                }
                for cpi in cpis {
                    match rows.next() {
                        Some(row)
                            if row.workload == name
                                && row.machine_index == pi
                                && row.cpi.to_bits() == cpi.to_bits() => {}
                        Some(row) => mismatches.push(format!(
                            "{name} point {pi} {}: composed CPI {cpi} vs report {}",
                            row.evaluator, row.cpi
                        )),
                        None => mismatches.push(format!("{name} point {pi}: report ends early")),
                    }
                }
            }
            rec.exit(composed);
            // Calibration: the part of the calls above that belongs to the
            // layer beneath them, timed on its own.
            let calibrate = rec.enter("calibrate", rep);
            match &trace {
                Some(trace) => {
                    let id = rec.enter("trace.replay", rep);
                    let drained = trace.replay(program).and_then(|mut r| r.drive(&mut |_| {}));
                    let d = rec.exit(id);
                    drained.map_err(|e| format!("{name}: replay: {e}"))?;
                    drain_s += d;
                    drain_consumers_s += d * (1 + 2 * points.len()) as f64;
                    drain_sim_s += d * (2 * points.len()) as f64;
                    trace_bytes += trace.encoded_bytes();
                }
                None => {
                    let id = rec.enter("isa.exec", rep);
                    let executed = BlockEngine::new(program).run_hooks(None, &mut NoHooks);
                    exec_s += rec.exit(id);
                    executed.map_err(|e| format!("{name}: execute: {e}"))?;
                }
            }
            rec.exit(calibrate);
        }
        if rows.next().is_some() {
            mismatches.push("report has more rows than the composed sweep".into());
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "{} composed CPIs differ from the report, first: {}",
                mismatches.len(),
                mismatches[0]
            ));
        }
        let own = span::self_by_name(rec.spans(), first_span);
        let spans = &rec.spans()[first_span..];
        let total = |name| own.get(name).copied().unwrap_or(0.0);
        let count = |name| span::durations(spans, name).len() as f64;
        let mut l = BTreeMap::new();
        let record_s = if self.simulates() {
            total("isa.record")
        } else {
            exec_s
        };
        l.insert("isa.record_s", record_s);
        l.insert("isa.record_minst_per_s", insts as f64 / record_s / 1e6);
        l.insert("trace.replay_s", drain_consumers_s);
        l.insert(
            "trace.replay_minst_per_s",
            if drain_s > 0.0 {
                insts as f64 / drain_s / 1e6
            } else {
                0.0
            },
        );
        l.insert(
            "trace.bytes_per_kinst",
            trace_bytes as f64 / (insts as f64 / 1e3),
        );
        let profile_s = total("profile") - if self.simulates() { drain_s } else { exec_s };
        l.insert("profile.self_s", profile_s);
        l.insert("profile.minst_per_s", insts as f64 / profile_s / 1e6);
        let model_s = total("model");
        l.insert("model.s", model_s);
        l.insert("model.predict_ns", model_s / count("model").max(1.0) * 1e9);
        let sim_s = total("pipeline.sim");
        let sampled_s = total("pipeline.sampled");
        l.insert("pipeline.self_s", sim_s + sampled_s - drain_sim_s);
        let rate = |n: u64, s: f64| if s > 0.0 { n as f64 / s / 1e6 } else { 0.0 };
        l.insert("pipeline.sim_minst_per_s", rate(sim_insts, sim_s));
        l.insert(
            "pipeline.sampled_minst_per_s",
            rate(sampled_insts, sampled_s),
        );
        l.insert(
            "composed",
            span::durations(spans, "composed").iter().sum::<f64>(),
        );
        Ok(l)
    }
}

/// Block-engine hooks that observe nothing: a bare functional execution.
pub struct NoHooks;

impl BlockHooks for NoHooks {}
