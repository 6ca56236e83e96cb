//! The repository benchmark: one seeded workload per invocation, measured
//! end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--workload all` runs every
//! workload, each in its own process. See `perfbench/README.md` for what
//! each workload and metric means.

mod check;
mod gen;
mod serve;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serve::ServeKind;
use span::Recorder;
use stats::{median, quantile, supports, tail_percentile, Tally};
use sweep::Sweep;

pub const WORKLOADS: [&str; 4] = ["explore", "validate", "serve-hot", "serve-fresh"];

/// End-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 30] = [
    ("isa.record_s", "s"),
    ("isa.record_minst_per_s", "Minst/s"),
    ("trace.replay_s", "s"),
    ("trace.replay_minst_per_s", "Minst/s"),
    ("trace.bytes_per_kinst", "B/kinst"),
    ("profile.self_s", "s"),
    ("profile.minst_per_s", "Minst/s"),
    ("model.s", "s"),
    ("model.predict_ns", "ns"),
    ("pipeline.self_s", "s"),
    ("pipeline.sim_minst_per_s", "Minst/s"),
    ("pipeline.sampled_minst_per_s", "Minst/s"),
    ("runner.unattributed_s", "s"),
    ("cells.key_ns", "ns"),
    ("cells.lookup_us", "us"),
    ("cells.hit_rate", "ratio"),
    ("store.functional_executions", "count/op"),
    ("engine.submit_us", "us"),
    ("engine.result_us", "us"),
    ("engine.dedup_rate", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.render_ms", "ms"),
    ("json.decode_ms", "ms"),
    ("json.decode_mb_per_s", "MB/s"),
    ("client.submit_rtt_ms", "ms"),
    ("client.result_rtt_ms", "ms"),
    ("client.transport_ms", "ms"),
    ("stages_sum_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("ops", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if seconds.is_nan() || seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (expected one of {WORKLOADS:?} or `all`)"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub tally: Tally,
    /// False once any output check failed.
    pub correct: bool,
    pub setup_s: f64,
    /// Operation latencies in seconds, and operations completed per second.
    pub e2e: Option<(Vec<f64>, f64)>,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    pub spans: Option<Recorder>,
}

impl Outcome {
    pub fn new(setup_s: f64) -> Outcome {
        Outcome {
            tally: Tally::default(),
            correct: true,
            setup_s,
            e2e: None,
            layers: BTreeMap::new(),
            notes: Vec::new(),
            spans: None,
        }
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, note: String) {
        self.correct = false;
        self.tally.fail_check();
        self.notes.push(format!("CHECK FAILED: {note}"));
    }

    /// Records the run's operation latencies (seconds) and its throughput
    /// (operations per second).
    pub fn ops(&mut self, latencies: &[f64], per_s: f64) {
        self.e2e = Some((latencies.to_vec(), per_s));
    }

    fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            return PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = match name {
                        "ops" => self.e2e.as_ref().map_or(0, |(l, _)| l.len()) as f64,
                        _ => self.layers.get(name).copied().unwrap_or(0.0),
                    };
                    (name, value, unit)
                })
                .collect();
        }
        let (latencies, per_s) = self.e2e.clone().unwrap_or((vec![f64::NAN], f64::NAN));
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => self.setup_s,
                    "p50_ms" => median(&latencies) * 1e3,
                    "p90_ms" => quantile(&latencies, 0.9) * 1e3,
                    "ops_per_s" => per_s,
                    _ => peak_rss_mb(),
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// The process's resident-memory high-water mark.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero into zero.
        format!("{}", v + 0.0)
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, tally: Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_number(*value)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_one(args: &Args) -> ExitCode {
    let outcome = match args.workload.as_str() {
        "explore" => Sweep::explore().run(args),
        "validate" => Sweep::validate().run(args),
        "serve-hot" => ServeKind::hot().run(args),
        _ => ServeKind::fresh().run(args),
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some((latencies, per_s)) = &outcome.e2e {
        let n = latencies.len();
        let tail = tail_percentile(n).map_or("none".to_string(), |q| format!("p{:.2}", 100.0 * q));
        println!(
            "{n} operations at {per_s:.3}/s; highest percentile with >= 10 beyond: {tail}{}",
            if supports(n, 0.9) {
                ""
            } else {
                " (too few for p90: it is an order statistic here)"
            }
        );
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.3}", quantile(latencies, d as f64 / 10.0) * 1e3))
            .collect();
        println!("latency deciles (ms): {}", deciles.join(" "));
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(rec) = &outcome.spans {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match rec.write_jsonl(&path) {
            Ok(()) => println!("{} spans written to {}", rec.spans().len(), path.display()),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    let metrics: Vec<(String, f64, &str)> = outcome
        .metrics(args.trace)
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    let correct = outcome.correct && outcome.tally.failed == 0 && outcome.tally.attempted > 0;
    println!("{}", result_line(correct, outcome.tally, &metrics));
    ExitCode::SUCCESS
}

/// Runs every workload in its own process, so that set-up time and peak
/// memory belong to one workload each, and prints their results together.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    let mut correct = true;
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let stdout = match output {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
            Ok(o) => {
                eprintln!("{workload} exited with {}", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(serde::Value::Object(fields)) = serde_json::from_str::<serde::Value>(last) else {
            eprintln!("{workload} printed no result");
            return ExitCode::FAILURE;
        };
        for (key, value) in fields {
            match (key.as_str(), value) {
                ("correct", serde::Value::Bool(b)) => correct &= b,
                ("attempted", n) => tally.attempted += as_f64(&n).unwrap_or(0.0) as u64,
                ("failed", n) => tally.failed += as_f64(&n).unwrap_or(0.0) as u64,
                ("metrics", serde::Value::Object(ms)) => {
                    for (name, m) in ms {
                        let value = m.get("value").and_then(as_f64).unwrap_or(f64::NAN);
                        let unit = match m.get("unit") {
                            Some(serde::Value::Str(u)) => unit_of(u),
                            _ => "",
                        };
                        metrics.push((format!("{workload}/{name}"), value, unit));
                    }
                }
                _ => {}
            }
        }
    }
    println!("{}", result_line(correct, tally, &metrics));
    ExitCode::SUCCESS
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Float(f) => Some(*f),
        serde::Value::UInt(u) => Some(*u as f64),
        serde::Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// The static unit string matching a printed one.
fn unit_of(unit: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(_, u)| u)
        .find(|u| *u == unit)
        .unwrap_or("")
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload serve-hot --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-hot", 9, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload explore --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload explore --seconds 0").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome::new(0.25);
        out.tally.record(true);
        out.tally.record(false);
        out.ops(&[0.010, 0.020, 0.030], 6.0);
        let metrics: Vec<(String, f64, &str)> = out
            .metrics(false)
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect();
        let line = result_line(false, out.tally, &metrics);
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(as_f64), Some(2.0));
        assert_eq!(v.get("failed").and_then(as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        for (name, _) in END_TO_END {
            assert!(m.get(name).is_some(), "{name} missing");
        }
        let ops = m
            .get("ops_per_s")
            .and_then(|o| o.get("value"))
            .and_then(as_f64);
        assert_eq!(ops, Some(6.0));
    }
}
