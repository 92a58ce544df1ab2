//! The repository benchmark: three workloads against an in-process
//! `rage-server` over keep-alive HTTP, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload explain|lookup|browse --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` the workload runs untraced, then
//! again with outside-in spans, and the object carries the per-layer
//! metrics. The process exits 1 when any output was wrong.

mod browse;
mod client;
mod common;
mod explain;
mod layers;
mod lookup;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use rage_core::explanation::ReportConfig;
use rage_json::JsonValue;
use rage_llm::kernels::KernelBackend;
use rage_report::scenarios;

use common::{Book, Metrics};
use stats::median;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub book: Book,
    pub end_to_end: Metrics,
    pub layers: Option<Metrics>,
    pub notes: Vec<String>,
    /// The calibration loop, run between set-up and the first timed
    /// operation.
    pub calibration_before_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < raw.len() {
        let value = raw
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", raw[i]))?;
        match raw[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(args)
}

/// The fixed report-only calibration loop: the median of five `us_open`
/// reports through the library path, no server involved, in ms.
pub fn calibrate() -> f64 {
    let scenario = scenarios::scenario_by_name("us_open").expect("us_open is registered");
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let report = scenarios::report_for(&scenario, &ReportConfig::default())
                .expect("calibration report");
            std::hint::black_box(report);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The runner the numbers came from, so a runner change can be told apart
/// from a code change: CPUs, CPU model, build profile, default kernel
/// backend and the calibration loop run before and after the workload.
fn environment(calibration_before_ms: f64, calibration_after_ms: f64) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    JsonValue::Object(vec![
        ("nproc".into(), JsonValue::Number(nproc as f64)),
        ("cpu".into(), JsonValue::String(cpu)),
        ("profile".into(), JsonValue::String(profile.into())),
        (
            "kernel_backend".into(),
            JsonValue::String(format!("{:?}", KernelBackend::default())),
        ),
        (
            "calibration_ms_before".into(),
            JsonValue::Number(calibration_before_ms),
        ),
        (
            "calibration_ms_after".into(),
            JsonValue::Number(calibration_after_ms),
        ),
    ])
}

fn metrics_json(metrics: &Metrics) -> JsonValue {
    JsonValue::Object(
        metrics
            .0
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Number(m.value)),
                        ("unit".into(), JsonValue::String(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("servebench: {err}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "explain" => explain::run,
        "lookup" => lookup::run,
        "browse" => browse::run,
        other => {
            eprintln!("servebench: unknown workload {other:?} (explain, lookup or browse)");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, process_start) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("servebench: {}: {err}", args.workload);
            return ExitCode::from(2);
        }
    };
    let calibration_after_ms = calibrate();
    let env = environment(outcome.calibration_before_ms, calibration_after_ms);

    let book = &outcome.book;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("env {}", env.render());
    for note in &outcome.notes {
        println!("note {note}");
    }
    for err in &book.errors {
        println!("error {err}");
    }
    for m in &outcome.end_to_end.0 {
        println!("end_to_end {} {} {}", m.name, m.value, m.unit);
    }
    let error_rate = stats::ratio(book.failed as f64, book.attempted as f64);
    println!("end_to_end error_rate {error_rate} ratio");
    let metrics = match outcome.layers {
        Some(mut layers) => {
            layers.put(
                "env.calibration_ms_before",
                outcome.calibration_before_ms,
                "ms",
            );
            layers.put("env.calibration_ms_after", calibration_after_ms, "ms");
            for m in &layers.0 {
                println!("per_layer {} {} {}", m.name, m.value, m.unit);
            }
            layers
        }
        None => outcome.end_to_end,
    };
    let correct = book.failed == 0;
    let result = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        (
            "attempted".into(),
            JsonValue::Number(book.attempted.max(1) as f64),
        ),
        ("failed".into(), JsonValue::Number(book.failed as f64)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
