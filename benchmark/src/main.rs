//! `dnnd-bench`: one wall-clock benchmark for construct -> query -> serve,
//! with a per-layer ledger. Drives the program crates from outside through
//! their public functions, one workload per process. See `README.md`.

mod harness;
mod layers;
mod spans;
mod spec;
mod stages;
mod stats;

use harness::Ctx;
use obs::JsonValue;
use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: dnnd-bench --workload <name|all> [--seed S] [--seconds T] \
[--trace 0|1] [--trace-out FILE] [--smoke] [--repeat-check]";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
    repeat_check: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        trace_out: None,
        smoke: false,
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a finite number >= 0 (got {s})"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1 (got {other:?})")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or \"all\" (got {:?})\n{USAGE}",
            args.workload
        ));
    }
    Ok(args)
}

/// Directory of this executable: inside the build directory, so everything
/// written below it stays in the checkout and out of version control.
fn exe_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Result of one workload run, as printed on the last line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in registry order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Per-layer timings that are span self times of the set-up.
const SPAN_METRICS: [(&str, &str, f64); 5] = [
    ("dataset.synth.gen_s", "setup.gen", 1.0),
    ("dataset.truth.sample_s", "setup.truth", 1.0),
    ("nnd.build.s", "nnd.build", 1.0),
    ("nnd.optimize.ms", "nnd.optimize", 1e3),
    ("vdb.create_s", "vdb.create", 1.0),
];

fn run_workload(args: &Args) -> RunResult {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        spec::SMOKE_SECONDS
    } else {
        spec::DEFAULT_SECONDS
    });
    let scratch = Scratch(exe_dir().join(format!("dnnd-bench-scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).expect("create scratch directory");
    let mut ctx = Ctx::new(
        args.seed,
        seconds,
        args.trace,
        args.smoke,
        scratch.0.clone(),
    );

    let root = ctx.rec.begin(&args.workload, -1);
    match args.workload.as_str() {
        "deep-f32-opt" => stages::run::<Vec<f32>>(&mut ctx, &stages::DEEP_F32_OPT),
        "bigann-u8-unopt" => stages::run::<Vec<u8>>(&mut ctx, &stages::BIGANN_U8_UNOPT),
        other => unreachable!("workload {other:?} passed validation"),
    }
    ctx.rec.end(root, ctx.ledger.attempted);

    let ledger = &mut ctx.ledger;

    if args.trace {
        let spans = ctx.rec.spans();
        for (metric, span, scale) in SPAN_METRICS {
            let (self_s, count) = spans::total_self(spans, span);
            if count > 0 {
                ledger.set(metric, self_s * scale);
            }
        }
        ledger.set(
            "trace.coverage_frac",
            spans::coverage_frac(spans, ctx.rec.off_ns()),
        );
        let path = args.trace_out.clone().unwrap_or_else(|| {
            exe_dir()
                .join("dnnd-bench-traces")
                .join(format!("{}.trace.json", args.workload))
        });
        match write_trace(&path, spans, &args.workload) {
            Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
            Err(e) => ledger.fail(format!("write trace {}: {e}", path.display())),
        }
    }

    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            // 0: this workload does not load the layer, or its traced run
            // does not carry the measurement.
            metrics.push((name, ledger.metrics.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for m in END_TO_END {
            match ledger.metrics.get(m.name).copied() {
                Some(v) => metrics.push((m.name, v, m.unit)),
                None => ledger.fail(format!("end-to-end metric {} was not measured", m.name)),
            }
        }
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            ledger.fail(format!("metric {name} is not a finite number: {value}"));
        }
    }

    let extra = |name: &str| ledger.metrics.get(name).copied().unwrap_or(0.0);
    println!(
        "workload {} seed {} ({} rounds, {} set-ups, peak RSS {:.1} MB, nproc {})",
        args.workload,
        args.seed,
        extra("run.rounds"),
        extra("run.setups"),
        extra("run.peak_rss_mb"),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
    println!(
        "  attempted {} failed {} (failed_frac {:.6})",
        ledger.attempted,
        ledger.failed,
        ledger.failed as f64 / ledger.attempted.max(1) as f64
    );
    for e in &ledger.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    RunResult {
        correct: ledger.errors.is_empty() && ledger.failed == 0 && ledger.attempted >= 1,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

fn write_trace(path: &Path, spans: &[spans::Span], workload: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans::chrome_trace_json(spans, workload))
}

/// Run one workload in a child process (peak memory is per process) and
/// return its parsed result line. The child's report goes to our stdout.
fn run_child(args: &Args, workload: &str) -> Result<JsonValue, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.arg("--workload").arg(workload);
    cmd.arg("--seed").arg(args.seed.to_string());
    cmd.arg("--trace").arg(if args.trace { "1" } else { "0" });
    if let Some(s) = args.seconds {
        cmd.arg("--seconds").arg(s.to_string());
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let last = text.lines().last().ok_or("no output")?;
    JsonValue::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

fn metric_value(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// A/A evidence: the same workload twice, back to back; per end-to-end
/// metric both values, how much worse the second is as a share of the
/// first, and whether that is within the metric's bound.
fn repeat_check(args: &Args, workload: &str) -> Result<bool, String> {
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let a = run_child(&untraced, workload)?;
    let b = run_child(&untraced, workload)?;
    let mut all_pass = true;
    println!("repeat-check {workload} (seed {})", args.seed);
    for m in END_TO_END {
        let (Some(x), Some(y)) = (metric_value(&a, m.name), metric_value(&b, m.name)) else {
            return Err(format!("{workload}: {} missing from a result line", m.name));
        };
        let worse = match m.better {
            Better::Lower => (y - x) / x,
            Better::Higher => (x - y) / x,
        };
        let pass = worse.abs() <= m.bound;
        all_pass &= pass;
        println!(
            "  {:<26} {:>14.6} {:>14.6} {:>+9.4} of bound {:.2} {}",
            m.name,
            x,
            y,
            worse,
            m.bound,
            if pass { "PASS" } else { "UNRESOLVED" }
        );
    }
    Ok(all_pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };

    if args.repeat_check {
        let mut ok = true;
        for w in &selected {
            match repeat_check(&args, w) {
                Ok(pass) => ok &= pass,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("repeat-check: {}", if ok { "PASS" } else { "UNRESOLVED" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if args.workload == "all" {
        for w in &selected {
            match run_child(&args, w) {
                Ok(r) if r.get("correct").and_then(JsonValue::as_bool) == Some(true) => {}
                Ok(_) => return ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let result = run_workload(&args);
    println!("{}", result.to_json_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload deep-f32-opt --seed 11 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("deep-f32-opt", 11, Some(10.0), true)
        );
        let a = parse_args(&argv("--workload all --smoke --repeat-check")).unwrap();
        assert!(a.smoke && a.repeat_check && !a.trace && a.seed == spec::DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload all --trace yes")).is_err());
        assert!(parse_args(&argv("--workload all --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload all --seconds")).is_err());
        assert!(parse_args(&argv("--workload all --frobnicate")).is_err());
    }

    #[test]
    fn result_line_is_the_contracted_json() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("query_wall_s", 1.25, "s"),
                ("query_recall_at_10", 0.987654321, "fraction"),
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        let doc = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(metric_value(&doc, "query_recall_at_10"), Some(0.987654321));
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("query_wall_s"))
            .and_then(|m| m.get("unit"));
        assert_eq!(unit.and_then(JsonValue::as_str), Some("s"));
    }
}
