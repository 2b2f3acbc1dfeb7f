//! End-to-end benchmark for MUPOD-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its model and inputs from `--seed`, measures one
//! workload for about `--seconds`, checks the program's outputs, prints
//! every metric as a `name value unit` line, and ends with one JSON
//! result line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! makes a separate traced run that reports the per-layer metrics and
//! writes its spans to `.bench_out/`. `--workload all` runs every
//! workload, both ways, each in a child process of its own so that
//! peak memory is measured per workload.

mod pipeline;
mod report;
mod serving;
mod setup;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use mupod_core::Objective;
use mupod_models::{ModelKind, ModelScale};

use pipeline::Pipeline;
use report::{Report, END_TO_END, PER_LAYER};
use serving::Serving;
use trace::Span;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["pipeline-deep", "pipeline-wide", "route"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, or `all`.
    pub workload: String,
    /// Seed for the model weights, datasets and request images.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: mupod-perfbench --workload <pipeline-deep|pipeline-wide|route|all> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Steal and total CPU ticks so far (`/proc/stat`): steal is time the
/// hypervisor gave this machine's virtual CPUs to other guests.
fn cpu_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if ticks.len() < 8 {
        return Err("unexpected /proc/stat format".to_string());
    }
    Ok((ticks[7], ticks[..8].iter().sum()))
}

/// Sets the kernel-layer metrics from the program's counters; `busy_s`
/// is the wall time the counted network work ran in.
pub fn set_kernel_counters(report: &mut Report, count: impl Fn(&str) -> f64, busy_s: f64) {
    let evals = count("nn.node_evals");
    let (calls, macs) = (count("tensor.gemm_calls"), count("tensor.gemm_macs"));
    report.set("nn.suffix_replays", count("nn.suffix_replays"));
    report.set("nn.node_evals", evals);
    report.set("nn.node_evals_per_s", evals / busy_s);
    report.set("tensor.gemm_calls", calls);
    report.set("tensor.gemm_macs", macs);
    report.set("tensor.macs_per_gemm_call", macs / calls.max(1.0));
    report.set("tensor.gmac_per_s", macs / busy_s / 1e9);
}

fn pipeline_deep() -> Pipeline {
    Pipeline {
        kind: ModelKind::ResNet50,
        scale: ModelScale::tiny(),
        objectives: vec![Objective::MacEnergy],
        shared_profile: false,
    }
}

fn pipeline_wide() -> Pipeline {
    Pipeline {
        kind: ModelKind::AlexNet,
        scale: ModelScale::small(),
        objectives: vec![
            Objective::Bandwidth,
            Objective::MacEnergy,
            Objective::Unweighted,
        ],
        shared_profile: true,
    }
}

/// Writes `spans` to `.bench_out/` as a Chrome trace.
fn write_spans(args: &Args, spans: &[Span]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn run_one(args: &Args) -> Result<String, String> {
    let mut report = Report::new();
    let (steal0, total0) = cpu_ticks()?;
    let steal_pct = || -> Result<f64, String> {
        let (steal, total) = cpu_ticks()?;
        Ok(100.0 * (steal - steal0) as f64 / (total - total0).max(1) as f64)
    };
    if args.trace {
        let spans = match args.workload.as_str() {
            "pipeline-deep" => pipeline_deep().trace(args, &mut report)?,
            "pipeline-wide" => pipeline_wide().trace(args, &mut report)?,
            _ => Serving.trace(args, &mut report)?,
        };
        let totals = trace::totals_by_name(&spans);
        for (name, t) in &totals {
            println!(
                "span {name}: {} calls, {:.6} s total, {:.6} s self",
                t.count, t.total_s, t.self_s
            );
        }
        for (span, metric) in [
            ("models.build", "models.build_s"),
            ("data.generate", "data.generate_s"),
            ("models.calibrate", "models.calibrate_s"),
        ] {
            report.set(metric, totals.get(span).map_or(0.0, |t| t.total_s));
        }
        report.set("host.steal_pct", steal_pct()?);
        // Layers this workload does not exercise did no work.
        for (name, _) in PER_LAYER {
            report.values.entry(name).or_insert(0.0);
        }
        write_spans(args, &spans)?;
        report.render(PER_LAYER)
    } else {
        match args.workload.as_str() {
            "pipeline-deep" => pipeline_deep().measure(args, &mut report)?,
            "pipeline-wide" => pipeline_wide().measure(args, &mut report)?,
            _ => Serving.measure(args, &mut report)?,
        }
        report.set(
            "success_ratio",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.set("peak_rss_mb", peak_rss_mb()?);
        report.set("host.steal_pct", steal_pct()?);
        report.render(END_TO_END)
    }
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut out = String::new();
    let mut summary = Report::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            if !child.status.success() {
                return Err(format!(
                    "{workload} --trace {trace} failed ({}): {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr)
                ));
            }
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                out.push_str(&format!("{workload}: {l}\n"));
            }
            let doc = mupod_obs::json::parse(last)
                .map_err(|e| format!("{workload}: bad result line: {e}"))?;
            let root = doc.as_object().ok_or("result is not an object")?;
            let num = |k: &str| root.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
            summary.attempted += num("attempted");
            summary.failed += num("failed");
            let correct = matches!(
                root.get("correct"),
                Some(mupod_obs::json::Value::Bool(true))
            );
            summary.check(correct, || {
                format!("{workload} --trace {trace} reported incorrect output")
            });
        }
    }
    out.push_str(&summary.render(&[])?);
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload route --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "route".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload route --seed 7 --seconds 10",
            "--workload nope --seed 7 --seconds 10 --trace 0",
            "--workload route --seed x --seconds 10 --trace 0",
            "--workload route --seed 7 --seconds 0 --trace 0",
            "--workload route --seed 7 --seconds 10 --trace 2",
            "--workload route --seed 7 --seconds 10 --trace",
            "--workload route --seed 7 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_names_are_valid() {
        for w in WORKLOADS {
            assert!(report::valid_name(w), "{w}");
        }
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
