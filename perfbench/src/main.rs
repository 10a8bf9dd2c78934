//! Benchmark of record for the REFINE reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (or `--workload all`, each in its own process) and
//! prints every metric by name and unit, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones. See
//! `perfbench/README.md` for the workloads and the metric map.

mod check;
mod metrics;
mod spans;
mod workload;

use metrics::Metric;
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
    list_metrics: bool,
}

const USAGE: &str =
    "usage: refine-perfbench --workload <paper_sweep|cold_sweep|class_ablation|all> \
[--seed N] [--seconds S] [--trace 0|1] [--write-reference] [--list-metrics]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_reference: false,
        list_metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--write-reference" => a.write_reference = true,
            "--list-metrics" => a.list_metrics = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if a.workload.is_empty() && !a.list_metrics {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(w: &Workload, a: &Args) {
    let data = workload::run(w, a.seed, a.seconds, a.trace, a.write_reference);
    println!(
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) jobs {} campaigns {} trials/campaign {} passes {} traced passes {}",
        w.name,
        a.seed,
        data.jobs,
        data.cells.len(),
        w.trials,
        data.passes.len(),
        data.traced.len()
    );
    let per_pass = |f: fn(&workload::PassTimes) -> f64| -> String {
        data.passes
            .iter()
            .map(|t| format!("{:.4}", f(t)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("pass setup_s: {}", per_pass(|t| t.setup_s));
    println!(
        "pass trials_per_s: {}",
        per_pass(|t| t.trials as f64 / t.trial_s)
    );
    println!("pass wall_s: {}", per_pass(|t| t.wall_s));
    let metrics = if a.trace {
        for line in metrics::self_time_lines(&data) {
            println!("{line}");
        }
        if let Some(pass) = data.traced.last() {
            let path = format!(
                "{}/out/spans-{}-seed{}.jsonl",
                env!("CARGO_MANIFEST_DIR"),
                w.name,
                a.seed
            );
            match spans::write_jsonl(&pass.spans, std::path::Path::new(&path)) {
                Ok(()) => println!("spans of the last traced pass written to {path}"),
                Err(e) => eprintln!("could not write spans to {path}: {e}"),
            }
        }
        metrics::per_layer(&data)
    } else {
        metrics::end_to_end(&data)
    };
    for m in &metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{:42} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
    let share = data.failed as f64 / data.attempted.max(1) as f64;
    println!(
        "failed_share {share} ({} failed of {} attempted: sweep trials, {} oracle re-runs; reference table {})",
        data.failed,
        data.attempted,
        data.oracle_runs,
        if data.reference_checked { "compared" } else { "not compared at this seed" }
    );
    println!(
        "{}",
        result_json(data.failed == 0, data.attempted, data.failed, &metrics)
    );
}

/// Run every workload in its own process, so each starts cold and its
/// peak memory is its own.
fn run_all(a: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in &WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &a.seed.to_string()])
            .args([
                "--seconds",
                &a.seconds.to_string(),
                "--trace",
                if a.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run a workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        ok &= out.status.success() && last.starts_with("{\"correct\": true");
    }
    ok
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if a.list_metrics {
        for (name, unit) in metrics::per_layer_catalogue() {
            println!("{name} {unit}");
        }
        return;
    }
    let ok = if a.workload == "all" {
        run_all(&a)
    } else {
        let Some(w) = WORKLOADS.iter().find(|w| w.name == a.workload) else {
            eprintln!("unknown workload `{}`\n{USAGE}", a.workload);
            std::process::exit(2);
        };
        // A finished run exits 0 and reports failures in its result line.
        run_one(w, &a);
        true
    };
    if !ok {
        std::process::exit(1);
    }
}
