//! The benchmark command.
//!
//! ```text
//! perfbench --workload <fleet-cold|fleet-update|daemon-mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance, notes and every metric with its unit and sample
//! count on standard error, then one JSON result object as the last line
//! of standard output. Exits 1 when an output check failed, 2 on a usage
//! error.

use firmres_perfbench::{run, Options, Sizes, Workload};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <fleet-cold|fleet-update|daemon-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::full(),
        threads,
        work_dir: std::path::PathBuf::from(".perfbench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench {} | seed {} | {:.1} s measured | trace {} | nproc {} | {} | {} profile",
        opts.workload.name(),
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace),
        opts.threads,
        rustc_version(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let report = run(&opts);
    for note in &report.notes {
        eprintln!("  {note}");
    }
    let shown = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    for m in shown {
        let mut line = format!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            line.push_str(&format!("  (n={n}"));
            if let Some(q) = m.quantile {
                line.push_str(&format!(", q={q:.4}"));
            }
            line.push(')');
        }
        eprintln!("{line}");
    }
    eprintln!(
        "  attempted {} failed {} (correctness mismatches {})",
        report.attempted, report.failed, report.mismatches
    );
    println!("{}", report.result_json(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: output check mismatch");
        ExitCode::from(1)
    }
}
