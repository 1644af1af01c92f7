//! `cme-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, writes the full record to
//! `out/<workload>-seed<n>-trace<t>.json` beside this package, and ends
//! standard output with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`. Exits nonzero on any wrong count.

use cme_core::api::json::{self, Json};
use cme_perfbench::harness::RunConfig;
use cme_perfbench::{report, run, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(config.seconds >= 0.0 && config.seconds <= 3600.0) {
                    return Err(bad(&"must be within 0..=3600"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        config,
    })
}

fn run_one(workload: &str, config: &RunConfig) -> Result<bool, String> {
    let r = run(workload, config)?;
    for line in report::table(&r) {
        println!("{line}");
    }
    let path = report::record_path(&r);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, report::record(&r).encode())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("record {}", path.display());
    let summary = report::summary(&r);
    println!("{}", summary.encode());
    Ok(summary.get("correct").and_then(Json::as_bool) == Some(true))
}

/// Runs every workload in its own process (so each reports its own peak
/// memory) and ends with one summary over all of them.
fn run_all(config: &RunConfig) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = BTreeMap::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &config.seed.to_string()])
            .args(["--seconds", &config.seconds.to_string()])
            .args(["--trace", if config.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let summary = json::parse(last).map_err(|e| format!("{w}: no summary ({e})"))?;
        correct &=
            out.status.success() && summary.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += summary.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += summary.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(ms) = summary.get("metrics").and_then(Json::as_obj) {
            for (k, v) in ms {
                metrics.insert(format!("{w}/{k}"), v.clone());
            }
        }
    }
    let summary = Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(attempted)),
        ("failed".to_string(), Json::UInt(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]));
    println!("{}", summary.encode());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args.config)
    } else {
        run_one(&args.workload, &args.config)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
