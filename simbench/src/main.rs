//! Benchmark command. Prints a stamp line, a metric table per workload,
//! and as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, the per-layer ones.
//!
//! ```text
//! simbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!          [--date D] [--rustc V] [--git-sha SHA]
//! ```

use std::process::ExitCode;

use anvil_runtime::install_quiet_panic_hook;
use serde_json::{json, Value};
use simbench::{run, Metric, Options, Report, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("simbench: {msg}");
    eprintln!(
        "usage: simbench --workload <soak-benign|soak-adversary|fleet|platform-attack|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--date D] [--rustc V] [--git-sha SHA]"
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The machine and build a result was measured on.
fn stamp(flag: &dyn Fn(&str) -> Option<String>) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu": cpu,
        "rustc": flag("--rustc").unwrap_or_else(|| "unknown".into()),
        "git_sha": flag("--git-sha").unwrap_or_else(|| "unknown".into()),
        "date": flag("--date").unwrap_or_else(|| "undated".into()),
    })
}

fn print_table(r: &Report) {
    println!(
        "== {} seed {:#x}: {} untraced + {} traced cells, {} failed, digest {:016x}",
        r.workload.name(),
        r.seed,
        r.untraced_cells,
        r.traced_cells,
        r.failed,
        r.digest
    );
    let mut walls = r.cell_walls.clone();
    walls.sort_by(f64::total_cmp);
    if let (Some(lo), Some(hi)) = (walls.first(), walls.last()) {
        println!(
            "   unscaled cell wall: min {lo:.4} s, median {:.4} s, max {hi:.4} s",
            simbench::hist::median(&walls)
        );
        println!(
            "   fastest host probe {:.3} ms (reference {:.3} ms)",
            r.probe_s * 1e3,
            simbench::PROBE_REF_S * 1e3
        );
    }
    for f in &r.failures {
        println!("   FAIL {f}");
    }
    for m in r.end_to_end.iter().chain(&r.outcomes).chain(&r.per_layer) {
        println!("   {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

fn metrics_json<'a>(prefix: &str, ms: impl Iterator<Item = &'a Metric>) -> Vec<(String, Value)> {
    ms.map(|m| {
        (
            format!("{prefix}{}", m.name),
            json!({"value": m.value, "unit": m.unit}),
        )
    })
    .collect()
}

/// The metrics a run reports in its result line.
fn reported(r: &Report, trace: bool) -> Vec<&Metric> {
    if trace {
        r.per_layer.iter().chain(&r.outcomes).collect()
    } else {
        r.end_to_end.iter().collect()
    }
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload") else {
        return usage("--workload is required");
    };
    let workloads: Vec<Workload> = if workload == "all" {
        Workload::ALL.to_vec()
    } else if let Some(w) = Workload::parse(&workload) {
        vec![w]
    } else {
        return usage(&format!("unknown workload {workload:?}"));
    };
    let seed = match flag("--seed").map(|s| parse_seed(&s).ok_or(s)) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(s)) => return usage(&format!("bad --seed {s:?}")),
    };
    let seconds = match flag("--seconds").map(|s| s.parse::<f64>()) {
        None => 10.0,
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage("--seconds must be a positive number"),
    };
    let trace = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return usage(&format!("bad --trace {t:?}")),
    };

    println!("stamp {}", stamp(&flag));
    let per_workload = seconds / workloads.len() as f64;
    let reports: Vec<Report> = workloads
        .iter()
        .map(|&w| {
            let r = run(&Options {
                workload: w,
                seed: seed.unwrap_or_else(|| w.default_seed()),
                seconds: per_workload,
                trace,
                scale: Scale::STANDARD,
            });
            print_table(&r);
            r
        })
        .collect();

    let metrics = match reports.as_slice() {
        [r] => metrics_json("", reported(r, trace).into_iter()),
        _ => reports
            .iter()
            .flat_map(|r| {
                metrics_json(
                    &format!("{}.", r.workload.name()),
                    reported(r, trace).into_iter(),
                )
            })
            .collect(),
    };
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    println!(
        "{}",
        json!({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(metrics),
        })
    );
    ExitCode::SUCCESS
}
