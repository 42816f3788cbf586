//! `anvil-bench`: the one entry point for every experiment campaign.
//!
//! ```bash
//! cargo run --release -p anvil-bench -- <campaign> [flags]
//! cargo run --release -p anvil-bench -- summary
//! cargo run --release -p anvil-bench -- perfbench [--quick] [--git-sha SHA] [--stamp DATE]
//! ```
//!
//! A campaign prints its tables, writes `results/<campaign>.json`, and
//! exits 1 when its gate fails or its record cannot be written. Unknown
//! campaigns and flags exit 2 with the usage line.

use anvil_bench::{harness, perfbench, registry, summary, write_json, CampaignArgs, Report};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: anvil-bench <campaign|summary|perfbench> [--quick] [--smoke] \
[--seed N] [--threads N] [--engine per-op|event] [--windows N] [--machines N] [--domains N]";

/// Prints the usage line and the registered campaigns; exit code 2.
fn usage(problem: &str) -> ExitCode {
    eprintln!("anvil-bench: {problem}\n{USAGE}\ncampaigns:");
    for c in registry::CAMPAIGNS {
        eprintln!("  {}", c.name);
    }
    eprintln!("also: summary (scorecard of the committed records), perfbench (perf trajectory)");
    ExitCode::from(2)
}

/// Removes `flag` and its value from `args`, returning the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).cloned();
    args.drain(i..(i + 2).min(args.len()));
    value
}

/// Runs `run` behind the quiet panic hook: injected detector crashes
/// inside supervised campaigns stay silent, while a panic that escapes
/// the campaign is still reported (exit code 101).
fn guarded(name: &str, run: impl FnOnce() -> Report) -> Result<Report, ExitCode> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|payload| {
        eprintln!(
            "anvil-bench: {name} panicked: {}",
            harness::panic_message(payload.as_ref())
        );
        ExitCode::from(101)
    })
}

/// Prints the report, writes `results/<record>.json` and any new corpus
/// cases, and maps the gate and the writes to the exit code.
fn finish(record: &str, report: &Report) -> ExitCode {
    print!("{}", report.text);
    let mut ok = match write_json(Path::new("results"), record, &report.record) {
        Ok(path) => {
            println!("[results written to {}]", path.display());
            true
        }
        Err(e) => {
            eprintln!("anvil-bench: could not write results/{record}.json: {e}");
            false
        }
    };
    if !report.corpus.is_empty() {
        match anvil_fuzz::write_dir(Path::new("corpus"), &report.corpus) {
            Ok(written) => println!(
                "corpus: {} case(s), {written} newly written to corpus/",
                report.corpus.len()
            ),
            Err(e) => {
                eprintln!("anvil-bench: could not write corpus/: {e}");
                ok = false;
            }
        }
    }
    if ok && report.holds {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the first argument names.
enum Command {
    Summary,
    Perfbench,
    Campaign(&'static registry::Campaign),
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage("missing campaign name");
    }
    let name = argv.remove(0);
    let command = match name.as_str() {
        "summary" => Command::Summary,
        "perfbench" => Command::Perfbench,
        _ => match registry::find(&name) {
            Some(c) => Command::Campaign(c),
            None => return usage(&format!("unknown campaign `{name}`")),
        },
    };
    // The trajectory stamps are perfbench's own flags.
    let (git_sha, stamp) = if matches!(command, Command::Perfbench) {
        (
            take_value(&mut argv, "--git-sha"),
            take_value(&mut argv, "--stamp"),
        )
    } else {
        (None, None)
    };
    let args = match CampaignArgs::parse(argv) {
        Ok(args) => args,
        Err(e) => return usage(&e.to_string()),
    };
    // Thousands of injected detector crashes would otherwise each print
    // a panic report.
    anvil_runtime::install_quiet_panic_hook();
    let (record, report) = match command {
        Command::Summary => {
            print!("{}", summary::scorecard());
            return ExitCode::SUCCESS;
        }
        Command::Perfbench => (
            "BENCH_hotpath",
            guarded("perfbench", || {
                perfbench::run(
                    &args,
                    git_sha.as_deref().unwrap_or("unknown"),
                    stamp.as_deref().unwrap_or("unstamped"),
                )
            }),
        ),
        Command::Campaign(c) => (c.name, guarded(c.name, || (c.run)(&args))),
    };
    match report {
        Ok(report) => finish(record, &report),
        Err(code) => code,
    }
}
