//! Thread-count determinism of the parallel campaign executor: the same
//! campaign at `--threads 1`, `2`, and N must produce identical JSON
//! bytes, because `run_cells_checked` only changes *when* a cell runs, never
//! *what* it computes or where its result lands.

use anvil_bench::robustness::{fuzz, resilience, soak_with, verifier};
use anvil_bench::{render_json, run_cells_checked, CampaignArgs, Report, UnknownArgument};
use anvil_runtime::{install_quiet_panic_hook, Engine, SoakConfig};

/// Serializes a campaign record exactly as `write_json` would.
fn bytes(v: &serde_json::Value) -> String {
    render_json(v).expect("campaign records serialize")
}

fn to_args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

/// Parses a flag string that contains only known flags.
fn parse(s: &str) -> CampaignArgs {
    CampaignArgs::parse(to_args(s)).expect("known flags parse")
}

/// The campaign's record bytes at each thread count, run with `flags`
/// plus `--threads N`.
fn records_at(
    threads: &[usize],
    flags: &str,
    run: impl Fn(&CampaignArgs) -> Report,
) -> Vec<String> {
    threads
        .iter()
        .map(|t| bytes(&run(&parse(&format!("{flags} --threads {t}"))).record))
        .collect()
}

#[test]
fn run_cells_preserves_cell_order() {
    for threads in [1, 2, 3, 8] {
        let cells: Vec<_> = (0..17).map(|i| move || i * i).collect();
        let out = run_cells_checked(threads, cells);
        assert_eq!(
            out,
            (0..17).map(|i| Ok(i * i)).collect::<Vec<_>>(),
            "results out of order at {threads} threads"
        );
    }
}

#[test]
fn resilience_campaign_is_thread_count_independent() {
    // Smoke matrix at a short run (6 windows, 36 ms): 7 fault cells + 1
    // cross cell, long enough for detections and degraded-mode
    // engagement to occur. The seed is the default, 0xA11CE.
    let runs = records_at(&[1, 2, 4], "--smoke --windows 6", resilience);
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn verify_campaign_is_thread_count_independent() {
    // Smoke matrix (future threshold only): pure symbolic bounds plus
    // witness hunts, whose replays are seeded per cell up front. `--quick`
    // replays witnesses for 70 ms; the seed is the default, 0xE5A51.
    let runs = records_at(&[1, 2, 4], "--smoke --quick", verifier);
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn soak_campaign_is_thread_count_independent() {
    install_quiet_panic_hook();
    let mut cfg = SoakConfig::standard(4_000, 0x50AC);
    cfg.lifecycle.crash_rate = 5e-3;
    cfg.reload_every = 2_000;
    let runs = records_at(&[1, 2], "--smoke", |args| soak_with(&cfg, args));
    assert_eq!(runs[0], runs[1], "soak diverged across thread counts");
}

#[test]
fn campaign_args_parse_flags_and_values() {
    let args = parse("--quick --windows 500 --seed 7 --threads 3 --engine per-op");
    assert!(args.quick);
    assert!(!args.smoke);
    assert_eq!(args.windows, Some(500));
    assert_eq!(args.seed_or(99), 7);
    assert_eq!(args.threads, 3);
    assert_eq!(args.engine, Engine::PerOp);

    let args = parse("--smoke");
    assert!(args.smoke);
    assert_eq!(args.windows, None);
    assert_eq!(args.seed_or(99), 99);
    assert!(args.threads >= 1);
    assert_eq!(args.engine, Engine::Event);

    // Unknown flags and stray words are errors naming the argument,
    // never silently ignored: `--thread 2` must not run at the default
    // parallelism.
    for (bad, culprit) in [
        ("--thread 2", "--thread"),
        ("--smoke --quik", "--quik"),
        ("--seed 7 extra", "extra"),
        ("table1", "table1"),
    ] {
        assert_eq!(
            CampaignArgs::parse(to_args(bad)),
            Err(UnknownArgument(culprit.to_string())),
            "{bad:?} must be rejected"
        );
    }
    assert_eq!(
        UnknownArgument("--thread".into()).to_string(),
        "unknown argument `--thread`"
    );
}

#[test]
fn campaign_args_reject_malformed_values() {
    // Malformed or zero values warn on stderr and fall back to defaults
    // instead of aborting or being silently misread.
    for bad in ["--windows 0", "--windows nope", "--windows -3", "--windows"] {
        assert_eq!(parse(bad).windows, None, "{bad:?} must fall back");
    }
    assert_eq!(parse("--seed twelve").seed_or(42), 42);
    assert!(parse("--threads 0").threads >= 1, "zero threads fall back");
    assert_eq!(parse("--engine warp").engine, Engine::Event);
}

#[test]
fn campaign_args_bound_fleet_machine_and_domain_counts() {
    let args = parse("--machines 48 --domains 8");
    assert_eq!(args.machines, Some(48));
    assert_eq!(args.domains, Some(8));
    assert_eq!(parse("--machines 1").machines, Some(1));
    assert_eq!(parse("--machines 4096").machines, Some(4096));
    assert_eq!(parse("--domains 64").domains, Some(64));

    // Out-of-range, zero, negative, malformed, and missing values all
    // warn (naming the bad value, on stderr) and fall back to None.
    for bad in [
        "--machines 0",
        "--machines 4097",
        "--machines -3",
        "--machines lots",
        "--machines",
    ] {
        assert_eq!(parse(bad).machines, None, "{bad:?} must fall back");
    }
    for bad in ["--domains 0", "--domains 65", "--domains four"] {
        assert_eq!(parse(bad).domains, None, "{bad:?} must fall back");
    }

    // Absent flags stay None so campaigns apply their own defaults.
    let args = parse("--smoke");
    assert_eq!(args.machines, None);
    assert_eq!(args.domains, None);
}

#[test]
fn fuzz_campaign_is_thread_count_independent() {
    // Candidate batches are generated before dispatch and results fold
    // in submission order, so the whole coverage-guided loop — RNG
    // streams, pool contents, shrink traces — must be identical at any
    // thread count.
    // The smoke budget at the default seed, 0xF0229.
    let runs = records_at(&[1, 2, 4], "--smoke", fuzz);
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}
