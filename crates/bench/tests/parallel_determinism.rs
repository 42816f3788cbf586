//! Thread-count determinism of the parallel campaign executor: the same
//! campaign at `--threads 1`, `2`, and N must produce identical JSON
//! bytes, because `run_cells_checked` only changes *when* a cell runs, never
//! *what* it computes or where its result lands.

use anvil_bench::{campaigns, run_cells_checked, CampaignArgs};
use anvil_runtime::{install_quiet_panic_hook, Engine, SoakConfig};

/// Serializes a campaign record exactly as `write_json` would.
fn bytes(v: &serde_json::Value) -> String {
    serde_json::to_string_pretty(v).expect("campaign records serialize")
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
    // Smoke matrix at a short run: 7 fault cells + 1 cross cell, long
    // enough for detections and degraded-mode engagement to occur.
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| bytes(&campaigns::resilience(true, 36.0, 0xA_11CE, t).json))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn verify_campaign_is_thread_count_independent() {
    // Smoke matrix (future threshold only): pure symbolic bounds plus
    // witness hunts, whose replays are seeded per cell up front.
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| bytes(&campaigns::verify(true, 70.0, 0xE5A51, t).json))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}

#[test]
fn soak_campaign_is_thread_count_independent() {
    install_quiet_panic_hook();
    let mut cfg = SoakConfig::standard(4_000, 0x50AC);
    cfg.lifecycle.crash_rate = 5e-3;
    cfg.reload_every = 2_000;
    let runs: Vec<String> = [1usize, 2]
        .iter()
        .map(|&t| bytes(&campaigns::soak(&cfg, 0x50AC, true, t, Engine::default()).json))
        .collect();
    assert_eq!(runs[0], runs[1], "soak diverged across thread counts");
}

#[test]
fn campaign_args_parse_flags_and_values() {
    let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let args = CampaignArgs::parse(to_args("--quick --windows 500 --seed 7 --threads 3"));
    assert!(args.quick);
    assert!(!args.smoke);
    assert_eq!(args.windows, Some(500));
    assert_eq!(args.seed_or(99), 7);
    assert_eq!(args.threads, 3);

    let args = CampaignArgs::parse(to_args("--smoke"));
    assert!(args.smoke);
    assert_eq!(args.windows, None);
    assert_eq!(args.seed_or(99), 99);
    assert!(args.threads >= 1);
}

#[test]
fn campaign_args_reject_malformed_values() {
    // Malformed or zero values warn on stderr and fall back to defaults
    // instead of aborting or being silently misread.
    let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    for bad in ["--windows 0", "--windows nope", "--windows -3", "--windows"] {
        let args = CampaignArgs::parse(to_args(bad));
        assert_eq!(args.windows, None, "{bad:?} must fall back to default");
    }
    let args = CampaignArgs::parse(to_args("--seed twelve"));
    assert_eq!(args.seed_or(42), 42);
    let args = CampaignArgs::parse(to_args("--threads 0"));
    assert!(args.threads >= 1, "zero threads must fall back");
}

#[test]
fn campaign_args_bound_fleet_machine_and_domain_counts() {
    let to_args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();

    let args = CampaignArgs::parse(to_args("--machines 48 --domains 8"));
    assert_eq!(args.machines, Some(48));
    assert_eq!(args.domains, Some(8));
    assert_eq!(
        CampaignArgs::parse(to_args("--machines 1")).machines,
        Some(1)
    );
    assert_eq!(
        CampaignArgs::parse(to_args("--machines 4096")).machines,
        Some(4096)
    );
    assert_eq!(
        CampaignArgs::parse(to_args("--domains 64")).domains,
        Some(64)
    );

    // Out-of-range, zero, negative, malformed, and missing values all
    // warn (naming the bad value, on stderr) and fall back to None.
    for bad in [
        "--machines 0",
        "--machines 4097",
        "--machines -3",
        "--machines lots",
        "--machines",
    ] {
        let args = CampaignArgs::parse(to_args(bad));
        assert_eq!(args.machines, None, "{bad:?} must fall back to default");
    }
    for bad in ["--domains 0", "--domains 65", "--domains four"] {
        let args = CampaignArgs::parse(to_args(bad));
        assert_eq!(args.domains, None, "{bad:?} must fall back to default");
    }

    // Absent flags stay None so campaigns apply their own defaults.
    let args = CampaignArgs::parse(to_args("--smoke"));
    assert_eq!(args.machines, None);
    assert_eq!(args.domains, None);
}

#[test]
fn fuzz_campaign_is_thread_count_independent() {
    // Candidate batches are generated before dispatch and results fold
    // in submission order, so the whole coverage-guided loop — RNG
    // streams, pool contents, shrink traces — must be identical at any
    // thread count.
    let runs: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| bytes(&campaigns::fuzz(true, 0xF0229, t).json))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 threads diverged");
    assert_eq!(runs[0], runs[2], "1 vs 4 threads diverged");
}
