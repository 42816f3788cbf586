//! **Self-defense campaign** — ANVIL's own state under rowhammer attack.
//!
//! Every other campaign assumes the detector's bookkeeping is sound and
//! attacks the data it protects. This one points the hammer at the
//! defense itself: the stage-1 EWMA carry, the phase-jitter stream, and
//! the window scale live in DRAM rows like everything else, and a
//! templating attacker (Flip-Feng-Shui style) can land their victim
//! structure next to an aggressor pair. The adversary paces below the
//! raw stage-1 trip so every detection must flow through the carry —
//! exactly the word its weak cell corrupts — while the pair's
//! single-sided splash quietly accumulates on a co-located data victim.
//!
//! Each trial runs the identical attack against two arms:
//!
//! * **unguarded** — raw replica-0 reads, no scrubbing, naive layout
//!   with all replicas in one row. Expected to go blind: zero carry
//!   detections, undeclared data-victim flips, every state flip
//!   silently absorbed.
//! * **guarded** — checksummed triple replicas interleaved 512 rows
//!   apart, majority-vote repair on every read, incremental supervisor
//!   scrub, and escalation to a cold checkpoint restart when a
//!   correlated strike defeats the majority.
//!
//! The merge gate (see `SelfDefenseVerdict::holds`): the baseline
//! demonstrably loses detections and data; the guarded arm out-detects
//! it with zero undeclared flips; and every injected corruption is
//! repaired or escalated — never silently absorbed — with all declared
//! outages inside the envelope's downtime budget.
//!
//! One `(trial, arm)` pair is one pure cell, so
//! `results/selfdefense.json` is byte-for-byte identical at any
//! `--threads`.
//!
//! ```bash
//! cargo run --release -p anvil-bench --bin selfdefense             # full (3 trials × 420 windows)
//! cargo run --release -p anvil-bench --bin selfdefense -- --smoke  # CI subset (2 × 160)
//! cargo run --release -p anvil-bench --bin selfdefense -- --seed 7 --threads 4
//! cargo run --release -p anvil-bench --bin selfdefense -- --engine per-op  # reference core
//! ```
//!
//! `--engine per-op|event` selects the simulation core (default:
//! `event`); `results/selfdefense.json` is byte-identical either way.

use anvil_bench::{campaigns, write_json, CampaignArgs, Table};
use anvil_runtime::install_quiet_panic_hook;

/// Default campaign seed; override with `--seed N`.
const DEFAULT_SEED: u64 = 0x5E1F;

fn main() {
    install_quiet_panic_hook();
    let args = CampaignArgs::from_env();
    let seed = args.seed_or(DEFAULT_SEED);

    eprintln!(
        "selfdefense: {} trials × 2 arms, seed {seed:#x}",
        if args.smoke { 2 } else { 3 }
    );
    let out = campaigns::selfdefense(args.smoke, seed, args.threads, args.engine);
    let v = &out.verdict;

    let mut table = Table::new(
        "Self-defense campaign: the detector's own state under attack",
        &["Metric", "Unguarded baseline", "Guarded detector"],
    );
    table.row(&[
        "stage-2 detections".into(),
        v.baseline_detections.to_string(),
        v.guarded_detections.to_string(),
    ]);
    table.row(&[
        "state flips silently absorbed".into(),
        v.baseline_absorbed.to_string(),
        v.guarded_absorbed.to_string(),
    ]);
    table.row(&[
        "corruptions repaired (declared)".into(),
        "0".into(),
        v.guarded_repaired.to_string(),
    ]);
    table.row(&[
        "corruptions escalated (declared)".into(),
        "0".into(),
        v.guarded_escalated.to_string(),
    ]);
    table.row(&[
        "state flips injected (guarded)".into(),
        "-".into(),
        v.guarded_injected.to_string(),
    ]);
    table.row(&[
        "recovery gaps within budget".into(),
        "-".into(),
        if v.within_budget { "yes" } else { "NO" }.into(),
    ]);
    table.row(&[
        "dead cells".into(),
        v.cell_panics.to_string(),
        String::new(),
    ]);
    table.row(&[
        "UNDECLARED DATA FLIPS".into(),
        v.baseline_undeclared.to_string(),
        v.guarded_undeclared.to_string(),
    ]);
    table.print();

    println!(
        "{}",
        if v.holds() {
            "SELF-INTEGRITY HOLDS: the state-targeting attack blinds the\n\
             unguarded baseline (absorbed state flips, undeclared data flips),\n\
             while the guarded detector keeps detecting, declares every\n\
             corruption as repaired or escalated, and stays inside its\n\
             downtime budget with zero undeclared flips."
        } else {
            "WARNING: the self-defense gate failed (a silently absorbed\n\
             corruption, an undeclared data flip, a missing policy arm, an\n\
             over-budget recovery, or a dead cell)."
        }
    );

    write_json("selfdefense", &out.json);
    if !v.holds() {
        std::process::exit(1);
    }
}
