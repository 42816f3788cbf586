//! **Soak campaign** — detector lifecycle resilience over millions of
//! windows.
//!
//! The other campaigns measure the detector over a handful of refresh
//! intervals; this one runs it for simulated *hours* under the
//! supervised runtime (`anvil-runtime`): mixed benign + paced-adversary
//! traffic, a seeded schedule of injected detector crashes, service
//! stalls and checkpoint corruptions, and periodic hot reloads. The
//! restart-aware adversary hammers flat out into every injected
//! downtime gap.
//!
//! The campaign gates on three claims:
//!
//! * **zero flips** — accumulated aggressor evidence plus the worst gap
//!   burst never reaches the flip threshold before a refresh lands;
//! * **bounded recovery** — the worst observed crash-to-resume gap stays
//!   inside the guarantee envelope's downtime budget;
//! * **the supervisor never gives up** — the restart budget is never
//!   exhausted.
//!
//! The seed is recorded in `results/soak.json`; the same seed reproduces
//! the identical summary byte-for-byte.
//!
//! ```bash
//! cargo run --release -p anvil-bench --bin soak                  # full (2M windows)
//! cargo run --release -p anvil-bench --bin soak -- --smoke       # CI subset
//! cargo run --release -p anvil-bench --bin soak -- --windows 500000 --seed 7
//! cargo run --release -p anvil-bench --bin soak -- --engine per-op  # reference core
//! ```
//!
//! `--engine per-op|event` selects the simulation core (default:
//! `event`, the epoch-skipping engine). `results/soak.json` is
//! byte-identical either way; CI diffs both on every push.

use anvil_bench::{campaigns, write_json, CampaignArgs, Table};
use anvil_runtime::{install_quiet_panic_hook, SoakConfig};

/// Default campaign seed; override with `--seed N`.
const DEFAULT_SEED: u64 = 0x50AC;

/// Full-campaign window count (~3.5 simulated hours at 6 ms/window).
const FULL_WINDOWS: u64 = 2_000_000;

/// Smoke window count, sized to finish in tens of seconds in CI while
/// still injecting hundreds of crashes and several reloads.
const SMOKE_WINDOWS: u64 = 120_000;

fn main() {
    // Thousands of injected detector crashes would otherwise each print
    // a panic report.
    install_quiet_panic_hook();
    let args = CampaignArgs::from_env();
    let seed = args.seed_or(DEFAULT_SEED);
    let windows = args.windows.unwrap_or(if args.smoke {
        SMOKE_WINDOWS
    } else {
        FULL_WINDOWS
    });
    let mut cfg = SoakConfig::standard(windows, seed);
    if args.smoke {
        // Keep the absolute crash/reload counts meaningful at the
        // smaller scale.
        cfg.lifecycle.crash_rate = 5e-3;
        cfg.reload_every = 20_000;
    }

    eprintln!(
        "soak: {windows} windows, seed {seed:#x}, crash rate {}, reload every {}, engine {}",
        cfg.lifecycle.crash_rate,
        cfg.reload_every,
        args.engine.as_str()
    );
    let out = campaigns::soak(&cfg, seed, args.smoke, args.threads, args.engine);
    let Some(s) = &out.summary else {
        // The soak cell itself died: the panic is recorded as typed data
        // in the JSON record instead of aborting the campaign binary.
        for p in &out.panics {
            eprintln!("soak: {p}");
        }
        write_json("soak", &out.json);
        std::process::exit(1);
    };

    let mut table = Table::new(
        "Soak campaign: supervised lifetime under crash/stall/corruption faults",
        &["Metric", "Value"],
    );
    table.row(&["windows".into(), s.windows.to_string()]);
    table.row(&["simulated".into(), format!("{:.1} s", s.simulated_ms / 1e3)]);
    table.row(&["stage-1 trips".into(), s.threshold_crossings.to_string()]);
    table.row(&["stage-2 windows".into(), s.stage2_windows.to_string()]);
    table.row(&["detections".into(), s.detections.to_string()]);
    table.row(&[
        "selective refreshes".into(),
        s.selective_refreshes.to_string(),
    ]);
    table.row(&["degraded windows".into(), s.degraded_windows.to_string()]);
    table.row(&[
        "crashes / restarts".into(),
        format!("{} / {}", s.crashes, s.restarts),
    ]);
    table.row(&["cold starts".into(), s.cold_starts.to_string()]);
    table.row(&[
        "checkpoints (written / corrupted / rejected)".into(),
        format!(
            "{} / {} / {}",
            s.checkpoints_written, s.checkpoints_corrupted, s.checkpoint_rejections
        ),
    ]);
    table.row(&[
        "hot reloads (applied / deferred)".into(),
        format!("{} / {}", s.reloads, s.reloads_deferred),
    ]);
    table.row(&["stalled services".into(), s.stalled_services.to_string()]);
    table.row(&[
        "worst recovery gap".into(),
        format!(
            "{} cycles (budget {})",
            s.worst_recovery_gap, s.downtime_budget
        ),
    ]);
    table.row(&[
        "total downtime".into(),
        format!("{} cycles", s.total_downtime),
    ]);
    table.row(&["FLIPS".into(), s.flips.to_string()]);
    table.print();

    println!(
        "{}",
        if s.holds() {
            "ZERO FLIPS across the campaign: every crash recovered inside the\n\
             envelope's downtime budget, corrupted checkpoints fell back to\n\
             cold starts, and hot reloads never lost ledger evidence."
        } else {
            "WARNING: the lifecycle gate failed (flips, an over-budget recovery\n\
             gap, or an exhausted restart budget)."
        }
    );

    write_json("soak", &out.json);
    if !out.holds() {
        std::process::exit(1);
    }
}
