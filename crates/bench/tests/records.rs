//! The records gate: every campaign in [`anvil_bench::CAMPAIGNS`]
//! regenerates its committed `results/<name>.json` byte-for-byte,
//! serialized exactly as the entry point writes it.
//!
//! Each record is checked at the campaign defaults (available
//! parallelism, event engine). Every campaign but the mechanism studies
//! runs its cells on that many threads, the Platform-based paper and
//! ablation records included, so this setting compares a multi-threaded
//! regeneration (2 threads on CI) with the committed bytes. Records whose
//! release run takes under 30 s at one thread are also checked at one
//! thread under the per-op reference engine, which proves thread-count
//! and engine independence on the committed full-scale records.
//! Campaigns that take more than about 5 s in release are `#[ignore]`d
//! here and run by the CI `records` job:
//!
//! ```bash
//! cargo test --release -p anvil-bench --test records -- --include-ignored
//! ```

use anvil_bench::{registry, render_json, CampaignArgs};
use anvil_runtime::{install_quiet_panic_hook, Engine};
use std::fs;
use std::path::Path;

/// The campaign defaults: available parallelism, event engine — how a
/// plain `anvil-bench <name>` run writes the record.
fn parallel() -> CampaignArgs {
    CampaignArgs::parse(Vec::new()).expect("no arguments parse")
}

/// One worker thread under the per-op reference engine.
fn serial_per_op() -> CampaignArgs {
    CampaignArgs {
        threads: 1,
        engine: Engine::PerOp,
        ..parallel()
    }
}

/// Line `i` (0-based) of `text`, or a marker past its end.
fn line_of(text: &str, i: usize) -> &str {
    text.lines().nth(i).unwrap_or("<end of file>")
}

/// Fails the test with `msg`. The quiet panic hook keeps every panic
/// message off stderr, so the message is also printed where libtest
/// shows a failing test's output.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    panic!("{msg}");
}

/// Regenerates `name` in memory under `args` and byte-compares it with
/// the committed record, naming the first differing line on a mismatch.
fn check(name: &str, args: CampaignArgs) {
    // Injected detector crashes in the supervised campaigns would
    // otherwise each print a panic report.
    install_quiet_panic_hook();
    let regenerate = format!("regenerate it with `cargo run --release -p anvil-bench -- {name}`");
    let campaign =
        registry::find(name).unwrap_or_else(|| fail(&format!("{name} is not registered")));
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed =
        fs::read_to_string(root.join(format!("results/{name}.json"))).unwrap_or_else(|e| {
            fail(&format!(
                "results/{name}.json is not committed ({e}); {regenerate}"
            ))
        });
    let report = (campaign.run)(&args);
    // A record that states its own verdict (soak, fleet, selfdefense)
    // must state the gate's.
    if let Some(recorded) = report.record.get("holds") {
        if recorded.as_bool() != Some(report.holds) {
            fail(&format!(
                "{name}: the record says \"holds\": {recorded:?}, the gate says {}",
                report.holds
            ));
        }
    }
    let regenerated = render_json(&report.record).expect("record serializes");
    if committed != regenerated {
        let line = (0..=committed.lines().count().max(regenerated.lines().count()))
            .find(|&i| line_of(&committed, i) != line_of(&regenerated, i))
            .expect("differing texts differ on some line");
        fail(&format!(
            "results/{name}.json is stale (threads {}, engine {}); first difference at \
             line {}:\n  committed:   {}\n  regenerated: {}\n{regenerate}",
            args.threads,
            args.engine.as_str(),
            line + 1,
            line_of(&committed, line),
            line_of(&regenerated, line),
        ));
    }
    if !report.holds {
        fail(&format!("{name}: the committed record fails its gate"));
    }
    for entry in &report.corpus {
        let file = entry.filename();
        if !root.join("corpus").join(&file).exists() {
            fail(&format!(
                "{name} found corpus case {file} that corpus/ lacks; {regenerate}"
            ));
        }
    }
}

/// One test per campaign, run at each of its group's settings, plus
/// [`GATED`]: the campaign names, which `every_campaign_is_gated` holds
/// equal to the registry.
macro_rules! records {
    ($($(#[$attr:meta])* [$($setting:ident),+]: $($name:ident),+;)*) => {
        $(records!(@group [$(#[$attr])*] [$($setting),+] $($name),+);)*
        const GATED: &[&str] = &[$($(stringify!($name)),+),*];
    };
    (@group $attrs:tt $settings:tt $($name:ident),+) => {
        $(records!(@test $attrs $settings $name);)+
    };
    (@test [$($attr:tt)*] [$($setting:ident),+] $name:ident) => {
        $($attr)*
        #[test]
        fn $name() {
            $(check(stringify!($name), $setting());)+
        }
    };
}

// Grouped by release wall time at one thread on a 2-vCPU VM, the slower
// of the two engines.
records! {
    // At most 5 s: part of the default `cargo test`.
    [parallel, serial_per_op]:
        static_analysis, selfdefense, fingerprint, eviction_pattern, mitigation_compare,
        refresh_power, row_buffer_policy, evasion, verifier, pagemap_hardening,
        refresh_sweep, ecc_analysis, victim_radius;
    // 6 s (fleet, soak) to 17 s (ablation_threshold).
    #[ignore = "5-30 s; run by the CI records job"]
    [parallel, serial_per_op]: soak, ablation_threshold, overhead_breakdown, fleet, table1;
    // 40 s (table3, resilience) to 251 s (table5).
    #[ignore = "over 30 s; run by the CI records job"]
    [parallel]:
        resilience, fuzz, ablation_sampling, detection_matrix, table3, figure4, figure3,
        ablation_bank_check, table4, table5;
}

#[test]
fn every_campaign_is_gated() {
    let mut gated = GATED.to_vec();
    gated.sort_unstable();
    let registered: Vec<&str> = anvil_bench::CAMPAIGNS.iter().map(|c| c.name).collect();
    assert_eq!(
        gated, registered,
        "every registered campaign needs a records test"
    );
}
