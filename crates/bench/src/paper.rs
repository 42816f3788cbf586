//! The paper's evaluation artifacts: Tables 1 and 3–5, Figures 3–4, and
//! the §4.2 zero-false-negative detection matrix.

use crate::harness::{
    attack_pair, detect, detections, double_refresh_platform, fastest, first_flip, grid,
    normalized_times, run_cells_checked, run_keyed, solo, split_cells, AttackKind, CampaignArgs,
    DetectionSummary,
};
use crate::registry::Report;
use crate::report::Table;
use anvil_core::{AnvilConfig, PlatformConfig};
use anvil_mem::MemoryConfig;
use anvil_workloads::SpecBenchmark;
use serde_json::json;

/// **Table 1** — Rowhammer Attack Characteristics.
///
/// Paper values (4 GB DDR3, Sandy Bridge, 64 ms refresh):
///
/// | Technique                    | Min row accesses | Time to first flip |
/// |------------------------------|------------------|--------------------|
/// | Single-sided with CLFLUSH    | 400K             | 58 ms              |
/// | Double-sided with CLFLUSH    | 220K             | 15 ms              |
/// | Double-sided without CLFLUSH | 220K             | 45 ms              |
///
/// Method, mirroring the paper: scan candidate aggressor rows (a real
/// attacker profiles the module the same way), hammer each until the first
/// flip, and report the minimum access count and the wall-clock time.
pub fn table1(args: &CampaignArgs) -> Report {
    let candidates = args.scale().ops(16).max(4) as usize;
    let config = MemoryConfig::paper_platform();

    let mut table = Table::new(
        "Table 1: Rowhammer Attack Characteristics",
        &[
            "Hammer Technique",
            "Min DRAM Row Accesses",
            "Time to First Bit Flip",
        ],
    );
    let mut records = Vec::new();

    // Profile candidates exactly like `rowhammer-test` scanning a module.
    // Cap at 1.2x the single-sided minimum: anything slower is not the
    // module minimum.
    let cells = grid(AttackKind::all(), 0..candidates, |kind, pair| (kind, pair));
    let flips = run_keyed(args.threads, &cells, |&(kind, pair)| {
        first_flip(kind, &config, pair, 480_000)
    });
    for (kind, flips) in AttackKind::all().into_iter().zip(flips.chunks(candidates)) {
        if let Some((accesses, ms)) = fastest(flips.iter().copied()) {
            table.row(&[
                kind.label().to_string(),
                format!("{}K", accesses / 1000),
                format!("{ms:.0} ms"),
            ]);
            records.push(json!({
                "attack": kind.label(),
                "min_row_accesses": accesses,
                "time_to_first_flip_ms": ms,
            }));
        } else {
            table.row(&[
                kind.label().to_string(),
                "no flip".to_string(),
                "-".to_string(),
            ]);
            records.push(json!({ "attack": kind.label(), "min_row_accesses": null }));
        }
    }

    let mut text = table.render();
    text.push_str(
        "Paper: 400K/58ms (single-sided), 220K/15ms (double-sided), 220K/45ms (CLFLUSH-free).\n",
    );
    Report::rows("table1", text, &records)
}

/// **Table 3** — Rowhammer detection results.
///
/// Paper values:
///
/// | Benchmark                 | Avg time to detect | Refreshes / 64 ms | Flips |
/// |---------------------------|--------------------|-------------------|-------|
/// | CLFLUSH (heavy load)      | 12.8 ms            | 12.35             | 0     |
/// | CLFLUSH (light load)      | 12.3 ms            | 10.3              | 0     |
/// | CLFLUSH-free (heavy load) | 35.3 ms            | 4.53              | 0     |
/// | CLFLUSH-free (light load) | 22.85 ms           | 5.10              | 0     |
///
/// Heavy load = the attack plus mcf, libquantum and omnetpp running
/// simultaneously (Section 4.2).
pub fn table3(args: &CampaignArgs) -> Report {
    let scale = args.scale();
    let trials = scale.ops(3).max(1);
    let run_ms = scale.ms(200.0).max(80.0);

    let mut table = Table::new(
        "Table 3: Rowhammer Detection Results (under ANVIL-baseline)",
        &[
            "Benchmark",
            "Avg Time to Detect",
            "Refreshes per 64ms",
            "Total Bit Flips",
        ],
    );
    let mut records = Vec::new();

    let kinds = [
        (AttackKind::DoubleSided, "CLFLUSH"),
        (AttackKind::ClflushFree, "CLFLUSH-free"),
    ];
    let rows = grid(kinds, [true, false], |(kind, _), heavy| (kind, heavy));
    let cells = grid(rows, 1..=trials, |(kind, heavy), seed| {
        (kind, AnvilConfig::baseline(), heavy, run_ms, seed)
    });
    let runs = detections(args.threads, &cells);
    let mut runs = runs.chunks(trials as usize);
    for (_, kind_label) in kinds {
        for heavy in [true, false] {
            let mut detect_sum = 0.0;
            let mut detected = 0u64;
            let mut refresh_sum = 0.0;
            let mut flips = 0u64;
            for s in runs.next().expect("one chunk per row") {
                if let Some(d) = s.detect_ms {
                    detect_sum += d;
                    detected += 1;
                }
                refresh_sum += s.refreshes_per_window;
                flips += s.flips;
            }
            let load = if heavy { "Heavy Load" } else { "Light Load" };
            let avg_detect = if detected > 0 {
                format!("{:.1} ms", detect_sum / detected as f64)
            } else {
                "not detected".to_string()
            };
            table.row(&[
                format!("{kind_label} ({load})"),
                avg_detect.clone(),
                format!("{:.2}", refresh_sum / trials as f64),
                flips.to_string(),
            ]);
            records.push(json!({
                "attack": kind_label,
                "heavy_load": heavy,
                "avg_detect_ms": if detected > 0 { Some(detect_sum / detected as f64) } else { None },
                "refreshes_per_64ms": refresh_sum / trials as f64,
                "flips": flips,
                "trials": trials,
            }));
        }
    }

    let mut text = table.render();
    text.push_str(
        "Paper: 12.8/12.3 ms (CLFLUSH heavy/light), 35.3/22.85 ms (CLFLUSH-free),\n\
         refresh rates 12.35/10.3/4.53/5.10 per 64 ms, zero flips everywhere.\n",
    );
    Report::rows("table3", text, &records)
}

/// **Table 4** — Rate of false-positive refreshes.
///
/// Paper values (refreshes/second under ANVIL-baseline): astar 0.10,
/// bzip2 1.05, gcc 0.71, gobmk 0.19, h264ref 0.00, hmmer 0.00,
/// libquantum 0.06, mcf 0.01, omnetpp 0.02, perlbench 0.00, sjeng 0.00,
/// xalancbmk 0.05. False positives are innocuous — each costs only a few
/// extra DRAM reads.
pub fn table4(args: &CampaignArgs) -> Report {
    let run_ms = args.scale().ms(2_000.0).max(400.0);

    let paper: &[(&str, f64)] = &[
        ("astar", 0.10),
        ("bzip2", 1.05),
        ("gcc", 0.71),
        ("gobmk", 0.19),
        ("h264ref", 0.00),
        ("hmmer", 0.00),
        ("libquantum", 0.06),
        ("mcf", 0.01),
        ("omnetpp", 0.02),
        ("perlbench", 0.00),
        ("sjeng", 0.00),
        ("xalancbmk", 0.05),
    ];

    let mut table = Table::new(
        "Table 4: Rate of False Positive Refreshes (ANVIL-baseline)",
        &[
            "Benchmark",
            "Refreshes/sec (measured)",
            "Refreshes/sec (paper)",
        ],
    );
    let mut records = Vec::new();
    let cells = SpecBenchmark::all().map(|bench| (bench, AnvilConfig::baseline(), run_ms, 17));
    let runs = run_keyed(args.threads, &cells, solo);
    for (bench, run) in SpecBenchmark::all().into_iter().zip(runs) {
        let rate = run.refreshes_per_s;
        let paper_rate = paper
            .iter()
            .find(|(n, _)| *n == bench.name())
            .map_or(f64::NAN, |(_, r)| *r);
        table.row(&[
            bench.name().to_string(),
            format!("{rate:.2}"),
            format!("{paper_rate:.2}"),
        ]);
        records.push(json!({
            "benchmark": bench.name(),
            "measured_refreshes_per_sec": rate,
            "paper_refreshes_per_sec": paper_rate,
            "simulated_ms": run_ms,
        }));
        eprintln!("  [{}] {:.2}/s", bench.name(), rate);
    }

    let mut text = table.render();
    text.push_str("All rates should be ~1/s or below; bzip2 and gcc the highest (paper).\n");
    Report::rows("table4", text, &records)
}

/// **Table 5** — False-positive refresh rates for ANVIL-light and
/// ANVIL-heavy.
///
/// Paper values (refreshes/second):
///
/// | Benchmark  | ANVIL-light | ANVIL-heavy |
/// |------------|-------------|-------------|
/// | bzip2      | 1.61        | 1.09        |
/// | gcc        | 7.12        | 1.88        |
/// | gobmk      | 0.28        | 0.84        |
/// | libquantum | 0.13        | 0.08        |
/// | perlbench  | 0.06        | 0.00        |
///
/// Light's longer sampling at a lower threshold raises its FP rate; heavy's
/// short window lowers the chance of spurious address locality.
pub fn table5(args: &CampaignArgs) -> Report {
    let run_ms = args.scale().ms(2_000.0).max(400.0);

    let paper: &[(&str, f64, f64)] = &[
        ("bzip2", 1.61, 1.09),
        ("gcc", 7.12, 1.88),
        ("gobmk", 0.28, 0.84),
        ("libquantum", 0.13, 0.08),
        ("perlbench", 0.06, 0.00),
    ];

    let mut table = Table::new(
        "Table 5: False Positive Refreshes for ANVIL-light / ANVIL-heavy (per second)",
        &[
            "Benchmark",
            "light (measured)",
            "heavy (measured)",
            "light (paper)",
            "heavy (paper)",
        ],
    );
    let mut records = Vec::new();
    let benches = SpecBenchmark::figure4_subset();
    let configs = [AnvilConfig::light(), AnvilConfig::heavy()];
    let cells = grid(benches, configs, |bench, anvil| (bench, anvil, run_ms, 29));
    let runs = run_keyed(args.threads, &cells, solo);
    for (bench, pair) in benches.into_iter().zip(runs.chunks(2)) {
        let (light, heavy) = (pair[0].refreshes_per_s, pair[1].refreshes_per_s);
        let (_, pl, ph) = paper
            .iter()
            .find(|(n, _, _)| *n == bench.name())
            .expect("every Figure 4 benchmark has paper values");
        table.row(&[
            bench.name().to_string(),
            format!("{light:.2}"),
            format!("{heavy:.2}"),
            format!("{pl:.2}"),
            format!("{ph:.2}"),
        ]);
        records.push(json!({
            "benchmark": bench.name(),
            "light": light,
            "heavy": heavy,
            "paper_light": pl,
            "paper_heavy": ph,
        }));
        eprintln!(
            "  [{}] light {:.2}/s, heavy {:.2}/s",
            bench.name(),
            light,
            heavy
        );
    }

    let mut text = table.render();
    text.push_str("Paper: both configurations stay innocuous (a handful of extra reads/sec).\n");
    Report::rows("table5", text, &records)
}

/// **Figure 3** — ANVIL's impact on non-malicious programs.
///
/// Normalized execution time of the SPEC2006-int models under (a)
/// ANVIL-baseline and (b) the vendors' doubled DRAM refresh rate, both
/// relative to an unprotected 64 ms-refresh system. Paper: ANVIL averages
/// ~1.01 with a 1.032 peak; double refresh is comparable on average but
/// hits memory-intensive programs (mcf) hardest.
pub fn figure3(args: &CampaignArgs) -> Report {
    // Enough simulated time to span many detector windows for every model.
    let target_ms = args.scale().ms(250.0).max(80.0);

    let mut table = Table::new(
        "Figure 3: Normalized Execution Time (1.00 = unprotected, 64 ms refresh)",
        &["Benchmark", "ANVIL", "Double Refresh"],
    );
    let mut records = Vec::new();
    let mut anvil_sum = 0.0;
    let mut anvil_peak: f64 = 0.0;
    let mut dbl_sum = 0.0;

    let configs = [
        PlatformConfig::with_anvil(AnvilConfig::baseline()),
        double_refresh_platform(),
    ];
    let cells = grid(SpecBenchmark::all(), configs, |b, config| {
        (b, config, target_ms, 5)
    });
    let times = normalized_times(args.threads, &cells);
    for (bench, pair) in SpecBenchmark::all().into_iter().zip(times.chunks(2)) {
        let (anvil, dbl) = (pair[0], pair[1]);
        anvil_sum += anvil;
        anvil_peak = anvil_peak.max(anvil);
        dbl_sum += dbl;
        table.row(&[
            bench.name().to_string(),
            format!("{anvil:.4}"),
            format!("{dbl:.4}"),
        ]);
        records.push(json!({
            "benchmark": bench.name(),
            "anvil": anvil,
            "double_refresh": dbl,
            "target_ms": target_ms,
        }));
        eprintln!(
            "  [{}] anvil {:.4}, double-refresh {:.4}",
            bench.name(),
            anvil,
            dbl
        );
    }

    let n = SpecBenchmark::all().len() as f64;
    table.row(&[
        "AVERAGE".to_string(),
        format!("{:.4}", anvil_sum / n),
        format!("{:.4}", dbl_sum / n),
    ]);
    let mut text = table.render();
    text.push_str(
        "Paper: ANVIL average 1.0117, peak 1.0318; double refresh similar on average\n\
         but worst for memory-intensive benchmarks (mcf).\n",
    );
    Report::new(
        text,
        json!({
            "experiment": "figure3",
            "rows": records,
            "anvil_average": anvil_sum / n,
            "anvil_peak": anvil_peak,
            "double_refresh_average": dbl_sum / n,
        }),
    )
}

/// **Figure 4** — Sensitivity of execution overheads to potential future
/// attacks.
///
/// The paper's Section 4.5 scenario: future DRAM flips with 110K accesses.
/// `ANVIL-heavy` (tc = ts = 2 ms) catches attacks twice as fast as today's;
/// `ANVIL-light` (threshold 10K) catches attacks spread across a whole
/// refresh window. Both cost a little more than the baseline, heavy more
/// than light, on bzip2 / gcc / gobmk / libquantum / perlbench.
pub fn figure4(args: &CampaignArgs) -> Report {
    let target_ms = args.scale().ms(250.0).max(80.0);

    let configs: [(&str, AnvilConfig); 3] = [
        ("ANVIL-baseline", AnvilConfig::baseline()),
        ("ANVIL-light", AnvilConfig::light()),
        ("ANVIL-heavy", AnvilConfig::heavy()),
    ];

    let mut table = Table::new(
        "Figure 4: Normalized Execution Time under future-attack configurations",
        &["Benchmark", "ANVIL-baseline", "ANVIL-light", "ANVIL-heavy"],
    );
    let mut records = Vec::new();

    let benches = SpecBenchmark::figure4_subset();
    let cells = grid(benches, configs, |bench, (_, anvil)| {
        (bench, PlatformConfig::with_anvil(anvil), target_ms, 23)
    });
    let times = normalized_times(args.threads, &cells);
    for (bench, times) in benches.into_iter().zip(times.chunks(configs.len())) {
        let mut row = vec![bench.name().to_string()];
        let mut entry = json!({ "benchmark": bench.name() });
        for (&(label, _), &t) in configs.iter().zip(times) {
            row.push(format!("{t:.4}"));
            entry[label] = json!(t);
            eprintln!("  [{} / {label}] {t:.4}", bench.name());
        }
        table.row(&row);
        records.push(entry);
    }

    let mut text = table.render();
    text.push_str(
        "Paper: overheads grow only slightly for the nimbler configurations, with the\n\
         2 ms sampling period (ANVIL-heavy) having the larger impact.\n",
    );
    Report::new(
        text,
        json!({ "experiment": "figure4", "rows": records, "target_ms": target_ms }),
    )
}

/// Whether `config` is designed to catch this attack. ANVIL-heavy shrinks
/// its windows for *fast* future attacks but keeps the 20K threshold, so a
/// slow CLFLUSH-free hammer (~19K misses / 2 ms) can legitimately stay
/// below its stage-1 trigger — the paper's Section 4.5 frames heavy and
/// light as complements to the baseline, not replacements.
fn in_scope(config: &str, kind: AttackKind) -> bool {
    !(config == "heavy" && matches!(kind, AttackKind::ClflushFree))
}

/// One detection-matrix cell.
struct MatrixCell {
    /// The detection run's result.
    summary: DetectionSummary,
    /// ANVIL configuration label (`baseline` / `light` / `heavy`).
    config: &'static str,
    /// Whether this configuration is expected to catch this attack.
    in_scope: bool,
}

/// **Section 4.2** — Zero false negatives across the attack matrix.
///
/// Runs every attack under every ANVIL configuration, with and without
/// background load, and verifies: detected, zero bit flips. This is the
/// paper's claim that ANVIL "successfully thwarts all of the known
/// rowhammer attacks on commodity systems", including the adaptive
/// attacker scenarios of Section 4.5 (faster flips, spread-out accesses)
/// that the light/heavy configurations target. The cells are independent
/// detection runs, so `--threads N` fans them across cores without
/// changing the record; a panicked cell counts as a miss. The committed
/// record documents an expected miss (EXPERIMENTS.md §4.2/4.5), so this
/// campaign reports a warning rather than failing its gate.
pub fn detection_matrix(args: &CampaignArgs) -> Report {
    let run_ms = args.scale().ms(200.0).max(100.0);
    let configs: [(&'static str, AnvilConfig); 3] = [
        ("baseline", AnvilConfig::baseline()),
        ("light", AnvilConfig::light()),
        ("heavy", AnvilConfig::heavy()),
    ];
    let pairs = run_keyed(args.threads, &AttackKind::all(), |&k| attack_pair(k));
    let mut jobs: Vec<Box<dyn FnOnce() -> MatrixCell + Send>> = Vec::new();
    for (kind, pair) in AttackKind::all().into_iter().zip(pairs) {
        for (label, anvil) in configs {
            for heavy in [false, true] {
                jobs.push(Box::new(move || MatrixCell {
                    summary: detect(&(kind, pair, anvil, heavy, run_ms, 3)),
                    config: label,
                    in_scope: in_scope(label, kind),
                }));
            }
        }
    }
    let (cells, panics) = split_cells(run_cells_checked(args.threads, jobs));

    let mut table = Table::new(
        "Section 4.2/4.5: Detection matrix (attack x config x load)",
        &["Attack", "Config", "Load", "Detected at", "Flips"],
    );
    let mut misses = panics.len();
    let mut rows = Vec::with_capacity(cells.len());
    for c in &cells {
        let s = &c.summary;
        let load = if s.heavy_load { "heavy" } else { "light" };
        eprintln!(
            "  [{} / {} / {load}] {:?}, flips {}",
            s.attack, c.config, s.detect_ms, s.flips
        );
        if c.in_scope && (s.detect_ms.is_none() || s.flips > 0) {
            misses += 1;
        }
        let detected = s.detect_ms.map_or(
            if c.in_scope {
                "NOT DETECTED"
            } else {
                "below heavy's threshold (by design)"
            }
            .into(),
            |d| format!("{d:.1} ms"),
        );
        table.row(&[
            s.attack.clone(),
            c.config.to_string(),
            load.to_string(),
            detected,
            s.flips.to_string(),
        ]);
        rows.push(json!({
            "attack": s.attack,
            "config": c.config,
            "heavy_load": s.heavy_load,
            "detect_ms": s.detect_ms,
            "flips": s.flips,
        }));
    }

    let mut text = table.render();
    text.push_str(if misses == 0 {
        "ZERO FALSE NEGATIVES, ZERO FLIPS in every in-scope cell — matches Section 4.2.\n\
             (ANVIL-heavy intentionally trades the slow-attack corner for 3x faster\n\
             response; deploy it alongside, not instead of, the baseline — Section 4.5.)"
    } else {
        "WARNING: some in-scope attacks were missed or flipped bits."
    });
    text.push('\n');
    let record = json!({
        "experiment": "detection_matrix",
        "rows": rows,
        "misses": misses,
        "cell_panics": panics,
    });
    Report::new(text, record)
}
