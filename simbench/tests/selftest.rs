//! Runs every workload at a tiny scale, traced, and checks the report:
//! counts repeat exactly across two runs and move under a second seed,
//! every metric is well named and has a unit, the trace reconciles with
//! its wall time, and every metric `BENCHMARK.json` lists is reported.

use simbench::{run, Options, Report, Scale, Workload};

fn tiny(workload: Workload, seed: u64) -> Report {
    let r = run(&Options {
        workload,
        seed,
        seconds: 0.1,
        trace: true,
        scale: Scale::TINY,
    });
    assert!(r.correct(), "{}: {:?}", workload.name(), r.failures);
    assert!(r.untraced_cells >= 1 && r.traced_cells >= 1);
    r
}

/// Metrics that are exact simulated counts (or ratios of them), as
/// opposed to host timings.
fn counts(r: &Report) -> Vec<(String, f64)> {
    r.per_layer
        .iter()
        .chain(&r.outcomes)
        .filter(|m| matches!(m.unit, "count" | "ratio" | "cycles") && !is_host(&m.name))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn is_host(name: &str) -> bool {
    name.starts_with("trace.")
        || name.starts_with("host.")
        || name.ends_with("_per_s")
        || name == "cells_failed_frac"
}

fn well_named(s: &str, extra: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
}

#[test]
fn every_workload_reports_repeatable_reconciled_metrics() {
    let listed: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root"),
    )
    .expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        listed[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().expect("metric field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };

    for w in Workload::ALL {
        let a = tiny(w, w.default_seed());
        let b = tiny(w, w.default_seed());
        let other = tiny(w, w.held_out_seed());

        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(counts(&a), counts(&b), "{}: counts must repeat", w.name());
        assert_ne!(a.digest, other.digest, "{}", w.name());
        assert_ne!(
            counts(&a),
            counts(&other),
            "{}: counts must move with the seed",
            w.name()
        );

        for m in a.end_to_end.iter().chain(&a.outcomes).chain(&a.per_layer) {
            assert!(well_named(&m.name, ""), "bad metric name {:?}", m.name);
            assert!(
                well_named(m.unit, "/%"),
                "bad unit {:?} for {}",
                m.unit,
                m.name
            );
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }

        let get = |n: &str| a.get(n).unwrap_or_else(|| panic!("{n} missing"));
        let wall = get("trace.wall_s");
        let sum = get("trace.attributed_s") + get("trace.unattributed_s");
        assert!(
            (sum - wall).abs() <= 1e-9 * wall.max(1.0),
            "{}: attributed + unattributed = {sum}, traced wall = {wall}",
            w.name()
        );
        assert!(a.get("trace.overhead_frac").is_some());

        let reported = |list: &[simbench::Metric], (name, unit): &(String, String)| {
            assert!(
                list.iter().any(|m| &m.name == name && m.unit == unit),
                "{}: {name} in {unit} not reported",
                w.name()
            );
        };
        for m in listed("end_to_end") {
            reported(&a.end_to_end, &m);
        }
        let layer: Vec<simbench::Metric> = a.per_layer.iter().chain(&a.outcomes).cloned().collect();
        for m in listed("per_layer") {
            reported(&layer, &m);
        }
    }
}
