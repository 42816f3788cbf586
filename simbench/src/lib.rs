//! The repository benchmark: four seeded simulator workloads, an
//! untraced pass for end-to-end metrics, and a traced pass that times
//! the benchmark's own calls into each crate's public functions for
//! per-layer attribution. See `README.md` beside this crate.
//!
//! A *cell* is one fixed unit of a workload's work, derived from the
//! seed alone. A pass repeats the cell until its time budget is spent,
//! so every repeat must produce the same simulated summary. End-to-end
//! host times come from the fastest repeat: the repeats do identical
//! work, and interference from a shared host only ever adds time. Cell
//! and set-up times are then scaled to a reference host speed by the
//! fastest run of a fixed probe ([`PROBE_REF_S`]), which removes about
//! half of the slowdowns that outlast a whole run.

#![allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]

mod fleet;
pub mod hist;
mod platform;
mod soak;

use std::collections::BTreeMap;
use std::time::Instant;

use anvil_bench::run_cells_checked;
use anvil_core::{fnv1a64, DetectorCheckpoint};

use hist::{fastest, Timer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `soak::run_with_engine(SoakConfig::benign(..), Engine::Event)`:
    /// nearly every window takes the epoch-skipping fast path.
    SoakBenign,
    /// The same loop with the paced adversary on: ~43 % of windows trip
    /// and take the per-op path.
    SoakAdversary,
    /// `anvil_fleet::run_machine` over `FleetConfig::standard` machines:
    /// every domain window goes through `Supervisor::service`.
    Fleet,
    /// Table 3's CLFLUSH-free heavy-load cell on the cycle-accurate
    /// `Platform`: the only workload driving cache, DRAM and memory.
    PlatformAttack,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SoakBenign,
        Workload::SoakAdversary,
        Workload::Fleet,
        Workload::PlatformAttack,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoakBenign => "soak-benign",
            Workload::SoakAdversary => "soak-adversary",
            Workload::Fleet => "fleet",
            Workload::PlatformAttack => "platform-attack",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The campaign's own seed: the `soak` and `fleet` binaries'
    /// defaults, and the third Table 3 trial (whose detection lands at
    /// the first stage-2 window, 12.0 ms).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::SoakBenign | Workload::SoakAdversary => 0x50AC,
            Workload::Fleet => 0xF1EE7,
            Workload::PlatformAttack => 3,
        }
    }

    /// A seed kept out of tuning, to confirm a claim made on the default.
    pub fn held_out_seed(self) -> u64 {
        match self {
            Workload::SoakBenign | Workload::SoakAdversary => 0xB0B5,
            Workload::Fleet => 0xF1EE8,
            Workload::PlatformAttack => 7,
        }
    }

    /// Host seconds of one set-up: everything built before the first
    /// window.
    fn setup_s(self, seed: u64, scale: &Scale) -> f64 {
        match self {
            Workload::SoakBenign => soak::setup_s(&soak::config(false, scale.benign_windows, seed)),
            Workload::SoakAdversary => {
                soak::setup_s(&soak::config(true, scale.adversary_windows, seed))
            }
            Workload::Fleet => fleet::setup_s(&fleet::config(scale, seed)),
            Workload::PlatformAttack => platform::setup_s(seed),
        }
    }

    /// Runs one cell, traced when `trace` is given.
    fn cell(self, seed: u64, scale: &Scale, trace: Option<&mut Trace>) -> Cell {
        let soak = |adversary, windows, trace: Option<&mut Trace>| {
            let cfg = soak::config(adversary, windows, seed);
            match trace {
                Some(t) => soak::run_traced(&cfg, t),
                None => soak::run(&cfg),
            }
        };
        match self {
            Workload::SoakBenign => soak(false, scale.benign_windows, trace),
            Workload::SoakAdversary => soak(true, scale.adversary_windows, trace),
            Workload::Fleet => fleet::run(&fleet::config(scale, seed), trace),
            Workload::PlatformAttack => platform::run(seed, scale.platform_ms, trace),
        }
    }
}

/// How much work one cell holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Windows per `soak-benign` cell.
    pub benign_windows: u64,
    /// Windows per `soak-adversary` cell.
    pub adversary_windows: u64,
    /// Machines per `fleet` cell.
    pub fleet_machines: u64,
    /// Windows per fleet machine.
    pub fleet_windows: u64,
    /// Simulated ms per `platform-attack` cell.
    pub platform_ms: f64,
}

impl Scale {
    /// The measured scale; its digests are pinned.
    pub const STANDARD: Scale = Scale {
        benign_windows: 1_000_000,
        adversary_windows: 50_000,
        fleet_machines: 4,
        fleet_windows: 1_000,
        platform_ms: 60.0,
    };

    /// A few ms per workload, for the self-test.
    pub const TINY: Scale = Scale {
        benign_windows: 5_000,
        adversary_windows: 1_000,
        fleet_machines: 1,
        fleet_windows: 60,
        platform_ms: 18.0,
    };
}

/// The digest of each workload's cell summary at [`Scale::STANDARD`],
/// for its default and held-out seeds.
const PINNED: [(Workload, u64, u64); 8] = [
    (Workload::SoakBenign, 0x50AC, 0xf681_f076_1d46_7b15),
    (Workload::SoakBenign, 0xB0B5, 0xd991_5c6e_cb71_e71e),
    (Workload::SoakAdversary, 0x50AC, 0x08fb_56ce_8c7d_0da7),
    (Workload::SoakAdversary, 0xB0B5, 0x66f1_741e_4dd7_efa2),
    (Workload::Fleet, 0xF1EE7, 0xe0e1_0cf7_8dde_7f14),
    (Workload::Fleet, 0xF1EE8, 0x2fe9_4594_6a44_ce77),
    (Workload::PlatformAttack, 3, 0xba49_0075_39af_90ee),
    (Workload::PlatformAttack, 7, 0x1b0d_3561_2922_b599),
];

fn pinned_digest(workload: Workload, seed: u64, scale: &Scale) -> Option<u64> {
    if *scale != Scale::STANDARD {
        return None;
    }
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|(_, _, d)| *d)
}

/// One cell's simulated result and host time.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The serialized simulated summary the digest covers.
    pub summary: String,
    /// Whether the campaign's own gate held.
    pub gate: bool,
    /// Host seconds of the cell's work after set-up, unscaled.
    pub wall_s: f64,
    /// Detector windows (domain-windows for fleet).
    pub windows: u64,
    /// Simulated milliseconds.
    pub sim_ms: f64,
    /// Machines simulated (fleet).
    pub machines: u64,
    /// Retired core ops (platform).
    pub ops: u64,
    /// Bit flips charged (undeclared flips for fleet).
    pub flips: u64,
    /// Simulated ms to the first detection (platform).
    pub detect_ms: Option<f64>,
}

impl Cell {
    /// FNV-1a digest of the serialized summary.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.summary.as_bytes())
    }
}

/// Labels of [`Trace::service`], by supervised outcome.
pub const SERVICE_OUTCOMES: [&str; 5] = ["quiet", "armed", "analyzed", "degraded", "restarted"];

/// What the traced pass records: one timer per public function the
/// benchmark calls, plus the counters each crate exposes.
#[derive(Debug, Default)]
pub struct Trace {
    /// `Supervisor::service_quiet`.
    pub quiet: Timer,
    /// `service_quiet` calls that took the fast path.
    pub quiet_hits: u64,
    /// `Supervisor::service`, by outcome ([`SERVICE_OUTCOMES`]).
    pub service: [Timer; 5],
    /// `Supervisor::request_reload`.
    pub reload: Timer,
    /// `Pmu::observe_at`, timed per 120-op batch.
    pub observe_at: Timer,
    /// `Pmu::observe_epoch`.
    pub observe_epoch: Timer,
    /// `Platform::run_until` slices that completed no stage-2 window.
    pub slice_counting: Timer,
    /// `Platform::run_until` slices that completed a stage-2 window.
    pub slice_sampling: Timer,
    /// `anvil_fleet::run_machine`.
    pub machine: Timer,
    /// Per-cell counters read from the crates' public stats.
    pub counts: Vec<(&'static str, f64)>,
    /// The soak detector's final checkpoint.
    pub checkpoint: Option<DetectorCheckpoint>,
}

impl Trace {
    fn timers(&self) -> impl Iterator<Item = &Timer> {
        [
            &self.quiet,
            &self.reload,
            &self.observe_at,
            &self.observe_epoch,
            &self.slice_counting,
            &self.slice_sampling,
            &self.machine,
        ]
        .into_iter()
        .chain(&self.service)
    }

    /// Host ns inside timed calls.
    pub fn attributed_ns(&self) -> u128 {
        self.timers().map(|t| t.total_ns).sum()
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Host seconds to measure for (split evenly between the untraced and
    /// traced passes when tracing).
    pub seconds: f64,
    /// Whether to run the traced pass.
    pub trace: bool,
    /// Cell size.
    pub scale: Scale,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics reported on every workload, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("windows_per_s", "1/s"),
    ("sim_ms_per_s", "ms/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end outcomes that apply to some workloads only, or are
/// exact simulated results rather than host measurements, with units.
pub const OUTCOMES: [(&str, &str); 5] = [
    ("machines_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("detect_ms", "ms"),
    ("flips", "count"),
    ("cells_failed_frac", "ratio"),
];

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// Seed run.
    pub seed: u64,
    /// Cells attempted, untraced and traced.
    pub attempted: u64,
    /// Cells that failed any output check.
    pub failed: u64,
    /// Why each failed cell failed.
    pub failures: Vec<String>,
    /// Digest of the first untraced cell's summary.
    pub digest: u64,
    /// Untraced cells measured.
    pub untraced_cells: usize,
    /// Traced cells measured (0 without tracing).
    pub traced_cells: usize,
    /// Unscaled host seconds of each passing untraced cell, in run order.
    pub cell_walls: Vec<f64>,
    /// The fastest host probe of the untraced pass, in seconds.
    pub probe_s: f64,
    /// [`END_TO_END`], from the untraced pass; host times scaled by
    /// [`PROBE_REF_S`] ÷ [`Report::probe_s`].
    pub end_to_end: Vec<Metric>,
    /// [`OUTCOMES`], from the untraced pass (0 where one does not apply).
    pub outcomes: Vec<Metric>,
    /// Per-layer metrics from the traced pass (empty without tracing).
    pub per_layer: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Looks a metric up by name across every list.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.outcomes)
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs `one` until `budget_s` host seconds are spent, never starting a
/// cell the last one's duration says would overrun (always at least one).
fn repeat<T>(budget_s: f64, mut one: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(one());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > budget_s {
            return out;
        }
    }
}

/// Host seconds of a fixed loop that uses none of the simulator's code:
/// xorshift draws steering read-modify-writes through an 8 KiB table
/// that stays in L1. It tracks how fast the shared host's core is running.
pub fn probe_s() -> f64 {
    let start = Instant::now();
    let mut table = [0u64; 1 << 10];
    let (mut x, mut idx) = (0x9E37_79B9_7F4A_7C15u64, 0usize);
    for i in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx = (idx + (x as usize & 0xfff) * 8 + table[idx] as usize % 64) & (table.len() - 1);
        table[idx] = table[idx].wrapping_add(if x & 1 == 0 { i } else { x >> 3 });
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

const PROBE_STEPS: u64 = 2_000_000;

/// The fastest probe on the reference host, a 2-vCPU Xeon VM, that cell
/// and set-up times are scaled to.
pub const PROBE_REF_S: f64 = 0.0075;

/// Set-ups timed before each untraced cell, so that set-up is sampled
/// across the whole run.
const SETUPS_PER_CELL: usize = 3;

/// Runs one cell through `run_cells_checked`, so a panic becomes a typed
/// `CellPanic` instead of aborting the run.
fn checked(opts: &Options, trace: Option<&mut Trace>) -> Result<Cell, String> {
    let (w, seed, scale) = (opts.workload, opts.seed, opts.scale);
    run_cells_checked(1, vec![move || w.cell(seed, &scale, trace)])
        .pop()
        .expect("one cell in, one result out")
        .map_err(|p| p.message)
}

/// Resets this process's peak resident set to its current size, so that
/// [`peak_rss_mb`] covers only what runs after it. Where the kernel does
/// not allow it, the peak covers the whole process so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds this thread has waited on a run queue.
fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Mean ns per call of `f` over `calls` calls.
pub(crate) fn mean_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Checks every cell and returns the failure messages, one per failed
/// cell: a panic, a failed campaign gate, a digest other than the pinned
/// one (or, unpinned, the first cell's), or a traced summary other than
/// the untraced one.
fn check(
    opts: &Options,
    untraced: &[Result<Cell, String>],
    traced: &[Result<Cell, String>],
) -> Vec<String> {
    let reference = untraced.iter().find_map(|c| c.as_ref().ok());
    let pinned = pinned_digest(opts.workload, opts.seed, &opts.scale);
    let expected = pinned.or(reference.map(Cell::digest));
    let mut failures = Vec::new();
    let cells = untraced
        .iter()
        .map(|c| ("untraced", c))
        .chain(traced.iter().map(|c| ("traced", c)));
    for (i, (pass, cell)) in cells.enumerate() {
        let why = match cell {
            Err(msg) => Some(format!("panicked: {msg}")),
            Ok(c) if !c.gate => Some("campaign gate failed".to_string()),
            Ok(c) if Some(c.digest()) != expected => Some(format!(
                "digest {:016x} differs from {} {:016x}",
                c.digest(),
                if pinned.is_some() {
                    "pinned"
                } else {
                    "first cell's"
                },
                expected.unwrap_or(0)
            )),
            Ok(c) if pass == "traced" && reference.is_some_and(|r| r.summary != c.summary) => {
                Some("traced summary differs from untraced".to_string())
            }
            Ok(_) => None,
        };
        if let Some(why) = why {
            failures.push(format!("{pass} cell {i}: {why}"));
        }
    }
    failures
}

/// The fastest cell that did not panic.
fn fastest_cell(cells: &[Result<Cell, String>]) -> Option<&Cell> {
    cells
        .iter()
        .filter_map(|c| c.as_ref().ok())
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> Report {
    reset_peak_rss();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut setups, mut probes) = (Vec::new(), Vec::new());
    let untraced = repeat(budget, || {
        for _ in 0..SETUPS_PER_CELL {
            setups.push(opts.workload.setup_s(opts.seed, &opts.scale));
        }
        let cell = checked(opts, None);
        probes.push(probe_s());
        cell
    });
    let peak_rss_mb = peak_rss_mb();
    let probe_s = fastest(&probes);

    let mut trace = Trace::default();
    let mut traced = Vec::new();
    let (mut runq_ns, mut traced_pass_s) = (0, 0.0);
    if opts.trace {
        let (q0, t0) = (runq_wait_ns(), Instant::now());
        traced = repeat(budget, || checked(opts, Some(&mut trace)));
        traced_pass_s = t0.elapsed().as_secs_f64();
        runq_ns = runq_wait_ns().saturating_sub(q0);
    }

    let failures = check(opts, &untraced, &traced);
    let attempted = (untraced.len() + traced.len()) as u64;
    let failed = failures.len() as u64;
    let ok: Vec<&Cell> = untraced.iter().filter_map(|c| c.as_ref().ok()).collect();
    let best = fastest_cell(&untraced);
    let wall_s = best.map_or(0.0, |c| c.wall_s);
    let scale = PROBE_REF_S / probe_s;
    let rate = |work: &dyn Fn(&Cell) -> f64| best.map_or(0.0, |c| work(c) / (wall_s * scale));

    let e2e = [
        rate(&|c| c.windows as f64),
        rate(&|c| c.sim_ms),
        wall_s * scale,
        fastest(&setups) * scale,
        peak_rss_mb,
    ];
    let outcomes = [
        rate(&|c| c.machines as f64),
        rate(&|c| c.ops as f64),
        ok.first().and_then(|c| c.detect_ms).unwrap_or(0.0),
        ok.iter().map(|c| c.flips).max().unwrap_or(0) as f64,
        failed as f64 / attempted as f64,
    ];

    let per_layer = if opts.trace {
        let traced_best = fastest_cell(&traced).map_or(0.0, |c| c.wall_s);
        let layer = LayerInputs {
            trace: &trace,
            cells: traced.iter().filter(|c| c.is_ok()).count().max(1) as f64,
            traced_wall_s: traced
                .iter()
                .filter_map(|c| c.as_ref().ok())
                .map(|c| c.wall_s)
                .sum(),
            probe_ms: probe_s * 1e3,
            overhead_frac: if wall_s > 0.0 {
                (traced_best - wall_s) / wall_s
            } else {
                0.0
            },
            runq_wait_frac: runq_ns as f64 / 1e9 / traced_pass_s,
            platform: opts.workload == Workload::PlatformAttack,
        };
        layer.metrics()
    } else {
        Vec::new()
    };

    Report {
        workload: opts.workload,
        seed: opts.seed,
        attempted,
        failed,
        failures,
        digest: ok.first().map_or(0, |c| c.digest()),
        untraced_cells: untraced.len(),
        traced_cells: traced.len(),
        cell_walls: ok.iter().map(|c| c.wall_s).collect(),
        probe_s,
        end_to_end: END_TO_END
            .iter()
            .zip(e2e)
            .map(|((n, u), v)| metric(*n, u, v))
            .collect(),
        outcomes: OUTCOMES
            .iter()
            .zip(outcomes)
            .map(|((n, u), v)| metric(*n, u, v))
            .collect(),
        per_layer,
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    trace: &'a Trace,
    /// Traced cells the timers cover; counts are reported per cell.
    cells: f64,
    traced_wall_s: f64,
    probe_ms: f64,
    overhead_frac: f64,
    runq_wait_frac: f64,
    platform: bool,
}

impl LayerInputs<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let t = self.trace;
        let per_cell = |timer: &Timer| timer.calls as f64 / self.cells;
        let mut out = vec![
            metric("runtime.quiet.calls", "count", per_cell(&t.quiet)),
            metric("runtime.quiet.ns_p50", "ns", t.quiet.quantile_ns(0.5)),
            metric("runtime.quiet.ns_p99", "ns", t.quiet.quantile_ns(0.99)),
            metric(
                "runtime.quiet.hit_ratio",
                "ratio",
                t.quiet_hits as f64 / t.quiet.calls.max(1) as f64,
            ),
        ];
        for (name, timer) in SERVICE_OUTCOMES.iter().zip(&t.service) {
            out.push(metric(
                format!("runtime.service.{name}.calls"),
                "count",
                per_cell(timer),
            ));
            out.push(metric(
                format!("runtime.service.{name}.ns_p50"),
                "ns",
                timer.quantile_ns(0.5),
            ));
        }

        // Counters the crates report; 0 where the workload does not
        // exercise the layer.
        let mut counts: BTreeMap<&str, f64> = [
            "runtime.checkpoints",
            "core.detector.stage2_frac",
            "core.detector.samples_analyzed",
            "core.detector.selective_refreshes",
            "pmu.sample_keep_ratio",
            "cache.l1_hit_ratio",
            "cache.llc_hit_ratio",
            "mem.accesses",
            "mem.llc_miss_ratio",
            "mem.clflushes",
            "dram.activations",
            "dram.row_hit_ratio",
            "dram.refresh_stall_cycles",
            "fleet.services",
            "fleet.ns_per_service",
            "fleet.degraded_window_frac",
        ]
        .into_iter()
        .map(|n| (n, 0.0))
        .collect();
        counts.extend(t.counts.iter().copied());

        let (encode, decode) = t.checkpoint.as_ref().map_or((0.0, 0.0), |c| {
            let bytes = c.to_bytes();
            (
                mean_ns(2_000, || {
                    std::hint::black_box(std::hint::black_box(c).to_bytes());
                }),
                mean_ns(2_000, || {
                    std::hint::black_box(DetectorCheckpoint::from_bytes(std::hint::black_box(
                        &bytes,
                    )))
                    .expect("own checkpoint decodes");
                }),
            )
        });
        let costs = if self.platform {
            platform::layer_costs(200_000)
        } else {
            [
                "cache.access_hot_ns",
                "cache.access_streaming_ns",
                "dram.access_hammer_ns",
                "dram.access_sweep_ns",
            ]
            .into_iter()
            .map(|n| (n, 0.0))
            .collect()
        };

        let unit = |name: &str| {
            if name.ends_with("_ratio") || name.ends_with("_frac") {
                "ratio"
            } else if name.ends_with("_ns") || name.contains(".ns_") {
                "ns"
            } else if name.ends_with("_cycles") {
                "cycles"
            } else {
                "count"
            }
        };
        out.extend(counts.into_iter().map(|(n, v)| metric(n, unit(n), v)));
        out.extend([
            metric("core.checkpoint.encode_ns", "ns", encode),
            metric("core.checkpoint.decode_ns", "ns", decode),
            metric(
                "core.window.counting_ms",
                "ms",
                t.slice_counting.quantile_ns(0.5) / 1e6,
            ),
            metric(
                "core.window.sampling_ms",
                "ms",
                t.slice_sampling.quantile_ns(0.5) / 1e6,
            ),
            metric("pmu.observe_at.calls", "count", per_cell(&t.observe_at)),
            metric("pmu.observe_at.ns", "ns", t.observe_at.mean_ns()),
            metric(
                "pmu.observe_epoch.calls",
                "count",
                per_cell(&t.observe_epoch),
            ),
            metric("pmu.observe_epoch.ns", "ns", t.observe_epoch.mean_ns()),
            metric(
                "fleet.machine_ms_p50",
                "ms",
                t.machine.quantile_ns(0.5) / 1e6,
            ),
        ]);
        out.extend(costs.into_iter().map(|(n, v)| metric(n, "ns", v)));

        let attributed_s = t.attributed_ns() as f64 / 1e9;
        let wall = self.traced_wall_s;
        out.extend([
            metric("trace.wall_s", "s", wall),
            metric("trace.attributed_s", "s", attributed_s),
            metric("trace.attributed_frac", "ratio", attributed_s / wall),
            metric("trace.unattributed_s", "s", wall - attributed_s),
            metric("trace.overhead_frac", "ratio", self.overhead_frac),
            metric("host.runq_wait_frac", "ratio", self.runq_wait_frac),
            metric("host.probe_ms", "ms", self.probe_ms),
        ]);
        out
    }
}
