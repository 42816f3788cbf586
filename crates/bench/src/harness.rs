//! Shared experiment procedures used by the table/figure campaigns.

use anvil_attacks::{
    hammer_until_flip, Attack, ClflushFreeDoubleSided, DoubleSidedClflush, SingleSidedClflush,
    StandaloneHarness,
};
use anvil_core::{AnvilConfig, Platform, PlatformConfig};
use anvil_mem::{AllocationPolicy, MemoryConfig};
use anvil_runtime::Engine;
use anvil_workloads::SpecBenchmark;
use serde::Serialize;

/// Time scaling for the experiment campaigns: `--quick` on the command
/// line trades precision for speed (see [`CampaignArgs::scale`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    factor: f64,
}

impl Scale {
    /// A fixed scale.
    pub fn fixed(factor: f64) -> Self {
        Scale { factor }
    }

    /// Scales a duration in ms.
    pub fn ms(&self, base: f64) -> f64 {
        base * self.factor
    }

    /// Scales an operation count.
    pub fn ops(&self, base: u64) -> u64 {
        ((base as f64) * self.factor) as u64
    }
}

/// The command-line arguments shared by every campaign of the
/// `anvil-bench` entry point, parsed once instead of each campaign
/// re-scanning `std::env::args()` ad hoc.
///
/// Recognized flags: `--quick`, `--smoke`, `--windows N`, `--seed N`,
/// `--machines N`, `--domains N`, `--threads N`,
/// `--engine per-op|event`. Any other argument is an
/// [`UnknownArgument`] error, so a typo such as `--thread 2` fails
/// loudly instead of silently running at the default. Malformed or
/// out-of-range values of a known flag warn on stderr, naming the bad
/// value, and fall back to the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignArgs {
    /// `--quick`: trade precision for speed (see [`Scale`]).
    pub quick: bool,
    /// `--smoke`: the reduced CI subset of the campaign.
    pub smoke: bool,
    /// `--windows N`: detector-window count override (`None`: campaign
    /// default).
    pub windows: Option<u64>,
    /// `--seed N`: campaign seed override (`None`: campaign default).
    pub seed: Option<u64>,
    /// `--machines N`: fleet machine count override, `1..=4096`
    /// (`None`: campaign default). Only the `fleet` campaign reads it.
    pub machines: Option<u64>,
    /// `--domains N`: per-machine protection-domain count override,
    /// `1..=64` (`None`: campaign default). Only the `fleet` campaign
    /// reads it.
    pub domains: Option<u64>,
    /// `--threads N`: worker threads for [`run_cells_checked`]. Defaults to the
    /// machine's available parallelism — campaign output is byte-for-byte
    /// independent of this value, so there is no reproducibility reason to
    /// pin it.
    pub threads: usize,
    /// `--engine per-op|event`: which simulation core drives
    /// window-granular campaigns (default: `event`). Campaign output is
    /// byte-for-byte independent of the engine — the flag exists so the
    /// records gate can prove it by regenerating under both — and is
    /// therefore never serialized into result records.
    pub engine: Engine,
}

/// A command-line argument that is not one of [`CampaignArgs`]' flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownArgument(pub String);

impl std::fmt::Display for UnknownArgument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown argument `{}`", self.0)
    }
}

impl std::error::Error for UnknownArgument {}

/// Parses a flag's integer value within `lo..=hi`. A malformed or
/// out-of-range value warns on stderr, naming it, and yields `None` so
/// the default applies; a fat-fingered `--machines 48000` must not
/// silently launch a campaign three orders of magnitude too large.
fn bounded(flag: &str, raw: &str, lo: u64, hi: u64) -> Option<u64> {
    let n = raw.parse().ok().filter(|n| (lo..=hi).contains(n));
    if n.is_none() {
        let range = if hi == u64::MAX {
            format!("at least {lo}")
        } else {
            format!("in {lo}..={hi}")
        };
        eprintln!(
            "warning: ignoring `{flag} {raw}`: expected an integer {range}, using the default"
        );
    }
    n
}

impl CampaignArgs {
    /// Parses an argument list (the process arguments after the campaign
    /// name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, UnknownArgument> {
        let mut parsed = CampaignArgs {
            quick: false,
            smoke: false,
            windows: None,
            seed: None,
            machines: None,
            domains: None,
            threads: default_threads(),
            engine: Engine::default(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().unwrap_or_default();
            match flag.as_str() {
                "--quick" => parsed.quick = true,
                "--smoke" => parsed.smoke = true,
                "--windows" => parsed.windows = bounded(&flag, &value(), 1, u64::MAX),
                "--seed" => parsed.seed = bounded(&flag, &value(), 0, u64::MAX),
                "--machines" => parsed.machines = bounded(&flag, &value(), 1, 4_096),
                "--domains" => parsed.domains = bounded(&flag, &value(), 1, 64),
                "--threads" => {
                    parsed.threads = bounded(&flag, &value(), 1, u64::MAX)
                        .map_or_else(default_threads, |n| n as usize);
                }
                "--engine" => {
                    let raw = value();
                    parsed.engine = Engine::parse(&raw).unwrap_or_else(|| {
                        eprintln!(
                            "warning: ignoring `--engine {raw}`: expected `per-op` or \
                             `event`, using the default (event)"
                        );
                        Engine::default()
                    });
                }
                _ => return Err(UnknownArgument(flag)),
            }
        }
        Ok(parsed)
    }

    /// The campaign seed: the `--seed` override or `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The time scale implied by `--quick`.
    pub fn scale(&self) -> Scale {
        Scale::fixed(if self.quick { 0.35 } else { 1.0 })
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A campaign cell that panicked instead of returning a result.
///
/// [`run_cells_checked`] converts each cell's panic into one of these so
/// a single bad cell (a fuzzer-generated scenario tripping an internal
/// assertion, say) surfaces as data in the collected results instead of
/// aborting the whole campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CellPanic {
    /// Submission-order index of the cell that panicked.
    pub index: usize,
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case: `panic!`, `assert!`, `expect`).
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for CellPanic {}

/// Renders a panic payload: its message when it is a string (the
/// overwhelmingly common case: `panic!`, `assert!`, `expect`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs independent campaign cells on up to `threads` worker threads and
/// returns their results **in cell order** — the output is byte-for-byte
/// identical to running the cells serially, regardless of thread count or
/// scheduling. A panicking cell yields `Err(CellPanic)` in its slot;
/// every other cell still runs and returns normally.
///
/// Determinism contract: each cell must be a pure function of its
/// captured inputs (every campaign cell builds its own `Platform` from
/// the campaign seed and shares no mutable state), so the only
/// thread-sensitive effect is *when* a cell runs, never *what* it
/// computes. Cells are handed out from an atomic counter in index order
/// and each result lands in its own slot.
///
/// Uses `std::thread::scope` — no thread-pool dependency, nothing
/// outlives the call.
pub fn run_cells_checked<T, F>(threads: usize, cells: Vec<F>) -> Vec<Result<T, CellPanic>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    type Slot<T> = std::sync::Mutex<Option<Result<T, CellPanic>>>;
    // AssertUnwindSafe: a cell owns everything it touches (the
    // determinism contract above), so a unwind cannot leave shared state
    // half-mutated for other cells to observe.
    let guarded = |i: usize, f: F| {
        catch_unwind(AssertUnwindSafe(f)).map_err(|payload| CellPanic {
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let n = cells.len();
    if threads.max(1) == 1 || n <= 1 {
        return cells
            .into_iter()
            .enumerate()
            .map(|(i, f)| guarded(i, f))
            .collect();
    }
    let workers = threads.min(n);
    let jobs: Vec<std::sync::Mutex<Option<F>>> = cells
        .into_iter()
        .map(|f| std::sync::Mutex::new(Some(f)))
        .collect();
    let slots: Vec<Slot<T>> = (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("each job is taken exactly once");
                let result = guarded(i, job);
                *slots[i].lock().expect("slot mutex poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot mutex poisoned")
                .expect("every job ran to completion")
        })
        .collect()
}

/// Splits [`run_cells_checked`] results into the completed cells and the
/// panicked ones, preserving submission order in both halves, and warns
/// on stderr once per panicked cell. Every campaign folds its cells
/// through this so a single diverging cell surfaces as typed data in the
/// record instead of aborting the whole matrix.
pub(crate) fn split_cells<T>(results: Vec<Result<T, CellPanic>>) -> (Vec<T>, Vec<CellPanic>) {
    let mut cells = Vec::with_capacity(results.len());
    let mut panics = Vec::new();
    for r in results {
        match r {
            Ok(v) => cells.push(v),
            Err(p) => {
                eprintln!("  warning: {p}");
                panics.push(p);
            }
        }
    }
    (cells, panics)
}

/// The three attacks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AttackKind {
    /// Single-sided with CLFLUSH.
    SingleSided,
    /// Double-sided with CLFLUSH.
    DoubleSided,
    /// Double-sided without CLFLUSH (the paper's new attack).
    ClflushFree,
}

impl AttackKind {
    /// All three, in Table 1 order.
    pub fn all() -> [AttackKind; 3] {
        [
            AttackKind::SingleSided,
            AttackKind::DoubleSided,
            AttackKind::ClflushFree,
        ]
    }

    /// Display name matching Table 1's rows.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::SingleSided => "Single-Sided with CLFLUSH",
            AttackKind::DoubleSided => "Double-Sided with CLFLUSH",
            AttackKind::ClflushFree => "Double-Sided without CLFLUSH",
        }
    }

    /// Builds the attack hammering the `pair`-th discovered aggressor
    /// candidate.
    pub fn build(&self, pair: usize) -> Box<dyn Attack> {
        match self {
            AttackKind::SingleSided => Box::new(SingleSidedClflush::new().with_pair_index(pair)),
            AttackKind::DoubleSided => Box::new(DoubleSidedClflush::new().with_pair_index(pair)),
            AttackKind::ClflushFree => {
                Box::new(ClflushFreeDoubleSided::new().with_pair_index(pair))
            }
        }
    }
}

/// Finds a pair index whose victim row contains a minimum-threshold cell,
/// the way a real attacker profiles a module before the headline run
/// (Seaborn's rowhammer-test does exactly this scan). Returns `None` if no
/// candidate among `max` is vulnerable.
pub fn vulnerable_pair_index(kind: AttackKind, memory: MemoryConfig, max: usize) -> Option<usize> {
    for i in 0..max {
        let mut probe = Platform::new(PlatformConfig {
            memory,
            ..PlatformConfig::unprotected()
        });
        let Ok(pid) = probe.add_attack(kind.build(i)) else {
            return None;
        };
        let (_, victims) = probe.attack_truth(pid);
        let dram = probe.sys().dram();
        if victims
            .iter()
            .any(|&v| dram.is_vulnerable_row(dram.mapping().location_of(v).row_id()))
        {
            return Some(i);
        }
    }
    None
}

/// The module minimum for `kind` on `config`: hammers each of the first
/// `candidates` aggressor pairs for up to `budget` aggressor accesses and
/// returns the fewest accesses to a first flip, with that flip's time in
/// ms (`None`: no candidate flipped).
pub(crate) fn fastest_flip(
    kind: AttackKind,
    config: &MemoryConfig,
    candidates: usize,
    budget: u64,
) -> Option<(u64, f64)> {
    let mut best: Option<(u64, f64)> = None;
    for pair in 0..candidates {
        let mut harness = StandaloneHarness::new(*config, AllocationPolicy::Contiguous);
        let mut attack = kind.build(pair);
        if harness.prepare(attack.as_mut()).is_err() {
            continue;
        }
        let r = hammer_until_flip(attack.as_mut(), &mut harness, budget);
        if r.flipped && best.is_none_or(|(a, _)| r.aggressor_accesses < a) {
            let ms = r.time_to_first_flip_ms(&config.clock).expect("flipped");
            best = Some((r.aggressor_accesses, ms));
        }
    }
    best
}

/// Result of one detection experiment (a Table 3 cell).
#[derive(Debug, Clone, Serialize)]
pub struct DetectionSummary {
    /// Attack label.
    pub attack: String,
    /// Whether background load was running.
    pub heavy_load: bool,
    /// Time to the first detection, ms (None: never detected).
    pub detect_ms: Option<f64>,
    /// Average selective refreshes per 64 ms window.
    pub refreshes_per_window: f64,
    /// Bit flips observed (must be 0 under ANVIL).
    pub flips: u64,
}

/// Runs one attack under ANVIL for `ms`, with or without the paper's
/// memory-intensive background trio, and summarizes the detection.
pub fn detection_run(
    kind: AttackKind,
    anvil: AnvilConfig,
    heavy_load: bool,
    ms: f64,
    seed: u64,
) -> DetectionSummary {
    let mut p = Platform::new(PlatformConfig::with_anvil(anvil));
    if heavy_load {
        for b in SpecBenchmark::memory_intensive() {
            p.add_workload(b.build(seed)).expect("arena fits");
        }
    }
    let pair = vulnerable_pair_index(kind, MemoryConfig::paper_platform(), 24).unwrap_or(0);
    p.add_attack(kind.build(pair))
        .expect("attack prepares on open platform");
    p.run_ms(ms).expect("run completes");
    DetectionSummary {
        attack: kind.label().to_string(),
        heavy_load,
        detect_ms: p.first_detection_ms(),
        refreshes_per_window: p.refreshes_per_window(),
        flips: p.total_flips(),
    }
}

/// Normalized execution time of `bench` under `config`, relative to the
/// unprotected platform, over `ops` operations (a Figure 3/4 bar).
pub fn normalized_time(bench: SpecBenchmark, config: PlatformConfig, ops: u64, seed: u64) -> f64 {
    let run = |cfg: PlatformConfig| {
        let mut p = Platform::new(cfg);
        let pid = p.add_workload(bench.build(seed)).expect("arena fits");
        p.run_core_ops(pid, ops).expect("run completes");
        p.core_stats(pid).expect("just added").cycles as f64
    };
    let base = run(PlatformConfig {
        anvil: None,
        memory: MemoryConfig::paper_platform(),
        ..config
    });
    run(config) / base
}

/// Like [`normalized_time`], but sizes the run so the *baseline* executes
/// for about `target_ms` of simulated time regardless of the benchmark's
/// per-op cost — fast-op benchmarks otherwise finish before the detector
/// has run enough windows to show its overhead.
pub fn normalized_time_target(
    bench: SpecBenchmark,
    config: PlatformConfig,
    target_ms: f64,
    seed: u64,
) -> f64 {
    // Calibrate ops/ms on a short unprotected run.
    let mut probe = Platform::new(PlatformConfig::unprotected());
    let pid = probe.add_workload(bench.build(seed)).expect("arena fits");
    probe.run_core_ops(pid, 50_000).expect("run completes");
    let per_op = probe.core_stats(pid).expect("just added").cycles as f64 / 50_000.0;
    let clock = probe.config().memory.clock;
    let ops = ((clock.ms_to_cycles(target_ms) as f64) / per_op) as u64;
    normalized_time(bench, config, ops.max(50_000), seed)
}

/// False-positive refresh rate (refreshes/second) of `bench` running alone
/// under ANVIL for `ms` (a Table 4/5 cell).
pub fn false_positive_rate(bench: SpecBenchmark, anvil: AnvilConfig, ms: f64, seed: u64) -> f64 {
    let mut p = Platform::new(PlatformConfig::with_anvil(anvil));
    p.add_workload(bench.build(seed)).expect("arena fits");
    p.run_ms(ms).expect("run completes");
    p.refreshes_per_second()
}

/// The paper's double-refresh comparison platform.
pub fn double_refresh_platform() -> PlatformConfig {
    let mut c = PlatformConfig::unprotected();
    c.memory.dram = c.memory.dram.with_doubled_refresh();
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // 0.5 × 100 is exact
    fn scale_parsing_and_math() {
        let s = Scale::fixed(0.5);
        assert_eq!(s.ms(100.0), 50.0);
        assert_eq!(s.ops(1000), 500);
    }

    #[test]
    fn attack_kinds_cover_table1() {
        assert_eq!(AttackKind::all().len(), 3);
        assert!(AttackKind::ClflushFree.label().contains("without"));
    }

    #[test]
    fn vulnerable_pair_search_finds_one() {
        let idx =
            vulnerable_pair_index(AttackKind::DoubleSided, MemoryConfig::paper_platform(), 24);
        assert!(
            idx.is_some(),
            "1-in-4 rows vulnerable: 24 candidates suffice"
        );
    }

    #[test]
    fn checked_cells_capture_panics_without_aborting_neighbors() {
        // Silence the default hook's backtrace spam for the expected
        // panics; restore it afterwards so other tests report normally.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for threads in [1usize, 4] {
            let cells: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..6u64)
                .map(|i| {
                    Box::new(move || {
                        assert!(i % 3 != 1, "cell {i} trips its assertion");
                        i * 10
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect();
            let results = run_cells_checked(threads, cells);
            assert_eq!(results.len(), 6);
            for (i, r) in results.iter().enumerate() {
                if i % 3 == 1 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert!(p.message.contains("trips its assertion"), "{p}");
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u64 * 10);
                }
            }
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn double_refresh_halves_the_period() {
        let base = PlatformConfig::unprotected();
        let dbl = double_refresh_platform();
        assert_eq!(
            dbl.memory.dram.timing.refresh_period * 2,
            base.memory.dram.timing.refresh_period
        );
    }
}
