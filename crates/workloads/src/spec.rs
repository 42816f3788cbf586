//! The SPEC CPU2006 integer benchmark models.
//!
//! The paper evaluates ANVIL's overhead and false-positive rate on the
//! SPEC2006 integer suite (Section 4.1). The real binaries and inputs are
//! not redistributable, so each benchmark is modeled as a
//! [`CompositeWorkload`] whose phases reproduce the *memory behaviour*
//! that drives every result in the paper: last-level-cache miss rate
//! (which of ANVIL's stage-1 windows trip), DRAM row/bank locality (which
//! stage-2 analyses count as suspicious), and load/store mix (which
//! sampling facility is armed).
//!
//! Calibration targets, from the paper and the standard SPEC2006
//! characterization literature:
//!
//! * `mcf`, `libquantum`, `omnetpp`, `xalancbmk` cross the 20K-misses/6 ms
//!   threshold in 95–99% of windows (Section 4.3);
//! * `h264ref`, `gobmk`, `sjeng`, `hmmer` cross it in <10% of windows;
//! * residual false-positive rates are ≤ ~1 refresh/s, highest for
//!   `bzip2` and `gcc` (Table 4).
//!
//! Each benchmark's phase list is available without instantiating the
//! generator via [`SpecBenchmark::model`]; the static analyzer in
//! `anvil-analyze` derives per-row activation bounds from it.

use crate::composite::{CompositeWorkload, Phase};
use crate::op::Workload;
use crate::pattern::Pattern;
use serde::{Deserialize, Serialize};

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// The twelve SPEC CPU2006 integer benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SpecBenchmark {
    Astar,
    Bzip2,
    Gcc,
    Gobmk,
    H264ref,
    Hmmer,
    Libquantum,
    Mcf,
    Omnetpp,
    Perlbench,
    Sjeng,
    Xalancbmk,
}

/// The static description of one benchmark model: everything
/// [`SpecBenchmark::build`] feeds the generator, minus the seed.
///
/// This is the workload side of the analysis IR — phase lists are plain
/// data, so per-row activation bounds can be derived from them without
/// running a single simulated access.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadModel {
    /// Benchmark name as it appears in the paper's tables.
    pub name: &'static str,
    /// Bytes of memory the workload maps.
    pub arena_bytes: u64,
    /// The cyclic phase sequence.
    pub phases: Vec<Phase>,
}

impl WorkloadModel {
    /// Lower bound on the cycles one full rotation through the phase list
    /// takes, charging every operation only its compute cycles plus
    /// `min_op_cycles` (e.g. an L1 hit). Saturates instead of overflowing
    /// for the effectively-infinite single-phase models.
    pub fn rotation_cycles_floor(&self, min_op_cycles: u64) -> u64 {
        self.phases.iter().fold(0u64, |acc, p| {
            acc.saturating_add(p.ops.saturating_mul(p.compute_cycles + min_op_cycles))
        })
    }
}

impl SpecBenchmark {
    /// All twelve benchmarks, in alphabetical order (as in Table 4).
    pub fn all() -> [SpecBenchmark; 12] {
        use SpecBenchmark::{
            Astar, Bzip2, Gcc, Gobmk, H264ref, Hmmer, Libquantum, Mcf, Omnetpp, Perlbench, Sjeng,
            Xalancbmk,
        };
        [
            Astar, Bzip2, Gcc, Gobmk, H264ref, Hmmer, Libquantum, Mcf, Omnetpp, Perlbench, Sjeng,
            Xalancbmk,
        ]
    }

    /// The memory-intensive trio the paper uses as background load for the
    /// "heavy load" detection experiments (Section 4.2): mcf, libquantum
    /// and omnetpp.
    pub fn memory_intensive() -> [SpecBenchmark; 3] {
        [
            SpecBenchmark::Mcf,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Omnetpp,
        ]
    }

    /// The five-benchmark subset of Figure 4 / Table 5, chosen by the
    /// authors as representative of the suite's access characteristics.
    pub fn figure4_subset() -> [SpecBenchmark; 5] {
        [
            SpecBenchmark::Bzip2,
            SpecBenchmark::Gcc,
            SpecBenchmark::Gobmk,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Perlbench,
        ]
    }

    /// Benchmark name as it appears in the paper's tables.
    pub fn name(&self) -> &'static str {
        self.model().name
    }

    /// The static phase-level description of this benchmark.
    pub fn model(&self) -> WorkloadModel {
        match self {
            // Pointer-chasing over a huge sparse graph: misses nearly
            // every access, no row locality at all.
            SpecBenchmark::Mcf => WorkloadModel {
                name: "mcf",
                arena_bytes: 64 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::Chase,
                    region: (0, 64 * MB),
                    store_per_mille: 150,
                    compute_cycles: 2,
                }],
            },

            // Streaming sweeps over the quantum-state vector: one miss per
            // cache line, sequential rows, heavy store traffic.
            SpecBenchmark::Libquantum => WorkloadModel {
                name: "libquantum",
                arena_bytes: 32 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::Stream { step: 8 },
                    region: (0, 32 * MB),
                    store_per_mille: 350,
                    compute_cycles: 2,
                }],
            },

            // Discrete-event simulation: scattered heap traffic with a
            // modest hot event-queue region.
            SpecBenchmark::Omnetpp => WorkloadModel {
                name: "omnetpp",
                arena_bytes: 48 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::HotScan {
                        step: 64,
                        hot_bytes: 256 * KB,
                        hot_per_mille: 200,
                    },
                    region: (0, 48 * MB),
                    store_per_mille: 200,
                    compute_cycles: 3,
                }],
            },

            // XML transformation: alternating tree chases and text
            // streaming.
            SpecBenchmark::Xalancbmk => WorkloadModel {
                name: "xalancbmk",
                arena_bytes: 40 * MB,
                phases: vec![
                    Phase {
                        ops: 60_000,
                        pattern: Pattern::Chase,
                        region: (0, 24 * MB),
                        store_per_mille: 150,
                        compute_cycles: 3,
                    },
                    Phase {
                        ops: 40_000,
                        pattern: Pattern::Stream { step: 16 },
                        region: (24 * MB, 16 * MB),
                        store_per_mille: 150,
                        compute_cycles: 3,
                    },
                ],
            },

            // Path-finding: a map scan with a hot open-list.
            SpecBenchmark::Astar => WorkloadModel {
                name: "astar",
                arena_bytes: 16 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::HotScan {
                        step: 64,
                        hot_bytes: 32 * KB,
                        hot_per_mille: 60,
                    },
                    region: (0, 16 * MB),
                    store_per_mille: 100,
                    compute_cycles: 6,
                }],
            },

            // Compiler: cache-resident passes punctuated by whole-IR walks
            // and a symbol-table-heavy phase with a strongly hot region —
            // the source of gcc's comparatively high false-positive rate.
            SpecBenchmark::Gcc => WorkloadModel {
                name: "gcc",
                arena_bytes: 24 * MB,
                phases: vec![
                    Phase {
                        ops: 250_000,
                        pattern: Pattern::Loop { step: 64 },
                        region: (0, MB),
                        store_per_mille: 250,
                        compute_cycles: 3,
                    },
                    Phase {
                        // Symbol-table pass: random access over a 6 MB
                        // region (few DRAM rows, heavy misses) — gcc's
                        // false-positive source.
                        ops: 60_000,
                        pattern: Pattern::Chase,
                        region: (0, 6 * MB),
                        store_per_mille: 250,
                        compute_cycles: 3,
                    },
                    Phase {
                        ops: 40_000,
                        pattern: Pattern::Chase,
                        region: (0, 24 * MB),
                        store_per_mille: 250,
                        compute_cycles: 3,
                    },
                ],
            },

            // Block compression: streaming input plus sort phases that
            // hammer a small hot table — the suite's highest FP rate.
            SpecBenchmark::Bzip2 => WorkloadModel {
                name: "bzip2",
                arena_bytes: 8 * MB,
                phases: vec![
                    Phase {
                        ops: 150_000,
                        pattern: Pattern::Stream { step: 8 },
                        region: (0, 8 * MB),
                        store_per_mille: 300,
                        compute_cycles: 4,
                    },
                    Phase {
                        // Block-sort phase: random access over one 4 MB
                        // block — slightly bigger than the LLC, so it
                        // misses heavily over only ~512 DRAM rows. The
                        // resulting sample collisions are the source of
                        // bzip2's suite-leading false-positive rate.
                        ops: 150_000,
                        pattern: Pattern::Chase,
                        region: (0, 4 * MB),
                        store_per_mille: 300,
                        compute_cycles: 4,
                    },
                ],
            },

            // Go engine: board evaluation is cache-resident; occasional
            // pattern-library bursts miss.
            SpecBenchmark::Gobmk => WorkloadModel {
                name: "gobmk",
                arena_bytes: 8 * MB,
                phases: vec![
                    Phase {
                        ops: 300_000,
                        pattern: Pattern::Loop { step: 64 },
                        region: (0, 512 * KB),
                        store_per_mille: 150,
                        compute_cycles: 20,
                    },
                    Phase {
                        // Pattern-library burst: random walks over a 4 MB
                        // library — misses concentrate on few rows, the
                        // source of gobmk's occasional false positives.
                        ops: 80_000,
                        pattern: Pattern::Chase,
                        region: (0, 4 * MB),
                        store_per_mille: 150,
                        compute_cycles: 4,
                    },
                ],
            },

            // Video encoder: blocked, cache-resident.
            SpecBenchmark::H264ref => WorkloadModel {
                name: "h264ref",
                arena_bytes: 4 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::Loop { step: 64 },
                    region: (0, 256 * KB),
                    store_per_mille: 200,
                    compute_cycles: 30,
                }],
            },

            // Profile HMM search: small tables, compute-bound.
            SpecBenchmark::Hmmer => WorkloadModel {
                name: "hmmer",
                arena_bytes: 4 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::Loop { step: 8 },
                    region: (0, 128 * KB),
                    store_per_mille: 100,
                    compute_cycles: 25,
                }],
            },

            // Chess engine: hash table fits the LLC.
            SpecBenchmark::Sjeng => WorkloadModel {
                name: "sjeng",
                arena_bytes: 4 * MB,
                phases: vec![Phase {
                    ops: u64::MAX / 2,
                    pattern: Pattern::Loop { step: 64 },
                    region: (0, 1536 * KB),
                    store_per_mille: 150,
                    compute_cycles: 30,
                }],
            },

            // Interpreter: mostly cache-resident with rare heap walks.
            SpecBenchmark::Perlbench => WorkloadModel {
                name: "perlbench",
                arena_bytes: 8 * MB,
                phases: vec![
                    Phase {
                        ops: 800_000,
                        pattern: Pattern::Loop { step: 64 },
                        region: (0, 512 * KB),
                        store_per_mille: 250,
                        compute_cycles: 20,
                    },
                    Phase {
                        ops: 8_000,
                        pattern: Pattern::Chase,
                        region: (0, 4 * MB),
                        store_per_mille: 250,
                        compute_cycles: 5,
                    },
                ],
            },
        }
    }

    /// Instantiates the benchmark model.
    pub fn build(&self, seed: u64) -> Box<dyn Workload> {
        let seed = seed ^ (*self as u64) << 32;
        let m = self.model();
        Box::new(CompositeWorkload::new(
            m.name,
            m.arena_bytes,
            m.phases,
            seed,
        ))
    }
}

impl std::fmt::Display for SpecBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_build_and_generate() {
        for b in SpecBenchmark::all() {
            let mut w = b.build(1);
            assert_eq!(w.name(), b.name());
            for _ in 0..10_000 {
                let op = w.next_op();
                assert!(op.offset < w.arena_bytes(), "{b}: op out of arena");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SpecBenchmark::Gcc.build(9);
        let mut b = SpecBenchmark::Gcc.build(9);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SpecBenchmark::Mcf.build(1);
        let mut b = SpecBenchmark::Mcf.build(2);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 100);
    }

    #[test]
    fn memory_intensive_trio_matches_paper() {
        let names: Vec<&str> = SpecBenchmark::memory_intensive()
            .iter()
            .map(super::SpecBenchmark::name)
            .collect();
        assert_eq!(names, vec!["mcf", "libquantum", "omnetpp"]);
    }

    #[test]
    fn figure4_subset_matches_paper() {
        let names: Vec<&str> = SpecBenchmark::figure4_subset()
            .iter()
            .map(super::SpecBenchmark::name)
            .collect();
        assert_eq!(
            names,
            vec!["bzip2", "gcc", "gobmk", "libquantum", "perlbench"]
        );
    }

    #[test]
    fn compute_bound_models_have_small_regions() {
        // The <10%-of-windows benchmarks must have cache-resident primary
        // phases (under 3 MB of LLC).
        for b in [
            SpecBenchmark::H264ref,
            SpecBenchmark::Hmmer,
            SpecBenchmark::Sjeng,
        ] {
            let w = b.build(1);
            assert!(w.arena_bytes() <= 4 * MB);
        }
    }

    #[test]
    fn model_matches_built_workload() {
        for b in SpecBenchmark::all() {
            let m = b.model();
            let w = b.build(3);
            assert_eq!(m.name, w.name());
            assert_eq!(m.arena_bytes, w.arena_bytes());
            assert!(!m.phases.is_empty());
            for p in &m.phases {
                let (base, bytes) = p.region;
                assert!(base + bytes <= m.arena_bytes);
            }
        }
    }

    #[test]
    fn rotation_floor_saturates_for_endless_models() {
        let m = SpecBenchmark::Mcf.model();
        assert_eq!(m.rotation_cycles_floor(2), u64::MAX);
        let g = SpecBenchmark::Gcc.model();
        // 350K ops at >= 5 cycles each.
        assert!(g.rotation_cycles_floor(2) >= 350_000 * 5);
    }
}
