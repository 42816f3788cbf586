//! Versioned, checksummed detector checkpoints.
//!
//! The real ANVIL ships as a loadable kernel module, so the detector has
//! a lifecycle: it can crash, be reloaded, and be reconfigured while the
//! machine keeps running. A restart that forgets the detector's state
//! hands an adaptive adversary exactly what the hardening took away — a
//! fresh EWMA, an empty suspicion ledger, a predictable window phase. The
//! checkpoint carries all of it:
//!
//! * the stage machine (counting vs sampling, the armed PEBS filter, the
//!   next deadline, the sticky-resample depth),
//! * the hardening state (EWMA carry, jitter stream position, current
//!   window scale, the full [`SuspicionLedger`](crate::SuspicionLedger)
//!   as serializable rows),
//! * the activity counters ([`DetectorStats`]), and
//! * a hash of the [`AnvilConfig`] it was taken under, so a resume never
//!   mixes one config's thresholds with another's carried evidence.
//!
//! The wire format is a single FNV-1a-64 checksum line followed by the
//! JSON payload (`"{checksum:016x}\n{json}"`). Any byte flipped at rest —
//! including by the injected checkpoint-corruption fault — changes the
//! recomputed checksum and is rejected as a typed
//! [`RuntimeError::CheckpointCorrupt`] before decoding is attempted, which
//! is what lets the supervisor fall back to a cold start plus full refresh
//! instead of resuming from poisoned state.
//!
//! What a checkpoint deliberately does **not** carry: the PEBS debug-store
//! buffer and the PMU counter contents. Both are volatile hardware state
//! that a crash destroys on the real platform; restore re-arms sampling
//! from an empty buffer and cleared counters, and the recovery protocol's
//! blanket refresh covers whatever evidence the lost window held.

use crate::detector::DetectorStats;
use crate::error::RuntimeError;
use crate::locality::LedgerRow;
use anvil_dram::Cycle;
use anvil_pmu::SampleFilter;
use serde::{Deserialize, Serialize};

/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 1;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64-bit step per byte of `bytes`, from `hash`.
fn fnv1a64_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash (the checkpoint checksum and config fingerprint).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// Fingerprint of an [`AnvilConfig`](crate::AnvilConfig): the FNV-1a hash
/// of its canonical JSON encoding. Two configs hash equal exactly when
/// every parameter (including hardening and degraded-mode settings) is
/// equal, so a checkpoint can refuse to resume under a different config.
///
/// The encoding is hashed as it is written, never held as a string.
pub fn config_hash(config: &crate::AnvilConfig) -> u64 {
    /// Hashes what is written to it.
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a64_from(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut hash = Fnv(FNV_OFFSET);
    std::fmt::write(&mut hash, format_args!("{}", serde_json::to_value(config)))
        .expect("hashing cannot fail");
    hash.0
}

/// An [`AnvilConfig`](crate::AnvilConfig) with its [`config_hash`]
/// computed once.
///
/// The hash serializes the config, which costs more than building the
/// detector it parameterizes: about 3.2 µs against 0.11–0.14 µs on a
/// 2-vCPU Xeon VM, most of it FNV over the encoding's roughly 700 bytes
/// and formatting its floats. A caller that builds detectors from one
/// config again and again — a supervisor restoring after every crash —
/// hashes it once and passes this; a bare `AnvilConfig` converts (and is
/// hashed) on the way in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashedConfig {
    config: crate::AnvilConfig,
    hash: u64,
}

impl HashedConfig {
    /// Pairs `config` with its [`config_hash`].
    pub fn new(config: crate::AnvilConfig) -> Self {
        HashedConfig {
            hash: config_hash(&config),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &crate::AnvilConfig {
        &self.config
    }

    /// Its [`config_hash`].
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl From<crate::AnvilConfig> for HashedConfig {
    fn from(config: crate::AnvilConfig) -> Self {
        HashedConfig::new(config)
    }
}

/// A full snapshot of [`AnvilDetector`](crate::AnvilDetector) state.
///
/// Produced by [`AnvilDetector::checkpoint`](crate::AnvilDetector::checkpoint),
/// consumed by [`AnvilDetector::restore`](crate::AnvilDetector::restore).
/// A checkpoint taken immediately after a service call restores to a
/// detector that is observationally identical to one that never stopped
/// (the round-trip invariant the proptest pins down).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`] when written by this build).
    pub version: u32,
    /// [`config_hash`] of the config the checkpoint was taken under.
    pub config_hash: u64,
    /// Whether the detector was in stage 2 (sampling) when snapshotted.
    pub sampling: bool,
    /// The PEBS filter armed for the in-flight stage-2 window (meaningful
    /// only when `sampling`; restore re-arms it).
    pub armed_filter: SampleFilter,
    /// The next service deadline, in absolute cycles.
    pub deadline: Cycle,
    /// Activity counters.
    pub stats: DetectorStats,
    /// EWMA-carried stage-1 miss evidence.
    pub carry: f64,
    /// Splitmix64 state of the window-phase jitter stream.
    pub phase_state: u64,
    /// Length of the current stage-1 window as a fraction of `tc`.
    pub window_scale: f64,
    /// The PEBS sample-spacing jitter stream's position — programmed
    /// sampler state, carried so a restored run draws the same spacing
    /// sequence an uninterrupted one would.
    pub pebs_jitter: u64,
    /// The suspicion ledger, row by row.
    pub ledger: Vec<LedgerRow>,
    /// Consecutive sticky-sampling re-arms in the current stage-2 run.
    pub resamples: u32,
}

impl DetectorCheckpoint {
    /// Encodes the checkpoint as `"{checksum:016x}\n{json}"` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let json = serde_json::to_string(self).expect("checkpoint serialization is infallible");
        format!("{:016x}\n{json}", fnv1a64(json.as_bytes())).into_bytes()
    }

    /// Decodes and validates checkpoint bytes.
    ///
    /// Rejects, in order: a mangled container or checksum mismatch
    /// ([`RuntimeError::CheckpointCorrupt`]), an incompatible format
    /// version ([`RuntimeError::VersionMismatch`]), and a payload that
    /// fails to decode despite a valid checksum
    /// ([`RuntimeError::CheckpointUndecodable`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RuntimeError> {
        let corrupt = |expected: u64| RuntimeError::CheckpointCorrupt {
            expected,
            found: fnv1a64(bytes),
        };
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt(0))?;
        let (header, json) = text.split_once('\n').ok_or_else(|| corrupt(0))?;
        let expected = u64::from_str_radix(header, 16).map_err(|_| corrupt(0))?;
        let found = fnv1a64(json.as_bytes());
        if found != expected {
            return Err(RuntimeError::CheckpointCorrupt { expected, found });
        }
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|_| RuntimeError::CheckpointUndecodable)?;
        let version = value["version"]
            .as_u64()
            .ok_or(RuntimeError::CheckpointUndecodable)?;
        if version != u64::from(CHECKPOINT_VERSION) {
            return Err(RuntimeError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: u32::try_from(version).unwrap_or(u32::MAX),
            });
        }
        Deserialize::from_value(&value).ok_or(RuntimeError::CheckpointUndecodable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnvilConfig;

    fn sample_checkpoint() -> DetectorCheckpoint {
        DetectorCheckpoint {
            version: CHECKPOINT_VERSION,
            config_hash: config_hash(&AnvilConfig::hardened()),
            sampling: true,
            armed_filter: SampleFilter::LoadsOnly,
            deadline: 31_200_000,
            stats: DetectorStats {
                stage1_windows: 12,
                threshold_crossings: 3,
                ..DetectorStats::default()
            },
            carry: 1234.5,
            phase_state: 0xA11CE,
            window_scale: 1.07,
            pebs_jitter: 0x5eed_1234_abcd_ef01,
            ledger: vec![LedgerRow {
                row: anvil_dram::RowId::new(anvil_dram::BankId(3), 100),
                score: 40_000.5,
                windows: 7,
                pids: vec![9, 11].into(),
            }],
            resamples: 2,
        }
    }

    #[test]
    fn bytes_round_trip() {
        // The second checkpoint's carry and ledger score print as integral
        // floats of 1e16 and more.
        let mut huge = sample_checkpoint();
        huge.carry = 1e20;
        huge.ledger[0].score = f64::MAX;
        for ckpt in [sample_checkpoint(), huge] {
            let restored = DetectorCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap();
            assert_eq!(restored, ckpt);
        }
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let bytes = sample_checkpoint().to_bytes();
        // Flip one byte at a spread of positions (header, middle, tail).
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            let err = DetectorCheckpoint::from_bytes(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    RuntimeError::CheckpointCorrupt { .. } | RuntimeError::CheckpointUndecodable
                ),
                "byte {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_corrupt() {
        let bytes = sample_checkpoint().to_bytes();
        assert!(DetectorCheckpoint::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        assert!(DetectorCheckpoint::from_bytes(b"").is_err());
        assert!(DetectorCheckpoint::from_bytes(b"not a checkpoint").is_err());
        assert!(DetectorCheckpoint::from_bytes(&[0xFF, 0xFE, 0x0A, 0x7B]).is_err());
    }

    #[test]
    fn future_versions_are_rejected_with_a_typed_error() {
        let mut ckpt = sample_checkpoint();
        ckpt.version = CHECKPOINT_VERSION + 1;
        let err = DetectorCheckpoint::from_bytes(&ckpt.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: CHECKPOINT_VERSION + 1,
            }
        );
    }

    #[test]
    fn config_hash_is_the_hash_of_the_compact_encoding() {
        for config in [AnvilConfig::baseline(), AnvilConfig::hardened()] {
            let json = serde_json::to_string(&config).unwrap();
            assert_eq!(config_hash(&config), fnv1a64(json.as_bytes()));
        }
    }

    /// The hash's decimal digits are checkpoint bytes that the at-rest
    /// fault flips, so a writer change that moved a hash would move
    /// records. Values taken before the writer escaped by runs.
    #[test]
    fn config_hashes_are_pinned() {
        assert_eq!(config_hash(&AnvilConfig::baseline()), 0xef16_850a_1a23_9235);
        assert_eq!(config_hash(&AnvilConfig::hardened()), 0xa5b6_77ef_39dd_2e3a);
        // Domain 0 of machine 0 of the fleet seeded 0xF1EE7, as a fleet
        // domain boots it.
        let mut domain = AnvilConfig::hardened();
        domain.hardening.phase_seed = anvil_mem::domain_seed(0xF1EE7, 0, anvil_mem::DomainId(0));
        assert_eq!(config_hash(&domain), 0xca77_34b4_4f0e_a431);
    }

    #[test]
    fn config_hash_distinguishes_presets() {
        let baseline = config_hash(&AnvilConfig::baseline());
        let hardened = config_hash(&AnvilConfig::hardened());
        assert_ne!(baseline, hardened);
        assert_eq!(baseline, config_hash(&AnvilConfig::baseline()));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
    /// A checkpoint whose ledger rows carry 0, 1, 2, 3 and 5 pids: none,
    /// the one or two of every window-model row, and more than a pid
    /// set holds inline.
    fn pinned_checkpoint() -> DetectorCheckpoint {
        DetectorCheckpoint {
            config_hash: 0x0123_4567_89ab_cdef,
            ledger: [&[][..], &[7], &[9, 11], &[4, 1, 3], &[5, 0, 8, 2, 6]]
                .iter()
                .enumerate()
                .map(|(i, pids)| LedgerRow {
                    row: anvil_dram::RowId::new(
                        anvil_dram::BankId(i as u32 % 3),
                        100 + 7 * i as u32,
                    ),
                    score: 1_000.25 * (i + 1) as f64,
                    windows: 3 + i as u64,
                    pids: pids.iter().copied().collect(),
                })
                .collect(),
            ..sample_checkpoint()
        }
    }

    /// The checkpoint wire bytes, pinned: the at-rest fault corrupts and
    /// tears exactly these bytes, so every committed record that replays
    /// one depends on them. Pid sets encode as JSON arrays of any length.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let ckpt = pinned_checkpoint();
        let bytes = ckpt.to_bytes();
        let want = concat!(
            "e89759e7b3450870\n",
            r#"{"version":1,"config_hash":81985529216486895,"sampling":true,"armed_filter":"LoadsOnly","deadline":31200000,"stats":{"stage1_windows":12,"threshold_crossings":3,"stage2_windows":0,"detections":0,"selective_refreshes":0,"samples_analyzed":0,"missed_deadlines":0,"worst_deadline_slip":0,"degraded_windows":0,"bank_refreshes":0,"samples_lost":0,"samples_unresolved":0,"carry_crossings":0,"ledger_flags":0,"resample_windows":0,"state_repairs":0,"state_escalations":0},"carry":1234.5,"phase_state":659918,"window_scale":1.07,"pebs_jitter":6840143426475650817,"#,
            r#""ledger":[{"row":{"bank":[0],"row":100},"score":1000.25,"windows":3,"pids":[]},{"row":{"bank":[1],"row":107},"score":2000.5,"windows":4,"pids":[7]},{"row":{"bank":[2],"row":114},"score":3000.75,"windows":5,"pids":[9,11]},{"row":{"bank":[0],"row":121},"score":4001.0,"windows":6,"pids":[4,1,3]},{"row":{"bank":[1],"row":128},"score":5001.25,"windows":7,"pids":[5,0,8,2,6]}],"resamples":2}"#,
        );
        assert_eq!(String::from_utf8(bytes.clone()).unwrap(), want);
        assert_eq!(DetectorCheckpoint::from_bytes(&bytes).unwrap(), ckpt);
    }
}
