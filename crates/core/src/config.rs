//! ANVIL detector configuration (the paper's Table 2 plus the Section 4.5
//! variants).

use crate::error::ConfigError;
use anvil_dram::{CpuClock, Cycle};
use anvil_pmu::SamplerConfig;
use serde::{Deserialize, Serialize};

/// The DDR3 refresh interval (ms) the guarantee-envelope check in
/// [`AnvilConfig::validate`] assumes; the full auditor
/// ([`crate::GuaranteeEnvelope`]) takes the actual period instead.
pub const PAPER_REFRESH_MS: f64 = 64.0;

/// CPU-time costs charged for the detector's own work (the source of the
/// slowdowns in Figures 3 and 4). On real hardware these are PMI handler
/// executions, PEBS microcode assists, PMU reprogramming (WRMSRs), and the
/// kernel-side sample analysis; here they are explicit cycle charges
/// against the core that triggers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorCosts {
    /// Cost of a performance-monitoring interrupt (timer or counter
    /// overflow), including the handler.
    pub pmi: Cycle,
    /// Cost of one PEBS sample (microcode assist + debug-store handling).
    pub sample: Cycle,
    /// Cost of arming/disarming stage-2 sampling (PMU reprogramming).
    pub stage2_arm: Cycle,
    /// Cost of the end-of-window sample analysis (sort + locality scan).
    pub analysis: Cycle,
    /// Cost of one selective-refresh read (flush + uncached read).
    pub refresh_read: Cycle,
    /// Cost of blanket-refreshing one bank in degraded mode (a sweep of
    /// uncached reads across the bank's hot region).
    pub bank_refresh: Cycle,
}

impl Default for DetectorCosts {
    fn default() -> Self {
        DetectorCosts {
            pmi: 4_000,
            sample: 9_000,
            stage2_arm: 30_000,
            analysis: 20_000,
            refresh_read: 2_000,
            bank_refresh: 100_000,
        }
    }
}

/// Degraded-protection policy: what the detector does when a stage-2
/// window's evidence is too damaged to trust.
///
/// A stage-2 window only exists because stage 1 saw hammer-capable miss
/// traffic. If most of that window's samples were then lost (debug-store
/// overflow, failed translations) or the analysis ran far past its
/// deadline, a clean "no aggressors found" verdict is meaningless — the
/// attack may simply have been invisible. Rather than silently skip the
/// window, the detector falls back to conservatively refreshing whole
/// banks: the banks the surviving samples point at, or every bank when
/// nothing survived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradedMode {
    /// Whether the fallback is armed at all.
    pub enabled: bool,
    /// Minimum fraction of a stage-2 window's samples that must survive
    /// (buffered and translated) for its analysis to be trusted.
    pub min_sample_survival: f64,
    /// Maximum service-deadline slip, as a fraction of the stage-2
    /// window `ts`, before the window is considered compromised.
    pub max_deadline_slip_frac: f64,
}

impl Default for DegradedMode {
    fn default() -> Self {
        DegradedMode {
            enabled: true,
            min_sample_survival: 0.5,
            max_deadline_slip_frac: 0.25,
        }
    }
}

/// Adaptive-adversary hardening knobs (all off in the paper's shipped
/// configuration; [`AnvilConfig::hardened`] turns them on).
///
/// Three independent counter-measures, each closing one evasion channel:
///
/// * **Stage-1 carry** (`stage1_carry`): stage 1 trips on an EWMA of the
///   per-window miss count rather than the raw count, so an attacker who
///   duty-cycles bursts across window boundaries (each window seeing just
///   under the threshold) accumulates evidence instead of resetting it.
/// * **Window-phase jitter** (`phase_jitter`, `phase_seed`): every
///   stage-1 window length is drawn from `tc × [1 − j, 1 + j]` (with the
///   threshold scaled in proportion), so bursts synchronized to the
///   published window schedule straddle boundaries the attacker cannot
///   predict.
/// * **Suspicion ledger + sample weighting** (`ledger_*`, `hit_weight`,
///   `row_miss_latency`): per-row activation evidence decays across
///   stage-2 windows instead of vanishing with each one, and samples
///   whose measured latency betrays a row-buffer *hit* (camouflage
///   filler) are down-weighted against genuine activation evidence.
/// * **Sticky sampling** (`max_resample_windows`): a stage-2 window
///   whose miss traffic collapsed far below the stage-1 trigger that
///   armed it — a burst that went quiet exactly when sampling began —
///   re-arms sampling instead of conceding, so a duty-cycled attacker's
///   next burst lands inside a sampled window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardeningConfig {
    /// Master switch; `false` reproduces the paper's detector exactly.
    pub enabled: bool,
    /// Seed for the per-window phase jitter (campaigns thread their
    /// campaign seed through here for reproducibility).
    pub phase_seed: u64,
    /// Half-width of the window-length jitter as a fraction of `tc`
    /// (0.25 → lengths in `[0.75, 1.25] × tc`). Zero disables jitter.
    pub phase_jitter: f64,
    /// EWMA carry factor for stage-1 miss evidence: the next window's
    /// trip test uses `carry × previous + current`. Zero reproduces the
    /// memoryless paper behaviour.
    pub stage1_carry: f64,
    /// Per-stage-2-window decay of ledger scores (score ← decay × score
    /// before adding this window's evidence); entries with no fresh
    /// evidence shrink toward zero and are pruned.
    pub ledger_decay: f64,
    /// A ledger row is flagged when its accumulated score reaches
    /// `min_hammer_accesses × rate_safety × ledger_factor`.
    pub ledger_factor: f64,
    /// Minimum distinct stage-2 windows contributing evidence before the
    /// ledger may flag a row (a single noisy window never convicts).
    pub ledger_min_windows: u32,
    /// Weight (0–1) given to a sampled load whose latency indicates a
    /// row-buffer hit; activation-evidencing (row-miss) samples weigh 1.
    pub hit_weight: f64,
    /// Latency (cycles) at or above which a sampled access is treated as
    /// a row-buffer miss, i.e. real activation evidence.
    pub row_miss_latency: Cycle,
    /// Sticky sampling: when a stage-2 window ends with no finding and
    /// its miss traffic collapsed to less than half the stage-1 trip
    /// rate — the burst that armed sampling vanished before it could be
    /// attributed — re-arm sampling immediately instead of returning to
    /// counting, up to this many consecutive windows. A duty-cycled
    /// burst must return to sustain its flip rate, and a re-armed window
    /// eventually contains it. Zero disables the re-arm.
    pub max_resample_windows: u32,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        HardeningConfig {
            enabled: false,
            phase_seed: 0x000A_11CE,
            phase_jitter: 0.25,
            stage1_carry: 0.5,
            ledger_decay: 0.5,
            ledger_factor: 1.5,
            ledger_min_windows: 2,
            hit_weight: 0.2,
            row_miss_latency: 130,
            max_resample_windows: 4,
        }
    }
}

/// Full ANVIL configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnvilConfig {
    /// Stage-1 LLC-miss threshold per miss-count window
    /// (`LLC_MISS_THRESHOLD`, Table 2: 20K).
    pub llc_miss_threshold: u64,
    /// Miss-count (stage-1) window duration `tc` in ms (Table 2: 6 ms).
    pub tc_ms: f64,
    /// Sampling (stage-2) window duration `ts` in ms (Table 2: 6 ms).
    pub ts_ms: f64,
    /// PEBS sampling configuration (5000 samples/s in the paper).
    pub sampling: SamplerConfig,
    /// Minimum activations per refresh window the detector assumes can
    /// flip bits (set from the observed attack minimum: 220K double-sided
    /// accesses means 110K activations of each aggressor).
    pub min_hammer_accesses: u64,
    /// Safety factor applied to the hammer rate when judging a row
    /// suspicious (detect attackers running below the proven minimum).
    pub rate_safety: f64,
    /// Never flag a row with fewer than this many samples, regardless of
    /// the rate estimate (noise floor).
    pub row_sample_floor: u32,
    /// Required number of *other-row* samples in the same bank (the
    /// bank-locality check of Section 3.1; rowhammering needs at least two
    /// rows in one bank).
    pub bank_support_min: u32,
    /// Rows on each side of an aggressor to refresh (the paper refreshes
    /// the directly adjacent rows; "our approach easily extends to N").
    pub victim_radius: u32,
    /// If LLC-miss loads exceed this fraction of misses, sample loads only.
    pub load_fraction_hi: f64,
    /// If LLC-miss loads fall below this fraction, sample stores only.
    pub load_fraction_lo: f64,
    /// Detector self-cost model.
    pub costs: DetectorCosts,
    /// Degraded-protection fallback policy.
    pub degraded: DegradedMode,
    /// Adaptive-adversary hardening (disabled in the paper's baseline).
    #[serde(default)]
    pub hardening: HardeningConfig,
}

impl AnvilConfig {
    /// The paper's deployed configuration (Table 2): 20K misses / 6 ms /
    /// 6 ms.
    pub fn baseline() -> Self {
        AnvilConfig {
            llc_miss_threshold: 20_000,
            tc_ms: 6.0,
            ts_ms: 6.0,
            sampling: SamplerConfig::anvil_default(),
            min_hammer_accesses: 110_000,
            rate_safety: 0.3,
            row_sample_floor: 3,
            bank_support_min: 2,
            victim_radius: 1,
            load_fraction_hi: 0.9,
            load_fraction_lo: 0.1,
            costs: DetectorCosts::default(),
            degraded: DegradedMode::default(),
            hardening: HardeningConfig::default(),
        }
    }

    /// `ANVIL-heavy` (Section 4.5): tc = ts = 2 ms for attacks that flip
    /// bits with 110K accesses in 7.5 ms. The miss threshold scales with
    /// the window (20K per 6 ms → 6,666 per 2 ms) so the *rate* stage 1
    /// arms at is unchanged; keeping the absolute 20K count over a 2 ms
    /// window would let a paced attacker land 640K undetected activations
    /// per refresh interval (see [`AnvilConfig::validate`]).
    pub fn heavy() -> Self {
        let mut c = Self::baseline();
        c.tc_ms = 2.0;
        c.ts_ms = 2.0;
        c.llc_miss_threshold = 6_666;
        c
    }

    /// The baseline configuration with every adaptive-adversary
    /// counter-measure enabled: stage-1 EWMA carry, randomized window
    /// phase, and the cross-window suspicion ledger with row-buffer-miss
    /// sample weighting.
    pub fn hardened() -> Self {
        let mut c = Self::baseline();
        c.hardening.enabled = true;
        c
    }

    /// `ANVIL-light` (Section 4.5): the miss threshold halved to 10K for
    /// attacks that spread 110K accesses over a whole refresh period.
    pub fn light() -> Self {
        let mut c = Self::baseline();
        c.llc_miss_threshold = 10_000;
        c.min_hammer_accesses = 55_000;
        c
    }

    /// Stage-1 window in cycles.
    pub fn tc_cycles(&self, clock: &CpuClock) -> Cycle {
        clock.ms_to_cycles(self.tc_ms)
    }

    /// Stage-2 window in cycles.
    pub fn ts_cycles(&self, clock: &CpuClock) -> Cycle {
        clock.ms_to_cycles(self.ts_ms)
    }

    /// Worst-case activations an adversary can land on one aggressor
    /// pair per refresh interval while *never* arming stage 2: pace at
    /// one miss under the effective stage-1 trip point, every window, for
    /// all `PAPER_REFRESH_MS / tc_ms` windows of a refresh interval. With
    /// hardening enabled the EWMA carry lowers the sustainable per-window
    /// rate to `(1 − carry) × threshold`.
    pub fn sustained_stage1_budget(&self) -> u64 {
        let per_window = (self.llc_miss_threshold.saturating_sub(1)) as f64;
        let per_window = if self.hardening.enabled {
            per_window * (1.0 - self.hardening.stage1_carry)
        } else {
            per_window
        };
        let windows = PAPER_REFRESH_MS / self.tc_ms;
        (per_window * windows) as u64
    }

    /// Checks internal consistency, including the guarantee envelope: a
    /// configuration is rejected when the activation budget of an
    /// attacker pacing itself under the stage-1 threshold
    /// ([`Self::sustained_stage1_budget`]) reaches the double-sided flip
    /// threshold (`2 × min_hammer_accesses`) — such a config cannot keep
    /// its no-flip promise against a threshold-probing adversary.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint, as a
    /// [`ConfigError::Invalid`] for structural problems or
    /// [`ConfigError::GuaranteeEnvelope`] for the budget check.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.tc_ms.is_finite() || !self.ts_ms.is_finite() {
            return Err("window durations must be finite".into());
        }
        if self.tc_ms <= 0.0 || self.ts_ms <= 0.0 {
            return Err("window durations must be positive".into());
        }
        if self.ts_ms > self.tc_ms {
            return Err("stage-2 window ts must not exceed the stage-1 window tc".into());
        }
        if self.llc_miss_threshold == 0 {
            return Err("miss threshold must be non-zero".into());
        }
        if !self.rate_safety.is_finite()
            || !self.load_fraction_lo.is_finite()
            || !self.load_fraction_hi.is_finite()
        {
            return Err("fractional parameters must be finite".into());
        }
        if self.min_hammer_accesses == 0 {
            return Err("min_hammer_accesses must be non-zero".into());
        }
        if !(0.0..=1.0).contains(&self.rate_safety) {
            return Err("rate_safety must be in [0, 1]".into());
        }
        if self.victim_radius == 0 {
            return Err("victim radius must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.load_fraction_lo)
            || !(0.0..=1.0).contains(&self.load_fraction_hi)
            || self.load_fraction_lo > self.load_fraction_hi
        {
            return Err("load fractions must satisfy 0 <= lo <= hi <= 1".into());
        }
        if !(0.0..=1.0).contains(&self.degraded.min_sample_survival) {
            return Err("degraded.min_sample_survival must be in [0, 1]".into());
        }
        if !self.degraded.max_deadline_slip_frac.is_finite()
            || self.degraded.max_deadline_slip_frac < 0.0
        {
            return Err("degraded.max_deadline_slip_frac must be finite and non-negative".into());
        }
        let h = &self.hardening;
        if !h.stage1_carry.is_finite() || !(0.0..1.0).contains(&h.stage1_carry) {
            return Err("hardening.stage1_carry must be in [0, 1)".into());
        }
        if !h.phase_jitter.is_finite() || !(0.0..=0.9).contains(&h.phase_jitter) {
            return Err("hardening.phase_jitter must be in [0, 0.9]".into());
        }
        if !h.ledger_decay.is_finite() || !(0.0..1.0).contains(&h.ledger_decay) {
            return Err("hardening.ledger_decay must be in [0, 1)".into());
        }
        if !h.ledger_factor.is_finite() || h.ledger_factor <= 0.0 {
            return Err("hardening.ledger_factor must be positive".into());
        }
        if h.ledger_min_windows == 0 {
            return Err("hardening.ledger_min_windows must be at least 1".into());
        }
        if !h.hit_weight.is_finite() || !(0.0..=1.0).contains(&h.hit_weight) {
            return Err("hardening.hit_weight must be in [0, 1]".into());
        }
        let budget = self.sustained_stage1_budget();
        let flip_threshold = 2 * self.min_hammer_accesses;
        if budget >= flip_threshold {
            return Err(ConfigError::GuaranteeEnvelope {
                budget,
                flip_threshold,
            });
        }
        Ok(())
    }
}

impl Default for AnvilConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = AnvilConfig::baseline();
        assert_eq!(c.llc_miss_threshold, 20_000);
        assert!((c.tc_ms - 6.0).abs() < f64::EPSILON);
        assert!((c.ts_ms - 6.0).abs() < f64::EPSILON);
        c.validate().unwrap();
    }

    #[test]
    fn heavy_shrinks_windows() {
        let c = AnvilConfig::heavy();
        assert!((c.tc_ms - 2.0).abs() < f64::EPSILON);
        // The threshold scales with the window so the arming *rate* is
        // baseline's (20K per 6 ms); the absolute 20K over 2 ms would
        // break the guarantee envelope (640K undetectable activations).
        assert_eq!(c.llc_miss_threshold, 6_666);
        c.validate().unwrap();
    }

    #[test]
    fn hardened_enables_countermeasures_and_validates() {
        let c = AnvilConfig::hardened();
        assert!(c.hardening.enabled);
        assert!(!AnvilConfig::baseline().hardening.enabled);
        // Everything else matches the shipped baseline.
        assert_eq!(c.llc_miss_threshold, 20_000);
        assert!((c.tc_ms - 6.0).abs() < f64::EPSILON);
        c.validate().unwrap();
    }

    #[test]
    fn envelope_gate_rejects_leaky_configs() {
        // The old ANVIL-heavy shape: 20K misses allowed per 2 ms window
        // is 640K paced activations per refresh interval — far past the
        // 220K double-sided flip threshold.
        let mut c = AnvilConfig::baseline();
        c.tc_ms = 2.0;
        c.ts_ms = 2.0;
        c.llc_miss_threshold = 20_000;
        match c.validate() {
            Err(crate::error::ConfigError::GuaranteeEnvelope {
                budget,
                flip_threshold,
            }) => {
                assert_eq!(flip_threshold, 220_000);
                assert!(budget >= 600_000, "budget {budget}");
            }
            other => panic!("expected GuaranteeEnvelope, got {other:?}"),
        }
        // A too-permissive threshold on the baseline windows fails too.
        let mut c = AnvilConfig::baseline();
        c.llc_miss_threshold = 40_000;
        assert!(matches!(
            c.validate(),
            Err(crate::error::ConfigError::GuaranteeEnvelope { .. })
        ));
    }

    #[test]
    fn every_preset_keeps_an_envelope_margin() {
        for c in [
            AnvilConfig::baseline(),
            AnvilConfig::light(),
            AnvilConfig::heavy(),
            AnvilConfig::hardened(),
        ] {
            let budget = c.sustained_stage1_budget();
            assert!(
                budget < 2 * c.min_hammer_accesses,
                "budget {budget} vs flip threshold {}",
                2 * c.min_hammer_accesses
            );
            c.validate().unwrap();
        }
        // Hardening's EWMA carry halves the sustainable budget.
        assert!(
            AnvilConfig::hardened().sustained_stage1_budget()
                <= AnvilConfig::baseline().sustained_stage1_budget() / 2 + 1
        );
    }

    #[test]
    fn validation_rejects_bad_hardening() {
        for mutate in [
            (|c: &mut AnvilConfig| c.hardening.stage1_carry = 1.0) as fn(&mut AnvilConfig),
            |c| c.hardening.stage1_carry = f64::NAN,
            |c| c.hardening.phase_jitter = 0.95,
            |c| c.hardening.ledger_decay = -0.1,
            |c| c.hardening.ledger_factor = 0.0,
            |c| c.hardening.ledger_min_windows = 0,
            |c| c.hardening.hit_weight = 1.5,
        ] {
            let mut c = AnvilConfig::baseline();
            mutate(&mut c);
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn light_halves_threshold() {
        let c = AnvilConfig::light();
        assert_eq!(c.llc_miss_threshold, 10_000);
        assert!((c.tc_ms - 6.0).abs() < f64::EPSILON);
        c.validate().unwrap();
    }

    #[test]
    fn windows_in_cycles() {
        let clock = CpuClock::SANDY_BRIDGE_2_6GHZ;
        assert_eq!(AnvilConfig::baseline().tc_cycles(&clock), 15_600_000);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = AnvilConfig::baseline();
        c.tc_ms = 0.0;
        assert!(c.validate().is_err());
        let mut c2 = AnvilConfig::baseline();
        c2.victim_radius = 0;
        assert!(c2.validate().is_err());
        let mut c3 = AnvilConfig::baseline();
        c3.load_fraction_lo = 0.95;
        assert!(c3.validate().is_err());
    }

    #[test]
    fn validation_rejects_degenerate_windows() {
        for (tc, ts) in [(0.0, 6.0), (-1.0, 6.0), (6.0, 0.0), (6.0, -2.5)] {
            let mut c = AnvilConfig::baseline();
            c.tc_ms = tc;
            c.ts_ms = ts;
            assert!(c.validate().is_err(), "tc={tc} ts={ts} should be rejected");
        }
    }

    #[test]
    fn validation_rejects_non_finite_windows() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = AnvilConfig::baseline();
            c.tc_ms = bad;
            assert!(c.validate().is_err(), "tc={bad} should be rejected");
            let mut c = AnvilConfig::baseline();
            c.ts_ms = bad;
            assert!(c.validate().is_err(), "ts={bad} should be rejected");
            let mut c = AnvilConfig::baseline();
            c.rate_safety = bad;
            assert!(
                c.validate().is_err(),
                "rate_safety={bad} should be rejected"
            );
        }
    }

    #[test]
    fn validation_rejects_sampling_window_longer_than_counting_window() {
        let mut c = AnvilConfig::baseline();
        c.ts_ms = c.tc_ms * 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_degraded_mode() {
        let mut c = AnvilConfig::baseline();
        c.degraded.min_sample_survival = 1.5;
        assert!(c.validate().is_err());
        let mut c = AnvilConfig::baseline();
        c.degraded.min_sample_survival = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = AnvilConfig::baseline();
        c.degraded.max_deadline_slip_frac = -0.1;
        assert!(c.validate().is_err());
        let mut c = AnvilConfig::baseline();
        c.degraded.max_deadline_slip_frac = 4.0; // lenient but legal
        c.validate().unwrap();
    }

    #[test]
    fn degraded_mode_defaults_are_armed() {
        let d = AnvilConfig::baseline().degraded;
        assert!(d.enabled);
        assert!((d.min_sample_survival - 0.5).abs() < f64::EPSILON);
        assert!((d.max_deadline_slip_frac - 0.25).abs() < f64::EPSILON);
    }

    #[test]
    fn validation_rejects_zero_thresholds() {
        let mut c = AnvilConfig::baseline();
        c.llc_miss_threshold = 0;
        assert!(c.validate().is_err());
        let mut c = AnvilConfig::baseline();
        c.min_hammer_accesses = 0;
        assert!(c.validate().is_err());
    }
}
