//! Adapters wiring a [`FaultPlan`] into the injection hooks of the engine
//! (`sslic-core`), the color converter (`sslic-color`), and the hardware
//! model (`sslic-hw`).
//!
//! Float-typed victims (the engine's f32 center registers) are corrupted
//! through their IEEE-754 bit patterns; everything else is corrupted as
//! raw integer words. All corruption decisions route through
//! [`crate::inject::effect_at`], so the adapters inherit its determinism
//! and order-independence.

use std::cell::Cell;

use sslic_color::hw::HwColorConverter;
use sslic_color::Lab8Image;
use sslic_core::{Cluster, StepFaults};
use sslic_hw::faults::{FaultedByte, FaultedLabel, MemFaults};
use sslic_hw::scratchpad::Protection;
use sslic_obs::{LogicalClock, Recorder, Value};

use crate::inject::effect_at;
use crate::plan::{FaultPlan, FaultSite};
use crate::protect::{filter_word, MemOutcome, ProtectionStats};

/// Bit width of a gamma-LUT entry at the paper's 12 fraction bits (values
/// span `0 ..= 4096`).
const GAMMA_LUT_BITS: u32 = 13;
/// Center registers are corrupted across the full f32 bit pattern.
const CENTER_FIELD_BITS: u32 = 32;
/// Channel-memory words are one 8-bit code.
const CHANNEL_WORD_BITS: u32 = 8;
/// Index-memory words are two bytes per label.
const INDEX_WORD_BITS: u32 = 16;

/// Engine-side fault adapter: implements
/// [`sslic_core::StepFaults`] over a plan's
/// [`FaultSite::PixelFeature`] and [`FaultSite::SigmaRegister`] entries.
#[derive(Debug)]
pub struct EngineFaults<'a> {
    plan: &'a FaultPlan,
    /// Words actually corrupted so far (pixel bytes + center fields).
    /// Interior-mutable because the [`StepFaults`] hooks take `&self`
    /// (the engine shares the hook object by shared reference).
    injected_words: Cell<u64>,
    /// Current recovery attempt of the running frame, folded into the
    /// center-corruption address space so a retried attempt draws a fresh
    /// (still deterministic) decision stream instead of re-corrupting
    /// identically. Attempt 0 leaves addresses untouched, keeping
    /// recovery-free runs bit-identical to this adapter's history.
    attempt: Cell<u32>,
    recorder: Option<&'a Recorder>,
}

impl<'a> EngineFaults<'a> {
    /// Creates the adapter over `plan`.
    pub fn new(plan: &'a FaultPlan) -> Self {
        EngineFaults {
            plan,
            injected_words: Cell::new(0),
            attempt: Cell::new(0),
            recorder: None,
        }
    }

    /// Attaches an observability recorder: each injection pass that
    /// corrupts at least one word emits a `fault.inject.*` instant, and
    /// the corrupted-word total accumulates in the
    /// `fault.injected_words` metric counter.
    pub fn with_recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Words actually corrupted so far (pixel bytes + center fields).
    pub fn injected_words(&self) -> u64 {
        self.injected_words.get()
    }
}

impl StepFaults for EngineFaults<'_> {
    fn begin_attempt(&self, attempt: u32) {
        self.attempt.set(attempt);
    }

    fn corrupt_lab8(&self, lab8: &mut Lab8Image) {
        if self.plan.is_empty() {
            return;
        }
        let mut corrupted = 0u64;
        let planes = [&mut lab8.l, &mut lab8.a, &mut lab8.b];
        for (channel, plane) in planes.into_iter().enumerate() {
            for (i, byte) in plane.as_mut_slice().iter_mut().enumerate() {
                let addr = ((channel as u64) << 40) | i as u64;
                let eff = effect_at(self.plan, FaultSite::PixelFeature, addr, CHANNEL_WORD_BITS);
                if eff.is_clean() {
                    continue;
                }
                let was = *byte;
                *byte = (eff.apply(was as u64) & 0xFF) as u8;
                if *byte != was {
                    corrupted += 1;
                }
            }
        }
        self.injected_words
            .set(self.injected_words.get() + corrupted);
        if corrupted > 0 {
            if let Some(rec) = self.recorder {
                rec.instant(
                    "fault.inject.lab8",
                    LogicalClock::ZERO,
                    vec![("corrupted_words", Value::U64(corrupted))],
                );
                rec.counter_add("fault.injected_words", corrupted);
            }
        }
    }

    fn corrupt_centers(&self, step: u32, clusters: &mut [Cluster]) {
        if self.plan.is_empty() {
            return;
        }
        let mut corrupted = 0u64;
        // Attempt salt: retries address a disjoint slice of the decision
        // stream (bits 48+ are unused by the step/cluster/field encoding),
        // so a rolled-back attempt is not doomed to the identical
        // corruption. Attempt 0 contributes no salt.
        let salt = u64::from(self.attempt.get()) << 48;
        for (k, cluster) in clusters.iter_mut().enumerate() {
            let fields: [&mut f32; 5] = [
                &mut cluster.l,
                &mut cluster.a,
                &mut cluster.b,
                &mut cluster.x,
                &mut cluster.y,
            ];
            for (f, field) in fields.into_iter().enumerate() {
                let addr = salt | ((step as u64) << 40) | ((k as u64) << 3) | f as u64;
                let eff = effect_at(self.plan, FaultSite::SigmaRegister, addr, CENTER_FIELD_BITS);
                if eff.is_clean() {
                    continue;
                }
                let was = field.to_bits();
                let now = (eff.apply(was as u64) & 0xFFFF_FFFF) as u32;
                if now != was {
                    *field = f32::from_bits(now);
                    corrupted += 1;
                }
            }
        }
        self.injected_words
            .set(self.injected_words.get() + corrupted);
        if corrupted > 0 {
            if let Some(rec) = self.recorder {
                rec.instant(
                    "fault.inject.centers",
                    LogicalClock::step(step),
                    vec![("corrupted_fields", Value::U64(corrupted))],
                );
                rec.counter_add("fault.injected_words", corrupted);
            }
        }
    }
}

/// Applies a plan's [`FaultSite::ColorLut`] entries to a converter's
/// gamma LUT, returning the number of entries corrupted. The corrupted
/// converter then feeds faulty codes into every subsequent conversion —
/// pair with [`sslic_core::Segmenter::run`] over a
/// [`sslic_core::SegmentRequest::Lab8`] to push the result through the
/// engine.
pub fn corrupt_color_lut(plan: &FaultPlan, conv: &mut HwColorConverter) -> u64 {
    let mut corrupted = 0u64;
    for code in 0..=255u16 {
        let code = (code & 0xFF) as u8;
        let eff = effect_at(plan, FaultSite::ColorLut, code as u64, GAMMA_LUT_BITS);
        if eff.is_clean() {
            continue;
        }
        let entry = conv.gamma_entry(code);
        // Entries are non-negative and fit the 13-bit field by
        // construction of the paper-default table.
        let old = (entry as i64 as u64) & 0x1FFF;
        let new = eff.apply(old) & 0x1FFF;
        if new != old {
            conv.corrupt_gamma_entry(code, (old ^ new) as i32);
            corrupted += 1;
        }
    }
    corrupted
}

/// Hardware-side fault adapter: implements
/// [`sslic_hw::faults::MemFaults`] over a plan's
/// [`FaultSite::ScratchpadWord`] and [`FaultSite::DramBurst`] entries,
/// filtering every read through a [`Protection`] scheme and tallying
/// outcomes.
#[derive(Debug)]
pub struct HwFaults<'a> {
    plan: &'a FaultPlan,
    protection: Protection,
    /// Outcome tallies across all hooked reads.
    pub stats: ProtectionStats,
}

impl<'a> HwFaults<'a> {
    /// Creates the adapter over `plan` with `protection` on every
    /// scratchpad word.
    pub fn new(plan: &'a FaultPlan, protection: Protection) -> Self {
        HwFaults {
            plan,
            protection,
            stats: ProtectionStats::default(),
        }
    }
}

impl MemFaults for HwFaults<'_> {
    fn channel_read(&mut self, step: u32, channel: u8, addr: u64, value: u8) -> FaultedByte {
        let a = ((step as u64) << 44) | ((channel as u64) << 40) | addr;
        let eff = effect_at(self.plan, FaultSite::ScratchpadWord, a, CHANNEL_WORD_BITS)
            .merged(effect_at(self.plan, FaultSite::DramBurst, a, CHANNEL_WORD_BITS));
        let (v, outcome) = filter_word(self.protection, value as u64, &eff);
        self.stats.record(outcome);
        FaultedByte {
            value: (v & 0xFF) as u8,
            retried: outcome == MemOutcome::DetectedRetry,
        }
    }

    fn index_read(&mut self, addr: u64, label: u32) -> FaultedLabel {
        // The index memory shares the scratchpad site under its own
        // channel namespace (3 = index).
        let a = (3u64 << 40) | addr;
        let eff = effect_at(self.plan, FaultSite::ScratchpadWord, a, INDEX_WORD_BITS)
            .merged(effect_at(self.plan, FaultSite::DramBurst, a, INDEX_WORD_BITS));
        let (v, outcome) = filter_word(self.protection, label as u64, &eff);
        self.stats.record(outcome);
        FaultedLabel {
            value: (v & 0xFFFF) as u32,
            retried: outcome == MemOutcome::DetectedRetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultKind;
    use sslic_image::synthetic::SyntheticImage;

    #[test]
    fn empty_plan_adapters_are_no_ops() {
        let plan = FaultPlan::new(1);
        let img = SyntheticImage::builder(16, 12).seed(0).regions(3).build();
        let mut lab8 = HwColorConverter::paper_default().convert_image(&img.rgb);
        let before = lab8.clone();
        let ef = EngineFaults::new(&plan);
        ef.corrupt_lab8(&mut lab8);
        assert_eq!(lab8.l.as_slice(), before.l.as_slice());
        assert_eq!(ef.injected_words(), 0);

        let mut conv = HwColorConverter::paper_default();
        assert_eq!(corrupt_color_lut(&plan, &mut conv), 0);

        let mut hf = HwFaults::new(&plan, Protection::Unprotected);
        let r = hf.channel_read(0, 0, 5, 0x42);
        assert_eq!((r.value, r.retried), (0x42, false));
        assert_eq!(hf.stats.corrupted_reads(), 0);
    }

    #[test]
    fn pixel_feature_corruption_is_deterministic() {
        let plan = FaultPlan::new(77).with(
            FaultSite::PixelFeature,
            FaultKind::SingleBitFlip,
            30_000,
        );
        let img = SyntheticImage::builder(32, 24).seed(1).regions(4).build();
        let clean = HwColorConverter::paper_default().convert_image(&img.rgb);
        let mut a = clean.clone();
        let mut b = clean.clone();
        EngineFaults::new(&plan).corrupt_lab8(&mut a);
        EngineFaults::new(&plan).corrupt_lab8(&mut b);
        assert_eq!(a.l.as_slice(), b.l.as_slice());
        assert_eq!(a.a.as_slice(), b.a.as_slice());
        assert_ne!(a.l.as_slice(), clean.l.as_slice(), "something must flip");
    }

    #[test]
    fn color_lut_corruption_changes_conversions_and_is_reversible() {
        let plan = FaultPlan::new(5).with(FaultSite::ColorLut, FaultKind::SingleBitFlip, 200_000);
        let mut conv = HwColorConverter::paper_default();
        let n = corrupt_color_lut(&plan, &mut conv);
        assert!(n > 0, "at 20 % per entry some of 256 entries corrupt");
        let reference = HwColorConverter::paper_default();
        let differs = (0..=255u8).any(|c| conv.gamma_entry(c) != reference.gamma_entry(c));
        assert!(differs);
        // Same plan again XORs the same masks back in: full restore.
        let n2 = corrupt_color_lut(&plan, &mut conv);
        assert_eq!(n, n2);
        for c in 0..=255u8 {
            assert_eq!(conv.gamma_entry(c), reference.gamma_entry(c));
        }
    }

    #[test]
    fn traced_injection_emits_events_and_metric_counters() {
        let plan = FaultPlan::new(77).with(
            FaultSite::PixelFeature,
            FaultKind::SingleBitFlip,
            30_000,
        );
        let img = SyntheticImage::builder(32, 24).seed(1).regions(4).build();
        let mut lab8 = HwColorConverter::paper_default().convert_image(&img.rgb);
        let rec = Recorder::deterministic();
        let ef = EngineFaults::new(&plan).with_recorder(&rec);
        ef.corrupt_lab8(&mut lab8);
        assert!(ef.injected_words() > 0);
        let events = rec.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| e.name == "fault.inject.lab8")
                .count(),
            1
        );
        assert_eq!(
            events[0].attr_u64("corrupted_words"),
            ef.injected_words(),
            "instant carries the corrupted-word count"
        );
        assert_eq!(
            rec.metrics().counter("fault.injected_words"),
            ef.injected_words()
        );
    }

    #[test]
    fn hw_adapter_retries_under_parity_and_corrects_under_secded() {
        let plan = FaultPlan::new(9).with(
            FaultSite::ScratchpadWord,
            FaultKind::SingleBitFlip,
            300_000,
        );
        let mut parity = HwFaults::new(&plan, Protection::Parity);
        let mut secded = HwFaults::new(&plan, Protection::Secded);
        let mut raw = HwFaults::new(&plan, Protection::Unprotected);
        for addr in 0..4096u64 {
            let p = parity.channel_read(0, 1, addr, 0x5A);
            let s = secded.channel_read(0, 1, addr, 0x5A);
            let r = raw.channel_read(0, 1, addr, 0x5A);
            // Single-bit flips: parity restores via retry, secded corrects
            // in place, unprotected passes the corruption.
            assert_eq!(p.value, 0x5A);
            assert_eq!(s.value, 0x5A);
            assert!(!s.retried);
            if r.value != 0x5A {
                assert!(p.retried || parity.stats.detected_retries > 0);
            }
        }
        assert!(raw.stats.silent > 0);
        assert_eq!(parity.stats.detected_retries, raw.stats.silent);
        assert_eq!(secded.stats.corrected, raw.stats.silent);
        assert_eq!(parity.stats.corrupted_reads(), 0);
        assert_eq!(secded.stats.corrupted_reads(), 0);
    }
}
