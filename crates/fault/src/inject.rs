//! The stateless injection core: plan × site × address → bit-level effect.
//!
//! Determinism contract: [`effect_at`] is a pure function of
//! `(plan.seed(), entry index, site, address)`. Queries are independent —
//! no generator state is shared between addresses — so injection results
//! do not depend on evaluation order, and replaying the same plan over the
//! same address stream reproduces the same corruption bit for bit.
//!
//! This module is part of the lint-enforced integer datapath: effects are
//! computed and applied purely on integer words (float-typed victims are
//! corrupted through their IEEE-754 bit patterns by the adapter layer in
//! [`crate::hooks`]).

use sslic_image::prng::SplitMix64;

use crate::plan::{FaultKind, FaultPlan, FaultSite};

/// Salt separating site streams in the decision hash.
const SITE_MIX: u64 = 0x9e37_79b9_7f4a_7c15;
/// Salt separating address streams.
const ADDR_MIX: u64 = 0xbf58_476d_1ce4_e5b9;
/// Salt separating plan-entry streams (two entries on the same site draw
/// independent faults).
const ENTRY_MIX: u64 = 0x94d0_49bb_1331_11eb;
/// Salt separating the per-word lanes of one burst group.
const WORD_MIX: u64 = 0xd6e8_feb8_6659_fd93;

/// A composed bit-level corruption: OR-in stuck-high bits, clear
/// stuck-low bits, then XOR transient flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultEffect {
    /// Bits flipped by transient upsets.
    pub xor: u64,
    /// Bits stuck at one.
    pub or: u64,
    /// Bits stuck at zero.
    pub and_not: u64,
}

impl FaultEffect {
    /// The identity effect.
    pub(crate) const CLEAN: FaultEffect = FaultEffect {
        xor: 0,
        or: 0,
        and_not: 0,
    };

    /// True when applying the effect cannot change any value.
    pub(crate) fn is_clean(&self) -> bool {
        self.xor == 0 && self.or == 0 && self.and_not == 0
    }

    /// Applies the effect to a word: stuck-at levels override the stored
    /// data, then transient flips toggle on top.
    pub(crate) fn apply(&self, value: u64) -> u64 {
        ((value | self.or) & !self.and_not) ^ self.xor
    }

    /// Composes two effects (both applied to the same word).
    pub(crate) fn merged(self, other: FaultEffect) -> FaultEffect {
        FaultEffect {
            xor: self.xor ^ other.xor,
            or: self.or | other.or,
            and_not: self.and_not | other.and_not,
        }
    }
}

/// The decision stream for one `(seed, site, key, entry)` coordinate.
fn decision_stream(seed: u64, site: FaultSite, key: u64, entry_salt: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(
        seed ^ site.tag().wrapping_mul(SITE_MIX) ^ key.wrapping_mul(ADDR_MIX) ^ entry_salt,
    )
}

/// One Bernoulli draw at `rate_ppm` parts per million.
fn triggered(rng: &mut SplitMix64, rate_ppm: u32) -> bool {
    if rate_ppm >= 1_000_000 {
        return true;
    }
    rng.next_u64() < (rate_ppm as u64).wrapping_mul(u64::MAX / 1_000_000)
}

/// Computes the composed corruption the plan inflicts on the
/// `width_bits`-wide word at `addr` of `site`. Returns
/// the identity effect (and does no allocation) when nothing triggers;
/// an empty plan therefore leaves every word untouched.
pub(crate) fn effect_at(
    plan: &FaultPlan,
    site: FaultSite,
    addr: u64,
    width_bits: u32,
) -> FaultEffect {
    let width = width_bits.clamp(1, 64) as u64;
    let mask = if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let mut eff = FaultEffect::CLEAN;
    for (i, entry) in plan.entries().iter().enumerate() {
        if entry.site != site || entry.rate_ppm == 0 {
            continue;
        }
        let entry_salt = (i as u64).wrapping_mul(ENTRY_MIX);
        match entry.kind {
            FaultKind::SingleBitFlip => {
                let mut rng = decision_stream(plan.seed(), site, addr, entry_salt);
                if triggered(&mut rng, entry.rate_ppm) {
                    eff.xor ^= 1u64 << rng.below(width);
                }
            }
            FaultKind::MultiBitFlip { bits } => {
                let mut rng = decision_stream(plan.seed(), site, addr, entry_salt);
                if triggered(&mut rng, entry.rate_ppm) {
                    for _ in 0..bits.max(1) {
                        eff.xor ^= 1u64 << rng.below(width);
                    }
                }
            }
            FaultKind::StuckAt { bit, value } => {
                let mut rng = decision_stream(plan.seed(), site, addr, entry_salt);
                if triggered(&mut rng, entry.rate_ppm) && (bit as u64) < width {
                    if value {
                        eff.or |= 1u64 << bit;
                    } else {
                        eff.and_not |= 1u64 << bit;
                    }
                }
            }
            FaultKind::Burst { span } => {
                // One decision per aligned group; on trigger every word in
                // the group gets its own lane-derived flip, so querying the
                // words in any order reproduces the same burst.
                let span = span.max(1) as u64;
                let group = addr / span;
                let mut rng = decision_stream(plan.seed(), site, group, entry_salt);
                if triggered(&mut rng, entry.rate_ppm) {
                    let lane = addr % span;
                    let mut word = SplitMix64::seed_from_u64(
                        rng.next_u64() ^ lane.wrapping_mul(WORD_MIX),
                    );
                    eff.xor ^= 1u64 << word.below(width);
                }
            }
        }
    }
    eff.xor &= mask;
    eff.or &= mask;
    eff.and_not &= mask;
    eff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultPlan, FaultSite};

    fn flip_plan(seed: u64, rate: u32) -> FaultPlan {
        FaultPlan::new(seed).with(FaultSite::ScratchpadWord, FaultKind::SingleBitFlip, rate)
    }

    #[test]
    fn empty_plan_is_always_clean() {
        let plan = FaultPlan::new(9);
        for addr in 0..10_000u64 {
            assert!(effect_at(&plan, FaultSite::PixelFeature, addr, 8).is_clean());
        }
    }

    #[test]
    fn effects_are_deterministic_and_order_independent() {
        let plan = flip_plan(42, 50_000);
        let forward: Vec<_> = (0..2000u64)
            .map(|a| effect_at(&plan, FaultSite::ScratchpadWord, a, 8))
            .collect();
        let backward: Vec<_> = (0..2000u64)
            .rev()
            .map(|a| effect_at(&plan, FaultSite::ScratchpadWord, a, 8))
            .collect();
        for (a, f) in forward.iter().enumerate() {
            assert_eq!(*f, backward[1999 - a]);
        }
    }

    #[test]
    fn trigger_rate_tracks_rate_ppm() {
        let plan = flip_plan(7, 100_000); // 10 %
        let hits = (0..50_000u64)
            .filter(|&a| !effect_at(&plan, FaultSite::ScratchpadWord, a, 8).is_clean())
            .count();
        let frac = hits as f64 / 50_000.0;
        assert!((0.08..0.12).contains(&frac), "hit fraction {frac}");
    }

    #[test]
    fn rate_one_million_triggers_everywhere() {
        let plan = flip_plan(1, 1_000_000);
        for addr in 0..256u64 {
            assert!(!effect_at(&plan, FaultSite::ScratchpadWord, addr, 8).is_clean());
        }
    }

    #[test]
    fn sites_draw_independent_faults() {
        let plan = FaultPlan::uniform(5, FaultKind::SingleBitFlip, 200_000);
        let a: Vec<_> = (0..2000u64)
            .map(|i| effect_at(&plan, FaultSite::PixelFeature, i, 8))
            .collect();
        let b: Vec<_> = (0..2000u64)
            .map(|i| effect_at(&plan, FaultSite::SigmaRegister, i, 8))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn effects_respect_word_width() {
        let plan = FaultPlan::new(3)
            .with(FaultSite::ColorLut, FaultKind::SingleBitFlip, 1_000_000)
            .with(FaultSite::ColorLut, FaultKind::StuckAt { bit: 60, value: true }, 1_000_000);
        for addr in 0..512u64 {
            let eff = effect_at(&plan, FaultSite::ColorLut, addr, 13);
            assert_eq!(eff.xor & !0x1FFF, 0);
            assert_eq!(eff.or, 0, "stuck bit beyond width is dropped");
        }
    }

    #[test]
    fn stuck_at_levels_behave_as_stuck_levels() {
        let eff = FaultEffect {
            xor: 0,
            or: 0b0001,
            and_not: 0b1000,
        };
        assert_eq!(eff.apply(0b1010), 0b0011);
        assert_eq!(eff.apply(0b0001), 0b0001, "already at stuck levels");
    }

    #[test]
    fn burst_corrupts_whole_aligned_groups() {
        let plan = FaultPlan::new(11).with(
            FaultSite::DramBurst,
            FaultKind::Burst { span: 8 },
            40_000,
        );
        // Within any span-8 group, all lanes agree on triggered-ness.
        for group in 0..2000u64 {
            let states: Vec<bool> = (0..8u64)
                .map(|lane| {
                    effect_at(&plan, FaultSite::DramBurst, group * 8 + lane, 8).is_clean()
                })
                .collect();
            assert!(
                states.iter().all(|&s| s == states[0]),
                "group {group} mixes clean and corrupted lanes"
            );
        }
        // And some group must have triggered at this rate.
        let any = (0..2000u64)
            .any(|g| !effect_at(&plan, FaultSite::DramBurst, g * 8, 8).is_clean());
        assert!(any);
    }

    #[test]
    fn multi_bit_flip_realizes_up_to_n_bits() {
        let plan = FaultPlan::new(2).with(
            FaultSite::ScratchpadWord,
            FaultKind::MultiBitFlip { bits: 3 },
            1_000_000,
        );
        let mut seen_multi = false;
        for addr in 0..512u64 {
            let eff = effect_at(&plan, FaultSite::ScratchpadWord, addr, 8);
            let flips = eff.apply(0).count_ones();
            assert!(flips <= 3);
            if flips > 1 {
                seen_multi = true;
            }
        }
        assert!(seen_multi, "3 draws over 8 bits must sometimes realize >1 flip");
    }

    #[test]
    fn merged_composes_both_effects() {
        let a = FaultEffect {
            xor: 0b01,
            or: 0,
            and_not: 0b100,
        };
        let b = FaultEffect {
            xor: 0b10,
            or: 0b1000,
            and_not: 0,
        };
        let m = a.merged(b);
        assert_eq!(m.apply(0b0100), 0b1011);
    }
}
