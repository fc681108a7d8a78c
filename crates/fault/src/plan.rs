//! Fault plans: deterministic, addressable descriptions of *where* (which
//! named state elements), *how* (which corruption pattern), and *how
//! often* (a per-word trigger rate) soft errors strike.
//!
//! A [`FaultPlan`] is pure data — it holds no generator state. Every
//! injection decision is a stateless hash of `(plan seed, site, address)`
//! (see [`crate::inject::effect_at`]), so the same plan produces the same
//! corruption regardless of the order, grouping, or repetition of queries.

/// A named class of state-holding elements the fault model can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entries of the color-conversion gamma LUT (`sslic-color`); the
    /// address is the 8-bit input code.
    ColorLut,
    /// Quantized 8-bit pixel features in the engine's working image
    /// (`sslic-core`); the address is `channel << 40 | pixel_index`.
    PixelFeature,
    /// The engine's cluster/sigma accumulator registers; the address is
    /// `step << 40 | cluster << 3 | field`.
    SigmaRegister,
    /// Scratchpad words of the hardware model (`sslic-hw`); the address is
    /// `step << 44 | memory << 40 | word`.
    ScratchpadWord,
    /// DRAM burst payloads feeding the scratchpads; addressed like
    /// [`FaultSite::ScratchpadWord`] but grouped by burst span.
    DramBurst,
}

impl FaultSite {
    /// Every site, in declaration order.
    pub(crate) const ALL: [FaultSite; 5] = [
        FaultSite::ColorLut,
        FaultSite::PixelFeature,
        FaultSite::SigmaRegister,
        FaultSite::ScratchpadWord,
        FaultSite::DramBurst,
    ];

    /// Stable per-site salt folded into the decision hash so the same
    /// address at different sites draws independent faults.
    pub(crate) fn tag(self) -> u64 {
        match self {
            FaultSite::ColorLut => 1,
            FaultSite::PixelFeature => 2,
            FaultSite::SigmaRegister => 3,
            FaultSite::ScratchpadWord => 4,
            FaultSite::DramBurst => 5,
        }
    }
}

/// The corruption pattern applied when a fault triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One uniformly chosen bit of the word flips.
    SingleBitFlip,
    /// Up to `bits` uniformly chosen bits flip (draws may coincide, so
    /// the realized flip count can be lower — matching the physical
    /// multi-cell-upset model where overlapping strikes cancel).
    MultiBitFlip {
        /// Number of flip draws per triggered word.
        bits: u32,
    },
    /// Bit `bit` reads as `value` regardless of the stored data (a
    /// hard/latent defect rather than a transient upset).
    StuckAt {
        /// Affected bit position (faults on positions outside the word
        /// width are dropped).
        bit: u32,
        /// The stuck level.
        value: bool,
    },
    /// A whole aligned group of `span` consecutive words is corrupted
    /// together (one bit flip per word) — the burst-corruption signature
    /// of a failed DRAM transfer.
    Burst {
        /// Words per burst group (clamped to at least 1).
        span: u32,
    },
}

/// One line of a fault plan: strike `site` with `kind` at `rate_ppm`
/// parts-per-million per addressable word (per burst group for
/// [`FaultKind::Burst`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEntry {
    /// Which state elements are exposed.
    pub site: FaultSite,
    /// The corruption pattern on trigger.
    pub kind: FaultKind,
    /// Trigger probability in parts per million (values of 1 000 000 and
    /// above trigger on every address).
    pub rate_ppm: u32,
}

/// A deterministic fault-injection plan: a seed plus any number of
/// [`PlanEntry`] lines. An empty plan injects nothing, and every injection
/// hook is bit-identical to its unhooked counterpart under an empty plan.
///
/// # Example
///
/// ```
/// use sslic_fault::{FaultKind, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new(7)
///     .with(FaultSite::PixelFeature, FaultKind::SingleBitFlip, 500)
///     .with(FaultSite::DramBurst, FaultKind::Burst { span: 8 }, 50);
/// assert_eq!(plan.seed(), 7);
/// assert_eq!(plan.entries().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    entries: Vec<PlanEntry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            entries: Vec::new(),
        }
    }

    /// Adds one entry.
    pub fn with(mut self, site: FaultSite, kind: FaultKind, rate_ppm: u32) -> Self {
        self.entries.push(PlanEntry {
            site,
            kind,
            rate_ppm,
        });
        self
    }

    /// A plan striking every site with the same kind and rate.
    pub fn uniform(seed: u64, kind: FaultKind, rate_ppm: u32) -> Self {
        let mut plan = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            plan = plan.with(site, kind, rate_ppm);
        }
        plan
    }

    /// The decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan lines.
    pub fn entries(&self) -> &[PlanEntry] {
        &self.entries
    }

    /// True when the plan can never inject (no entries with a nonzero
    /// rate).
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.rate_ppm == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_tags_are_distinct() {
        for (i, a) in FaultSite::ALL.iter().enumerate() {
            for b in &FaultSite::ALL[i + 1..] {
                assert_ne!(a.tag(), b.tag(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn uniform_covers_every_site() {
        let plan = FaultPlan::uniform(3, FaultKind::SingleBitFlip, 100);
        assert_eq!(plan.entries().len(), FaultSite::ALL.len());
        assert!(!plan.is_empty());
    }

    #[test]
    fn zero_rate_plans_are_empty() {
        assert!(FaultPlan::new(1).is_empty());
        assert!(FaultPlan::new(1)
            .with(FaultSite::ColorLut, FaultKind::SingleBitFlip, 0)
            .is_empty());
    }
}
