//! Protection-scheme semantics: what a parity or SECDED memory does with a
//! corrupted word at read time.
//!
//! The code-word geometry and its area/energy overheads live in
//! [`sslic_hw::scratchpad::Protection`]; this module models the *outcome*
//! of a read through each scheme. Detection is modeled end to end: a
//! detected error re-fetches the word over the (assumed protected) DRAM
//! path, so retries and corrections restore the clean value, while escapes
//! return the corrupted one.

use sslic_hw::scratchpad::Protection;

use crate::inject::FaultEffect;

/// The outcome of one protected memory read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemOutcome {
    /// No corruption hit this word.
    Clean,
    /// Corruption passed through an unprotected memory unnoticed.
    Silent,
    /// The scheme detected the error; the word was re-fetched from DRAM
    /// (costing one retry burst) and the clean value restored.
    DetectedRetry,
    /// SECDED corrected a single-bit error in place.
    Corrected,
    /// Corruption defeated the scheme (even flip count under parity,
    /// triple-or-more under SECDED) and escaped as valid-looking data.
    Undetected,
}

/// Tallies of protected-read outcomes across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtectionStats {
    /// Total hooked reads.
    pub reads: u64,
    /// Corruption through an unprotected memory.
    pub silent: u64,
    /// Detected errors (each charged one DRAM retry burst).
    pub detected_retries: u64,
    /// SECDED in-place corrections.
    pub corrected: u64,
    /// Corruption that defeated the scheme.
    pub undetected: u64,
}

impl ProtectionStats {
    /// Records one read outcome.
    pub(crate) fn record(&mut self, outcome: MemOutcome) {
        self.reads += 1;
        match outcome {
            MemOutcome::Clean => {}
            MemOutcome::Silent => self.silent += 1,
            MemOutcome::DetectedRetry => self.detected_retries += 1,
            MemOutcome::Corrected => self.corrected += 1,
            MemOutcome::Undetected => self.undetected += 1,
        }
    }

    /// Reads that delivered corrupted data to the datapath.
    pub fn corrupted_reads(&self) -> u64 {
        self.silent + self.undetected
    }
}

/// Filters one read of `value` (corrupted by `effect`) through
/// `protection`, returning the value the datapath consumes and the
/// outcome. The decision key is the *realized* flip count — a stuck-at
/// bit already at its stuck level corrupts nothing and reads clean.
pub(crate) fn filter_word(
    protection: Protection,
    value: u64,
    effect: &FaultEffect,
) -> (u64, MemOutcome) {
    let corrupted = effect.apply(value);
    let flips = (corrupted ^ value).count_ones();
    if flips == 0 {
        return (value, MemOutcome::Clean);
    }
    match protection {
        Protection::Unprotected => (corrupted, MemOutcome::Silent),
        Protection::Parity => {
            if flips % 2 == 1 {
                (value, MemOutcome::DetectedRetry)
            } else {
                (corrupted, MemOutcome::Undetected)
            }
        }
        Protection::Secded => match flips {
            1 => (value, MemOutcome::Corrected),
            2 => (value, MemOutcome::DetectedRetry),
            _ => (corrupted, MemOutcome::Undetected),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip(bits: u64) -> FaultEffect {
        FaultEffect {
            xor: bits,
            or: 0,
            and_not: 0,
        }
    }

    #[test]
    fn clean_effect_reads_clean_under_every_scheme() {
        for p in [Protection::Unprotected, Protection::Parity, Protection::Secded] {
            assert_eq!(
                filter_word(p, 0xA5, &FaultEffect::CLEAN),
                (0xA5, MemOutcome::Clean)
            );
        }
    }

    #[test]
    fn unprotected_passes_everything_silently() {
        let (v, o) = filter_word(Protection::Unprotected, 0xA5, &flip(0b11));
        assert_eq!(v, 0xA5 ^ 0b11);
        assert_eq!(o, MemOutcome::Silent);
    }

    #[test]
    fn parity_detects_odd_and_misses_even() {
        let (v, o) = filter_word(Protection::Parity, 0xA5, &flip(0b1));
        assert_eq!((v, o), (0xA5, MemOutcome::DetectedRetry));
        let (v, o) = filter_word(Protection::Parity, 0xA5, &flip(0b10101));
        assert_eq!((v, o), (0xA5, MemOutcome::DetectedRetry));
        let (v, o) = filter_word(Protection::Parity, 0xA5, &flip(0b11));
        assert_eq!((v, o), (0xA5 ^ 0b11, MemOutcome::Undetected));
    }

    #[test]
    fn secded_corrects_one_detects_two_misses_three() {
        let (v, o) = filter_word(Protection::Secded, 0x5A, &flip(0b100));
        assert_eq!((v, o), (0x5A, MemOutcome::Corrected));
        let (v, o) = filter_word(Protection::Secded, 0x5A, &flip(0b110));
        assert_eq!((v, o), (0x5A, MemOutcome::DetectedRetry));
        let (v, o) = filter_word(Protection::Secded, 0x5A, &flip(0b111));
        assert_eq!((v, o), (0x5A ^ 0b111, MemOutcome::Undetected));
    }

    #[test]
    fn stuck_bit_at_its_level_is_clean() {
        let stuck_high = FaultEffect {
            xor: 0,
            or: 0b1000,
            and_not: 0,
        };
        // Bit already one: no realized flip under any scheme.
        for p in [Protection::Unprotected, Protection::Parity, Protection::Secded] {
            assert_eq!(
                filter_word(p, 0b1000, &stuck_high),
                (0b1000, MemOutcome::Clean)
            );
        }
        // Bit zero: realizes one flip.
        let (_, o) = filter_word(Protection::Secded, 0, &stuck_high);
        assert_eq!(o, MemOutcome::Corrected);
    }

    #[test]
    fn corruption_strictly_weakens_with_stronger_schemes() {
        // Deterministic sweep over the physically dominant upsets (one- and
        // two-bit masks): the set of masks that deliver corrupted data
        // shrinks strictly — unprotected (all 36) ⊃ parity (the 28
        // doubles) ⊃ secded (none). Triple-and-wider upsets can defeat
        // SECDED, but the injectors produce at most two flips per word.
        let mut counts = [0u64; 3];
        for mask in 1u64..256 {
            if mask.count_ones() > 2 {
                continue;
            }
            let eff = flip(mask);
            for (i, p) in [Protection::Unprotected, Protection::Parity, Protection::Secded]
                .into_iter()
                .enumerate()
            {
                let (_, o) = filter_word(p, 0x3C, &eff);
                if matches!(o, MemOutcome::Silent | MemOutcome::Undetected) {
                    counts[i] += 1;
                }
            }
        }
        assert!(counts[0] > counts[1], "parity beats unprotected: {counts:?}");
        assert!(counts[1] > counts[2], "secded beats parity: {counts:?}");
    }

    #[test]
    fn stats_tally_every_outcome() {
        let mut a = ProtectionStats::default();
        a.record(MemOutcome::Clean);
        a.record(MemOutcome::Silent);
        a.record(MemOutcome::DetectedRetry);
        a.record(MemOutcome::Corrected);
        a.record(MemOutcome::Undetected);
        assert_eq!(a.reads, 5);
        assert_eq!(a.corrupted_reads(), 2);
        assert_eq!(a.detected_retries, 1);
        assert_eq!(a.corrected, 1);
    }
}
