//! On-chip scratchpad SRAM model.
//!
//! The accelerator has four scratchpads — three channel memories (L, a, b)
//! and one index memory — "realized using synchronous RAMs with separate
//! read-write ports" (paper §5). The buffer size per channel is the
//! Figure 6 design knob (1 kB–128 kB); the paper selects 4 kB.

use crate::model;

/// Per-word memory-protection scheme of a scratchpad (8 data bits per
/// word). The check bits widen every physical word, scaling the macro's
/// area and per-access energy; the detection/correction semantics are
/// applied by the fault model (`sslic-fault`) on each protected read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Raw SRAM cells: every upset is silent data corruption.
    Unprotected,
    /// One parity bit per word: any odd number of flipped bits is detected
    /// and the word is re-fetched from DRAM; even flip counts escape.
    Parity,
    /// SECDED Hamming code: single-bit errors are corrected in place,
    /// double-bit errors are detected (re-fetch), triple and beyond escape.
    Secded,
}

impl Protection {
    /// Check bits appended to a `data_bits`-wide word: 0 (none), 1
    /// (parity), or the Hamming `p` with `2^p >= data_bits + p + 1` plus
    /// one extra double-error-detect bit (SECDED) — 5 for 8 data bits.
    pub(crate) fn check_bits(self, data_bits: u32) -> u32 {
        match self {
            Protection::Unprotected => 0,
            Protection::Parity => 1,
            Protection::Secded => {
                let mut p = 0u32;
                while (1u64 << p) < data_bits as u64 + p as u64 + 1 {
                    p += 1;
                }
                p + 1
            }
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Protection::Unprotected => "unprotected",
            Protection::Parity => "parity",
            Protection::Secded => "secded",
        }
    }
}

/// One synchronous SRAM with separate read and write ports, with access
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scratchpad {
    name: &'static str,
    capacity_bytes: usize,
    reads: u64,
    writes: u64,
    protection: Protection,
    retries: u64,
}

impl Scratchpad {
    /// Creates an unprotected scratchpad of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub(crate) fn new(name: &'static str, capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "scratchpad capacity must be nonzero");
        Scratchpad {
            name,
            capacity_bytes,
            reads: 0,
            writes: 0,
            protection: Protection::Unprotected,
            retries: 0,
        }
    }

    /// Selects the word-protection scheme (affects area and energy via
    /// [`Self::physical_bits_per_word`]).
    pub(crate) fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }

    /// Physical bits stored per 8-bit data word, including check bits.
    pub(crate) fn physical_bits_per_word(&self) -> u32 {
        8 + self.protection.check_bits(8)
    }

    /// Records `n` detected-error retries; each is charged one extra read
    /// plus one corrective write at full physical word width.
    pub(crate) fn record_retries(&mut self, n: u64) {
        self.retries += n;
    }

    /// Detected-error retries so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// The scratchpad's name (e.g. `"ch1"`, `"index"`).
    pub(crate) fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity in bytes.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Records `n` byte reads.
    pub(crate) fn record_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Records `n` byte writes.
    pub(crate) fn record_writes(&mut self, n: u64) {
        self.writes += n;
    }

    /// Byte reads so far.
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }

    /// Byte writes so far.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }

    /// Access energy so far, in microjoules. Every access moves the full
    /// physical word (data + check bits), and each retry adds one read
    /// plus one corrective write.
    pub(crate) fn energy_uj(&self) -> f64 {
        let accesses = self.reads + self.writes + 2 * self.retries;
        let width_factor = self.physical_bits_per_word() as f64 / 8.0;
        accesses as f64 * width_factor * model::E_SRAM_BYTE_PJ * 1e-6
    }

    /// Macro area in mm² (calibrated per-kB constant, see
    /// [`model::SRAM_MM2_PER_KB`]), widened by the protection check bits.
    pub(crate) fn area_mm2(&self) -> f64 {
        self.capacity_bytes as f64 / 1024.0
            * model::SRAM_MM2_PER_KB
            * (self.physical_bits_per_word() as f64 / 8.0)
    }
}

/// The accelerator's four scratchpads: channel memories 1–3 and the index
/// memory (paper §4.3 / Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchpadSet {
    /// Channel memory 1 (R, then L after color conversion).
    pub ch1: Scratchpad,
    /// Channel memory 2 (G, then a).
    pub ch2: Scratchpad,
    /// Channel memory 3 (B, then b).
    pub ch3: Scratchpad,
    /// Superpixel index memory.
    pub index: Scratchpad,
}

impl ScratchpadSet {
    /// Builds the set with `bytes_per_channel` in each of the four
    /// memories (the Figure 6 knob applies to all of them).
    pub fn new(bytes_per_channel: usize) -> Self {
        ScratchpadSet {
            ch1: Scratchpad::new("ch1", bytes_per_channel),
            ch2: Scratchpad::new("ch2", bytes_per_channel),
            ch3: Scratchpad::new("ch3", bytes_per_channel),
            index: Scratchpad::new("index", bytes_per_channel),
        }
    }

    /// The three channel memories.
    pub(crate) fn channels_mut(&mut self) -> [&mut Scratchpad; 3] {
        [&mut self.ch1, &mut self.ch2, &mut self.ch3]
    }

    /// Total SRAM area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.ch1.area_mm2() + self.ch2.area_mm2() + self.ch3.area_mm2() + self.index.area_mm2()
    }

    /// Total access energy so far in microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.ch1.energy_uj() + self.ch2.energy_uj() + self.ch3.energy_uj() + self.index.energy_uj()
    }

    /// SRAM leakage/active power at full utilization, in milliwatts
    /// (paper §6.3 assumes full utilization), including the check-bit
    /// columns of protected members.
    pub(crate) fn power_mw(&self) -> f64 {
        [&self.ch1, &self.ch2, &self.ch3, &self.index]
            .iter()
            .map(|sp| {
                sp.capacity_bytes as f64 / 1024.0
                    * model::power::SRAM_MW_PER_KB
                    * (sp.physical_bits_per_word() as f64 / 8.0)
            })
            .sum()
    }

    /// Applies one protection scheme to all four memories.
    pub(crate) fn with_protection(mut self, protection: Protection) -> Self {
        self.ch1 = self.ch1.with_protection(protection);
        self.ch2 = self.ch2.with_protection(protection);
        self.ch3 = self.ch3.with_protection(protection);
        self.index = self.index.with_protection(protection);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_point_is_16kb_of_sram() {
        // Table 5 reports 20 kB including the register files; the four
        // SRAMs are 16 kB at the 4 kB design point.
        let set = ScratchpadSet::new(4 * 1024);
        let total: usize = [&set.ch1, &set.ch2, &set.ch3, &set.index]
            .iter()
            .map(|sp| sp.capacity_bytes())
            .sum();
        assert_eq!(total, 16 * 1024);
    }

    #[test]
    fn access_accounting() {
        let mut sp = Scratchpad::new("ch1", 4096);
        sp.record_reads(100);
        sp.record_writes(50);
        assert_eq!(sp.reads(), 100);
        assert_eq!(sp.writes(), 50);
        assert!(sp.energy_uj() > 0.0);
    }

    #[test]
    fn area_scales_linearly_with_capacity() {
        let a1 = Scratchpad::new("a", 1024).area_mm2();
        let a4 = Scratchpad::new("b", 4096).area_mm2();
        assert!((a4 / a1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn set_energy_sums_members() {
        let mut set = ScratchpadSet::new(1024);
        set.ch1.record_reads(10);
        set.index.record_writes(10);
        let expect = 20.0 * model::E_SRAM_BYTE_PJ * 1e-6;
        assert!((set.energy_uj() - expect).abs() < 1e-12);
    }

    #[test]
    fn power_at_full_utilization_scales_with_capacity() {
        let small = ScratchpadSet::new(1024).power_mw();
        let big = ScratchpadSet::new(4096).power_mw();
        assert!((big / small - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Scratchpad::new("x", 0);
    }

    #[test]
    fn check_bits_match_coding_theory() {
        assert_eq!(Protection::Unprotected.check_bits(8), 0);
        assert_eq!(Protection::Parity.check_bits(8), 1);
        // Hamming needs p=4 for 8 data bits (2^4 = 16 ≥ 8+4+1), plus the
        // double-error-detect bit.
        assert_eq!(Protection::Secded.check_bits(8), 5);
        assert_eq!(Protection::Secded.check_bits(16), 6);
        assert_eq!(Protection::Secded.check_bits(32), 7);
    }

    #[test]
    fn protection_widens_area_and_energy() {
        let mk = |p| {
            let mut sp = Scratchpad::new("x", 4096).with_protection(p);
            sp.record_reads(100);
            sp
        };
        let raw = mk(Protection::Unprotected);
        let par = mk(Protection::Parity);
        let ecc = mk(Protection::Secded);
        assert_eq!(raw.physical_bits_per_word(), 8);
        assert_eq!(par.physical_bits_per_word(), 9);
        assert_eq!(ecc.physical_bits_per_word(), 13);
        assert!(raw.area_mm2() < par.area_mm2());
        assert!(par.area_mm2() < ecc.area_mm2());
        assert!((ecc.area_mm2() / raw.area_mm2() - 13.0 / 8.0).abs() < 1e-9);
        assert!(raw.energy_uj() < par.energy_uj());
        assert!(par.energy_uj() < ecc.energy_uj());
    }

    #[test]
    fn retries_charge_extra_accesses() {
        let mut clean = Scratchpad::new("x", 1024).with_protection(Protection::Parity);
        clean.record_reads(100);
        let mut retried = clean.clone();
        retried.record_retries(10);
        assert_eq!(retried.retries(), 10);
        // 10 retries = 20 extra accesses on 100 reads.
        assert!((retried.energy_uj() / clean.energy_uj() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn set_protection_applies_to_all_members_and_scales_power() {
        let raw = ScratchpadSet::new(1024);
        let ecc = ScratchpadSet::new(1024).with_protection(Protection::Secded);
        assert_eq!(ecc.ch2.protection, Protection::Secded);
        assert_eq!(ecc.index.protection, Protection::Secded);
        assert!((ecc.power_mw() / raw.power_mw() - 13.0 / 8.0).abs() < 1e-9);
        assert!((ecc.area_mm2() / raw.area_mm2() - 13.0 / 8.0).abs() < 1e-9);
    }
}
