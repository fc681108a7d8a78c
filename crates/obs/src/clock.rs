//! Logical time for deterministic traces.
//!
//! Wall-clock timestamps change between runs, machines, and thread counts,
//! so a trace keyed by them can never be byte-diffed. Every event in this
//! crate is instead stamped with a [`LogicalClock`]: the architectural
//! coordinates of the moment it describes — the center-update step
//! (sub-iteration), the row band of the parallel execution layer, and the
//! accelerator's modeled cycle counter. All three advance identically on
//! every run of the same workload, which is what makes deterministic-mode
//! traces byte-identical across repeats and thread counts.
//!
//! This module is integer-only by lint policy (`sslic-analyze`
//! float-in-datapath scope): logical time is exact or it is useless.

/// Sentinel for "this event is not band-scoped" (run- or step-level
/// events, and every hardware-model event).
pub(crate) const NO_BAND: u32 = u32::MAX;

/// The logical coordinates of one observed moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogicalClock {
    /// Center-update step (sub-iteration for S-SLIC), starting at 0.
    pub iteration: u32,
    /// Row band of the banded parallel layer, `u32::MAX` when the event is
    /// not band-scoped.
    pub band: u32,
    /// Modeled accelerator cycle count (0 for pure-software events).
    pub hw_cycle: u64,
}

impl LogicalClock {
    /// The run-level origin: iteration 0, no band, cycle 0.
    pub const ZERO: LogicalClock = LogicalClock {
        iteration: 0,
        band: NO_BAND,
        hw_cycle: 0,
    };

    /// A step-scoped stamp (no band, no hardware cycle).
    pub fn step(iteration: u32) -> Self {
        LogicalClock {
            iteration,
            band: NO_BAND,
            hw_cycle: 0,
        }
    }

    /// A band-scoped stamp within `iteration`.
    pub fn band(iteration: u32, band: u32) -> Self {
        LogicalClock {
            iteration,
            band,
            hw_cycle: 0,
        }
    }

    /// A hardware-model stamp at modeled cycle `hw_cycle`.
    pub fn cycle(hw_cycle: u64) -> Self {
        LogicalClock {
            iteration: 0,
            band: NO_BAND,
            hw_cycle,
        }
    }

    /// This stamp with the hardware cycle counter set.
    pub fn with_cycle(mut self, hw_cycle: u64) -> Self {
        self.hw_cycle = hw_cycle;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_the_named_dimension() {
        assert_eq!(LogicalClock::step(3).iteration, 3);
        assert_eq!(LogicalClock::step(3).band, NO_BAND);
        let b = LogicalClock::band(2, 7);
        assert_eq!((b.iteration, b.band), (2, 7));
        assert_eq!(LogicalClock::cycle(99).hw_cycle, 99);
        assert_eq!(LogicalClock::step(1).with_cycle(5).hw_cycle, 5);
    }

    #[test]
    fn ordering_is_iteration_major() {
        assert!(LogicalClock::step(1) < LogicalClock::step(2));
        assert!(LogicalClock::band(1, 0) < LogicalClock::band(1, 1));
    }

    #[test]
    fn zero_is_the_origin() {
        assert_eq!(LogicalClock::ZERO.iteration, 0);
        assert_eq!(LogicalClock::ZERO.hw_cycle, 0);
        assert_eq!(LogicalClock::ZERO.band, NO_BAND);
    }
}
