//! Memory fault-injection interface of the functional accelerator.
//!
//! [`crate::accel::Accelerator::process_with_faults`] consults a
//! [`MemFaults`] implementation on every scratchpad word it reads: the
//! three channel memories during cluster update and the index memory at
//! final readout. The hook returns the (possibly corrupted, possibly
//! protection-filtered) value plus whether a detected error forced a
//! re-fetch from DRAM — the simulator charges each retry one DRAM burst
//! and one scratchpad retry.
//!
//! The canonical implementation lives in `sslic-fault`; every method
//! defaults to a clean pass-through, and a default implementation leaves
//! the simulation bit-identical to [`crate::accel::Accelerator::process`].

/// One hooked 8-bit channel-memory read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedByte {
    /// The value the datapath consumes.
    pub value: u8,
    /// Whether a detected error forced a DRAM re-fetch.
    pub retried: bool,
}

/// One hooked 16-bit index-memory readout (labels are stored as two
/// bytes; the in-model type is `u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultedLabel {
    /// The label value after corruption/filtering.
    pub value: u32,
    /// Whether a detected error forced a DRAM re-fetch.
    pub retried: bool,
}

/// Fault-injection hooks over the accelerator's scratchpad reads.
pub trait MemFaults {
    /// Hooks the read of channel `channel` (0 = L, 1 = a, 2 = b) at word
    /// address `addr` during center-update step `step`.
    fn channel_read(&mut self, _step: u32, _channel: u8, _addr: u64, value: u8) -> FaultedByte {
        FaultedByte {
            value,
            retried: false,
        }
    }

    /// Hooks the final index-memory readout of the label at word address
    /// `addr`.
    fn index_read(&mut self, _addr: u64, label: u32) -> FaultedLabel {
        FaultedLabel {
            value: label,
            retried: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_clean_pass_throughs() {
        struct Noop;
        impl MemFaults for Noop {}
        let mut f = Noop;
        assert_eq!(
            f.channel_read(3, 1, 42, 0xA5),
            FaultedByte {
                value: 0xA5,
                retried: false
            }
        );
        assert_eq!(
            f.index_read(7, 99),
            FaultedLabel {
                value: 99,
                retried: false
            }
        );
    }
}
