//! # sslic-fault
//!
//! Deterministic fault injection, graceful-degradation evaluation, and
//! protected-memory (parity/ECC) modeling for the S-SLIC reproduction.
//!
//! The crate is organized as four layers:
//!
//! - `plan` — *what to inject*: [`FaultPlan`] names the fault sites
//!   (color LUT, pixel features, sigma registers, scratchpad words, DRAM
//!   bursts), the corruption kinds (single/multi bit flips, stuck-at bits,
//!   burst corruption), and per-word trigger rates.
//! - `inject` — *the decision core*: `effect_at` maps
//!   `(plan, site, address)` to a bit-level `FaultEffect` by a stateless
//!   seeded hash, so injection is reproducible and order-independent.
//! - `protect` — *what the memory does about it*: `filter_word`
//!   models parity (detect + retry) and SECDED ECC (correct) semantics over
//!   a corrupted read.
//! - `hooks` — *wiring*: adapters implementing the engine's
//!   [`sslic_core::StepFaults`] and the hardware model's
//!   [`sslic_hw::faults::MemFaults`] hook traits from a plan.
//!
//! `sweep` and `report` drive quality-vs-fault-rate experiments and
//! render them as JSON/markdown; the `fault_sweep` binary in the bench
//! crate is a thin CLI over them.
//!
//! ## Determinism contract
//!
//! Everything downstream of a [`FaultPlan`] is a pure function of the plan
//! (seed + entries) and the addresses queried. Running the same plan over
//! the same workload twice yields bit-identical corruption, label maps, and
//! reports. Supplying no plan (or an empty one) is guaranteed bit-identical
//! to the unhooked code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod hooks;
pub(crate) mod inject;
pub(crate) mod plan;
pub(crate) mod protect;
pub(crate) mod report;
pub(crate) mod sweep;

pub use hooks::{corrupt_color_lut, EngineFaults, HwFaults};
pub use plan::{FaultKind, FaultPlan, FaultSite, PlanEntry};
pub use protect::ProtectionStats;
pub use report::{to_json, to_markdown};
pub use sweep::{run_sweep, EnginePoint, HwPoint, RecoveryPoint, SweepConfig, SweepResult};
