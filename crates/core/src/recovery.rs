//! Self-healing recovery for streaming sessions: invariant-guard
//! verdicts, a bounded deterministic retry policy, and the per-frame
//! recovery report.
//!
//! Everything in this module is pure integer arithmetic over state the
//! session already folds at its serial sync points, so every recovery
//! decision is bit-identical across thread counts and re-runs:
//!
//! * [`GuardVerdict`] aggregates the end-of-frame invariant guards
//!   (center-coordinate repairs, out-of-range label repairs, sigma-fold
//!   count conservation, poisoned worker bands).
//! * [`RecoveryPolicy::action_for`] maps `(frame, verdict, attempt)` to
//!   the next rung of the escalation ladder — no wall clock, no
//!   randomness, no global state.
//! * [`center_checksum`] fingerprints the center table through the
//!   IEEE-754 bit patterns of its registers with a SplitMix64-style
//!   finalizer, so checkpoint integrity and cross-thread agreement can
//!   be asserted with a single `u64` compare.

use crate::cluster::Cluster;

/// SplitMix64 increment ("golden gamma"): the stream constant of the
/// checksum below.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One rung of the escalation ladder chosen after a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Restore the last-known-good center checkpoint and re-run the
    /// iteration loop warm.
    Rollback,
    /// Discard all warm state and re-seed centers from the grid before
    /// re-running — the rung for failures that reproduce under rollback
    /// (or for poisoned bands, where re-running identical state would
    /// panic identically).
    ColdRestart,
    /// Give up on this frame: keep the repaired (degraded but valid)
    /// labels, restore the checkpoint so the *next* frame warm-starts
    /// from clean state, and report the failure.
    FailFrame,
}

impl RecoveryAction {
    /// Stable lowercase name used in traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryAction::Rollback => "rollback",
            RecoveryAction::ColdRestart => "cold_restart",
            RecoveryAction::FailFrame => "fail_frame",
        }
    }
}

/// Bounded deterministic retry policy for [`crate::SegmenterSession`].
///
/// `max_retries` bounds the number of *re-runs* of a frame (attempt 0 is
/// the ordinary run and is always free). Every decision is a pure
/// function of `(frame, verdict, attempt)` — see [`Self::action_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    max_retries: u32,
}

impl RecoveryPolicy {
    /// A policy allowing up to `max_retries` re-runs per frame.
    /// `max_retries == 0` means guards are evaluated and reported but a
    /// failed frame is immediately failed (checkpoint still restored).
    pub const fn new(max_retries: u32) -> Self {
        RecoveryPolicy { max_retries }
    }

    /// The retry budget per frame.
    pub const fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The escalation rung to take after attempt number `attempt`
    /// (0-based) of frame `frame` finished with the non-clean `verdict`.
    ///
    /// The ladder is `Rollback → ColdRestart → FailFrame`: retries
    /// before the last budgeted one roll back to the checkpoint, the
    /// final budgeted retry (when the budget allows at least two)
    /// escalates to a cold restart, and an exhausted budget fails the
    /// frame. Poisoned bands skip `Rollback` entirely — a deterministic
    /// kernel panic would reproduce bit-for-bit on the restored state.
    ///
    /// `frame` is part of the decision surface by contract (decisions
    /// may depend on nothing else); the default ladder is
    /// frame-independent.
    pub fn action_for(&self, frame: u64, verdict: &GuardVerdict, attempt: u32) -> RecoveryAction {
        let _ = frame;
        let next = attempt.saturating_add(1);
        if next > self.max_retries {
            return RecoveryAction::FailFrame;
        }
        if verdict.poisoned_bands > 0 {
            return RecoveryAction::ColdRestart;
        }
        if next == self.max_retries && self.max_retries >= 2 {
            return RecoveryAction::ColdRestart;
        }
        RecoveryAction::Rollback
    }
}

/// End-of-frame invariant-guard verdict, aggregated at serial sync
/// points so it is bit-identical across thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardVerdict {
    /// Center registers repaired (non-finite or out-of-plane
    /// coordinates clamped back) across the frame's iteration steps.
    pub center_repairs: u64,
    /// Labels outside `0..k` rewritten to the pixel's home cluster in
    /// the end-of-attempt label guard — the connectivity precondition.
    pub label_repairs: u64,
    /// Absolute difference between the pixels folded into the sigma
    /// accumulators and the pixels the update bands actually read —
    /// count conservation across the parallel fold.
    pub sigma_mismatch: u64,
    /// Worker bands whose kernel panicked and was contained by the
    /// pool's `catch_unwind` isolation.
    pub poisoned_bands: u64,
}

impl GuardVerdict {
    /// `true` when every guard passed.
    pub fn clean(&self) -> bool {
        self.guards_fired() == 0
    }

    /// Total guard firings (the sum of all counters).
    pub fn guards_fired(&self) -> u64 {
        self.center_repairs
            .wrapping_add(self.label_repairs)
            .wrapping_add(self.sigma_mismatch)
            .wrapping_add(self.poisoned_bands)
    }
}

/// How a frame left the recovery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No guard fired on the first attempt.
    Clean,
    /// At least one retry ran and the final attempt was guard-clean.
    Recovered,
    /// The retry budget was exhausted (or recovery was off) with guards
    /// still firing; the frame's labels are repaired-but-degraded.
    Failed,
}

impl RecoveryOutcome {
    /// Stable lowercase name used in traces and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryOutcome::Clean => "clean",
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::Failed => "failed",
        }
    }
}

/// Per-frame recovery record, carried on
/// [`crate::FrameReport::recovery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Guard firings summed over every attempt of the frame.
    pub guards_fired: u64,
    /// Re-runs taken (0 for a clean frame).
    pub retries: u32,
    /// Cold restarts taken (the `ColdRestart` rungs among the retries).
    pub escalations: u32,
    /// Final disposition of the frame.
    pub outcome: RecoveryOutcome,
    /// [`center_checksum`] of the center table as the frame left it.
    pub center_checksum: u64,
}

impl Default for RecoveryReport {
    fn default() -> Self {
        RecoveryReport {
            guards_fired: 0,
            retries: 0,
            escalations: 0,
            outcome: RecoveryOutcome::Clean,
            center_checksum: 0,
        }
    }
}

/// SplitMix64-finalizer mixing step (Stafford's Mix13 variant).
fn mix64(value: u64) -> u64 {
    let mut z = value;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive checksum of the center table.
///
/// Each of the five registers per center contributes its exact IEEE-754
/// bit pattern, so two tables collide only if every register is
/// bit-identical (up to hash collision); the fold order is the table
/// order, which the engine fixes at serial sync points.
pub fn center_checksum(clusters: &[Cluster]) -> u64 {
    let mut state: u64 = GOLDEN_GAMMA;
    for cluster in clusters {
        let words = [
            cluster.l.to_bits(),
            cluster.a.to_bits(),
            cluster.b.to_bits(),
            cluster.x.to_bits(),
            cluster.y.to_bits(),
        ];
        for word in words {
            state = mix64(state.wrapping_add(GOLDEN_GAMMA).wrapping_add(u64::from(word)));
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(poisoned: u64) -> GuardVerdict {
        GuardVerdict {
            center_repairs: 1,
            poisoned_bands: poisoned,
            ..GuardVerdict::default()
        }
    }

    #[test]
    fn verdict_clean_iff_no_guard_fired() {
        assert!(GuardVerdict::default().clean());
        assert!(!fired(0).clean());
        assert_eq!(fired(2).guards_fired(), 3);
    }

    #[test]
    fn ladder_rolls_back_then_cold_restarts_then_fails() {
        let policy = RecoveryPolicy::new(3);
        let v = fired(0);
        assert_eq!(policy.action_for(0, &v, 0), RecoveryAction::Rollback);
        assert_eq!(policy.action_for(0, &v, 1), RecoveryAction::Rollback);
        assert_eq!(policy.action_for(0, &v, 2), RecoveryAction::ColdRestart);
        assert_eq!(policy.action_for(0, &v, 3), RecoveryAction::FailFrame);
        assert_eq!(policy.action_for(0, &v, 9), RecoveryAction::FailFrame);
    }

    #[test]
    fn single_retry_budget_rolls_back_once() {
        let policy = RecoveryPolicy::new(1);
        let v = fired(0);
        assert_eq!(policy.action_for(5, &v, 0), RecoveryAction::Rollback);
        assert_eq!(policy.action_for(5, &v, 1), RecoveryAction::FailFrame);
    }

    #[test]
    fn zero_budget_fails_immediately() {
        let policy = RecoveryPolicy::new(0);
        assert_eq!(policy.action_for(0, &fired(0), 0), RecoveryAction::FailFrame);
    }

    #[test]
    fn poisoned_bands_skip_rollback() {
        let policy = RecoveryPolicy::new(3);
        assert_eq!(
            policy.action_for(0, &fired(1), 0),
            RecoveryAction::ColdRestart,
            "a deterministic panic would repeat on rolled-back state"
        );
    }

    #[test]
    fn decisions_are_pure_and_frame_independent_by_default() {
        let policy = RecoveryPolicy::new(2);
        let v = fired(0);
        for frame in [0u64, 1, 77, u64::MAX] {
            assert_eq!(policy.action_for(frame, &v, 0), RecoveryAction::Rollback);
            assert_eq!(policy.action_for(frame, &v, 1), RecoveryAction::ColdRestart);
        }
    }

    #[test]
    fn checksum_is_order_and_bit_sensitive() {
        let a = [Cluster::new(1.0, 2.0, 3.0, 4.0, 5.0), Cluster::default()];
        let b = [Cluster::default(), Cluster::new(1.0, 2.0, 3.0, 4.0, 5.0)];
        assert_ne!(center_checksum(&a), center_checksum(&b));
        assert_eq!(center_checksum(&a), center_checksum(&a.clone()));
        let mut c = a;
        c[0].x = f32::from_bits(c[0].x.to_bits() ^ 1);
        assert_ne!(center_checksum(&a), center_checksum(&c));
        assert_ne!(center_checksum(&[]), 0, "empty table still has a tag");
    }
}
