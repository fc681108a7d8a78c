//! Per-phase wall-clock accounting, reproducing the paper's Table 1 time
//! breakdown (color conversion / distance+min / center update / other).

use std::time::{Duration, Instant};

/// The pipeline phases SLIC/S-SLIC execution time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// RGB → CIELAB conversion.
    ColorConversion,
    /// Grid construction, seeding, buffer setup.
    Init,
    /// Color-space distance computation and minimum selection — the
    /// cluster-assignment inner loop.
    DistanceMin,
    /// Sigma accumulation and center recomputation.
    CenterUpdate,
    /// Connectivity enforcement post-pass.
    Connectivity,
}

/// All phases, in pipeline order.
pub const PHASES: [Phase; 5] = [
    Phase::ColorConversion,
    Phase::Init,
    Phase::DistanceMin,
    Phase::CenterUpdate,
    Phase::Connectivity,
];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::ColorConversion => 0,
            Phase::Init => 1,
            Phase::DistanceMin => 2,
            Phase::CenterUpdate => 3,
            Phase::Connectivity => 4,
        }
    }

    /// Stable snake_case identifier used by trace events and run reports.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Phase::ColorConversion => "color_conversion",
            Phase::Init => "init",
            Phase::DistanceMin => "distance_min",
            Phase::CenterUpdate => "center_update",
            Phase::Connectivity => "connectivity",
        }
    }
}

/// Accumulated time per [`Phase`].
///
/// # Example
///
/// ```
/// use sslic_core::profile::{Phase, PhaseBreakdown};
/// use std::time::Duration;
///
/// let mut b = PhaseBreakdown::new();
/// b.record(Phase::DistanceMin, Duration::from_millis(60));
/// b.record(Phase::CenterUpdate, Duration::from_millis(40));
/// assert_eq!(b.total(), Duration::from_millis(100));
/// assert!((b.percent(Phase::DistanceMin) - 60.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    times: [Duration; 5],
}

impl PhaseBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` to `phase`.
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        self.times[phase.index()] += elapsed;
    }

    /// Times `f`, attributing its runtime to `phase`, and returns its
    /// result.
    pub(crate) fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(phase, start.elapsed());
        out
    }

    /// Accumulated time in `phase`.
    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.times[phase.index()]
    }

    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.times.iter().sum()
    }

    /// `phase`'s share of the total, in percent (0 when nothing was
    /// recorded).
    pub fn percent(&self, phase: Phase) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.phase_time(phase).as_secs_f64() / total
        }
    }

    /// Merges another breakdown into this one (for corpus-level totals).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for (t, o) in self.times.iter_mut().zip(other.times.iter()) {
            *t += *o;
        }
    }

    /// The four-column grouping of the paper's Table 1:
    /// `(color conversion, distance+min, center update, other)` in percent,
    /// where *other* collects init and connectivity ("the connectivity
    /// enforcement, and some initialization tasks", §4.1).
    pub fn table1_percents(&self) -> (f64, f64, f64, f64) {
        let other = self.percent(Phase::Init) + self.percent(Phase::Connectivity);
        (
            self.percent(Phase::ColorConversion),
            self.percent(Phase::DistanceMin),
            self.percent(Phase::CenterUpdate),
            other,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_breakdown_has_zero_total_and_percents() {
        let b = PhaseBreakdown::new();
        assert_eq!(b.total(), Duration::ZERO);
        for p in PHASES {
            assert_eq!(b.percent(p), 0.0);
        }
    }

    #[test]
    fn record_accumulates() {
        let mut b = PhaseBreakdown::new();
        b.record(Phase::DistanceMin, Duration::from_millis(10));
        b.record(Phase::DistanceMin, Duration::from_millis(5));
        assert_eq!(b.phase_time(Phase::DistanceMin), Duration::from_millis(15));
    }

    #[test]
    fn time_returns_closure_result_and_records() {
        let mut b = PhaseBreakdown::new();
        // Sleep inside the timed closure so the recorded duration has a
        // deterministic lower bound the assertion can actually check.
        let v = b.time(Phase::Init, || {
            std::thread::sleep(Duration::from_millis(1));
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(b.phase_time(Phase::Init) >= Duration::from_millis(1));
        assert_eq!(b.phase_time(Phase::DistanceMin), Duration::ZERO);
    }

    #[test]
    fn percents_sum_to_hundred() {
        let mut b = PhaseBreakdown::new();
        b.record(Phase::ColorConversion, Duration::from_millis(20));
        b.record(Phase::DistanceMin, Duration::from_millis(60));
        b.record(Phase::CenterUpdate, Duration::from_millis(15));
        b.record(Phase::Connectivity, Duration::from_millis(5));
        let sum: f64 = PHASES.iter().map(|&p| b.percent(p)).sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn table1_grouping_matches_paper_columns() {
        let mut b = PhaseBreakdown::new();
        b.record(Phase::ColorConversion, Duration::from_millis(19));
        b.record(Phase::DistanceMin, Duration::from_millis(60));
        b.record(Phase::CenterUpdate, Duration::from_millis(18));
        b.record(Phase::Init, Duration::from_millis(2));
        b.record(Phase::Connectivity, Duration::from_millis(1));
        let (cc, dm, cu, other) = b.table1_percents();
        assert!((cc - 19.0).abs() < 1e-6);
        assert!((dm - 60.0).abs() < 1e-6);
        assert!((cu - 18.0).abs() < 1e-6);
        assert!((other - 3.0).abs() < 1e-6);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = PhaseBreakdown::new();
        a.record(Phase::DistanceMin, Duration::from_millis(10));
        let mut b = PhaseBreakdown::new();
        b.record(Phase::DistanceMin, Duration::from_millis(20));
        b.record(Phase::Init, Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.phase_time(Phase::DistanceMin), Duration::from_millis(30));
        assert_eq!(a.phase_time(Phase::Init), Duration::from_millis(1));
    }
}
