use std::num::NonZeroUsize;

use crate::kernel::Kernel;

/// Parameters shared by every SLIC variant.
///
/// Construct via [`SlicParams::builder`]; the builder supplies the paper's
/// defaults for everything except the superpixel count.
///
/// # Example
///
/// ```
/// use sslic_core::SlicParams;
///
/// let p = SlicParams::builder(900)
///     .compactness(10.0)
///     .iterations(10)
///     .threads(4)
///     .build();
/// assert_eq!(p.superpixels(), 900);
/// assert_eq!(p.compactness(), 10.0);
/// assert_eq!(p.threads().get(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlicParams {
    superpixels: usize,
    compactness: f32,
    iterations: u32,
    perturb_seeds: bool,
    enforce_connectivity: bool,
    threads: NonZeroUsize,
    kernel: Kernel,
}

impl SlicParams {
    /// Starts building parameters for `superpixels` target superpixels
    /// (`K` in the paper).
    ///
    /// # Panics
    ///
    /// The terminal [`SlicParamsBuilder::build`] panics if
    /// `superpixels == 0`.
    pub fn builder(superpixels: usize) -> SlicParamsBuilder {
        SlicParamsBuilder {
            params: SlicParams {
                superpixels,
                compactness: 10.0,
                iterations: 10,
                perturb_seeds: true,
                enforce_connectivity: true,
                threads: NonZeroUsize::MIN,
                kernel: Kernel::Auto,
            },
            threads: 1,
        }
    }

    /// Target superpixel count `K`.
    pub fn superpixels(&self) -> usize {
        self.superpixels
    }

    /// Compactness weight `m` of Eq. 5 (color-vs-space balance, "generally
    /// set between 1 and 40"). Default 10.
    pub fn compactness(&self) -> f32 {
        self.compactness
    }

    /// Number of center-update steps; every frame runs exactly this many.
    /// For subsampled variants this counts *sub-iterations* (one subset
    /// pass each); one full-image pass equals `subsets` sub-iterations.
    /// Default 10.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Whether initial seeds are moved to the 3×3 minimum-gradient
    /// position. Default `true`.
    pub fn perturb_seeds(&self) -> bool {
        self.perturb_seeds
    }

    /// Whether the connectivity-enforcement post-pass runs. Default `true`.
    pub fn enforce_connectivity(&self) -> bool {
        self.enforce_connectivity
    }

    /// Worker-thread count for the banded parallel execution layer of the
    /// engine (see DESIGN.md §5d). The segmentation output is bit-identical
    /// for every thread count; this knob trades wall-clock time only.
    /// Default 1 (fully serial).
    pub fn threads(&self) -> NonZeroUsize {
        self.threads
    }

    /// Assign-phase kernel preference (see [`Kernel`]). The resolved
    /// backend never changes the labels — every kernel is bit-identical —
    /// only the execution strategy. Default [`Kernel::Auto`].
    pub(crate) fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// A parameter-validation failure from [`SlicParamsBuilder::try_build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamError {
    /// `superpixels == 0`: the grid needs at least one cluster.
    ZeroSuperpixels,
    /// Compactness `m` is zero, negative, NaN, or infinite.
    InvalidCompactness,
    /// `iterations == 0`: at least one center-update step is required.
    ZeroIterations,
    /// `threads == 0`: the banded execution layer needs at least one
    /// worker.
    ZeroThreads,
    /// An assign-kernel name failed to parse: only `auto`, `scalar`, and
    /// `swar` select a backend (see [`Kernel`]).
    UnknownKernel,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ParamError::ZeroSuperpixels => "superpixel count must be nonzero",
            ParamError::InvalidCompactness => "compactness must be positive and finite",
            ParamError::ZeroIterations => "at least one iteration required",
            ParamError::ZeroThreads => "thread count must be nonzero",
            ParamError::UnknownKernel => "kernel must be one of auto, scalar, swar",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ParamError {}

/// Builder for [`SlicParams`]; see [`SlicParams::builder`].
#[derive(Debug, Clone)]
pub struct SlicParamsBuilder {
    params: SlicParams,
    /// Raw thread request; validated to be nonzero at build time.
    threads: usize,
}

impl SlicParamsBuilder {
    /// Sets the compactness weight `m` (Eq. 5).
    ///
    /// # Panics
    ///
    /// `build` panics if the value is not positive.
    pub fn compactness(mut self, m: f32) -> Self {
        self.params.compactness = m;
        self
    }

    /// Sets the number of center-update steps.
    pub fn iterations(mut self, iterations: u32) -> Self {
        self.params.iterations = iterations;
        self
    }

    /// Enables or disables gradient seed perturbation.
    pub fn perturb_seeds(mut self, on: bool) -> Self {
        self.params.perturb_seeds = on;
        self
    }

    /// Enables or disables the connectivity post-pass.
    pub fn enforce_connectivity(mut self, on: bool) -> Self {
        self.params.enforce_connectivity = on;
        self
    }

    /// Sets the worker-thread count of the engine's banded parallel
    /// execution layer (see [`SlicParams::threads`]). The output is
    /// bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// `build` panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the assign-phase kernel preference — the one place a kernel is
    /// chosen. Any choice yields bit-identical labels.
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.params.kernel = kernel;
        self
    }

    /// Validates and returns the parameters, reporting the first violated
    /// constraint as a typed [`ParamError`] instead of panicking — the
    /// entry point for callers that receive parameters from untrusted
    /// input (configuration files, CLI flags, fuzzers).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint among
    /// [`ParamError::ZeroSuperpixels`], [`ParamError::InvalidCompactness`],
    /// [`ParamError::ZeroIterations`], and [`ParamError::ZeroThreads`].
    pub fn try_build(self) -> Result<SlicParams, ParamError> {
        let mut p = self.params;
        if p.superpixels == 0 {
            return Err(ParamError::ZeroSuperpixels);
        }
        if !(p.compactness > 0.0 && p.compactness.is_finite()) {
            return Err(ParamError::InvalidCompactness);
        }
        if p.iterations == 0 {
            return Err(ParamError::ZeroIterations);
        }
        p.threads = NonZeroUsize::new(self.threads).ok_or(ParamError::ZeroThreads)?;
        Ok(p)
    }

    /// Validates and returns the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `superpixels == 0`, `compactness <= 0`, `iterations == 0`,
    /// or `threads == 0`. Use
    /// [`Self::try_build`] to receive these as typed errors instead.
    pub fn build(self) -> SlicParams {
        let mut p = self.params;
        assert!(p.superpixels > 0, "superpixel count must be nonzero");
        assert!(
            p.compactness > 0.0 && p.compactness.is_finite(),
            "compactness must be positive and finite"
        );
        assert!(p.iterations > 0, "at least one iteration required");
        assert!(self.threads > 0, "thread count must be nonzero");
        p.threads = NonZeroUsize::new(self.threads).unwrap_or(NonZeroUsize::MIN);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = SlicParams::builder(900).build();
        assert_eq!(p.compactness(), 10.0);
        assert_eq!(p.iterations(), 10);
        assert!(p.perturb_seeds());
        assert!(p.enforce_connectivity());
    }

    #[test]
    fn builder_round_trips_every_field() {
        let p = SlicParams::builder(42)
            .compactness(25.0)
            .iterations(3)
            .perturb_seeds(false)
            .enforce_connectivity(false)
            .kernel(Kernel::Swar)
            .build();
        assert_eq!(p.superpixels(), 42);
        assert_eq!(p.compactness(), 25.0);
        assert_eq!(p.iterations(), 3);
        assert!(!p.perturb_seeds());
        assert!(!p.enforce_connectivity());
        assert_eq!(p.kernel(), Kernel::Swar);
    }

    #[test]
    fn kernel_defaults_to_auto() {
        assert_eq!(SlicParams::builder(10).build().kernel(), Kernel::Auto);
    }

    #[test]
    fn try_build_accepts_valid_params() {
        let p = SlicParams::builder(900).try_build().unwrap();
        assert_eq!(p.superpixels(), 900);
    }

    #[test]
    fn try_build_reports_typed_errors() {
        assert_eq!(
            SlicParams::builder(0).try_build(),
            Err(ParamError::ZeroSuperpixels)
        );
        assert_eq!(
            SlicParams::builder(10).compactness(-1.0).try_build(),
            Err(ParamError::InvalidCompactness)
        );
        assert_eq!(
            SlicParams::builder(10).compactness(f32::NAN).try_build(),
            Err(ParamError::InvalidCompactness)
        );
        assert_eq!(
            SlicParams::builder(10).compactness(f32::INFINITY).try_build(),
            Err(ParamError::InvalidCompactness)
        );
        assert_eq!(
            SlicParams::builder(10).iterations(0).try_build(),
            Err(ParamError::ZeroIterations)
        );
    }

    #[test]
    fn param_error_messages_match_build_panics() {
        // try_build's Display strings are the contract build() panics with.
        assert_eq!(
            ParamError::ZeroSuperpixels.to_string(),
            "superpixel count must be nonzero"
        );
        assert_eq!(
            ParamError::InvalidCompactness.to_string(),
            "compactness must be positive and finite"
        );
        assert_eq!(
            ParamError::ZeroIterations.to_string(),
            "at least one iteration required"
        );
    }

    #[test]
    fn threads_default_to_one_and_round_trip() {
        assert_eq!(SlicParams::builder(10).build().threads().get(), 1);
        let p = SlicParams::builder(10).threads(8).build();
        assert_eq!(p.threads().get(), 8);
        let p = SlicParams::builder(10).threads(3).try_build().unwrap();
        assert_eq!(p.threads().get(), 3);
    }

    #[test]
    fn try_build_rejects_zero_threads() {
        assert_eq!(
            SlicParams::builder(10).threads(0).try_build(),
            Err(ParamError::ZeroThreads)
        );
        assert_eq!(
            ParamError::ZeroThreads.to_string(),
            "thread count must be nonzero"
        );
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_panics() {
        let _ = SlicParams::builder(10).threads(0).build();
    }

    #[test]
    #[should_panic(expected = "superpixel count")]
    fn zero_superpixels_panics() {
        let _ = SlicParams::builder(0).build();
    }

    #[test]
    #[should_panic(expected = "compactness")]
    fn negative_compactness_panics() {
        let _ = SlicParams::builder(10).compactness(-1.0).build();
    }

    #[test]
    #[should_panic(expected = "iteration")]
    fn zero_iterations_panics() {
        let _ = SlicParams::builder(10).iterations(0).build();
    }
}
