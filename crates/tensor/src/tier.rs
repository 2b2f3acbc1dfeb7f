//! The two-tier kernel contract: bit-exact vs reassociated-fast.
//!
//! Every float kernel in this crate belongs to one of two tiers:
//!
//! * [`KernelTier::Exact`] — the kernels DESIGN.md §11 describes: per
//!   output element, additions run in ascending-`k` order with the
//!   exact-zero sparsity skip, so scalar, tiled, arena and batched
//!   paths are all **bit-identical** and every recorded artifact (CSV,
//!   JSON, accuracy tables) reproduces byte-for-byte. This is the
//!   default everywhere.
//! * [`KernelTier::Fast`] — the microkernel family in [`crate::fast`]:
//!   multi-accumulator reassociated inner loops, `f32::mul_add` FMA
//!   contraction, and runtime-dispatched AVX2/FMA (x86_64) or NEON
//!   (aarch64) paths with a portable fallback. Results are *not*
//!   bit-identical to `Exact` — divergence is bounded relative to the
//!   inner product of absolute values (see DESIGN.md §16 and the
//!   `fast_tier_ulp` property suite) and top-1 classifications on the
//!   eval set are asserted unchanged.
//!
//! Tier selection threads from the CLI (`--kernel-tier {exact,fast}`)
//! through `ProfileConfig`, the evaluator, the nn arena and the serve
//! workers down to the kernels that take a tier: [`crate::gemm::gemm_tiled`],
//! [`crate::gemm::matvec_into`] and [`crate::conv::conv2d_batch_into`].

use std::fmt;

/// Which kernel family executes the float hot path.
///
/// `Copy` because it rides inside `Copy` config structs
/// (`ProfileConfig`); `Default` is [`KernelTier::Exact`] so every
/// existing call site, artifact and test keeps bit-exact semantics
/// unless a caller opts in to `Fast` explicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Bit-exact ascending-`k` accumulation with the exact-zero skip;
    /// the reference the fast tier is bounded against.
    #[default]
    Exact,
    /// Reassociated multi-accumulator / FMA / SIMD microkernels with
    /// runtime feature dispatch. Bounded divergence, not bit-exact.
    Fast,
}

impl KernelTier {
    /// The flag spelling, as accepted by `--kernel-tier`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Exact => "exact",
            KernelTier::Fast => "fast",
        }
    }

    /// Parses the `--kernel-tier` flag value.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s {
            "exact" => Some(KernelTier::Exact),
            "fast" => Some(KernelTier::Fast),
            _ => None,
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact() {
        assert_eq!(KernelTier::default(), KernelTier::Exact);
    }

    #[test]
    fn parse_round_trips_both_tiers() {
        for tier in [KernelTier::Exact, KernelTier::Fast] {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
            assert_eq!(format!("{tier}"), tier.name());
        }
        assert_eq!(KernelTier::parse("exactly"), None);
        assert_eq!(KernelTier::parse(""), None);
    }
}
