//! The defense schemes evaluated in the paper (Chapter 7), shared by the
//! attack PoCs, the workload runner, and the benchmark harness.

use persp_uarch::policy::{
    DomPolicy, FencePolicy, SpecPolicy, SpotMitigations, SttPolicy, UnsafePolicy,
};

/// A defense scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unprotected baseline architecture.
    Unsafe,
    /// Hardware-only: delay all speculative loads until prior branches
    /// resolve.
    Fence,
    /// Hardware-only: Delay-on-Miss [Sakalis et al.].
    Dom,
    /// Hardware-only: Speculative Taint Tracking [Yu et al.].
    Stt,
    /// Deployed software spot mitigations (KPTI + Retpoline).
    Spot,
    /// Retpoline without KPTI (§9.1's "without KPTI" variant).
    SpotNoKpti,
    /// FENCE + Perspective hardware with *static* ISVs.
    PerspectiveStatic,
    /// FENCE + Perspective hardware with *dynamic* ISVs.
    Perspective,
    /// Perspective with audit-hardened ISV++ views.
    PerspectivePlusPlus,
}

impl Scheme {
    /// The five schemes of the main evaluation (Figures 9.2/9.3).
    pub const MAIN: &'static [Scheme] = &[
        Scheme::Unsafe,
        Scheme::Fence,
        Scheme::PerspectiveStatic,
        Scheme::Perspective,
        Scheme::PerspectivePlusPlus,
    ];

    /// Every scheme, including the comparison points of §9.1.
    pub const ALL: &'static [Scheme] = &[
        Scheme::Unsafe,
        Scheme::Fence,
        Scheme::Dom,
        Scheme::Stt,
        Scheme::Spot,
        Scheme::SpotNoKpti,
        Scheme::PerspectiveStatic,
        Scheme::Perspective,
        Scheme::PerspectivePlusPlus,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Unsafe => "UNSAFE",
            Scheme::Fence => "FENCE",
            Scheme::Dom => "DOM",
            Scheme::Stt => "STT",
            Scheme::Spot => "KPTI+RETPOLINE",
            Scheme::SpotNoKpti => "RETPOLINE",
            Scheme::PerspectiveStatic => "PERSPECTIVE-STATIC",
            Scheme::Perspective => "PERSPECTIVE",
            Scheme::PerspectivePlusPlus => "PERSPECTIVE++",
        }
    }

    /// Is this one of the Perspective variants (requires the framework)?
    pub fn is_perspective(self) -> bool {
        matches!(
            self,
            Scheme::PerspectiveStatic | Scheme::Perspective | Scheme::PerspectivePlusPlus
        )
    }

    /// Construct the policy for a non-Perspective scheme; Perspective
    /// schemes need a [`Perspective`](crate::framework::Perspective)
    /// framework (use [`Perspective::policy`](crate::framework::Perspective::policy)).
    pub fn build_baseline_policy(self) -> Option<Box<dyn SpecPolicy>> {
        Some(match self {
            Scheme::Unsafe => Box::new(UnsafePolicy::new()),
            Scheme::Fence => Box::new(FencePolicy::new()),
            Scheme::Dom => Box::new(DomPolicy::new()),
            Scheme::Stt => Box::new(SttPolicy::new()),
            Scheme::Spot => Box::new(SpotMitigations::kpti_retpoline()),
            Scheme::SpotNoKpti => Box::new(SpotMitigations::retpoline_only()),
            _ => return None,
        })
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Perspective;
    use crate::policy::PerspectiveConfig;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn baseline_policies_build() {
        for &s in Scheme::ALL {
            if !s.is_perspective() {
                let p = s.build_baseline_policy().expect("builds");
                assert!(!p.name().is_empty());
            } else {
                assert!(s.build_baseline_policy().is_none());
            }
        }
    }

    #[test]
    fn perspective_policies_need_a_framework() {
        assert!(Scheme::Perspective.build_baseline_policy().is_none());
        let p = Perspective::new().policy(PerspectiveConfig::default());
        assert_eq!(p.name(), "PERSPECTIVE");
    }
}
