//! The paper's taxonomy of transient execution attacks in the OS (§4.1).
//!
//! Attacks are classified by *scenario* — who speculatively executes the
//! gadget — rather than by microarchitectural variant, which is what makes
//! the defense design variant-agnostic:
//!
//! * **Active**: the attacker's own kernel thread speculatively accesses
//!   and transmits data owned by someone else. Mitigated by DSVs.
//! * **Passive**: the *victim's* kernel thread is coerced (speculative
//!   control-flow hijacking) into a gadget that accesses and transmits the
//!   victim's own data. Mitigated by ISVs.

/// Microarchitectural attack variants (the rows of the paper's threat
/// model). The taxonomy — and Perspective — is agnostic to these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Conditional-branch misprediction (bounds-check bypass).
    SpectreV1,
    /// Branch-target injection via the BTB.
    SpectreV2,
    /// Return-stack-buffer poisoning / underflow.
    SpectreRsb,
    /// Retbleed: returns falling back to attacker-controlled BTB entries.
    Retbleed,
    /// Branch History Injection across privilege levels.
    Bhi,
}

impl Variant {
    /// All modelled variants.
    pub const ALL: &'static [Variant] = &[
        Variant::SpectreV1,
        Variant::SpectreV2,
        Variant::SpectreRsb,
        Variant::Retbleed,
        Variant::Bhi,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::SpectreV1 => "Spectre v1",
            Variant::SpectreV2 => "Spectre v2",
            Variant::SpectreRsb => "Spectre RSB",
            Variant::Retbleed => "Retbleed",
            Variant::Bhi => "BHI",
        }
    }
}

/// The two attack scenarios of the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// The attacker's kernel thread runs the gadget (Figure 4.1).
    Active,
    /// The victim's kernel thread is coerced into the gadget (Figure 4.2).
    Passive,
}

/// Verdict of an attack proof-of-concept run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// The secret byte was recovered through the covert channel.
    Leaked {
        /// The recovered value.
        recovered: u8,
        /// The true secret, for verification.
        expected: u8,
    },
    /// No signal crossed the covert channel.
    Blocked,
    /// The channel was noisy/ambiguous (counted as not leaked).
    Inconclusive,
}

impl AttackOutcome {
    /// Did the attack succeed (recover the correct secret)?
    pub fn succeeded(&self) -> bool {
        matches!(self, AttackOutcome::Leaked { recovered, expected } if recovered == expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_classification() {
        assert_eq!(Variant::ALL.len(), 5);
    }

    #[test]
    fn outcome_success_requires_correct_secret() {
        assert!(AttackOutcome::Leaked {
            recovered: 7,
            expected: 7
        }
        .succeeded());
        assert!(!AttackOutcome::Leaked {
            recovered: 7,
            expected: 9
        }
        .succeeded());
        assert!(!AttackOutcome::Blocked.succeeded());
        assert!(!AttackOutcome::Inconclusive.succeeded());
    }
}
