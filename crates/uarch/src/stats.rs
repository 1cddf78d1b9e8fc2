//! Simulation statistics collected by the core.

use crate::metrics::{MetricsRegistry, MetricsSource};

/// Attribution of stall cycles (cycles in which nothing committed) to
/// the mechanism holding the ROB head back — the cycle-level counterpart
/// of the fence counts in Table 10.1. The classes partition the stall
/// cycles exactly: [`StallBreakdown::total`] always equals
/// [`SimStats::stall_cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Head load fenced by the ISV mechanism (outside the view).
    pub isv_fence: u64,
    /// Head load fenced by the DSV mechanism (foreign/unknown data).
    pub dsv_fence: u64,
    /// Head load blocked conservatively on an ISV-cache miss.
    pub isv_miss: u64,
    /// Head load blocked conservatively on a DSVMT-cache miss.
    pub dsvmt_miss: u64,
    /// Pipeline refilling after a squash (mispredict redirect penalty).
    pub squash: u64,
    /// Head load waiting for its visibility point under a baseline
    /// policy (FENCE / DOM / STT).
    pub vp_wait: u64,
    /// Front end starved the ROB (fetch latency, serializing restart,
    /// I-cache miss) — no blocked load at fault.
    pub frontend: u64,
    /// Back end: head waiting on operands or execution latency.
    pub backend: u64,
}

impl StallBreakdown {
    /// Total attributed stall cycles (sums the partition).
    pub fn total(&self) -> u64 {
        self.isv_fence
            + self.dsv_fence
            + self.isv_miss
            + self.dsvmt_miss
            + self.squash
            + self.vp_wait
            + self.frontend
            + self.backend
    }

    /// Fieldwise difference (for region-of-interest measurement).
    pub fn delta_since(&self, earlier: &StallBreakdown) -> StallBreakdown {
        StallBreakdown {
            isv_fence: self.isv_fence - earlier.isv_fence,
            dsv_fence: self.dsv_fence - earlier.dsv_fence,
            isv_miss: self.isv_miss - earlier.isv_miss,
            dsvmt_miss: self.dsvmt_miss - earlier.dsvmt_miss,
            squash: self.squash - earlier.squash,
            vp_wait: self.vp_wait - earlier.vp_wait,
            frontend: self.frontend - earlier.frontend,
            backend: self.backend - earlier.backend,
        }
    }
}

impl MetricsSource for StallBreakdown {
    fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set(format!("{prefix}.isv_fence"), self.isv_fence);
        reg.set(format!("{prefix}.dsv_fence"), self.dsv_fence);
        reg.set(format!("{prefix}.isv_miss"), self.isv_miss);
        reg.set(format!("{prefix}.dsvmt_miss"), self.dsvmt_miss);
        reg.set(format!("{prefix}.squash"), self.squash);
        reg.set(format!("{prefix}.vp_wait"), self.vp_wait);
        reg.set(format!("{prefix}.frontend"), self.frontend);
        reg.set(format!("{prefix}.backend"), self.backend);
    }
}

/// Counters maintained by the speculative non-interference checker
/// (shadow oracle + leakage monitor, [`crate::sni`]). All zero when the
/// checker is not attached. Exported under `{prefix}.sni.*` — distinct
/// from the `{prefix}.stall.*` namespace so the stall-partition
/// invariant is untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SniCounters {
    /// Retired instructions replayed by the in-order shadow oracle.
    pub shadow_checked: u64,
    /// Architectural-state divergences between the shadow replay and the
    /// out-of-order pipeline. Any nonzero value is a simulator bug.
    pub shadow_mismatches: u64,
    /// Speculative kernel loads the policy allowed but the pristine
    /// ground-truth metadata says must block — SNI violations at issue.
    pub unsafe_issues: u64,
    /// Speculative loads that read data outside the current context's
    /// DSV (secret taint roots created).
    pub secret_spec_loads: u64,
    /// Transient (later-squashed) cache-state transmissions whose address
    /// carried secret taint — observable leaks under the covert-channel
    /// observation model.
    pub tainted_transmits: u64,
    /// Secret taint roots that retired architecturally (not transient);
    /// dropped from leak attribution, counted for visibility.
    pub committed_secret_roots: u64,
}

impl SniCounters {
    /// Fieldwise difference (for region-of-interest measurement).
    pub fn delta_since(&self, earlier: &SniCounters) -> SniCounters {
        SniCounters {
            shadow_checked: self.shadow_checked - earlier.shadow_checked,
            shadow_mismatches: self.shadow_mismatches - earlier.shadow_mismatches,
            unsafe_issues: self.unsafe_issues - earlier.unsafe_issues,
            secret_spec_loads: self.secret_spec_loads - earlier.secret_spec_loads,
            tainted_transmits: self.tainted_transmits - earlier.tainted_transmits,
            committed_secret_roots: self.committed_secret_roots - earlier.committed_secret_roots,
        }
    }

    /// Total SNI violations: ground-truth-unsafe issues plus tainted
    /// transient transmissions (the two event classes the checker treats
    /// as non-interference failures).
    pub fn violations(&self) -> u64 {
        self.unsafe_issues + self.tainted_transmits
    }
}

impl MetricsSource for SniCounters {
    fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set(format!("{prefix}.shadow_checked"), self.shadow_checked);
        reg.set(
            format!("{prefix}.shadow_mismatches"),
            self.shadow_mismatches,
        );
        reg.set(format!("{prefix}.unsafe_issues"), self.unsafe_issues);
        reg.set(
            format!("{prefix}.secret_spec_loads"),
            self.secret_spec_loads,
        );
        reg.set(
            format!("{prefix}.tainted_transmits"),
            self.tainted_transmits,
        );
        reg.set(
            format!("{prefix}.committed_secret_roots"),
            self.committed_secret_roots,
        );
    }
}

/// Counters accumulated while the pipeline runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Cycles spent while the committed mode was kernel.
    pub kernel_cycles: u64,
    /// Cycles spent while the committed mode was user.
    pub user_cycles: u64,
    /// Instructions retired.
    pub committed_insts: u64,
    /// Loads retired.
    pub committed_loads: u64,
    /// Stores retired.
    pub committed_stores: u64,
    /// Conditional branches retired.
    pub committed_branches: u64,
    /// Control-flow squashes (branch, indirect, or return mispredictions).
    pub squashes: u64,
    /// Instructions discarded by squashes.
    pub squashed_insts: u64,
    /// Loads that issued a memory access speculatively and were later
    /// squashed — the transient accesses that leave covert-channel state.
    pub transient_loads_issued: u64,
    /// Syscall instructions retired.
    pub syscalls: u64,
    /// Loads that were blocked at least once by the speculation policy.
    pub loads_fenced: u64,
    /// Cycles in which no instruction committed.
    pub stall_cycles: u64,
    /// Events where a taint set's fixed root array filled and a new root
    /// had to saturate the set (conservative over-taint, never dropped
    /// attribution — but worth surfacing).
    pub taint_roots_overflow: u64,
    /// Speculative non-interference checker counters (zero when the
    /// checker is not attached).
    pub sni: SniCounters,
    /// Attribution of the stall cycles to their blocking mechanism.
    pub stalls: StallBreakdown,
}

impl SimStats {
    /// Fraction of cycles spent in the kernel.
    pub fn kernel_time_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.kernel_cycles as f64 / self.cycles as f64
        }
    }

    /// Difference of two snapshots (for region-of-interest measurement).
    pub fn delta_since(&self, earlier: &SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles - earlier.cycles,
            kernel_cycles: self.kernel_cycles - earlier.kernel_cycles,
            user_cycles: self.user_cycles - earlier.user_cycles,
            committed_insts: self.committed_insts - earlier.committed_insts,
            committed_loads: self.committed_loads - earlier.committed_loads,
            committed_stores: self.committed_stores - earlier.committed_stores,
            committed_branches: self.committed_branches - earlier.committed_branches,
            squashes: self.squashes - earlier.squashes,
            squashed_insts: self.squashed_insts - earlier.squashed_insts,
            transient_loads_issued: self.transient_loads_issued - earlier.transient_loads_issued,
            syscalls: self.syscalls - earlier.syscalls,
            loads_fenced: self.loads_fenced - earlier.loads_fenced,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            taint_roots_overflow: self.taint_roots_overflow - earlier.taint_roots_overflow,
            sni: self.sni.delta_since(&earlier.sni),
            stalls: self.stalls.delta_since(&earlier.stalls),
        }
    }
}

impl MetricsSource for SimStats {
    fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set(format!("{prefix}.cycles"), self.cycles);
        reg.set(format!("{prefix}.kernel_cycles"), self.kernel_cycles);
        reg.set(format!("{prefix}.user_cycles"), self.user_cycles);
        reg.set(format!("{prefix}.committed_insts"), self.committed_insts);
        reg.set(format!("{prefix}.committed_loads"), self.committed_loads);
        reg.set(format!("{prefix}.committed_stores"), self.committed_stores);
        reg.set(
            format!("{prefix}.committed_branches"),
            self.committed_branches,
        );
        reg.set(format!("{prefix}.squashes"), self.squashes);
        reg.set(format!("{prefix}.squashed_insts"), self.squashed_insts);
        reg.set(
            format!("{prefix}.transient_loads_issued"),
            self.transient_loads_issued,
        );
        reg.set(format!("{prefix}.syscalls"), self.syscalls);
        reg.set(format!("{prefix}.loads_fenced"), self.loads_fenced);
        reg.set(format!("{prefix}.stall_cycles"), self.stall_cycles);
        reg.set(
            format!("{prefix}.taint_roots_overflow"),
            self.taint_roots_overflow,
        );
        self.sni.export_metrics(&format!("{prefix}.sni"), reg);
        self.stalls.export_metrics(&format!("{prefix}.stall"), reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_fractions() {
        let s = SimStats {
            cycles: 100,
            kernel_cycles: 60,
            user_cycles: 40,
            committed_insts: 250,
            loads_fenced: 5,
            ..SimStats::default()
        };
        assert!((s.kernel_time_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.kernel_time_fraction(), 0.0);
    }

    #[test]
    fn stall_breakdown_total_and_delta() {
        let a = StallBreakdown {
            isv_fence: 1,
            dsv_fence: 2,
            isv_miss: 3,
            dsvmt_miss: 4,
            squash: 5,
            vp_wait: 6,
            frontend: 7,
            backend: 8,
        };
        assert_eq!(a.total(), 36);
        let b = StallBreakdown {
            isv_fence: 10,
            dsv_fence: 12,
            isv_miss: 13,
            dsvmt_miss: 14,
            squash: 15,
            vp_wait: 16,
            frontend: 17,
            backend: 18,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.total(), b.total() - a.total());
        assert_eq!(d.isv_fence, 9);
        assert_eq!(d.backend, 10);
    }

    #[test]
    fn metrics_export_covers_the_stall_partition() {
        let mut s = SimStats {
            cycles: 10,
            stall_cycles: 3,
            ..Default::default()
        };
        s.stalls.vp_wait = 2;
        s.stalls.frontend = 1;
        let mut reg = MetricsRegistry::new();
        s.export_metrics("sim", &mut reg);
        assert_eq!(reg.get("sim.cycles"), Some(10));
        assert_eq!(reg.get("sim.stall.vp_wait"), Some(2));
        let stall_sum: u64 = reg
            .iter()
            .filter(|(k, _)| k.starts_with("sim.stall."))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(stall_sum, reg.get("sim.stall_cycles").unwrap());
    }

    #[test]
    fn sni_and_overflow_counters_export_and_delta() {
        let mut s = SimStats {
            taint_roots_overflow: 4,
            ..Default::default()
        };
        s.sni.shadow_checked = 100;
        s.sni.unsafe_issues = 2;
        s.sni.tainted_transmits = 3;
        let mut reg = MetricsRegistry::new();
        s.export_metrics("sim", &mut reg);
        assert_eq!(reg.get("sim.taint_roots_overflow"), Some(4));
        assert_eq!(reg.get("sim.sni.shadow_checked"), Some(100));
        assert_eq!(reg.get("sim.sni.unsafe_issues"), Some(2));
        assert_eq!(reg.get("sim.sni.tainted_transmits"), Some(3));
        assert_eq!(s.sni.violations(), 5);
        // The sni.* namespace must never pollute the stall partition.
        assert!(reg
            .iter()
            .filter(|(k, _)| k.starts_with("sim.stall."))
            .all(|(_, v)| v == 0));
        let d = s.delta_since(&SimStats::default());
        assert_eq!(d.taint_roots_overflow, 4);
        assert_eq!(d.sni.shadow_checked, 100);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = SimStats {
            cycles: 10,
            committed_insts: 20,
            ..Default::default()
        };
        let b = SimStats {
            cycles: 25,
            committed_insts: 70,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 15);
        assert_eq!(d.committed_insts, 50);
    }
}
