//! Simulation statistics collected by the core.

use crate::counters;
use crate::metrics::Counters;

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
        self.counter_sum()
    }
}

counters!(StallBreakdown {
    isv_fence,
    dsv_fence,
    isv_miss,
    dsvmt_miss,
    squash,
    vp_wait,
    frontend,
    backend,
});

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
    /// Total SNI violations: ground-truth-unsafe issues plus tainted
    /// transient transmissions (the two event classes the checker treats
    /// as non-interference failures).
    pub fn violations(&self) -> u64 {
        self.unsafe_issues + self.tainted_transmits
    }
}

counters!(SniCounters {
    shadow_checked,
    shadow_mismatches,
    unsafe_issues,
    secret_spec_loads,
    tainted_transmits,
    committed_secret_roots,
});

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
        self.counters_since(earlier)
    }
}

counters!(SimStats {
    cycles,
    kernel_cycles,
    user_cycles,
    committed_insts,
    committed_loads,
    committed_stores,
    committed_branches,
    squashes,
    squashed_insts,
    transient_loads_issued,
    syscalls,
    loads_fenced,
    stall_cycles,
    taint_roots_overflow;
    sni: sni,
    stall: stalls,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, MetricsSource};

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
        let d = b.counters_since(&a);
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
        // Nested groups subtract too.
        let mut c = b;
        c.sni.shadow_checked = 7;
        c.stalls.squash = 5;
        let d = c.delta_since(&b);
        assert_eq!((d.cycles, d.sni.shadow_checked, d.stalls.squash), (0, 7, 5));
    }

    /// Distinct nonzero values in every counter, nested ones included.
    fn numbered() -> SimStats {
        let mut s = SimStats::default();
        let mut n = 0;
        s.visit(&SimStats::default(), &mut String::new(), &mut |_, v, _| {
            n += 1;
            *v = n;
        });
        s
    }

    #[test]
    fn the_registry_rebuilds_what_was_exported() {
        let s = numbered();
        assert_eq!(s.cycles, 1);
        assert_ne!(s.stalls.backend, 0);
        let mut reg = MetricsRegistry::new();
        s.export_metrics("sim", &mut reg);
        assert_eq!(reg.len(), 14 + 6 + 8);
        assert_eq!(SimStats::from_registry(&reg, "sim"), Ok(Some(s)));
        assert_eq!(SimStats::from_registry(&reg, "other"), Ok(None));
    }

    #[test]
    fn a_rebuild_with_a_missing_counter_names_it() {
        let mut reg = MetricsRegistry::new();
        numbered().export_metrics("sim", &mut reg);
        for (missing, _) in reg.iter() {
            let mut damaged = MetricsRegistry::new();
            for (name, v) in reg.iter().filter(|&(name, _)| name != missing) {
                damaged.set(name, v);
            }
            let err = SimStats::from_registry(&damaged, "sim").unwrap_err();
            assert!(err.contains(&format!("{missing:?}")), "{err}");
        }
    }
}
