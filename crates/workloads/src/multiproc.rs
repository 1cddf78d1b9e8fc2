//! Multi-process scenarios: context switching between mutually
//! distrusting containers on one core.
//!
//! Perspective's hardware structures are ASID-tagged precisely so that
//! context switches need no flushes (§6.2). This module provides a
//! ping-pong runner that alternates two processes from different cgroups
//! through the same core, which exercises:
//!
//! * per-context `CURRENT_TASK` switching and DSV ownership transitions,
//! * ASID-tagged ISV-cache and DSVMT-cache entries surviving switches,
//! * the secure slab allocator serving interleaved allocation streams.

use crate::runner::SimInstance;
use crate::spec::Workload;
use persp_kernel::kernel::KernelImage;
use persp_uarch::stats::SimStats;
use persp_uarch::Asid;
use perspective::isv::Isv;
use perspective::scheme::Scheme;

/// Result of a ping-pong run.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Total statistics across both processes.
    pub stats: SimStats,
    /// Context switches performed.
    pub switches: u64,
}

/// Two processes from different cgroups alternating on one core.
pub struct PingPong {
    /// The underlying instance (process A is `instance.asid`).
    pub instance: SimInstance,
    /// The second process's context.
    pub asid_b: Asid,
}

impl PingPong {
    /// Build a two-process instance on `image`. Process A is in cgroup 1
    /// (created by [`SimInstance::from_image`]), process B in cgroup 2.
    pub fn new(scheme: Scheme, image: &KernelImage) -> Self {
        let mut instance = SimInstance::from_image(scheme, image);
        let pid_b = {
            let mut kernel = instance.kernel.borrow_mut();
            kernel.create_process(2, &mut instance.core.machine)
        };
        PingPong {
            instance,
            asid_b: pid_b as Asid,
        }
    }

    /// Install per-context ISVs for both processes (Perspective schemes).
    pub fn install_isvs(&self, workload_a: &Workload, workload_b: &Workload) {
        if let Some(p) = &self.instance.perspective {
            let kernel = self.instance.kernel.borrow();
            let g = &kernel.graph;
            p.install_isv(
                self.instance.asid,
                Isv::from_func_set(
                    g,
                    g.live_reachable(&workload_a.syscall_profile()),
                    perspective::isv::IsvKind::Dynamic,
                ),
            );
            p.install_isv(
                self.asid_b,
                Isv::from_func_set(
                    g,
                    g.live_reachable(&workload_b.syscall_profile()),
                    perspective::isv::IsvKind::Dynamic,
                ),
            );
        }
    }

    /// Alternate the two workloads for `rounds` rounds each.
    ///
    /// # Panics
    ///
    /// Panics on simulation errors (the workloads are well-formed).
    pub fn run(
        &mut self,
        workload_a: &Workload,
        workload_b: &Workload,
        rounds: usize,
    ) -> PingPongResult {
        let inst = &mut self.instance;
        let text_a = inst.text_base();
        let data_a = inst.data_base();
        let text_b = persp_kernel::layout::user_text_base(u32::from(self.asid_b));
        let data_b = persp_kernel::layout::user_data_base(u32::from(self.asid_b));
        inst.core
            .machine
            .load_text(workload_a.compile(text_a, data_a));
        inst.core
            .machine
            .load_text(workload_b.compile(text_b, data_b));

        let before = inst.core.stats();
        let mut switches = 0;
        for _ in 0..rounds {
            inst.kernel
                .borrow()
                .set_current(inst.asid, &mut inst.core.machine);
            inst.core.run(text_a, 200_000_000).expect("process A runs");
            switches += 1;
            inst.kernel
                .borrow()
                .set_current(self.asid_b, &mut inst.core.machine);
            inst.core.run(text_b, 200_000_000).expect("process B runs");
            switches += 1;
        }
        PingPongResult {
            stats: inst.core.stats().delta_since(&before),
            switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lebench;
    use perspective::policy::PerspectivePolicy;

    use persp_kernel::callgraph::KernelConfig;

    fn image() -> KernelImage {
        KernelImage::build(KernelConfig::test_small())
    }

    #[test]
    fn ping_pong_completes_under_unsafe() {
        let mut pp = PingPong::new(Scheme::Unsafe, &image());
        let a = lebench::by_name("getpid").unwrap();
        let b = lebench::by_name("small-read").unwrap();
        let r = pp.run(&a, &b, 3);
        assert_eq!(r.switches, 6);
        assert_eq!(
            r.stats.syscalls,
            3 * (a.total_syscalls() + b.total_syscalls())
        );
    }

    #[test]
    fn asid_tagging_survives_context_switches() {
        // Under Perspective, both contexts' ISV-cache entries coexist:
        // the second round of each process should mostly hit.
        let mut pp = PingPong::new(Scheme::Perspective, &image());
        let a = lebench::by_name("getpid").unwrap();
        let b = lebench::by_name("small-read").unwrap();
        pp.install_isvs(&a, &b);
        pp.run(&a, &b, 4);
        let hit_rate = pp
            .instance
            .core
            .policy()
            .as_any()
            .and_then(|x| x.downcast_ref::<PerspectivePolicy>())
            .map(|p| p.isv_cache_stats().hit_rate())
            .expect("perspective policy");
        assert!(
            hit_rate > 0.7,
            "tagged entries must survive switches: hit rate {hit_rate:.3}"
        );
    }

    #[test]
    fn cross_context_ownership_is_preserved() {
        // After interleaved runs, each process's kernel objects still
        // belong to its own cgroup (the allocators never mix domains).
        let mut pp = PingPong::new(Scheme::Perspective, &image());
        let a = lebench::by_name("mmap").unwrap();
        let b = lebench::by_name("brk").unwrap();
        pp.install_isvs(&a, &b);
        pp.run(&a, &b, 2);

        let p = pp.instance.perspective.as_ref().unwrap();
        let dsv = p.dsv();
        let kernel = pp.instance.kernel.borrow();
        let task_a = kernel.process(pp.instance.asid).unwrap().task_struct_va;
        let task_b = kernel.process(pp.asid_b).unwrap().task_struct_va;
        let mut table = dsv.borrow_mut();
        use perspective::dsv::DsvClass;
        assert_eq!(table.classify(task_a, pp.instance.asid), DsvClass::Owned);
        assert_eq!(table.classify(task_b, pp.asid_b), DsvClass::Owned);
        assert_eq!(table.classify(task_b, pp.instance.asid), DsvClass::Foreign);
        assert_eq!(table.classify(task_a, pp.asid_b), DsvClass::Foreign);
    }

    #[test]
    fn per_scheme_ping_pong_cost_ordering() {
        let a = lebench::by_name("select").unwrap();
        let b = lebench::by_name("poll").unwrap();
        let mut cycles = Vec::new();
        for scheme in [Scheme::Unsafe, Scheme::Fence, Scheme::Perspective] {
            let mut pp = PingPong::new(scheme, &image());
            pp.install_isvs(&a, &b);
            pp.run(&a, &b, 1); // warmup
            let r = pp.run(&a, &b, 1);
            cycles.push(r.stats.cycles);
        }
        assert!(cycles[1] > cycles[0], "FENCE slower than UNSAFE");
        assert!(cycles[2] < cycles[1], "Perspective cheaper than FENCE");
    }
}
