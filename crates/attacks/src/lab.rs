//! The attack laboratory: the machine every experiment runs on — a
//! [`SimInstance`] built from a shared kernel image, whose process is the
//! attacker — plus a second tenant, the victim, and a defense scheme
//! under test.
//!
//! Every PoC in this crate runs against the same lab, built the way the
//! measurement protocol builds its machines, so that the only difference
//! between "leaks" and "blocked" is the speculation policy — exactly how
//! the paper's security evaluation is framed (Chapter 8).

use persp_kernel::kernel::KernelImage;
use persp_kernel::layout;
use persp_kernel::syscalls::Sysno;
use persp_uarch::config::CoreConfig;
use persp_uarch::pipeline::{RunSummary, SimError};
use persp_uarch::Asid;
use persp_workloads::SimInstance;
use perspective::isv::Isv;
use perspective::policy::PerspectiveConfig;

pub use perspective::scheme::Scheme;

/// The schemes the security evaluation runs every PoC against, in the
/// order `security_poc` reports them.
pub const SCHEMES: [Scheme; 8] = [
    Scheme::Unsafe,
    Scheme::Spot,
    Scheme::Fence,
    Scheme::Dom,
    Scheme::Stt,
    Scheme::PerspectiveStatic,
    Scheme::Perspective,
    Scheme::PerspectivePlusPlus,
];

/// The assembled lab: the measurement protocol's machine, whose workload
/// process is the attacker, plus a victim tenant.
pub struct AttackLab {
    /// The machine (core, kernel, framework, scheme). Its process, in
    /// cgroup 1, is the attacker.
    pub sim: SimInstance,
    /// The victim's context (cgroup 2).
    pub victim: Asid,
}

impl AttackLab {
    /// Build a lab on a shared kernel image: the scheme's machine with
    /// the attacker (cgroup 1) and victim (cgroup 2) processes. For
    /// Perspective schemes the *victim* gets an ISV for
    /// `victim_syscalls` of the matching flavor; the attacker installs
    /// none (an attacker will not restrict itself — DSVs must stop it
    /// regardless). `pcfg` is the enforcement under test: with one view
    /// mechanism off, Perspective leaves one attack class open (§5.1).
    pub fn new(
        scheme: Scheme,
        image: &KernelImage,
        victim_syscalls: &[Sysno],
        pcfg: PerspectiveConfig,
        core_cfg: CoreConfig,
    ) -> Self {
        let sim = SimInstance::from_image_core(scheme, image, pcfg, core_cfg);
        Self::with_victim(sim, victim_syscalls)
    }

    /// Like [`AttackLab::new`], but always wires a Perspective
    /// framework's allocation sink into the kernel — even for baseline
    /// schemes whose policies ignore it. The SNI checker's ground-truth
    /// oracle needs ownership metadata to exist regardless of whether the
    /// scheme enforces it, so `sim.perspective` is always `Some`.
    pub fn instrumented(
        scheme: Scheme,
        image: &KernelImage,
        victim_syscalls: &[Sysno],
        pcfg: PerspectiveConfig,
        core_cfg: CoreConfig,
    ) -> Self {
        let sim = SimInstance::instrumented(scheme, image, pcfg, core_cfg, |p, _| p);
        Self::with_victim(sim, victim_syscalls)
    }

    /// Add the victim process to `sim` and, for Perspective schemes,
    /// install its view.
    fn with_victim(mut sim: SimInstance, victim_syscalls: &[Sysno]) -> Self {
        let victim_pid = sim
            .kernel
            .borrow_mut()
            .create_process(2, &mut sim.core.machine);
        let victim = victim_pid as Asid;

        if let (Some(p), true) = (&sim.perspective, sim.scheme.is_perspective()) {
            let kernel_ref = sim.kernel.borrow();
            let graph = &kernel_ref.graph;
            let isv = match sim.scheme {
                Scheme::PerspectiveStatic => Isv::static_for(graph, victim_syscalls),
                Scheme::Perspective => {
                    Isv::dynamic_from_funcs(graph, graph.live_reachable(victim_syscalls))
                }
                Scheme::PerspectivePlusPlus => {
                    let dynamic =
                        Isv::dynamic_from_funcs(graph, graph.live_reachable(victim_syscalls));
                    let flagged = graph.gadgets_within(dynamic.funcs());
                    dynamic.hardened_with_audit(graph, flagged.into_iter().map(|(f, _)| f))
                }
                _ => unreachable!("is_perspective() gated"),
            };
            p.install_isv(victim, isv);
        }

        AttackLab { sim, victim }
    }

    /// The attacker's context: the instance's own process.
    pub fn attacker(&self) -> Asid {
        self.sim.asid
    }

    /// Run a user program as `asid` (context-switches `CURRENT_TASK`).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run_as(&mut self, asid: Asid, entry: u64, budget: u64) -> Result<RunSummary, SimError> {
        let sim = &mut self.sim;
        sim.kernel.borrow().set_current(asid, &mut sim.core.machine);
        sim.core.run(entry, budget)
    }

    /// Direct-map address of the victim's kernel-side secret object.
    pub fn victim_secret_va(&self) -> u64 {
        self.sim
            .kernel
            .borrow()
            .secret_va(self.victim)
            .expect("victim exists")
    }

    /// Plant a secret byte in the victim's kernel object.
    pub fn plant_victim_secret(&mut self, value: u8) {
        let va = self.victim_secret_va();
        self.sim.core.machine.mem.write_u8(va, value);
    }

    /// User text base of a context's process.
    pub fn user_text(&self, asid: Asid) -> u64 {
        layout::user_text_base(self.sim.kernel.borrow().process(asid).expect("exists").pid)
    }

    /// User data base of a context's process.
    pub fn user_data(&self, asid: Asid) -> u64 {
        layout::user_data_base(self.sim.kernel.borrow().process(asid).expect("exists").pid)
    }
}

/// Differential verdict: run an attack once per secret, where `run`
/// returns the probe lines the attacker saw hot. The attack "works" only
/// if each run recovers its own secret (noise lines are identical across
/// runs and cancel out).
pub fn attack_succeeds(secrets: [u8; 2], run: impl Fn(u8) -> Vec<u8>) -> bool {
    secrets
        .into_iter()
        .all(|secret| run(secret).contains(&secret))
}

/// The small kernel image the unit tests run on.
#[cfg(test)]
pub(crate) fn test_image() -> KernelImage {
    KernelImage::build(persp_kernel::callgraph::KernelConfig::test_small())
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_workloads::{lebench, Workload};
    use perspective::policy::PerspectivePolicy;

    fn lab(scheme: Scheme, victim_syscalls: &[Sysno]) -> AttackLab {
        let (pcfg, core_cfg) = (PerspectiveConfig::default(), CoreConfig::paper_default());
        AttackLab::new(scheme, &test_image(), victim_syscalls, pcfg, core_cfg)
    }

    #[test]
    fn lab_builds_for_every_scheme() {
        for &scheme in &[
            Scheme::Unsafe,
            Scheme::Fence,
            Scheme::Dom,
            Scheme::Stt,
            Scheme::Spot,
        ] {
            let lab = lab(scheme, &[Sysno::Getpid]);
            assert_eq!(lab.sim.scheme, scheme);
            assert!(lab.sim.perspective.is_none());
            assert_ne!(lab.attacker(), lab.victim);
        }
        for &scheme in &[
            Scheme::PerspectiveStatic,
            Scheme::Perspective,
            Scheme::PerspectivePlusPlus,
        ] {
            let lab = lab(scheme, &[Sysno::Getpid]);
            let p = lab.sim.perspective.as_ref().unwrap();
            p.with_isv(lab.victim, |isv| {
                assert!(isv.is_some(), "victim has a view")
            });
            p.with_isv(lab.attacker(), |isv| {
                assert!(isv.is_none(), "attacker installs none")
            });
        }
    }

    #[test]
    fn secret_plumbing_round_trips() {
        let mut lab = lab(Scheme::Unsafe, &[Sysno::Getpid]);
        lab.plant_victim_secret(0xAB);
        assert_eq!(
            lab.sim.core.machine.mem.read_u8(lab.victim_secret_va()),
            0xAB
        );
    }

    #[test]
    fn perspective_plus_plus_view_excludes_gadget_hosts() {
        let lab = lab(Scheme::PerspectivePlusPlus, Sysno::ALL);
        let kernel = lab.sim.kernel.borrow();
        let p = lab.sim.perspective.as_ref().unwrap();
        p.with_isv(lab.victim, |isv| {
            let isv = isv.unwrap();
            for (host, _) in &kernel.graph.gadgets {
                assert!(!isv.contains_func(*host), "gadget host must be excluded");
            }
        });
    }

    /// A Perspective lab whose two tenants run `a` (attacker) and `b`
    /// (victim) alternately for `rounds` rounds, each under a dynamic
    /// view of its own syscall profile.
    fn ping_pong(a: &str, b: &str, rounds: usize) -> AttackLab {
        let (a, b) = (lebench::by_name(a).unwrap(), lebench::by_name(b).unwrap());
        let mut lab = lab(Scheme::Perspective, &b.syscall_profile());
        {
            let kernel = lab.sim.kernel.borrow();
            let g = &kernel.graph;
            let view = Isv::dynamic_from_funcs(g, g.live_reachable(&a.syscall_profile()));
            lab.sim
                .perspective
                .as_ref()
                .unwrap()
                .install_isv(lab.attacker(), view);
        }
        let load = |lab: &mut AttackLab, asid: Asid, w: &Workload| {
            let text = lab.user_text(asid);
            let program = w.compile(text, lab.user_data(asid));
            lab.sim.core.machine.load_text(program);
            text
        };
        let (attacker, victim) = (lab.attacker(), lab.victim);
        let text_a = load(&mut lab, attacker, &a);
        let text_b = load(&mut lab, victim, &b);
        let before = lab.sim.core.stats().syscalls;
        for _ in 0..rounds {
            lab.run_as(attacker, text_a, 200_000_000)
                .expect("tenant A runs");
            lab.run_as(victim, text_b, 200_000_000)
                .expect("tenant B runs");
        }
        let per_round = a.total_syscalls() + b.total_syscalls();
        assert_eq!(
            lab.sim.core.stats().syscalls - before,
            rounds as u64 * per_round,
            "every round of both tenants completes"
        );
        lab
    }

    #[test]
    fn asid_tagging_survives_context_switches() {
        // Under Perspective, both contexts' ISV-cache entries coexist:
        // the second round of each process should mostly hit.
        let lab = ping_pong("getpid", "small-read", 4);
        let hit_rate = lab
            .sim
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
        use perspective::dsv::DsvClass;
        let lab = ping_pong("mmap", "brk", 2);
        let (a, b) = (lab.attacker(), lab.victim);
        let dsv = lab.sim.perspective.as_ref().unwrap().dsv();
        let kernel = lab.sim.kernel.borrow();
        let task_a = kernel.process(a).unwrap().task_struct_va;
        let task_b = kernel.process(b).unwrap().task_struct_va;
        let mut table = dsv.borrow_mut();
        assert_eq!(table.classify(task_a, a), DsvClass::Owned);
        assert_eq!(table.classify(task_b, b), DsvClass::Owned);
        assert_eq!(table.classify(task_b, a), DsvClass::Foreign);
        assert_eq!(table.classify(task_a, b), DsvClass::Foreign);
    }
}
