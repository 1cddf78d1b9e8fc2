//! A Syzkaller-lite coverage-guided syscall fuzzer driving the gadget
//! scanner — the discovery-rate experiment of Figure 9.1.
//!
//! Kasper's pipeline interleaves *execution* (fuzzing syscalls to grow
//! coverage) with *analysis* (taint-scanning the covered code). Bounding
//! the campaign to a workload's ISV shrinks the analysis work and skips
//! out-of-profile syscalls, improving the gadgets-per-hour rate by the
//! 1.14–2.23× range the paper reports; execution work is unchanged, which
//! is why the speedup is far below the raw 20× search-space reduction.

use crate::taint::scan_functions;
use persp_kernel::callgraph::{FuncId, FuncSet};
use persp_kernel::kernel::SharedKernel;
use persp_kernel::layout;
use persp_kernel::syscalls::Sysno;
use persp_uarch::isa::{Assembler, Inst, REG_ARG0, REG_ARG1, REG_ARG2, REG_SYSNO};
use persp_uarch::pipeline::Core;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Work-accounting constants: one simulated cycle of fuzz execution vs.
/// one instruction of taint analysis. Analysis is the cheaper unit but a
/// full-kernel sweep runs it over ~600 K instructions per round.
const ANALYSIS_COST_PER_INST: u64 = 4;

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Distinct gadgets discovered, as `(function, access pc)`.
    pub found: HashSet<(FuncId, u64)>,
    /// Total work units spent (execution + analysis).
    pub work_units: u64,
    /// Simulated execution cycles.
    pub exec_cycles: u64,
    /// Instructions taint-scanned.
    pub insts_scanned: u64,
    /// Functions covered by fuzz executions.
    pub coverage: usize,
}

impl FuzzReport {
    /// Discovery rate counting only the gadgets inside `relevant` — the
    /// ones that remain speculatively reachable under the deployed ISV,
    /// i.e. the audit targets of §8.2. This is the Figure 9.1 metric: a
    /// baseline Kasper campaign spends most of its work on code the ISV
    /// already blocks.
    pub fn relevant_rate(&self, relevant: &FuncSet) -> f64 {
        let n = self
            .found
            .iter()
            .filter(|&&(f, _)| relevant.contains(f))
            .count();
        self.rate_over(n)
    }

    fn rate_over(&self, n: usize) -> f64 {
        if self.work_units == 0 {
            0.0
        } else {
            n as f64 * 1_000_000.0 / self.work_units as f64
        }
    }
}

/// A fuzzing campaign over a live kernel instance.
pub struct Fuzzer<'a> {
    core: &'a mut Core,
    kernel: SharedKernel,
    rng: SmallRng,
    seed: u64,
    asid: u16,
    rounds_between_scans: usize,
}

impl<'a> Fuzzer<'a> {
    /// Attach a fuzzer to a running core/kernel pair (process `asid` must
    /// exist).
    pub fn new(core: &'a mut Core, kernel: SharedKernel, asid: u16, seed: u64) -> Self {
        Fuzzer {
            core,
            kernel,
            rng: SmallRng::seed_from_u64(seed),
            seed,
            asid,
            rounds_between_scans: 4,
        }
    }

    fn fuzz_program(&mut self, base: u64, syscalls: &[Sysno], calls: usize) -> Vec<(u64, Inst)> {
        let mut asm = Assembler::new(base);
        let data = layout::user_data_base(u32::from(self.asid));
        for _ in 0..calls {
            let sys = syscalls[self.rng.gen_range(0..syscalls.len())];
            asm.movi(REG_ARG0, self.rng.gen_range(0..64));
            asm.movi(REG_ARG1, data + self.rng.gen_range(0..16u64) * 4096);
            asm.movi(REG_ARG2, self.rng.gen_range(0..16));
            asm.movi(REG_SYSNO, sys as u16 as u64);
            asm.push(Inst::Syscall);
        }
        asm.push(Inst::Halt);
        asm.finish()
    }

    /// Run a campaign of `rounds` fuzz programs, scanning newly covered
    /// functions after every few rounds. `bound` restricts both the
    /// syscall profile and the analysis space (the ISV acceleration); pass
    /// `None` for the whole-kernel baseline.
    pub fn campaign(
        &mut self,
        rounds: usize,
        syscalls: &[Sysno],
        bound: Option<&FuncSet>,
    ) -> FuzzReport {
        let mut covered = FuncSet::default();
        let mut scanned = FuncSet::default();
        let mut found: HashSet<(FuncId, u64)> = HashSet::new();
        let mut exec_cycles = 0u64;
        let mut insts_scanned = 0u64;

        // Each campaign assembles its programs into a seed-dependent slice
        // of the text window so that concurrent campaigns on one machine
        // image never collide.
        let base =
            layout::user_text_base(u32::from(self.asid)) + 0x10_0000 + (self.seed % 8) * 0x10_0000;
        for round in 0..rounds {
            // Execution: one randomized syscall program.
            let prog = self.fuzz_program(base + round as u64 * 0x4000, syscalls, 6);
            self.core.machine.load_text(prog);
            self.kernel
                .borrow()
                .set_current(self.asid, &mut self.core.machine);
            self.core.enable_call_trace();
            let entry = base + round as u64 * 0x4000;
            if let Ok(summary) = self.core.run(entry, 4_000_000) {
                exec_cycles += summary.stats.cycles;
            }
            let trace = self.core.take_call_trace();
            {
                let kernel = self.kernel.borrow();
                for va in trace {
                    if let Some(f) = kernel.graph.func_of_va(va) {
                        if bound.is_none_or(|b| b.contains(f)) {
                            covered.insert(f);
                        }
                    }
                }
            }

            // Analysis: scan functions covered since the last scan.
            if (round + 1) % self.rounds_between_scans == 0 || round + 1 == rounds {
                let fresh: Vec<FuncId> = covered.iter().filter(|&f| !scanned.contains(f)).collect();
                let kernel = self.kernel.borrow();
                let machine = &self.core.machine;
                let (findings, insts) =
                    scan_functions(&kernel.graph, fresh.iter().copied(), |pc| {
                        machine.inst_at(pc)
                    });
                insts_scanned += insts;
                for f in findings {
                    found.insert((f.func, f.access_pc));
                }
                scanned.extend(fresh);
            }
        }

        FuzzReport {
            found,
            work_units: exec_cycles + insts_scanned * ANALYSIS_COST_PER_INST,
            exec_cycles,
            insts_scanned,
            coverage: covered.len(),
        }
    }
}

/// Convenience: full-kernel campaign versus the campaign bounded to
/// `isv_funcs`, an application's view; returns `(baseline, bounded)`
/// reports.
pub fn compare_bounded(
    core: &mut Core,
    kernel: SharedKernel,
    asid: u16,
    isv_funcs: &FuncSet,
    rounds: usize,
) -> (FuzzReport, FuzzReport) {
    // Both campaigns explore the same (whole) syscall interface with the
    // same seed and a reset syscall-sequence counter: coverage is
    // identical, so the rate difference isolates the analysis-work
    // savings of bounding Kasper's scanning to the ISV (§6.1). A
    // discarded warmup round equalizes microarchitectural state.
    let all: Vec<Sysno> = Sysno::ALL
        .iter()
        .copied()
        .filter(|s| !matches!(s, Sysno::Exit | Sysno::Execve | Sysno::Fork | Sysno::Clone))
        .collect();
    let _warmup = Fuzzer::new(core, kernel.clone(), asid, 0xF055).campaign(rounds, &all, None);
    core.machine
        .mem
        .write_u64(persp_kernel::layout::SYSCALL_SEQ, 0);
    let baseline = Fuzzer::new(core, kernel.clone(), asid, 0xF055).campaign(rounds, &all, None);
    core.machine
        .mem
        .write_u64(persp_kernel::layout::SYSCALL_SEQ, 0);
    let bounded = Fuzzer::new(core, kernel, asid, 0xF055).campaign(rounds, &all, Some(isv_funcs));
    (baseline, bounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::callgraph::KernelConfig;
    use persp_kernel::kernel::Kernel;
    use persp_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
    use persp_uarch::config::CoreConfig;
    use persp_uarch::machine::Machine;
    use persp_uarch::policy::UnsafePolicy;

    fn setup() -> (Core, SharedKernel, u16) {
        let kernel = Kernel::build_unprotected(KernelConfig::test_small());
        let shared = SharedKernel::new(kernel);
        let mut machine = Machine::new();
        shared.borrow().install(&mut machine);
        let pid = shared.borrow_mut().create_process(1, &mut machine);
        let core = Core::new(
            CoreConfig::paper_default(),
            machine,
            MemoryHierarchy::new(HierarchyConfig::paper_default()),
            Box::new(UnsafePolicy::new()),
            Box::new(shared.clone()),
        );
        (core, shared, pid as u16)
    }

    #[test]
    fn campaign_finds_gadgets_and_accounts_work() {
        let (mut core, kernel, asid) = setup();
        let mut fuzzer = Fuzzer::new(&mut core, kernel, asid, 7);
        let report = fuzzer.campaign(8, &[Sysno::Getpid, Sysno::Read, Sysno::Fstat], None);
        assert!(report.coverage > 3, "coverage {}", report.coverage);
        assert!(report.exec_cycles > 0);
        assert!(report.insts_scanned > 0);
        assert!(report.work_units >= report.exec_cycles);
    }

    #[test]
    fn bounded_campaign_accelerates_relevant_discovery() {
        let (mut core, kernel, asid) = setup();
        let app: Vec<Sysno> = vec![
            Sysno::Read,
            Sysno::Write,
            Sysno::Fstat,
            Sysno::Poll,
            Sysno::Open,
            Sysno::Close,
        ];
        let isv_funcs = kernel.borrow().graph.live_reachable(&app);
        let (baseline, bounded) = compare_bounded(&mut core, kernel, asid, &isv_funcs, 12);
        assert!(
            !bounded.found.is_empty(),
            "bounded campaign still finds gadgets"
        );
        let b = baseline.relevant_rate(&isv_funcs);
        let r = bounded.relevant_rate(&isv_funcs);
        assert!(
            r > b,
            "bounding must accelerate discovery of ISV gadgets: {r} vs {b}"
        );
    }

    #[test]
    fn determinism_given_seed() {
        let (mut core, kernel, asid) = setup();
        let r1 = Fuzzer::new(&mut core, kernel.clone(), asid, 42).campaign(
            4,
            &[Sysno::Getpid, Sysno::Read],
            None,
        );
        let (mut core2, kernel2, asid2) = setup();
        let r2 = Fuzzer::new(&mut core2, kernel2, asid2, 42).campaign(
            4,
            &[Sysno::Getpid, Sysno::Read],
            None,
        );
        assert_eq!(r1.found.len(), r2.found.len());
        assert_eq!(r1.coverage, r2.coverage);
        let _ = asid;
    }
}
