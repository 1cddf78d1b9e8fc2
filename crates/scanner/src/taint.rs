//! Taint analysis over emitted kernel µISA code.
//!
//! A Kasper-style detector for bounds-check-bypass transient execution
//! gadgets. It runs directly on the *instructions* the pipeline executes
//! (not on generator metadata), tracking three facts per register:
//!
//! * **Arg-tainted** — derived from a syscall argument (`r10..=r15`), the
//!   attacker-controlled inputs;
//! * **mem-loaded** — freshly loaded from memory (candidate bound value);
//! * **secret-tainted** — loaded through an arg-tainted address *under a
//!   bounds-check guard* (the transient "access" step).
//!
//! A finding is the access plus a *transmitter* the secret reaches:
//! a dependent load (cache channel), a store of secret data (MDS-style
//! buffer leak), or a secret-dependent multiply (port contention) —
//! Kasper's three covert-channel categories (§8.2).

use persp_kernel::callgraph::{CallGraph, FuncId, GadgetKind, KFunction};
use persp_uarch::isa::{AluOp, Cond, Inst, NUM_REGS};

/// One detected gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finding {
    /// Function containing the gadget.
    pub func: FuncId,
    /// Address of the access load.
    pub access_pc: u64,
    /// Address of the transmitter.
    pub transmit_pc: u64,
    /// Covert-channel category.
    pub kind: GadgetKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Taint {
    Clean,
    Arg,
    Secret,
}

/// How many instructions a bounds-check guard protects (a pragmatic
/// window, as in pattern-based scanners).
const GUARD_WINDOW: usize = 12;

/// Scan one function's emitted instructions.
///
/// `fetch` resolves an address to the instruction there (usually
/// `machine.inst_at`).
pub fn scan_function(func: &KFunction, fetch: impl Fn(u64) -> Option<Inst>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut taint = [Taint::Clean; NUM_REGS];
    let mut mem_loaded = [false; NUM_REGS];
    // Syscall arguments are attacker-controlled.
    for t in taint.iter_mut().take(16).skip(10) {
        *t = Taint::Arg;
    }
    let mut guard_at: Option<usize> = None;
    let mut last_access: Option<u64> = None;

    for i in 0..func.len_insts as usize {
        let pc = func.entry_va + i as u64 * 4;
        let Some(inst) = fetch(pc) else { continue };
        let guarded = guard_at.is_some_and(|g| i - g <= GUARD_WINDOW);
        match inst {
            Inst::MovImm { dst, .. } => {
                taint[dst as usize] = Taint::Clean;
                mem_loaded[dst as usize] = false;
            }
            Inst::Alu { op, dst, a, b } => {
                let t = taint[a as usize].max_with(taint[b as usize]);
                if op == AluOp::Mul && t == Taint::Secret {
                    if let Some(access_pc) = last_access {
                        findings.push(Finding {
                            func: func.id,
                            access_pc,
                            transmit_pc: pc,
                            kind: GadgetKind::Port,
                        });
                    }
                }
                taint[dst as usize] = t;
                mem_loaded[dst as usize] = false;
            }
            Inst::AluImm { dst, a, .. } => {
                taint[dst as usize] = taint[a as usize];
                mem_loaded[dst as usize] = false;
            }
            Inst::Load { dst, base, .. } => {
                match taint[base as usize] {
                    Taint::Secret => {
                        if let Some(access_pc) = last_access {
                            findings.push(Finding {
                                func: func.id,
                                access_pc,
                                transmit_pc: pc,
                                kind: GadgetKind::Cache,
                            });
                        }
                        taint[dst as usize] = Taint::Secret;
                    }
                    Taint::Arg if guarded => {
                        // The transient ACCESS: attacker-indexed load
                        // behind a mistrainable bounds check.
                        taint[dst as usize] = Taint::Secret;
                        last_access = Some(pc);
                    }
                    _ => {
                        taint[dst as usize] = Taint::Clean;
                    }
                }
                mem_loaded[dst as usize] = true;
            }
            Inst::Store { src, .. } if taint[src as usize] == Taint::Secret => {
                if let Some(access_pc) = last_access {
                    findings.push(Finding {
                        func: func.id,
                        access_pc,
                        transmit_pc: pc,
                        kind: GadgetKind::Mds,
                    });
                }
            }
            Inst::Branch { cond, a, b, .. } => {
                // A guard is a bounds comparison of an attacker value
                // against a freshly memory-loaded limit.
                let bounds_cond = matches!(cond, Cond::Ltu | Cond::Geu | Cond::Lt | Cond::Ge);
                let ab = taint[a as usize] == Taint::Arg && mem_loaded[b as usize];
                let ba = taint[b as usize] == Taint::Arg && mem_loaded[a as usize];
                if bounds_cond && (ab || ba) {
                    guard_at = Some(i);
                }
            }
            _ => {}
        }
    }
    findings
}

trait TaintMax {
    fn max_with(self, other: Taint) -> Taint;
}

impl TaintMax for Taint {
    fn max_with(self, other: Taint) -> Taint {
        use Taint::*;
        match (self, other) {
            (Secret, _) | (_, Secret) => Secret,
            (Arg, _) | (_, Arg) => Arg,
            _ => Clean,
        }
    }
}

/// Scan a set of functions; `bound` restricts the search space (the ISV
/// acceleration of §5.4). Returns the findings and the number of
/// instructions examined (the analysis-work metric).
pub fn scan_functions(
    graph: &CallGraph,
    funcs: impl IntoIterator<Item = FuncId>,
    fetch: impl Fn(u64) -> Option<Inst> + Copy,
) -> (Vec<Finding>, u64) {
    let mut findings = Vec::new();
    let mut insts = 0u64;
    for f in funcs {
        let kf = graph.func(f);
        insts += u64::from(kf.len_insts);
        findings.extend(scan_function(kf, fetch));
    }
    (findings, insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use persp_kernel::body::emit_kernel;
    use persp_kernel::callgraph::KernelConfig;
    use persp_uarch::machine::Machine;
    use std::collections::HashMap;

    fn setup() -> (CallGraph, Machine) {
        let mut g = CallGraph::generate(KernelConfig::test_small());
        let text = emit_kernel(&mut g);
        let mut m = Machine::new();
        m.attach_text(std::sync::Arc::new(text));
        (g, m)
    }

    #[test]
    fn scanner_finds_every_planted_gadget() {
        let (g, m) = setup();
        let all: Vec<FuncId> = g.funcs.iter().map(|f| f.id).collect();
        let (findings, _) = scan_functions(&g, all, |pc| m.inst_at(pc));
        let mut planted: HashMap<FuncId, usize> = HashMap::new();
        for (f, _) in &g.gadgets {
            *planted.entry(*f).or_insert(0) += 1;
        }
        let mut found: HashMap<FuncId, usize> = HashMap::new();
        for f in &findings {
            *found.entry(f.func).or_insert(0) += 1;
        }
        assert_eq!(
            findings.len(),
            g.gadgets.len(),
            "find exactly the planted set"
        );
        assert_eq!(planted, found, "per-function counts match");
    }

    #[test]
    fn scanner_classifies_kinds_correctly() {
        let (g, m) = setup();
        let all: Vec<FuncId> = g.funcs.iter().map(|f| f.id).collect();
        let (findings, _) = scan_functions(&g, all, |pc| m.inst_at(pc));
        for finding in findings {
            // The hosting gadget is the one with the greatest sequence
            // address at or before the access.
            let planted = g
                .gadgets
                .iter()
                .filter(|(f, s)| *f == finding.func && s.seq_va <= finding.access_pc)
                .max_by_key(|(_, s)| s.seq_va)
                .map(|(_, s)| s.kind);
            assert_eq!(
                planted,
                Some(finding.kind),
                "kind mismatch at {:#x}",
                finding.access_pc
            );
        }
    }

    #[test]
    fn benign_functions_produce_no_findings() {
        let (g, m) = setup();
        let benign: Vec<FuncId> = g
            .funcs
            .iter()
            .filter(|f| !g.gadgets.iter().any(|(gf, _)| *gf == f.id))
            .map(|f| f.id)
            .collect();
        let (findings, _) = scan_functions(&g, benign, |pc| m.inst_at(pc));
        assert!(findings.is_empty(), "false positives: {findings:?}");
    }

    #[test]
    fn bounding_reduces_work_proportionally() {
        let (g, m) = setup();
        let all: Vec<FuncId> = g.funcs.iter().map(|f| f.id).collect();
        let (_, full_work) = scan_functions(&g, all.clone(), |pc| m.inst_at(pc));
        let half: Vec<FuncId> = all.into_iter().take(g.len() / 2).collect();
        let (_, half_work) = scan_functions(&g, half, |pc| m.inst_at(pc));
        assert!(half_work < full_work);
        assert!(half_work > 0);
    }

    #[test]
    fn access_without_transmitter_is_not_a_finding() {
        // Hand-built: guard + access but the secret never transmits.
        use persp_kernel::callgraph::{BodyOp, FuncKind, KFunction};
        let func = KFunction {
            id: FuncId(0),
            name: "synthetic".into(),
            kind: FuncKind::ColdDriver,
            body: vec![BodyOp::Ret],
            entry_va: 0x1000,
            len_insts: 5,
        };
        let code: Vec<Inst> = vec![
            Inst::MovImm {
                dst: 20,
                imm: 0x9000,
            },
            Inst::Load {
                dst: 21,
                base: 20,
                offset: 0,
                width: persp_uarch::isa::Width::Q,
            },
            Inst::Branch {
                cond: Cond::Geu,
                a: 10,
                b: 21,
                target: 0x1014,
            },
            Inst::Load {
                dst: 22,
                base: 10,
                offset: 0,
                width: persp_uarch::isa::Width::B,
            },
            Inst::Ret,
        ];
        let findings = scan_function(&func, |pc| code.get(((pc - 0x1000) / 4) as usize).copied());
        assert!(findings.is_empty(), "access alone does not leak");
    }
}
