//! Verified-but-vulnerable: the eBPF lesson of Table 4.1, rows 3–4.
//!
//! ```sh
//! cargo run --release --example verified_but_vulnerable
//! ```
//!
//! An unprivileged process loads an extension program through the
//! kernel's verifier. The verifier proves the program *architecturally*
//! memory-safe — and it is. But its bounds check is an ordinary branch,
//! and transient execution sails right past it: the attacker mistrains
//! the check, evicts the bound, and reads the victim's kernel data one
//! bit per invocation, through code the kernel itself approved.
//!
//! Perspective needs no knowledge of the injected gadget: the transient
//! access violates the attacker's data speculation view.

use persp_attacks::ebpf_attack::run_ebpf_attack;
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::ebpf::{verify, EBPF_MAP_REG};
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{AluOp, Cond, Inst, Width, INST_BYTES};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use perspective::taxonomy::AttackOutcome;

fn main() {
    let image = KernelImage::build(KernelConfig::test_small());
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());

    // 1. The verifier does its job on obviously bad programs ...
    let oob = vec![
        Inst::Alu {
            op: AluOp::Add,
            dst: 20,
            a: EBPF_MAP_REG,
            b: 10,
        },
        Inst::Load {
            dst: 21,
            base: 20,
            offset: 0,
            width: Width::B,
        },
        Inst::Ret,
    ];
    println!(
        "unguarded out-of-bounds program: {:?}",
        verify(&oob).unwrap_err()
    );

    // 2. ... and accepts the guarded version, which is architecturally
    //    safe. (The same shape the eBPF CVEs shipped.)
    let guarded = vec![
        Inst::Load {
            dst: 19,
            base: EBPF_MAP_REG,
            offset: 0,
            width: Width::Q,
        },
        Inst::Branch {
            cond: Cond::Geu,
            a: 10,
            b: 19,
            target: 5 * INST_BYTES,
        },
        Inst::Alu {
            op: AluOp::Add,
            dst: 20,
            a: EBPF_MAP_REG,
            b: 10,
        },
        Inst::Load {
            dst: 21,
            base: 20,
            offset: 0,
            width: Width::B,
        },
        Inst::Nop,
        Inst::Ret,
    ];
    verify(&guarded).expect("architecturally safe");
    println!("bounds-checked program: accepted by the verifier");
    println!();

    // 3. Transiently, "architecturally safe" is not safe.
    let secret = 0xC3;
    for scheme in [Scheme::Unsafe, Scheme::Perspective] {
        let r = run_ebpf_attack(scheme, &image, secret, pcfg, core);
        let verdict = match r.outcome {
            AttackOutcome::Leaked { recovered, .. } => {
                format!("LEAKED 0x{recovered:02x}, bit by bit: {:?}", r.bits)
            }
            AttackOutcome::Blocked => "blocked (no covert-channel signal)".to_string(),
            AttackOutcome::Inconclusive => format!("inconclusive: {:?}", r.bits),
        };
        println!("{:<22} {verdict}", scheme.name());
    }
    println!();
    println!("The verifier reasons about committed execution; speculation does not");
    println!("commit. Perspective's DSVs block the injected gadget's transient access");
    println!("to foreign data without ever seeing the program (§4.2, §8.1).");
}
