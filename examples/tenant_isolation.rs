//! Multi-tenant isolation: the cloud scenario that motivates the paper.
//!
//! ```sh
//! cargo run --release --example tenant_isolation
//! ```
//!
//! Two tenants (separate cgroups) share one kernel. Every allocation the
//! kernel makes on a tenant's behalf lands in that tenant's data
//! speculation view and nobody else's — so a Spectre gadget running on
//! behalf of tenant A *cannot even transiently* read tenant B's kernel
//! data, no matter which gadget the attacker finds. The example shows
//! the ownership metadata directly, then proves the claim by running
//! the full cross-tenant attack, including the ablation where disabling
//! DSVs (keeping only instruction views) re-opens the leak.

use persp_attacks::active::run_active_attack;
use persp_attacks::lab::{AttackLab, Scheme};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_kernel::syscalls::Sysno;
use persp_uarch::config::CoreConfig;
use perspective::dsv::DsvClass;
use perspective::policy::PerspectiveConfig;
use perspective::taxonomy::AttackOutcome;

fn main() {
    let image = KernelImage::build(KernelConfig::test_small());
    let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());

    // --- 1. Ownership: what each tenant's DSV actually contains. -------
    let lab = AttackLab::new(Scheme::Perspective, &image, &[Sysno::Getpid], pcfg, core);
    let perspective = lab.sim.perspective.as_ref().expect("perspective scheme");
    let dsv = perspective.dsv();

    let kernel = lab.sim.kernel.borrow();
    let a = lab.attacker();
    let b = lab.victim;
    let task_a = kernel.process(a).unwrap().task_struct_va;
    let task_b = kernel.process(b).unwrap().task_struct_va;
    let syscall_table = persp_kernel::layout::SYSCALL_TABLE;
    drop(kernel);

    println!("tenant A = asid {a}, tenant B = asid {b}\n");
    println!(
        "{:<38} {:>12} {:>12}",
        "kernel object", "A's DSV", "B's DSV"
    );
    let mut table = dsv.borrow_mut();
    for (name, va) in [
        ("A's task_struct", task_a),
        ("B's task_struct", task_b),
        ("syscall dispatch table (shared)", syscall_table),
    ] {
        let for_a = table.classify(va, a);
        let for_b = table.classify(va, b);
        println!("{name:<38} {:>12} {:>12}", label(for_a), label(for_b));
    }
    drop(table);
    drop(lab);

    // --- 2. The attack: tenant A steals tenant B's secret. -------------
    println!("\ncross-tenant Spectre v1 (A mistrains a kernel gadget, reads B's data):");
    let secret = 0x5C;

    let unprotected = run_active_attack(Scheme::Unsafe, &image, secret, pcfg, core);
    report("unprotected kernel", &unprotected.outcome);

    let protected = run_active_attack(Scheme::Perspective, &image, secret, pcfg, core);
    report("Perspective (DSV + ISV)", &protected.outcome);

    // --- 3. Ablation: instruction views alone are not isolation. -------
    let isv_only = PerspectiveConfig {
        enforce_dsv: false,
        enforce_isv: true,
        block_unknown: false,
        ..PerspectiveConfig::default()
    };
    let ablated = run_active_attack(Scheme::Perspective, &image, secret, isv_only, core);
    report("ablated: ISV-only (no DSVs)", &ablated.outcome);

    println!("\nThe gadget A abuses sits *inside* A's own instruction view — ISVs");
    println!("never fire. What stops the leak is ownership: B's page is Foreign");
    println!("to A's data speculation view, so the transient load never issues.");
}

fn label(class: DsvClass) -> &'static str {
    match class {
        DsvClass::Owned => "owned",
        DsvClass::Shared => "shared",
        DsvClass::Foreign => "FOREIGN",
        DsvClass::Unknown => "unknown",
    }
}

fn report(label: &str, outcome: &AttackOutcome) {
    let verdict = match outcome {
        AttackOutcome::Leaked {
            recovered,
            expected,
        } if recovered == expected => format!("LEAKED 0x{recovered:02x}"),
        AttackOutcome::Leaked { recovered, .. } => format!("noisy leak (0x{recovered:02x})"),
        AttackOutcome::Blocked => "blocked".to_string(),
        AttackOutcome::Inconclusive => "inconclusive".to_string(),
    };
    println!("  {label:<32} {verdict}");
}
