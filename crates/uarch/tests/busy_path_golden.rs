//! Cycle-exact golden pins for the pipeline's busy path.
//!
//! The fast-vs-slow differential compares two runs of the *same* busy
//! path, and the architectural differential proptest compares registers
//! and memory only, so neither notices a busy-path change that shifts
//! timing. This test pins the complete [`SimStats`] (plus the final
//! cycle and cache traffic) of seeded, branchy, load/store-heavy
//! programs under the UNSAFE, FENCE, DOM and STT policies against a
//! checked-in golden file, with the idle fast-forward on and off.
//!
//! Each program is a loop around a random [`Template`] body (so the
//! predictors train and then mispredict), followed by a tail with a
//! data-dependent pointer chase (tainted addresses for STT), direct and
//! indirect calls into a leaf that calls again (RSB and speculative
//! call-stack traffic on both paths), and a counted back-edge.
//!
//! A second family ([`fence_program`]) covers execute-stage paths the
//! first one, and the benchmark workloads, leave cold: `Fence`s in the
//! loop body (every younger entry waits for the fence to commit), byte
//! stores into quadwords that younger quad loads then read (a partial
//! overlap, so forwarding stalls until the store drains), and stores
//! whose data and address come off load chains (so younger loads wait
//! behind a store with an unknown address).
//!
//! A third pin ([`ROB_SIZE_GOLDEN`]) runs the first family under
//! UNSAFE, FENCE and STT at ROB sizes 8 (the ROB's ring wraps every few
//! instructions), 192 (the paper's) and 300 (a 512-slot ring).
//!
//! When a pipeline change is *meant* to alter timing, the test writes
//! the new rendering next to the build output and prints the `cp`
//! command that blesses it.

use persp_uarch::config::CoreConfig;
use persp_uarch::isa::{AluOp, Assembler, Cond, Inst, Width, INST_BYTES};
use persp_uarch::metrics::{MetricsRegistry, MetricsSource};
use persp_uarch::pipeline::{Core, ExecWaits};
use persp_uarch::policy::{DomPolicy, FencePolicy, SpecPolicy, SttPolicy, UnsafePolicy};
use persp_uarch::testkit::{
    build_program, fastfwd_outcome, testkit_config, testkit_core, Template, POOL_BASE, POOL_SLOTS,
};
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN: &str = "tests/golden/busy_path_simstats.txt";
const ROB_SIZE_GOLDEN: &str = "tests/golden/rob_size_simstats.txt";
const FENCE_GOLDEN: &str = "tests/golden/fence_overlap_simstats.txt";
const SEEDS: std::ops::Range<u64> = 1..7;
const FENCE_SEEDS: std::ops::Range<u64> = 1..5;
const BODY_BASE: u64 = 0x1000;
const LEAF: u64 = 0x8000;
const INNER_LEAF: u64 = 0x9000;
const ENTRY: u64 = 0x800;
const ITERS: u64 = 24;

/// SplitMix64: a tiny, fixed generator so the programs never depend on
/// an external RNG's version.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> u8 {
        1 + self.below(12) as u8
    }

    fn width(&mut self) -> Width {
        if self.below(4) == 0 {
            Width::B
        } else {
            Width::Q
        }
    }
}

const OPS: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Shl,
    AluOp::Shr,
    AluOp::Mul,
    AluOp::SltU,
];
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Ltu, Cond::Geu, Cond::Lt, Cond::Ge];

/// A body weighted toward loads, stores and branches.
fn body(rng: &mut Rng, len: usize) -> Vec<Template> {
    (0..len)
        .map(|_| match rng.below(10) {
            0..=2 => Template::Load {
                dst: rng.reg(),
                slot: rng.below(POOL_SLOTS),
                width: rng.width(),
            },
            3 | 4 => Template::Store {
                src: rng.reg(),
                slot: rng.below(POOL_SLOTS),
                width: rng.width(),
            },
            5 | 6 => Template::SkipIf {
                cond: CONDS[rng.below(CONDS.len() as u64) as usize],
                a: rng.reg(),
                b: rng.reg(),
                skip: 1 + rng.below(4) as u8,
            },
            7 => Template::MovImm {
                dst: rng.reg(),
                imm: rng.below(64),
            },
            8 => Template::AluImm {
                op: OPS[rng.below(OPS.len() as u64) as usize],
                dst: rng.reg(),
                a: rng.reg(),
                imm: rng.below(16),
            },
            _ => Template::Alu {
                op: OPS[rng.below(OPS.len() as u64) as usize],
                dst: rng.reg(),
                a: rng.reg(),
                b: rng.reg(),
            },
        })
        .collect()
}

/// The seeded program: prologue at [`ENTRY`], looped template body at
/// [`BODY_BASE`], call tail, and two leaves. Registers 1–12 belong to
/// the body; 13–17 to the tail and leaves; 20 is the loop counter, 21
/// the indirect-call target, 31 the pool base (testkit convention).
fn program(seed: u64) -> Vec<(u64, Inst)> {
    let mut rng = Rng(seed);
    let mut text = Vec::new();

    let mut pro = Assembler::new(ENTRY);
    pro.movi(20, ITERS);
    pro.movi(21, LEAF);
    pro.push(Inst::Jump { target: BODY_BASE });
    text.extend(pro.finish());

    let mut looped = build_program(&body(&mut rng, 48), BODY_BASE);
    let (tail_pc, halt) = looped.pop().expect("build_program ends in Halt");
    assert_eq!(halt, Inst::Halt);
    text.extend(looped);

    let mut tail = Assembler::new(tail_pc);
    // Two-step pointer chase through a body register: tainted
    // addresses for STT.
    tail.alui(AluOp::And, 13, 1 + rng.below(12) as u8, 0x38);
    tail.alu(AluOp::Add, 13, 13, 31);
    tail.load(14, 13, 0);
    tail.alui(AluOp::And, 13, 14, 0x38);
    tail.alu(AluOp::Add, 13, 13, 31);
    tail.load(14, 13, 0);
    // An address built from five loads saturates its taint set, so the
    // overflow counter bumps on every gather of the final load.
    tail.load(16, 31, 0);
    for slot in 1..5 {
        tail.load(17, 31, 8 * slot);
        tail.alu(AluOp::Add, 16, 16, 17);
    }
    tail.alui(AluOp::And, 16, 16, 0x38);
    tail.alu(AluOp::Add, 16, 16, 31);
    tail.load(17, 16, 0);
    tail.store(14, 31, 8 * rng.below(POOL_SLOTS) as i64);
    tail.push(Inst::Call { target: LEAF });
    tail.push(Inst::CallInd { base: 21 });
    tail.alui(AluOp::Sub, 20, 20, 1);
    tail.branch_to(Cond::Ne, 20, 0, BODY_BASE);
    tail.push(Inst::Halt);
    text.extend(tail.finish());

    let mut leaf = Assembler::new(LEAF);
    let skip = leaf.new_label();
    leaf.load(15, 31, 8 * rng.below(POOL_SLOTS) as i64);
    leaf.alui(AluOp::Add, 15, 15, 1 + rng.below(7));
    leaf.store(15, 31, 8 * rng.below(POOL_SLOTS) as i64);
    leaf.branch(CONDS[rng.below(CONDS.len() as u64) as usize], 15, 14, skip);
    leaf.push(Inst::Call { target: INNER_LEAF });
    leaf.bind(skip);
    leaf.push(Inst::Ret);
    text.extend(leaf.finish());

    let mut inner = Assembler::new(INNER_LEAF);
    inner.load(16, 31, 8 * rng.below(POOL_SLOTS) as i64);
    inner.alu(AluOp::Xor, 16, 16, 15);
    inner.push(Inst::Ret);
    text.extend(inner.finish());
    text
}

/// The fence/overlap family: a looped body of fences, byte stores into
/// quadwords followed by quad loads of them, load chains that feed a
/// store's data and address, plain loads, short forward skips and ALU
/// operations, closed by a counted back-edge. Registers 1–12 belong to
/// the body, 13 and 14 to the chains, 20 is the loop counter and 31 the
/// pool base.
fn fence_program(seed: u64) -> Vec<(u64, Inst)> {
    let mut rng = Rng(seed);
    let mut text = Vec::new();

    let mut pro = Assembler::new(ENTRY);
    pro.movi(20, ITERS);
    pro.push(Inst::Jump { target: BODY_BASE });
    text.extend(pro.finish());

    // Forward skips are laid out once the body length is known; until
    // then a `Branch`'s `target` holds how many instructions it skips.
    let mut body: Vec<Inst> = Vec::new();
    for _ in 0..40 {
        let slot = 8 * rng.below(POOL_SLOTS) as i64;
        match rng.below(25) {
            0 => body.push(Inst::Fence),
            1..=5 => {
                body.push(Inst::Store {
                    src: rng.reg(),
                    base: 31,
                    offset: slot + 1 + rng.below(7) as i64,
                    width: Width::B,
                });
                body.push(Inst::Load {
                    dst: rng.reg(),
                    base: 31,
                    offset: slot,
                    width: Width::Q,
                });
            }
            6..=10 => {
                body.push(Inst::Load {
                    dst: 13,
                    base: 31,
                    offset: slot,
                    width: Width::Q,
                });
                body.push(Inst::AluImm {
                    op: AluOp::And,
                    dst: 13,
                    a: 13,
                    imm: 0x38,
                });
                body.push(Inst::Alu {
                    op: AluOp::Add,
                    dst: 13,
                    a: 13,
                    b: 31,
                });
                body.push(Inst::Load {
                    dst: 14,
                    base: 13,
                    offset: 0,
                    width: Width::Q,
                });
                body.push(Inst::Store {
                    src: 14,
                    base: 13,
                    offset: 0,
                    width: rng.width(),
                });
            }
            11..=15 => body.push(Inst::Load {
                dst: rng.reg(),
                base: 31,
                offset: slot,
                width: rng.width(),
            }),
            16..=19 => body.push(Inst::Branch {
                cond: CONDS[rng.below(CONDS.len() as u64) as usize],
                a: rng.reg(),
                b: rng.reg(),
                target: 1 + rng.below(4),
            }),
            _ => body.push(Inst::Alu {
                op: OPS[rng.below(OPS.len() as u64) as usize],
                dst: rng.reg(),
                a: rng.reg(),
                b: rng.reg(),
            }),
        }
    }
    let mut looped = Assembler::new(BODY_BASE);
    let len = body.len() as u64;
    for (k, inst) in body.into_iter().enumerate() {
        let inst = match inst {
            Inst::Branch { cond, a, b, target } => {
                let skip = target.min(len - 1 - k as u64);
                Inst::Branch {
                    cond,
                    a,
                    b,
                    target: looped.here() + (1 + skip) * INST_BYTES,
                }
            }
            other => other,
        };
        looped.push(inst);
    }
    looped.alui(AluOp::Sub, 20, 20, 1);
    looped.branch_to(Cond::Ne, 20, 0, BODY_BASE);
    looped.push(Inst::Halt);
    text.extend(looped.finish());
    text
}

const POLICIES: [&str; 4] = ["UNSAFE", "FENCE", "DOM", "STT"];

fn policy(name: &str) -> Box<dyn SpecPolicy> {
    match name {
        "UNSAFE" => Box::new(UnsafePolicy::new()),
        "FENCE" => Box::new(FencePolicy::new()),
        "DOM" => Box::new(DomPolicy::new()),
        "STT" => Box::new(SttPolicy::new()),
        other => unreachable!("unknown policy {other}"),
    }
}

/// The seeded pool contents every program of a seed starts from.
fn fill_pool(seed: u64, core: &mut Core) {
    let mut rng = Rng(seed ^ 0xA5A5);
    for i in 0..POOL_SLOTS {
        core.machine
            .mem
            .write_u64(POOL_BASE + 8 * i, rng.below(256));
    }
}

/// Run every seed of a program family under each of `policies` on a
/// core with `rob_entries` ROB entries, with the fast-forward on and
/// off, and render the outcomes; each section header starts with
/// `label`.
fn render(
    label: &str,
    seeds: std::ops::Range<u64>,
    program: fn(u64) -> Vec<(u64, Inst)>,
    policies: &[&str],
    rob_entries: usize,
) -> String {
    let mut out = String::new();
    for seed in seeds {
        let text = program(seed);
        let prepare = |core: &mut Core| fill_pool(seed, core);
        for &name in policies {
            let outcome = |fastfwd| {
                let cfg = CoreConfig {
                    rob_entries,
                    ..testkit_config(fastfwd)
                };
                fastfwd_outcome(&text, ENTRY, 2_000_000, cfg, policy(name), &prepare)
            };
            let fast = outcome(true);
            let slow = outcome(false);
            assert_eq!(fast, slow, "seed {seed} {name}: fast-forward must be exact");
            let stats = fast
                .result
                .unwrap_or_else(|e| panic!("seed {seed} {name}: {e}"));
            let mut reg = MetricsRegistry::new();
            stats.export_metrics("sim", &mut reg);
            writeln!(out, "[{label}seed {seed} {name}]").unwrap();
            writeln!(out, "final_cycle {}", fast.final_cycle).unwrap();
            for (k, v) in reg.iter() {
                writeln!(out, "{k} {v}").unwrap();
            }
            for (level, s) in [("l1d", fast.l1d), ("l1i", fast.l1i), ("l2", fast.l2)] {
                writeln!(out, "{level} {s:?}").unwrap();
            }
            writeln!(out, "prefetches {}", fast.prefetches).unwrap();
            writeln!(out, "regs {:?}", fast.regs).unwrap();
        }
    }
    out
}

/// [`render`] at the paper's ROB size under every policy.
fn render_all(seeds: std::ops::Range<u64>, program: fn(u64) -> Vec<(u64, Inst)>) -> String {
    let rob_entries = CoreConfig::paper_default().rob_entries;
    render("", seeds, program, &POLICIES, rob_entries)
}

/// Compare `actual` against the golden file at `rel` (relative to this
/// crate); on mismatch, write the actual rendering under the build's
/// scratch directory and fail with the command that blesses it.
fn check_golden(rel: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if golden == actual {
        return;
    }
    let name = Path::new(rel).file_stem().expect("golden file name");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(name)
        .with_extension("actual");
    std::fs::write(&out, actual).expect("write actual rendering");
    let first = golden
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .map_or_else(
            || "length differs".to_string(),
            |n| format!("line {}", n + 1),
        );
    panic!(
        "busy-path timing drifted from {} ({first}).\n\
         If the change is intended: cp {} {}",
        golden_path.display(),
        out.display(),
        golden_path.display()
    );
}

#[test]
fn seeded_programs_match_the_cycle_exact_golden() {
    let actual = render_all(SEEDS, program);
    // Guard against a vacuous pin: the programs must squash, fence,
    // issue transient loads and saturate taint sets.
    for needle in [
        "sim.squashes",
        "sim.loads_fenced",
        "sim.transient_loads_issued",
        "sim.taint_roots_overflow",
    ] {
        assert!(
            actual
                .lines()
                .filter_map(|l| l.strip_prefix(needle))
                .any(|v| v.trim() != "0"),
            "{needle} never nonzero"
        );
    }
    check_golden(GOLDEN, &actual);
}

#[test]
fn fence_and_overlap_programs_match_the_cycle_exact_golden() {
    // Guard against a vacuous pin: across the family, the execute stage
    // must defer work behind a fence, stall forwarding behind a partially
    // overlapping store, and park loads behind an unknown store address.
    let mut waits = ExecWaits::default();
    for seed in FENCE_SEEDS {
        for name in POLICIES {
            let mut core = testkit_core(&fence_program(seed), testkit_config(false), policy(name));
            fill_pool(seed, &mut core);
            core.run(ENTRY, 2_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} {name}: {e}"));
            let w = core.exec_waits();
            waits.fence += w.fence;
            waits.forward += w.forward;
            waits.store_address += w.store_address;
        }
    }
    assert!(
        waits.fence > 0 && waits.forward > 0 && waits.store_address > 0,
        "every wait path is hit: {waits:?}"
    );
    let actual = render_all(FENCE_SEEDS, fence_program);
    check_golden(FENCE_GOLDEN, &actual);
}

#[test]
fn rob_sizes_match_the_cycle_exact_golden() {
    // 8 entries fill and drain the ROB every few instructions; 300 is
    // not a power of two and exceeds the paper's 192.
    let mut actual = String::new();
    for rob_entries in [8, 192, 300] {
        actual += &render(
            &format!("rob {rob_entries} "),
            SEEDS,
            program,
            &["UNSAFE", "FENCE", "STT"],
            rob_entries,
        );
    }
    check_golden(ROB_SIZE_GOLDEN, &actual);
}
