//! Procedurally generated kernel call graph.
//!
//! The paper's attack-surface and auditing experiments are properties of
//! the Linux call graph: ~28 K functions, of which each application's
//! syscall footprint statically reaches ~9 % and dynamically exercises
//! ~5 %, with transient-execution gadgets "deeply buried within
//! infrequently used modules" (§4.2). We reproduce that *shape* with a
//! seeded, deterministic generator:
//!
//! * **Syscall entry functions** — one per [`Sysno`], rooted at the
//!   dispatch stub.
//! * **Syscall implementation pools** — per-syscall trees of helper
//!   functions connected by unconditional, conditional (flag-guarded) and
//!   indirect (ops-table) call edges. Conditional edges whose flag is
//!   clear and indirect-only callees are what separate the *static* ISV
//!   (direct-edge closure) from the *dynamic* ISV (actually executed).
//! * **Shared utilities** — `copy_to_user`-style helpers reachable from
//!   many syscalls.
//! * **Cold driver modules** — the bulk of the kernel; unreachable from
//!   common workloads and hosting most of the planted gadgets.
//!
//! The same structures drive µISA code generation ([`crate::body`]), so
//! the graph the analyses see is exactly the code the pipeline runs.

use crate::layout::{KDATA_KPRIV_BASE, SHARED_GLOBALS};
use crate::syscalls::Sysno;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a kernel function (index into [`CallGraph::funcs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A set of kernel functions: one bit per [`FuncId`] in growable `u64`
/// words, with the member count kept alongside. Membership is one word
/// probe, iteration is in ascending [`FuncId`] order, and two sets are
/// equal when they hold the same functions, whatever their word counts.
#[derive(Clone, Default)]
pub struct FuncSet {
    words: Vec<u64>,
    len: usize,
}

impl FuncSet {
    /// An empty set with room for `FuncId`s below `n` without growing.
    pub fn with_capacity(n: usize) -> Self {
        FuncSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Add `f`; returns whether it was absent.
    pub fn insert(&mut self, f: FuncId) -> bool {
        let i = f.0 as usize / 64;
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        let (w, bit) = (&mut self.words[i], 1 << (f.0 % 64));
        let added = *w & bit == 0;
        *w |= bit;
        self.len += usize::from(added);
        added
    }

    /// Drop `f`; returns whether it was present.
    pub fn remove(&mut self, f: FuncId) -> bool {
        let present = self.contains(f);
        if present {
            self.words[f.0 as usize / 64] &= !(1 << (f.0 % 64));
            self.len -= 1;
        }
        present
    }

    /// Is `f` in the set?
    #[inline]
    pub fn contains(&self, f: FuncId) -> bool {
        self.words
            .get(f.0 as usize / 64)
            .is_some_and(|w| w >> (f.0 % 64) & 1 == 1)
    }

    /// Number of functions in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ascending [`FuncId`] order.
    pub fn iter(&self) -> FuncIter<&[u64]> {
        FuncIter {
            words: self.words.as_slice(),
            next: 0,
            bits: 0,
        }
    }
}

impl PartialEq for FuncSet {
    /// Equal counts and equal common words leave no member in either
    /// set's extra words.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words.iter().zip(&other.words).all(|(a, b)| a == b)
    }
}

impl Eq for FuncSet {}

impl std::fmt::Debug for FuncSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(|id| id.0)).finish()
    }
}

impl Extend<FuncId> for FuncSet {
    fn extend<I: IntoIterator<Item = FuncId>>(&mut self, iter: I) {
        for f in iter {
            self.insert(f);
        }
    }
}

impl FromIterator<FuncId> for FuncSet {
    fn from_iter<I: IntoIterator<Item = FuncId>>(iter: I) -> Self {
        let mut set = FuncSet::default();
        set.extend(iter);
        set
    }
}

impl IntoIterator for FuncSet {
    type Item = FuncId;
    type IntoIter = FuncIter<Vec<u64>>;
    fn into_iter(self) -> Self::IntoIter {
        FuncIter {
            words: self.words,
            next: 0,
            bits: 0,
        }
    }
}

impl<'a> IntoIterator for &'a FuncSet {
    type Item = FuncId;
    type IntoIter = FuncIter<&'a [u64]>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending iterator over a [`FuncSet`]'s words (borrowed or owned).
#[derive(Debug, Clone)]
pub struct FuncIter<W> {
    words: W,
    /// Index of the next word to load.
    next: usize,
    /// The members of the word before it not yet yielded.
    bits: u64,
}

impl<W: AsRef<[u64]>> Iterator for FuncIter<W> {
    type Item = FuncId;
    fn next(&mut self) -> Option<FuncId> {
        while self.bits == 0 {
            self.bits = *self.words.as_ref().get(self.next)?;
            self.next += 1;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(FuncId((self.next - 1) as u32 * 64 + bit))
    }
}

/// Dense VA → function-index map over the contiguous function region.
///
/// Functions are laid out back-to-back (64-byte aligned) from a single
/// base address, so one `u32` per 4-byte instruction slot resolves any
/// text VA to its owning function in O(1) — the lookup the ISV
/// membership probe performs on every cache-line fill. Alignment
/// padding between functions maps to [`VaFuncMap::NONE`].
#[derive(Debug, Clone, Default)]
pub struct VaFuncMap {
    /// First mapped VA (the entry of the first function).
    base: u64,
    /// Function index per instruction slot; `NONE` for padding.
    slots: Vec<u32>,
}

impl VaFuncMap {
    /// Sentinel for unmapped slots (alignment padding).
    pub const NONE: u32 = u32::MAX;

    /// Build from emitted functions (requires `entry_va`/`len_insts`
    /// assigned, i.e. run after [`crate::body::emit_kernel`] pass 1).
    /// Panics unless they lie in ascending [`FuncId`] order without
    /// overlap, which the views' one-pass VA ranges rely on.
    pub fn build(funcs: &[KFunction]) -> Self {
        let Some(first) = funcs.first() else {
            return VaFuncMap::default();
        };
        assert!(
            funcs.windows(2).all(|w| w[0].id.0 + 1 == w[1].id.0
                && w[0].entry_va + u64::from(w[0].len_insts) * 4 <= w[1].entry_va),
            "kernel functions must be emitted in FuncId order"
        );
        let base = first.entry_va;
        let end = funcs
            .last()
            .map_or(base, |f| f.entry_va + u64::from(f.len_insts) * 4);
        let mut slots = vec![Self::NONE; ((end - base) / 4) as usize];
        for f in funcs {
            let start = ((f.entry_va - base) / 4) as usize;
            slots[start..start + f.len_insts as usize].fill(f.id.0);
        }
        VaFuncMap { base, slots }
    }

    /// The function containing `va`, if `va` is a mapped text address.
    #[inline]
    pub fn func_of_va(&self, va: u64) -> Option<FuncId> {
        let slot = va.checked_sub(self.base)? / 4;
        match self.slots.get(slot as usize) {
            Some(&idx) if idx != Self::NONE => Some(FuncId(idx)),
            _ => None,
        }
    }

    /// True once [`VaFuncMap::build`] has populated the map.
    pub fn is_built(&self) -> bool {
        !self.slots.is_empty()
    }
}

/// Transient-execution gadget categories, following Kasper's taxonomy
/// (§8.2): microarchitectural-buffer leaks, port contention, and
/// cache-based covert channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GadgetKind {
    /// Leaks through microarchitectural buffers (store with secret data).
    Mds,
    /// Leaks through execution-port contention (secret-dependent latency).
    Port,
    /// Leaks through the cache (secret-dependent load address).
    Cache,
}

/// The reachability closures, as the bits of a call edge's mask.
const STATIC: u8 = 1;
const LIVE: u8 = 2;
const LIVE_ALWAYS: u8 = 4;

/// A call op as a closure edge: the callee (indirect calls resolved
/// through the ops table) and the closures that follow it. Static
/// analysis sees every direct call but no indirect one; the runtime
/// closures follow a conditional call only if its flag is set, and the
/// live-always one skips rarely-taken calls.
fn call_edge(ops_table: &[FuncId], op: &BodyOp) -> Option<(FuncId, u8)> {
    let every = STATIC | LIVE | LIVE_ALWAYS;
    match *op {
        BodyOp::CallDirect(c) => Some((c, every)),
        BodyOp::CallCond { callee, taken, .. } => {
            Some((callee, if taken { every } else { STATIC }))
        }
        BodyOp::CallRare { callee, .. } => Some((callee, STATIC | LIVE)),
        BodyOp::CallIndirect { slot } => Some((ops_table[slot as usize], LIVE | LIVE_ALWAYS)),
        _ => None,
    }
}

/// The role a function plays in the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// `sys_<name>` entry function.
    SyscallEntry(Sysno),
    /// Helper in one syscall's implementation pool.
    SyscallImpl(Sysno),
    /// Shared utility (`copy_to_user` and friends).
    SharedUtil,
    /// Cold driver / rarely-used subsystem code.
    ColdDriver,
}

/// One generated kernel function.
#[derive(Debug, Clone)]
pub struct KFunction {
    /// Identifier.
    pub id: FuncId,
    /// Human-readable name (`sys_read`, `fs_0042`, ...).
    pub name: String,
    /// Role.
    pub kind: FuncKind,
    /// Body intermediate representation (emitted by [`crate::body`]).
    pub body: Vec<BodyOp>,
    /// Entry virtual address (assigned by [`crate::body::emit_kernel`]).
    pub entry_va: u64,
    /// Body length in instructions (assigned during emission).
    pub len_insts: u32,
}

/// Body intermediate representation. Emission rules live in
/// [`crate::body`]; the ops are kept abstract here so analyses (scanner,
/// ISV generation) can work on structure instead of raw instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BodyOp {
    /// `n` register-to-register ALU instructions.
    AluBurst(u8),
    /// Load from an absolute shared-global address.
    SharedLoad(u64),
    /// Dereference `CURRENT_TASK -> task.field -> object` (+ optional
    /// store back): the ctx-owned data accesses DSVs govern.
    CtxAccess {
        /// Task-struct field index.
        field: u8,
        /// Store to the object after loading it.
        store: bool,
    },
    /// Load from a global with unknown ownership (§6.1).
    UnknownLoad(u64),
    /// Unconditional direct call.
    CallDirect(FuncId),
    /// Direct call guarded by a runtime flag load + branch.
    CallCond {
        /// Callee.
        callee: FuncId,
        /// Address of the guarding flag (shared global).
        flag_addr: u64,
        /// Whether the flag is set at boot (the edge executes).
        taken: bool,
    },
    /// Indirect call through an ops-table slot.
    CallIndirect {
        /// Slot index in the ops table.
        slot: u32,
    },
    /// Direct call taken only when the global syscall sequence counter
    /// hits the mask — a *rarely executed* kernel path (error handling,
    /// slow paths). Statically reachable, dynamically traced only during
    /// long profiling runs, and cheap to exclude from hardened views
    /// because it seldom runs.
    CallRare {
        /// Callee.
        callee: FuncId,
        /// Executes when `seq & mask == 0`.
        mask: u64,
    },
    /// A planted transient-execution gadget.
    Gadget(GadgetSite),
    /// A "dispatch gadget": dereferences the first syscall-argument
    /// register and transmits the byte through a kernel probe region —
    /// the speculative-type-confusion pattern BHI-style attacks pivot
    /// into. It is a *legitimate* indirect-call target on the `getpid`
    /// path, so the kernel itself installs its BTB entry.
    BhiGadget {
        /// Kernel probe region base used by the transmit step.
        kprobe_base_va: u64,
    },
    /// The passive-attack PoC target: dereferences
    /// `CURRENT_TASK -> secret` and transmits the byte through a
    /// kernel probe region. Sits in cold driver code — outside every
    /// workload ISV — and is only ever *speculatively* reached via
    /// control-flow hijacking (Figure 4.2's "Function 2").
    SecretLeak {
        /// Kernel probe region base used by the transmit step.
        kprobe_base_va: u64,
    },
    /// Data-dependent scan over the fd array (select/poll/epoll bodies).
    FdScanLoop,
    /// Word-copy loop between the user buffer and the page cache.
    CopyLoop {
        /// Copy toward userspace (read) or from it (write).
        to_user: bool,
    },
    /// The ioctl extension hook: loads the current eBPF map pointer and
    /// dispatches through the reserved ops-table slot (benign stub until
    /// a program is loaded).
    EbpfHook {
        /// Reserved ops-table slot the loader repoints.
        slot: u32,
    },
    /// Touch the most recently allocated kernel object (through the
    /// `LAST_ALLOC_PTR` global) — what allocation-heavy paths do right
    /// after allocating; the first speculative touch of a fresh page is a
    /// DSVMT miss (the fork/page-fault overhead source of §9.1).
    TouchRecentAlloc,
    /// Kernel semantic hook.
    Hook(u16),
    /// Function epilogue.
    Ret,
}

/// A planted gadget and the addresses its code uses — enough for the
/// attack PoCs to target it and for the scanner to verify against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GadgetSite {
    /// Category.
    pub kind: GadgetKind,
    /// Shared global holding a *pointer* to the bound (double indirection
    /// widens the speculation window, as in real CVE gadgets where the
    /// length sits behind an object graph).
    pub bound_ptr_va: u64,
    /// Shared global holding the bound value.
    pub bound_val_va: u64,
    /// Base of the in-bounds array the gadget legitimately indexes.
    pub array_base_va: u64,
    /// Kernel probe region used by the transmit step.
    pub kprobe_base_va: u64,
    /// VA of the gadget's first instruction (filled during emission);
    /// the hijack target for passive-attack PoCs.
    pub seq_va: u64,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelConfig {
    /// Total kernel functions (paper: ~28 K in Linux v5.4).
    pub num_functions: usize,
    /// Planted gadgets (Kasper finds 1533 in Linux).
    pub num_gadgets: usize,
    /// Fraction of gadgets placed in syscall-reachable code (the rest go
    /// to cold drivers). Calibrated so Table 8.2's blocked percentages
    /// emerge.
    pub gadget_hot_fraction: f64,
    /// Mean size of one syscall's implementation pool.
    pub pool_mean: usize,
    /// Number of shared utility functions.
    pub num_utils: usize,
    /// Probability that a call edge is conditional.
    pub cond_edge_prob: f64,
    /// Probability that a conditional edge's flag is set (edge executes).
    pub flag_set_prob: f64,
    /// Probability that a pool function is reachable only indirectly.
    pub indirect_only_prob: f64,
    /// RNG seed (everything is deterministic given the seed).
    pub seed: u64,
    /// Physical frames the kernel manages.
    pub num_frames: u64,
    /// Use Perspective's secure slab allocator.
    pub secure_slab: bool,
}

impl KernelConfig {
    /// Paper-scale kernel: 28 K functions, 1533 gadgets.
    pub fn paper() -> Self {
        KernelConfig {
            num_functions: 28_000,
            num_gadgets: 1533,
            gadget_hot_fraction: 0.40,
            pool_mean: 140,
            num_utils: 420,
            cond_edge_prob: 0.55,
            flag_set_prob: 0.55,
            indirect_only_prob: 0.04,
            seed: 0x5eed_1dea,
            num_frames: 1 << 16,
            secure_slab: true,
        }
    }

    /// A small kernel for fast unit tests (same shape, ~1/20 scale).
    pub fn test_small() -> Self {
        KernelConfig {
            num_functions: 1_500,
            num_gadgets: 90,
            pool_mean: 18,
            num_utils: 40,
            ..Self::paper()
        }
    }
}

/// The generated kernel call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Configuration used for generation.
    pub cfg: KernelConfig,
    /// All functions, indexed by [`FuncId`]. Generation indexes their
    /// call ops for the reachability closures, so those must not change.
    pub funcs: Vec<KFunction>,
    /// Entry function per syscall.
    pub entries: HashMap<Sysno, FuncId>,
    /// Ops-table slot -> target function (indirect-call resolution).
    pub ops_table: Vec<FuncId>,
    /// Boot-time values of shared globals `(va, value)` (flags, bounds,
    /// gadget pointers).
    pub globals: Vec<(u64, u64)>,
    /// All planted gadgets with their host functions.
    pub gadgets: Vec<(FuncId, GadgetSite)>,
    /// The passive-attack PoC target function and its kernel probe base.
    pub passive_target: Option<(FuncId, u64)>,
    /// The BHI dispatch-gadget handler, its kernel probe base, and the
    /// ops-table slot whose indirect call legitimately reaches it.
    pub bhi_target: Option<(FuncId, u64)>,
    /// The reserved ops-table slot for loaded extension programs.
    pub ebpf_slot: u32,
    /// Functions reached only through rarely-taken (`CallRare`) edges —
    /// where most reachable gadgets hide (§4.2's "infrequently used
    /// code").
    pub rare_funcs: Vec<FuncId>,
    /// Next free shared-global address (bump allocator).
    next_global: u64,
    /// Next free kernel-private global address (bump allocator).
    next_kpriv: u64,
    /// Dense O(1) VA → function map; built during emission. Shared via
    /// `Arc` so speculation views can keep a handle without cloning the
    /// table.
    pub va_map: Arc<VaFuncMap>,
    /// Every function's call edges in one array, built at generation:
    /// function `f`'s are `calls[call_index[f]..call_index[f + 1]]`.
    call_index: Vec<u32>,
    calls: Vec<(FuncId, u8)>,
}

impl CallGraph {
    /// Generate a kernel deterministically from `cfg.seed`.
    pub fn generate(cfg: KernelConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut graph = CallGraph {
            cfg,
            funcs: Vec::with_capacity(cfg.num_functions),
            entries: HashMap::new(),
            ops_table: Vec::new(),
            globals: Vec::new(),
            gadgets: Vec::new(),
            passive_target: None,
            bhi_target: None,
            ebpf_slot: 0,
            rare_funcs: Vec::new(),
            next_global: SHARED_GLOBALS,
            next_kpriv: KDATA_KPRIV_BASE,
            va_map: Arc::new(VaFuncMap::default()),
            call_index: Vec::with_capacity(cfg.num_functions + 1),
            calls: Vec::new(),
        };

        // 1. Syscall entry functions.
        for &sys in Sysno::ALL {
            let id = graph.push(format!("sys_{sys}"), FuncKind::SyscallEntry(sys));
            graph.entries.insert(sys, id);
        }

        // 2. Shared utilities (leaf-ish helpers used across syscalls).
        let util_start = graph.funcs.len();
        for i in 0..cfg.num_utils {
            graph.push(format!("util_{i:04}"), FuncKind::SharedUtil);
        }
        let utils: Vec<FuncId> = (util_start..util_start + cfg.num_utils)
            .map(|i| FuncId(i as u32))
            .collect();

        // 3. Per-syscall implementation pools.
        let mut pools: HashMap<Sysno, Vec<FuncId>> = HashMap::new();
        for &sys in Sysno::ALL {
            let size = rng.gen_range(cfg.pool_mean * 2 / 3..=cfg.pool_mean * 4 / 3);
            let mut pool = Vec::with_capacity(size);
            for i in 0..size {
                if graph.funcs.len() >= cfg.num_functions {
                    break;
                }
                pool.push(graph.push(format!("{sys}_impl_{i:03}"), FuncKind::SyscallImpl(sys)));
            }
            pools.insert(sys, pool);
        }

        // 4. Cold drivers fill the remainder.
        let mut cold = Vec::new();
        let mut i = 0;
        while graph.funcs.len() < cfg.num_functions {
            cold.push(graph.push(format!("drv_{i:05}"), FuncKind::ColdDriver));
            i += 1;
        }

        // 4a2. Guarantee at least one Cache gadget on an unconditionally
        //      executed path (the active-attack PoC target): the first
        //      root of the `fstat` pool is called on every invocation.
        let guaranteed_host = pools[&Sysno::Fstat].first().copied();

        // 4b. Dedicate one cold-driver function as the passive-attack PoC
        //     target (the "Function 2" of Figure 4.2).
        if let Some(&target) = cold.first() {
            let kprobe = graph.next_global;
            graph.next_global += 4096 * 257; // room for a 256-line probe region
            graph.funcs[target.0 as usize].body = vec![
                BodyOp::SecretLeak {
                    kprobe_base_va: kprobe,
                },
                BodyOp::Ret,
            ];
            graph.passive_target = Some((target, kprobe));
        }

        // 5. Wire the pools into trees and give everything a body.
        for &sys in Sysno::ALL {
            let pool = pools[&sys].clone();
            graph.wire_syscall(sys, &pool, &utils, &mut rng);
        }
        for (k, &u) in utils.iter().enumerate() {
            // Utils may only call strictly-later utils: keeps the call
            // graph acyclic (no unbounded recursion at runtime).
            let later = utils[k + 1..].to_vec();
            let body = graph.generic_body(&mut rng, &[], &later, 0.15);
            graph.funcs[u.0 as usize].body = body;
        }
        let reserved_slot_target = (cold.len() > 2).then(|| cold[2]);
        for &c in &cold {
            if graph.passive_target.map(|(f, _)| f) == Some(c)
                || graph.bhi_target.map(|(f, _)| f) == Some(c)
                || reserved_slot_target == Some(c)
            {
                continue;
            }
            let body = graph.generic_body(&mut rng, &[], &[], 0.0);
            graph.funcs[c.0 as usize].body = body;
        }

        // 5b. Dedicate another cold function as the BHI dispatch gadget:
        //     a legitimate ops-table target on the *write* path. On that
        //     path the argument register legitimately holds a small fd, so
        //     the dereference is architecturally harmless; the type
        //     confusion only exists when a *different* syscall's dispatch
        //     is transiently steered here.
        if cold.len() > 1 {
            let handler = cold[1];
            let kprobe = graph.next_global;
            graph.next_global += 4096 * 257;
            graph.funcs[handler.0 as usize].body = vec![
                BodyOp::BhiGadget {
                    kprobe_base_va: kprobe,
                },
                BodyOp::Ret,
            ];
            let slot = graph.ops_table.len() as u32;
            graph.ops_table.push(handler);
            let entry = graph.entries[&Sysno::Write];
            let body = &mut graph.funcs[entry.0 as usize].body;
            let at = body.len().saturating_sub(1);
            body.insert(at, BodyOp::CallIndirect { slot });
            graph.bhi_target = Some((handler, kprobe));
        }

        // 5c. Reserve the extension (eBPF) hook: a benign stub handler in
        //     the ops table, dispatched from the ioctl path; the loader
        //     repoints the slot at verified user programs.
        if cold.len() > 2 {
            let stub = cold[2];
            graph.funcs[stub.0 as usize].body = vec![BodyOp::AluBurst(1), BodyOp::Ret];
            let slot = graph.ops_table.len() as u32;
            graph.ops_table.push(stub);
            graph.ebpf_slot = slot;
            let entry = graph.entries[&Sysno::Ioctl];
            let body = &mut graph.funcs[entry.0 as usize].body;
            let at = body.len().saturating_sub(1);
            body.insert(at, BodyOp::EbpfHook { slot });
        }

        // 6. Plant gadgets: `gadget_hot_fraction` into syscall-reachable
        //    code, the rest deep in cold drivers (§4.2's observation).
        let hot_candidates: Vec<FuncId> = Sysno::ALL
            .iter()
            .flat_map(|s| pools[s].iter().copied())
            .chain(utils.iter().copied())
            .collect();
        // Kasper's split: 805 MDS / 509 Port / 219 Cache out of 1533.
        // Kind and placement are independent draws so that every category
        // appears both in reachable code and in cold drivers.
        let random_gadgets = cfg.num_gadgets.saturating_sub(1);
        let kinds: Vec<GadgetKind> = (0..random_gadgets)
            .map(|k| match k * 1533 / random_gadgets.max(1) {
                0..=804 => GadgetKind::Mds,
                805..=1313 => GadgetKind::Port,
                _ => GadgetKind::Cache,
            })
            .collect();
        let rare_pool = graph.rare_funcs.clone();
        if let Some(host) = guaranteed_host {
            let site = graph.new_gadget_site(GadgetKind::Cache);
            let body = &mut graph.funcs[host.0 as usize].body;
            let at = body.len().saturating_sub(1);
            body.insert(at, BodyOp::Gadget(site));
            graph.gadgets.push((host, site));
        }
        for (k, kind) in kinds.into_iter().enumerate() {
            let _ = k;
            let hot = rng.gen_bool(cfg.gadget_hot_fraction) || cold.is_empty();
            let host = if hot {
                // Reachable gadgets sit overwhelmingly in rarely-executed
                // code (§4.2); a small share lands on hot paths.
                if !rare_pool.is_empty() && rng.gen_bool(0.96) {
                    rare_pool[rng.gen_range(0..rare_pool.len())]
                } else {
                    hot_candidates[rng.gen_range(0..hot_candidates.len())]
                }
            } else {
                cold[rng.gen_range(0..cold.len())]
            };
            let site = graph.new_gadget_site(kind);
            // Insert before the epilogue.
            let body = &mut graph.funcs[host.0 as usize].body;
            let at = body.len().saturating_sub(1);
            body.insert(at, BodyOp::Gadget(site));
            graph.gadgets.push((host, site));
        }

        for f in &graph.funcs {
            graph.call_index.push(graph.calls.len() as u32);
            let edges = f
                .body
                .iter()
                .filter_map(|op| call_edge(&graph.ops_table, op));
            graph.calls.extend(edges);
        }
        graph.call_index.push(graph.calls.len() as u32);
        graph
    }

    fn push(&mut self, name: String, kind: FuncKind) -> FuncId {
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(KFunction {
            id,
            name,
            kind,
            body: vec![BodyOp::Ret],
            entry_va: 0,
            len_insts: 0,
        });
        id
    }

    fn alloc_global(&mut self, value: u64) -> u64 {
        let va = self.next_global;
        self.next_global += 8;
        self.globals.push((va, value));
        va
    }

    fn alloc_kpriv_global(&mut self, value: u64) -> u64 {
        let va = self.next_kpriv;
        self.next_kpriv += 8;
        self.globals.push((va, value));
        va
    }

    fn new_gadget_site(&mut self, kind: GadgetKind) -> GadgetSite {
        // Each hop of the bound chain lives on its own cache line: the
        // double indirection only widens the speculation window if both
        // loads actually miss (as in real gadgets, where the length sits
        // in a separately-allocated object).
        self.next_global = (self.next_global + 63) & !63;
        let bound_val_va = self.alloc_global(64); // benign bound
        self.next_global = (self.next_global + 63) & !63;
        let bound_ptr_va = self.alloc_global(bound_val_va);
        // A 64-entry in-bounds array the gadget legitimately indexes.
        self.next_global = (self.next_global + 63) & !63;
        let array_base_va = self.next_global;
        for _ in 0..8 {
            self.alloc_global(0x1111_1111_1111_1111);
        }
        self.next_global = (self.next_global + 63) & !63;
        let kprobe_base_va = self.next_global;
        // Reserve the probe region sparsely (values irrelevant).
        self.next_global += 4096 * 4;
        GadgetSite {
            kind,
            bound_ptr_va,
            bound_val_va,
            array_base_va,
            kprobe_base_va,
            seq_va: 0,
        }
    }

    /// Build the call tree for one syscall: the entry calls 1–3 pool
    /// roots; each subsequent pool function hangs off an earlier one via
    /// an unconditional, conditional, or indirect edge.
    fn wire_syscall(&mut self, sys: Sysno, pool: &[FuncId], utils: &[FuncId], rng: &mut SmallRng) {
        let cfg = self.cfg;
        // Give each pool function a generic body first (call edges appended).
        for (idx, &f) in pool.iter().enumerate() {
            let later = &pool[idx + 1..];
            let body = self.generic_body(rng, later, utils, 0.3);
            self.funcs[f.0 as usize].body = body;
        }
        // Tree edges: parent(j) < j. The `stat` pool is wired as one deep
        // linear, unconditional chain — call depth far beyond the 16-entry
        // RSB, the Retbleed/Spectre-RSB precondition (§4.2).
        let deep_chain = sys == Sysno::Stat;
        let rare_from = pool.len().saturating_sub(pool.len() * 15 / 100);
        let mut indirect_only: Vec<bool> = vec![false; pool.len()];
        for j in 1..pool.len() {
            let parent = if deep_chain {
                pool[j - 1]
            } else {
                // Indirect-only targets are leaf handlers: never parents.
                let mut p = rng.gen_range(0..j);
                for _ in 0..8 {
                    if !indirect_only[p] {
                        break;
                    }
                    p = rng.gen_range(0..j);
                }
                if indirect_only[p] {
                    p = 0;
                }
                pool[p]
            };
            let child = pool[j];
            let op = if deep_chain {
                BodyOp::CallDirect(child)
            } else if j >= rare_from {
                // Slow/error paths: statically reachable, rarely run.
                self.rare_funcs.push(child);
                BodyOp::CallRare {
                    callee: child,
                    mask: 0x3,
                }
            } else if rng.gen_bool(cfg.indirect_only_prob) {
                let slot = self.ops_table.len() as u32;
                self.ops_table.push(child);
                indirect_only[j] = true;
                // Indirect-call targets are small ops handlers (a
                // `file_operations` callback doing one field's work).
                let addr = self.alloc_global(rng.gen_range(1..1000));
                self.funcs[child.0 as usize].body =
                    vec![BodyOp::AluBurst(2), BodyOp::SharedLoad(addr), BodyOp::Ret];
                BodyOp::CallIndirect { slot }
            } else if rng.gen_bool(cfg.cond_edge_prob) {
                let taken = rng.gen_bool(cfg.flag_set_prob);
                let flag_addr = self.alloc_global(u64::from(taken));
                BodyOp::CallCond {
                    callee: child,
                    flag_addr,
                    taken,
                }
            } else {
                BodyOp::CallDirect(child)
            };
            let body = &mut self.funcs[parent.0 as usize].body;
            let at = body.len().saturating_sub(1);
            body.insert(at, op);
        }
        // The entry function: semantics hook + special body + root calls.
        let entry = self.entries[&sys];
        let mut body = vec![BodyOp::Hook(sys as u16), BodyOp::AluBurst(2)];
        match sys {
            Sysno::Select | Sysno::Poll | Sysno::EpollWait => body.push(BodyOp::FdScanLoop),
            Sysno::Read | Sysno::Recv | Sysno::Recvfrom => {
                body.push(BodyOp::CopyLoop { to_user: true })
            }
            Sysno::Write | Sysno::Send | Sysno::Sendto => {
                body.push(BodyOp::CopyLoop { to_user: false })
            }
            _ => body.push(BodyOp::CtxAccess {
                field: 0,
                store: false,
            }),
        }
        let roots = rng.gen_range(1..=3.min(pool.len().max(1)));
        for &root in pool.iter().take(roots) {
            body.push(BodyOp::CallDirect(root));
        }
        if matches!(
            sys,
            Sysno::Mmap
                | Sysno::Brk
                | Sysno::PageFault
                | Sysno::Fork
                | Sysno::Clone
                | Sysno::Poll
                | Sysno::Select
                | Sysno::EpollWait
                | Sysno::Open
                | Sysno::Socket
        ) {
            body.push(BodyOp::TouchRecentAlloc);
        }
        body.push(BodyOp::Ret);
        self.funcs[entry.0 as usize].body = body;
    }

    /// A generic function body: ALU work, data accesses, and occasional
    /// extra util calls.
    fn generic_body(
        &mut self,
        rng: &mut SmallRng,
        _later_pool: &[FuncId],
        utils: &[FuncId],
        util_call_prob: f64,
    ) -> Vec<BodyOp> {
        let mut body = Vec::new();
        body.push(BodyOp::AluBurst(rng.gen_range(1..=3)));
        for _ in 0..rng.gen_range(1..=3) {
            let r: f64 = rng.gen();
            if r < 0.40 {
                let field = rng.gen_range(0..5u8);
                body.push(BodyOp::CtxAccess {
                    field,
                    store: rng.gen_bool(0.3),
                });
            } else if r < 0.58 {
                let addr = self.alloc_global(rng.gen_range(1..1000));
                body.push(BodyOp::SharedLoad(addr));
            } else if r < 0.985 {
                // Kernel-private data: architecturally fine, but in no
                // process DSV — the dominant benign DSV fence source
                // (Table 10.1's ~80 % DSV share).
                let addr = self.alloc_kpriv_global(rng.gen_range(1..1000));
                body.push(BodyOp::SharedLoad(addr));
            } else {
                // Rare unknown-ownership access (§6.1, §9.2).
                let addr = crate::layout::KDATA_UNKNOWN_BASE + rng.gen_range(0..1u64 << 20) * 8;
                body.push(BodyOp::UnknownLoad(addr));
            }
        }
        if !utils.is_empty() && rng.gen_bool(util_call_prob) {
            let u = utils[rng.gen_range(0..utils.len())];
            body.push(BodyOp::CallDirect(u));
        }
        body.push(BodyOp::Ret);
        body
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.funcs.len()
    }

    /// Is the graph empty (never true for generated kernels)?
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Function metadata by id.
    pub fn func(&self, id: FuncId) -> &KFunction {
        &self.funcs[id.0 as usize]
    }

    /// Static analysis: the set of functions reachable from `syscalls`
    /// entry points following *direct* edges only (unconditional and
    /// conditional calls). Indirect-call targets are invisible to static
    /// analysis (§5.3, Figure 5.3a) and are not included.
    pub fn static_reachable(&self, syscalls: &[Sysno]) -> FuncSet {
        self.closure(syscalls, STATIC)
    }

    /// Runtime-reachability: the set of functions the execution of
    /// `syscalls` actually enters — unconditional and flag-set conditional
    /// edges, *plus* indirect-call targets (which execute even though
    /// static analysis cannot see them). This is the ground truth a
    /// dynamic trace converges to.
    pub fn live_reachable(&self, syscalls: &[Sysno]) -> FuncSet {
        self.closure(syscalls, LIVE)
    }

    /// Like [`CallGraph::live_reachable`] but excluding rarely-taken
    /// (`CallRare`) edges: the set of functions *every* execution of the
    /// syscalls enters, regardless of sequence alignment.
    pub fn live_always_reachable(&self, syscalls: &[Sysno]) -> FuncSet {
        self.closure(syscalls, LIVE_ALWAYS)
    }

    /// The functions reachable from the syscalls' entry functions over
    /// the call edges that closure `which` follows (depth-first).
    fn closure(&self, syscalls: &[Sysno], which: u8) -> FuncSet {
        let mut seen = FuncSet::with_capacity(self.funcs.len());
        let mut stack: Vec<FuncId> = syscalls
            .iter()
            .filter_map(|s| self.entries.get(s).copied())
            .filter(|&f| seen.insert(f))
            .collect();
        while let Some(f) = stack.pop() {
            let span = self.call_index[f.0 as usize]..self.call_index[f.0 as usize + 1];
            for &(callee, closures) in &self.calls[span.start as usize..span.end as usize] {
                if closures & which != 0 && seen.insert(callee) {
                    stack.push(callee);
                }
            }
        }
        seen
    }

    /// The function containing `va`, if any (valid after emission).
    pub fn func_of_va(&self, va: u64) -> Option<FuncId> {
        self.va_map.func_of_va(va)
    }

    /// Gadgets hosted by functions in `set`.
    pub fn gadgets_within(&self, set: &FuncSet) -> Vec<(FuncId, GadgetSite)> {
        self.gadgets
            .iter()
            .filter(|&&(f, _)| set.contains(f))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CallGraph {
        CallGraph::generate(KernelConfig::test_small())
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.funcs.iter().zip(&b.funcs) {
            assert_eq!(fa.name, fb.name);
            assert_eq!(fa.body, fb.body);
        }
    }

    #[test]
    fn every_syscall_has_an_entry() {
        let g = small();
        for &s in Sysno::ALL {
            let e = g.entries[&s];
            assert!(matches!(g.func(e).kind, FuncKind::SyscallEntry(x) if x == s));
            assert!(matches!(g.func(e).body.first(), Some(BodyOp::Hook(_))));
        }
    }

    #[test]
    fn function_count_matches_config() {
        let g = small();
        assert_eq!(g.len(), KernelConfig::test_small().num_functions);
    }

    #[test]
    fn gadget_count_and_split() {
        let g = small();
        assert_eq!(g.gadgets.len(), KernelConfig::test_small().num_gadgets);
        let mds = g
            .gadgets
            .iter()
            .filter(|(_, s)| s.kind == GadgetKind::Mds)
            .count();
        let port = g
            .gadgets
            .iter()
            .filter(|(_, s)| s.kind == GadgetKind::Port)
            .count();
        let cache = g
            .gadgets
            .iter()
            .filter(|(_, s)| s.kind == GadgetKind::Cache)
            .count();
        assert!(
            mds > port && port > cache,
            "Kasper split order: {mds}/{port}/{cache}"
        );
    }

    #[test]
    fn static_reachability_is_a_small_fraction() {
        // The small test kernel has proportionally fewer cold drivers, so
        // use a realistic application-sized syscall set.
        let g = small();
        let app = &Sysno::ALL[..8];
        let reach = g.static_reachable(app);
        assert!(reach.len() < g.len() / 2, "{} of {}", reach.len(), g.len());
        assert!(reach.len() > app.len());
    }

    #[test]
    fn static_reachability_grows_with_syscall_set() {
        let g = small();
        let small_set = g.static_reachable(&[Sysno::Getpid]);
        let bigger = g.static_reachable(&[Sysno::Getpid, Sysno::Read, Sysno::Mmap]);
        assert!(bigger.len() > small_set.len());
        assert!(small_set.iter().all(|f| bigger.contains(f)));
    }

    #[test]
    fn indirect_targets_are_not_statically_reachable() {
        let g = small();
        let all: Vec<Sysno> = Sysno::ALL.to_vec();
        let reach = g.static_reachable(&all);
        // At least one ops-table target whose only inbound edge is the
        // indirect call must be outside the static closure.
        let mut direct_targets = FuncSet::default();
        for f in &g.funcs {
            for op in &f.body {
                match op {
                    BodyOp::CallDirect(c) => {
                        direct_targets.insert(*c);
                    }
                    BodyOp::CallCond { callee, .. } => {
                        direct_targets.insert(*callee);
                    }
                    _ => {}
                }
            }
        }
        let indirect_only: Vec<FuncId> = g
            .ops_table
            .iter()
            .copied()
            .filter(|&t| !direct_targets.contains(t))
            .collect();
        assert!(
            !indirect_only.is_empty(),
            "generator produced no indirect-only functions"
        );
        assert!(indirect_only.iter().any(|&t| !reach.contains(t)));
    }

    #[test]
    fn gadgets_within_filters_by_set() {
        let g = small();
        let all_funcs: FuncSet = g.funcs.iter().map(|f| f.id).collect();
        assert_eq!(g.gadgets_within(&all_funcs).len(), g.gadgets.len());
        assert!(g.gadgets_within(&FuncSet::default()).is_empty());
    }

    #[test]
    fn cold_drivers_host_most_gadgets() {
        let g = small();
        let cold = g
            .gadgets
            .iter()
            .filter(|(f, _)| matches!(g.func(*f).kind, FuncKind::ColdDriver))
            .count();
        // Roughly half land in cold drivers (the placement knob is
        // calibrated so Table 8.2's in-view fractions emerge).
        assert!(
            cold * 5 > g.gadgets.len() * 2,
            "gadgets should be buried in cold modules: {cold}/{}",
            g.gadgets.len()
        );
    }
}
