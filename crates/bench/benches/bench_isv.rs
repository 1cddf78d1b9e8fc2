//! Criterion bench: ISV generation and lookup — the hot paths behind
//! Tables 8.1/8.2 (E3/E4) and the per-load policy checks.

use criterion::{criterion_group, criterion_main, Criterion};
use persp_kernel::body::emit_kernel;
use persp_kernel::callgraph::{CallGraph, FuncId, KernelConfig};
use persp_kernel::syscalls::Sysno;
use perspective::isv::Isv;
use std::collections::HashSet;
use std::hint::black_box;

fn graph() -> CallGraph {
    let mut g = CallGraph::generate(KernelConfig::test_small());
    emit_kernel(&mut g);
    g
}

fn bench_generation(c: &mut Criterion) {
    let g = graph();
    c.bench_function("isv/static-generation-8-syscalls", |b| {
        let profile = &Sysno::ALL[..8];
        b.iter(|| black_box(Isv::static_for(&g, profile)));
    });
    c.bench_function("isv/live-reachability-all-syscalls", |b| {
        b.iter(|| black_box(g.live_reachable(Sysno::ALL)));
    });
}

fn bench_lookup(c: &mut Criterion) {
    let g = graph();
    let isv = Isv::static_for(&g, Sysno::ALL);
    let pcs: Vec<u64> = g.funcs.iter().map(|f| f.entry_va + 8).collect();
    c.bench_function("isv/contains-va-lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pcs.len();
            black_box(isv.contains_va(pcs[i]))
        });
    });
}

/// The membership probe, dense bitset vs. the hash-set representation it
/// replaced: `contains_func` is one word load + mask either way the view
/// is consulted, where the `HashSet` probe hashes and chases buckets.
/// Likewise `contains_va` through the dense VA → function map vs. the
/// former binary search over the view's merged VA ranges.
fn bench_membership_representation(c: &mut Criterion) {
    let g = graph();
    let isv = Isv::static_for(&g, Sysno::ALL);
    let oracle: HashSet<FuncId> = isv.funcs().iter().collect();
    let ids: Vec<FuncId> = (0..g.len() as u32).map(FuncId).collect();
    c.bench_function("isv/contains-func-bitset", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(isv.contains_func(ids[i]))
        });
    });
    c.bench_function("isv/contains-func-hashset", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(oracle.contains(&ids[i]))
        });
    });

    let pcs: Vec<u64> = g.funcs.iter().map(|f| f.entry_va + 8).collect();
    let ranges = isv.ranges().to_vec();
    c.bench_function("isv/contains-va-rangescan", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pcs.len();
            let va = pcs[i];
            let idx = ranges.partition_point(|&(start, _)| start <= va);
            black_box(idx > 0 && va < ranges[idx - 1].1)
        });
    });
}

fn bench_hardening(c: &mut Criterion) {
    let g = graph();
    c.bench_function("isv/audit-hardening", |b| {
        b.iter(|| {
            let isv = Isv::static_for(&g, Sysno::ALL);
            let flagged: Vec<_> = g.gadgets.iter().map(|(f, _)| *f).collect();
            black_box(isv.hardened_with_audit(&g, flagged))
        });
    });
}

criterion_group!(
    benches,
    bench_generation,
    bench_lookup,
    bench_membership_representation,
    bench_hardening
);
criterion_main!(benches);
