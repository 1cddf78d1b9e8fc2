//! Criterion bench: simulated-core throughput per defense scheme — the
//! hot path behind Figures 9.2/9.3 (E6/E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_workloads::{lebench, SimInstance};
use perspective::scheme::Scheme;

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/getpid-roundtrip");
    group.sample_size(10);
    for &scheme in &[Scheme::Unsafe, Scheme::Fence, Scheme::Perspective] {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &scheme| {
                let image = KernelImage::build(KernelConfig::test_small());
                let w = lebench::by_name("getpid").unwrap();
                let mut inst = SimInstance::from_image(scheme, &image);
                let text = inst.text_base();
                let data = inst.data_base();
                inst.core.machine.load_text(w.compile(text, data));
                b.iter(|| {
                    inst.core.run(text, 10_000_000).expect("run completes");
                });
            },
        );
    }
    group.finish();
}

fn bench_select_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline/select-128fds");
    group.sample_size(10);
    for &scheme in &[Scheme::Unsafe, Scheme::Fence] {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &scheme| {
                let image = KernelImage::build(KernelConfig::test_small());
                let w = lebench::by_name("select").unwrap();
                let mut inst = SimInstance::from_image(scheme, &image);
                let text = inst.text_base();
                let data = inst.data_base();
                inst.core.machine.load_text(w.compile(text, data));
                b.iter(|| {
                    inst.core.run(text, 20_000_000).expect("run completes");
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schemes, bench_select_loop);
criterion_main!(benches);
