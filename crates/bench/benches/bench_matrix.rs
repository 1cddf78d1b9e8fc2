//! Criterion bench: the experiment matrix end to end on the small
//! kernel — image generation, one measured cell, and the serial vs.
//! parallel harness around a 2-scheme × 2-workload matrix.

use criterion::{criterion_group, criterion_main, Criterion};
use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_uarch::config::CoreConfig;
use persp_workloads::memo::CacheConfig;
use persp_workloads::{lebench, runner, Workload};
use perspective::policy::PerspectiveConfig;
use perspective::scheme::Scheme;
use std::hint::black_box;

const SCHEMES: [Scheme; 2] = [Scheme::Unsafe, Scheme::Perspective];

fn workloads() -> Vec<Workload> {
    vec![
        lebench::by_name("getpid").unwrap(),
        lebench::by_name("small-read").unwrap(),
    ]
}

fn matrix_cells(image: &KernelImage, threads: usize) -> usize {
    let core = CoreConfig::paper_default();
    runner::run_matrix(
        threads,
        &CacheConfig::off(),
        image,
        &SCHEMES,
        &workloads(),
        core,
    )
    .expect("every cell measures")
    .len()
}

fn bench_image_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("kernel-image-build-small", |b| {
        b.iter(|| black_box(KernelImage::build(KernelConfig::test_small())))
    });
    group.finish();
}

fn bench_single_cell(c: &mut Criterion) {
    let image = KernelImage::build(KernelConfig::test_small());
    let w = lebench::by_name("getpid").unwrap();
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("cell-getpid-unsafe", |b| {
        b.iter(|| {
            let (pcfg, core) = (PerspectiveConfig::default(), CoreConfig::paper_default());
            black_box(
                runner::measure_image_uncached(Scheme::Unsafe, &image, &w, pcfg, core).unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_matrix_widths(c: &mut Criterion) {
    let image = KernelImage::build(KernelConfig::test_small());
    let mut group = c.benchmark_group("matrix");
    group.sample_size(10);
    group.bench_function("2x2-serial", |b| {
        b.iter(|| black_box(matrix_cells(&image, 1)))
    });
    group.bench_function("2x2-threads-4", |b| {
        b.iter(|| black_box(matrix_cells(&image, 4)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_image_build,
    bench_single_cell,
    bench_matrix_widths
);
criterion_main!(benches);
