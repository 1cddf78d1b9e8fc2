//! Instances built from one kernel image share its text segment and its
//! copy-on-write boot pages. Nothing an instance does may reach another:
//! a cell measured on an image after a second instance from the same
//! image has run a whole workload renders byte-identically to the first
//! cell measured on it.

use persp_kernel::callgraph::KernelConfig;
use persp_kernel::kernel::KernelImage;
use persp_kernel::layout::{LAST_ALLOC_PTR, SYSCALL_SEQ};
use persp_uarch::config::CoreConfig;
use persp_workloads::report::measurement_to_json_full;
use persp_workloads::runner::measure_image_uncached;
use persp_workloads::{apps, lebench, SimInstance};
use perspective::scheme::Scheme;
use perspective::PerspectiveConfig;

fn cell(image: &KernelImage) -> String {
    let w = lebench::by_name("mmap").expect("suite test");
    let m = measure_image_uncached(
        Scheme::Perspective,
        image,
        &w,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    measurement_to_json_full(&m).render()
}

#[test]
fn a_cell_after_a_full_run_on_the_same_image_renders_like_the_first() {
    let image = KernelImage::build(KernelConfig::test_small());
    let first = cell(&image);

    // A second instance runs a whole app on the same image, writing the
    // boot-time pages (syscall counter, next-allocation pointer) it
    // shares with every other instance until its first write.
    let mut other = SimInstance::from_image_core(
        Scheme::Unsafe,
        &image,
        PerspectiveConfig::default(),
        CoreConfig::paper_default(),
    );
    let boot_alloc_ptr = other.core.machine.mem.read_u64(LAST_ALLOC_PTR);
    let app = apps::apps().remove(0).workload;
    let (text, data) = (other.text_base(), other.data_base());
    other.core.machine.load_text(app.compile(text, data));
    other.core.run(text, 80_000_000).expect("app run completes");
    assert_ne!(other.core.machine.mem.read_u64(SYSCALL_SEQ), 0);
    assert_ne!(
        other.core.machine.mem.read_u64(LAST_ALLOC_PTR),
        boot_alloc_ptr
    );

    let fresh = SimInstance::from_image(Scheme::Unsafe, &image);
    assert_eq!(fresh.core.machine.mem.read_u64(SYSCALL_SEQ), 0);
    assert_eq!(
        fresh.core.machine.mem.read_u64(LAST_ALLOC_PTR),
        boot_alloc_ptr
    );
    assert_eq!(
        cell(&image),
        first,
        "a run on a sibling instance leaked into a later cell"
    );
}
