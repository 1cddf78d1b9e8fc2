//! The `cache_sweep` experiment (`persp_bench::experiments::cache_sweep`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::cache_sweep::run);
}
