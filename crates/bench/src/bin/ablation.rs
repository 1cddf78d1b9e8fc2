//! The `ablation` experiment (`persp_bench::experiments::ablation`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::ablation::run);
}
