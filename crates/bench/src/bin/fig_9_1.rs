//! The `fig_9_1` experiment (`persp_bench::experiments::fig_9_1`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::fig_9_1::run);
}
