//! The `sensitivity` experiment (`persp_bench::experiments::sensitivity`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::sensitivity::run);
}
