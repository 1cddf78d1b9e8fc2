//! The `table_10_1` experiment (`persp_bench::experiments::table_10_1`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::table_10_1::run);
}
