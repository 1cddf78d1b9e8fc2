//! The `table_8_1` experiment (`persp_bench::experiments::table_8_1`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::table_8_1::run);
}
