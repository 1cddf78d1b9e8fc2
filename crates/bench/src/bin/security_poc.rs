//! The `security_poc` experiment (`persp_bench::experiments::security_poc`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::security_poc::run);
}
