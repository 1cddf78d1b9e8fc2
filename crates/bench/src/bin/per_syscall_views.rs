//! The `per_syscall_views` experiment (`persp_bench::experiments::per_syscall_views`) as a binary.
fn main() {
    persp_bench::run_bin(persp_bench::experiments::per_syscall_views::run);
}
