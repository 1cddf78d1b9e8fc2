//! The `fig_9_2` experiment (`persp_bench::experiments::fig_9_2`) as a binary;
//! `--all` runs every scheme instead of the five main ones.
fn main() {
    let all = std::env::args().any(|a| a == "--all");
    persp_bench::run_bin(|cfg, images| persp_bench::experiments::fig_9_2::run(cfg, images, all));
}
