//! Experiment E2 — Table 7.1: full-system simulation parameters.

use crate::{header, output, Images, Output};
use persp_mem::hierarchy::HierarchyConfig;
use persp_uarch::config::CoreConfig;
use persp_workloads::report::Json;
use persp_workloads::RunConfig;
use perspective::hwcache::HwCacheConfig;

/// Run the experiment.
pub fn run(cfg: &RunConfig, _: &Images) -> Result<Output, String> {
    let core = CoreConfig::paper_default();
    let mem = HierarchyConfig::paper_default();
    let hw = |c: HwCacheConfig| {
        let (n, ways) = (c.entries, c.ways);
        format!("{n} entries, {} sets, {ways}-way", n / ways)
    };

    let rows: Vec<(&str, String)> = vec![
        (
            "Architecture",
            format!("out-of-order µISA core at {:.1} GHz", core.freq_ghz),
        ),
        (
            "Core",
            format!(
                "{}-issue, out-of-order, {} Load Queue entries, {} Store Queue entries, \
                 {} ROB entries, TAGE-lite branch predictor, {} BTB entries, {} RAS entries",
                core.width,
                core.lq_entries,
                core.sq_entries,
                core.rob_entries,
                core.btb_entries,
                core.rsb_entries
            ),
        ),
        (
            "Private L1-I Cache",
            format!(
                "{} KB, {} B line, {}-way, {} cycle Round Trip (RT) latency",
                mem.l1i.size_bytes / 1024,
                mem.l1i.line_bytes,
                mem.l1i.ways,
                mem.l1i.rt_latency
            ),
        ),
        (
            "Private L1-D Cache",
            format!(
                "{} KB, {} B line, {}-way, {} cycle RT latency",
                mem.l1d.size_bytes / 1024,
                mem.l1d.line_bytes,
                mem.l1d.ways,
                mem.l1d.rt_latency
            ),
        ),
        (
            "Shared L2 Cache",
            format!(
                "Slice: {} MB, {} B line, {}-way, {} cycles RT latency",
                mem.l2.size_bytes / 1024 / 1024,
                mem.l2.line_bytes,
                mem.l2.ways,
                mem.l2.rt_latency
            ),
        ),
        (
            "DRAM",
            format!(
                "{} cycles RT latency after L2 ({} ns at {:.1} GHz)",
                mem.dram_latency,
                mem.dram_latency as f64 / core.freq_ghz,
                core.freq_ghz
            ),
        ),
        ("ISV Cache", hw(HwCacheConfig::isv_paper())),
        ("DSV Cache", hw(HwCacheConfig::dsvmt_paper())),
        (
            "OS Kernel",
            "synthetic mini-OS, 28 000 functions (Linux v5.4-scale)".to_string(),
        ),
    ];
    Ok(output(
        cfg,
        "table_7_1",
        || {
            let params = rows
                .iter()
                .map(|(k, v)| (k.to_string(), Json::str(v.as_str())))
                .collect();
            vec![("parameters", Json::Object(params))]
        },
        || {
            let t = header(
                "Table 7.1: Full-System Simulation Parameters",
                "paper Chapter 7, Table 7.1",
            );
            t + &rows
                .iter()
                .map(|(k, v)| format!("{k:<22} {v}\n"))
                .collect::<String>()
        },
    ))
}
