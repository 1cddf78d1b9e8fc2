//! Experiment E2 — Table 7.1: full-system simulation parameters.

use persp_bench::header;
use persp_mem::hierarchy::HierarchyConfig;
use persp_uarch::config::CoreConfig;
use persp_workloads::report::{self, Json};
use perspective::hwcache::HwCacheConfig;

fn main() {
    let core = CoreConfig::paper_default();
    let mem = HierarchyConfig::paper_default();
    let isv = HwCacheConfig::isv_paper();
    let dsv = HwCacheConfig::dsvmt_paper();

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
        (
            "ISV Cache",
            format!(
                "{} entries, {} sets, {}-way",
                isv.entries,
                isv.entries / isv.ways,
                isv.ways
            ),
        ),
        (
            "DSV Cache",
            format!(
                "{} entries, {} sets, {}-way",
                dsv.entries,
                dsv.entries / dsv.ways,
                dsv.ways
            ),
        ),
        (
            "OS Kernel",
            "synthetic mini-OS, 28 000 functions (Linux v5.4-scale)".to_string(),
        ),
    ];
    if report::json_mode() {
        let params = rows
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v)))
            .collect();
        let doc = report::experiment_json("table_7_1", vec![("parameters", Json::Object(params))]);
        report::emit(&doc);
        return;
    }
    header(
        "Table 7.1: Full-System Simulation Parameters",
        "paper Chapter 7, Table 7.1",
    );
    for (k, v) in rows {
        println!("{k:<22} {v}");
    }
}
