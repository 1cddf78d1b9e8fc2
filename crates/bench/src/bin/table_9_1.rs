//! Experiment E8 — Table 9.1: hardware structure characterization of the
//! ISV and DSV caches at 22 nm (CACTI-style analytical model).

use persp_bench::header;
use persp_mem::sram::{characterize_22nm, SramConfig};
use persp_workloads::report::{self, Json};

fn main() {
    if report::json_mode() {
        let rows = [SramConfig::dsv_cache_paper(), SramConfig::isv_cache_paper()]
            .iter()
            .map(|cfg| {
                let c = characterize_22nm(cfg);
                Json::obj(vec![
                    ("configuration", Json::str(cfg.name)),
                    ("area_mm2", Json::str(format!("{:.4}", c.area_mm2))),
                    ("access_ps", Json::str(format!("{:.0}", c.access_ps))),
                    ("dynamic_pj", Json::str(format!("{:.2}", c.dynamic_pj))),
                    ("leakage_mw", Json::str(format!("{:.2}", c.leakage_mw))),
                ])
            })
            .collect();
        let doc = report::experiment_json("table_9_1", vec![("rows", Json::Array(rows))]);
        report::emit(&doc);
        return;
    }
    header(
        "Table 9.1: Hardware Structure Characterization (22 nm)",
        "paper §9.2, Table 9.1",
    );
    println!(
        "{:<14} | {:>12} | {:>12} | {:>12} | {:>12}",
        "Configuration", "Area", "Access Time", "Dyn. Energy", "Leak. Power"
    );
    println!("{}", "-".repeat(72));
    for cfg in [SramConfig::dsv_cache_paper(), SramConfig::isv_cache_paper()] {
        let c = characterize_22nm(&cfg);
        println!(
            "{:<14} | {:>9.4} mm2 | {:>9.0} ps | {:>9.2} pJ | {:>9.2} mW",
            cfg.name, c.area_mm2, c.access_ps, c.dynamic_pj, c.leakage_mw
        );
    }
    println!();
    println!("paper: DSV Cache 0.0024 mm2 / 114 ps / 1.21 pJ / 0.78 mW");
    println!("       ISV Cache 0.0025 mm2 / 115 ps / 1.29 pJ / 0.79 mW");
}
