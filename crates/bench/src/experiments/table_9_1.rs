//! Experiment E8 — Table 9.1: hardware structure characterization of the
//! ISV and DSV caches at 22 nm (CACTI-style analytical model).

use crate::{header, output, Images, Output};
use persp_mem::sram::{characterize_22nm, SramConfig};
use persp_workloads::report::Json;
use persp_workloads::RunConfig;

/// Run the experiment.
pub fn run(cfg: &RunConfig, _: &Images) -> Result<Output, String> {
    let rows: Vec<_> = [SramConfig::dsv_cache_paper(), SramConfig::isv_cache_paper()]
        .into_iter()
        .map(|sram| (sram.name, characterize_22nm(&sram)))
        .collect();
    Ok(output(
        cfg,
        "table_9_1",
        || {
            let rows = rows
                .iter()
                .map(|(name, c)| {
                    Json::obj(vec![
                        ("configuration", Json::str(*name)),
                        ("area_mm2", Json::str(format!("{:.4}", c.area_mm2))),
                        ("access_ps", Json::str(format!("{:.0}", c.access_ps))),
                        ("dynamic_pj", Json::str(format!("{:.2}", c.dynamic_pj))),
                        ("leakage_mw", Json::str(format!("{:.2}", c.leakage_mw))),
                    ])
                })
                .collect();
            vec![("rows", Json::Array(rows))]
        },
        || {
            let mut t = header(
                "Table 9.1: Hardware Structure Characterization (22 nm)",
                "paper §9.2, Table 9.1",
            );
            t += &format!(
                "{:<14} | {:>12} | {:>12} | {:>12} | {:>12}\n",
                "Configuration", "Area", "Access Time", "Dyn. Energy", "Leak. Power"
            );
            t += &format!("{}\n", "-".repeat(72));
            for (name, c) in &rows {
                t += &format!(
                    "{:<14} | {:>9.4} mm2 | {:>9.0} ps | {:>9.2} pJ | {:>9.2} mW\n",
                    name, c.area_mm2, c.access_ps, c.dynamic_pj, c.leakage_mw
                );
            }
            t + "
paper: DSV Cache 0.0024 mm2 / 114 ps / 1.21 pJ / 0.78 mW
       ISV Cache 0.0025 mm2 / 115 ps / 1.29 pJ / 0.79 mW
"
        },
    ))
}
