//! Experiment E1 — Table 4.1: the study of transient execution
//! vulnerabilities targeting the Linux kernel.

use crate::{header, output, Images, Output};
use persp_workloads::cve_study::table_4_1;
use persp_workloads::report::Json;
use persp_workloads::RunConfig;

/// Run the experiment.
pub fn run(cfg: &RunConfig, _: &Images) -> Result<Output, String> {
    Ok(output(
        cfg,
        "table_4_1",
        || {
            let rows = table_4_1()
                .iter()
                .map(|row| {
                    Json::obj(vec![
                        ("row", Json::UInt(row.row as u64)),
                        ("primitive", Json::str(row.primitive.label())),
                        ("mitigation", Json::str(row.gap.label())),
                        (
                            "references",
                            Json::Array(row.references.iter().map(|r| Json::str(*r)).collect()),
                        ),
                        ("description", Json::str(row.description)),
                        ("origin", Json::str(row.origin)),
                    ])
                })
                .collect();
            vec![("rows", Json::Array(rows))]
        },
        || {
            let mut t = header(
                "Table 4.1: Speculative-execution vulnerabilities targeting the Linux kernel",
                "paper §4.2, Table 4.1",
            );
            t += &format!(
                "{:>3} | {:<28} | {:<10} | {:<46} | {:<26} | Origin\n",
                "#", "Attack primitive", "Mitigation", "CVEs and papers", "Description"
            );
            t += &format!("{}\n", "-".repeat(150));
            for row in table_4_1() {
                let mut primitive = row.primitive.label().to_string();
                primitive.truncate(28);
                t += &format!(
                    "{:>3} | {:<28} | {:<10} | {:<46} | {:<26} | {}\n",
                    row.row,
                    primitive,
                    row.gap.label(),
                    row.references.join(", "),
                    row.description,
                    row.origin,
                );
            }
            t + "
Taxonomy mapping: data-access primitives enable ACTIVE attacks (mitigated by DSVs);
control-flow-hijack primitives enable PASSIVE attacks (mitigated by ISVs) — §4.1.
"
        },
    ))
}
