//! Experiment E1 — Table 4.1: the study of transient execution
//! vulnerabilities targeting the Linux kernel.

use persp_bench::header;
use persp_workloads::cve_study::table_4_1;
use persp_workloads::report::{self, Json};

fn main() {
    if report::json_mode() {
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
        let doc = report::experiment_json("table_4_1", vec![("rows", Json::Array(rows))]);
        report::emit(&doc);
        return;
    }
    header(
        "Table 4.1: Speculative-execution vulnerabilities targeting the Linux kernel",
        "paper §4.2, Table 4.1",
    );
    println!(
        "{:>3} | {:<28} | {:<10} | {:<46} | {:<26} | Origin",
        "#", "Attack primitive", "Mitigation", "CVEs and papers", "Description"
    );
    println!("{}", "-".repeat(150));
    for row in table_4_1() {
        let mut primitive = row.primitive.label().to_string();
        primitive.truncate(28);
        println!(
            "{:>3} | {:<28} | {:<10} | {:<46} | {:<26} | {}",
            row.row,
            primitive,
            row.gap.label(),
            row.references.join(", "),
            row.description,
            row.origin,
        );
    }
    println!();
    println!("Taxonomy mapping: data-access primitives enable ACTIVE attacks (mitigated by DSVs);");
    println!("control-flow-hijack primitives enable PASSIVE attacks (mitigated by ISVs) — §4.1.");
}
