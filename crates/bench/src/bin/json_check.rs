//! CI helper: validates that stdin is a JSON document our `report`
//! reader accepts (`ci.sh` pipes each experiment's `--json` output
//! through this before diffing it against the checked-in baseline).

use persp_workloads::report::Json;
use std::io::Read;

fn main() {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        eprintln!("json_check: failed to read stdin: {e}");
        std::process::exit(1);
    }
    match Json::parse(text.trim()) {
        Ok(doc) => {
            let name = doc
                .get("experiment")
                .and_then(Json::as_str)
                .unwrap_or("unnamed");
            eprintln!("json_check: ok ({name})");
        }
        Err(e) => {
            eprintln!("json_check: invalid JSON: {e}");
            std::process::exit(1);
        }
    }
}
