//! Validate emitted JSON artifacts: each file argument must parse as one
//! RFC 8259 document, `*_manifest.json` files must additionally round-trip
//! through [`RunManifest::from_json`], and `*.jsonl` files are parsed line by
//! line.
//!
//! ```text
//! cargo run --release -p dragonfly_bench --bin json_check -- \
//!     results/detect/*.json results/detect/*.jsonl
//! ```
//!
//! Exit status 0 when every file validates; the first failure prints the file
//! and the reader's error and exits 1.  CI runs this over every JSON file of
//! the detector smoke run.

use dragonfly_core::RunManifest;
use dragonfly_stats::validate_json;

fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    if path.ends_with(".jsonl") {
        for (i, line) in text.lines().enumerate() {
            validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
    } else if path.ends_with("_manifest.json") {
        let (manifest, probe, files) = RunManifest::from_json(&text)?;
        // The reader parses what the writer emits: re-emission is an identity.
        let reemitted = manifest.to_json(&probe, &files);
        if reemitted != text {
            return Err("manifest re-emission differs from the original".to_string());
        }
    } else {
        validate_json(&text)?;
    }
    Ok(())
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: json_check <file.json|file.jsonl> ...");
        std::process::exit(2);
    }
    for path in &files {
        match check(path) {
            Ok(()) => println!("ok {path}"),
            Err(e) => {
                eprintln!("json_check: {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
