//! `repro` refuses an `--h` whose machine the engine cannot build: the
//! configuration of every selected point is checked before any row runs, so
//! a refused `--h` exits 2 with the configuration's message and writes
//! nothing.

use std::path::PathBuf;
use std::process::Command;

/// Run `repro` with `args` into a fresh `--out` directory; returns the exit
/// code, stderr and whether the directory exists afterwards.
fn repro(case: &str, args: &[&str]) -> (Option<i32>, String, bool) {
    let out: PathBuf =
        std::env::temp_dir().join(format!("dragonfly_repro_cli_{case}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("repro starts");
    let written = out.exists();
    let _ = std::fs::remove_dir_all(&out);
    (
        run.status.code(),
        String::from_utf8_lossy(&run.stderr).into_owned(),
        written,
    )
}

#[test]
fn an_h_beyond_the_port_mask_exits_2_and_writes_nothing() {
    let (code, stderr, written) = repro("h17", &["fig4_5_un", "--h", "17", "--quick"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("h = 17 gives 67 ports per router, above the 64"),
        "{stderr}"
    );
    assert!(!written, "a refused --h created the output directory");
}

#[test]
fn an_arena_bound_beyond_the_packet_index_exits_2_and_writes_nothing() {
    // PAR-6/2's six local VCs bound 47.2 M packets at h = 16.
    let (code, stderr, written) = repro("h16", &["fig4_5_un", "--h", "16", "--quick"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("row `fig4_5_un`, PAR-6/2"), "{stderr}");
    assert!(
        stderr.contains("a 25-bit packet index addresses"),
        "{stderr}"
    );
    assert!(!written, "a refused --h created the output directory");
}
