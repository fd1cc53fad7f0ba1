//! `shard_scaling` sweeps its own scales: an `--h` would be silently
//! ignored, so it is refused with exit 2 before anything runs or is written.

use std::path::PathBuf;
use std::process::Command;

/// Run `shard_scaling` with `args` into a fresh `--out` directory; returns
/// the exit code, stderr and whether the directory exists afterwards.
fn shard_scaling(case: &str, args: &[&str]) -> (Option<i32>, String, bool) {
    let out: PathBuf = std::env::temp_dir().join(format!(
        "dragonfly_shard_scaling_cli_{case}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_shard_scaling"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("shard_scaling starts");
    let written = out.exists();
    let _ = std::fs::remove_dir_all(&out);
    (
        run.status.code(),
        String::from_utf8_lossy(&run.stderr).into_owned(),
        written,
    )
}

#[test]
fn an_h_is_refused_with_exit_2_and_nothing_written() {
    for (case, args) in [
        ("quick", &["--quick", "--h", "3"][..]),
        ("after", &["--h", "2", "--quick"][..]),
        ("full", &["--h", "4"][..]),
    ] {
        let (code, stderr, written) = shard_scaling(case, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("takes no --h"), "{args:?}: {stderr}");
        assert!(
            !written,
            "{args:?}: a refused --h created the output directory"
        );
    }
}

#[test]
fn a_bad_flag_still_exits_2_with_the_usage() {
    let (code, stderr, written) = shard_scaling("bad", &["--nope"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--nope`"), "{stderr}");
    assert!(!written);
}
