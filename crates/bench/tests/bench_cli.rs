//! The `bench` binary's usage contract: no id, an unknown id or any
//! flag exits 2 with the usage text, before anything is measured or
//! written. Only these paths run here; the measurements themselves are
//! covered by `bench_smoke.rs` and `scale_smoke.rs`.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors() {
    // A directory of this test's own: a bin that wrongly measured would
    // write its `results/` here, never over the committed files.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("bench_cli_usage");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cases: [&[&str]; 8] = [
        &[],
        &["e99"],
        &["E12"],
        &[""],
        &["--repeats", "0"],
        &["--threads", "4", "e12"],
        &["e12", "--repeats", "3"],
        &["e22", "--help"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: bench ID..."), "{args:?} must print the usage: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must not measure anything");
    }
    assert!(!dir.join("results").exists(), "a usage error must write no baseline");
}

#[cfg(unix)]
#[test]
fn a_non_utf8_argument_is_a_usage_error() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg(OsStr::from_bytes(b"e1\xff"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("bench runs");
    assert_eq!(out.status.code(), Some(2));
}
