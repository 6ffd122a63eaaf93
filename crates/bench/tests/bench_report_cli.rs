//! `bench_report`'s flag handling: a bad or unknown flag — `--help`
//! included — prints the usage and exits 2, never panics (exit 101).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(args)
        .output()
        .expect("bench_report runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_print_usage_and_exit_2() {
    for args in [
        &["--bogus"][..],
        &["--help"],
        &["-h"],
        &["--jobs"],
        &["--jobs", "many"],
        &["--seed", "-1"],
        &["--out"],
        &["--service-ops", "1e6"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bench_report"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flag_is_named() {
    let (_, stderr) = run(&["--jobs", "10", "--frobnicate"]);
    assert!(stderr.contains("unknown flag --frobnicate"), "{stderr}");
}
