//! The benchmark binary as a harness sees it: usage errors exit 2 without
//! a result, and the count metrics of a traced run repeat exactly between
//! two invocations at the same seed.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "spans-{}-{}.tsv",
        std::process::id(),
        args.join("-")
    ));
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("the benchmark binary runs")
}

/// `(name, unit, value)` of every metric on the result line.
fn metrics(out: &Output) -> Vec<(String, String, String)> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    let body = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    body.split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let value = entry
                .split("\"value\": ")
                .nth(1)
                .and_then(|v| v.split(',').next())
                .expect("metric value")
                .to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("metric unit")
                .to_string();
            (name, unit, value)
        })
        .collect()
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &[][..],
        &["--workload"][..],
        &["--workload", "no_such_workload"][..],
        &["--workload", "easy_backlog", "--unknown"][..],
        &["--workload", "easy_backlog", "--trace", "yes"][..],
        &["--seed", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: perfbench"));
    }
    let help = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--help")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(help.status.code(), Some(0));
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let out = perfbench(&[
        "--workload",
        "easy_backlog",
        "--scale",
        "0.02",
        "--seconds",
        "0.1",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<String> = metrics(&out).into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(
        names,
        [
            "jobs_per_s",
            "setup_s",
            "peak_heap_mb",
            "ok_frac",
            "restart_s"
        ]
    );
}

#[test]
fn count_metrics_repeat_exactly_across_invocations() {
    for workload in [
        "fig5_sweep",
        "easy_backlog",
        "matched_backlog",
        "service_stream",
    ] {
        let run = || {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--scale",
                "0.02",
                "--seconds",
                "0.1",
                "--trace",
                "1",
            ]);
            assert_eq!(out.status.code(), Some(0), "{workload}");
            metrics(&out)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        let exact = |(name, unit, _): &&(String, String, String)| {
            !matches!(unit.as_str(), "s" | "ns" | "MB/s") && name != "bench.trace_overhead_frac"
        };
        let counts_a: Vec<_> = a.iter().filter(exact).collect();
        let counts_b: Vec<_> = b.iter().filter(exact).collect();
        assert!(counts_a.iter().any(|(n, _, _)| n == "bench.alloc_count"));
        assert_eq!(
            counts_a, counts_b,
            "{workload}: a count moved between invocations"
        );
        let allocs = counts_a
            .iter()
            .find(|(n, _, _)| n == "bench.alloc_count")
            .map(|(_, _, v)| v.parse::<f64>().expect("number"));
        assert!(
            allocs > Some(0.0),
            "{workload}: the counting allocator is not installed"
        );
    }
}
