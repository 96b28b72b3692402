//! Smoke-length runs of every workload, untraced and traced, each with its
//! correctness checks. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

/// Runs one smoke-length workload and checks its result line.
fn smoke(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let expected: &[&str] = if trace == "1" {
        &[
            "platform.handle_us.p50",
            "client.call_us.p50",
            "core.op_us.p50",
            "trace.spans",
        ]
    } else {
        &[
            "round_trips_per_op",
            "statements_per_op",
            "response_bytes_per_op",
            "peak_rss_mb",
            "setup_s",
        ]
    };
    for name in expected {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
}

#[test]
fn cartel_web_smoke() {
    smoke("cartel_web", "0");
    smoke("cartel_web", "1");
}

#[test]
fn cartel_web_nodifc_smoke() {
    smoke("cartel_web_nodifc", "0");
    smoke("cartel_web_nodifc", "1");
}

#[test]
fn tpcc_disk_smoke() {
    smoke("tpcc_disk", "0");
    smoke("tpcc_disk", "1");
}
