//! Smoke mode: every workload, tiny, with every correctness gate on, in
//! both the untraced and the traced mode.

use std::process::Command;

const WORKLOADS: &[&str] = &["sim-fleet", "sim-longhaul", "live-ingest", "live-query"];

/// Runs one smoke invocation; returns the final stdout line.
fn smoke(workload: &str, trace: bool) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// The number after `"name":{"value":` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len()..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|_| panic!("{name} not a number: {line}"))
}

#[test]
fn every_workload_passes_its_gates_untraced() {
    for w in WORKLOADS {
        let line = smoke(w, false);
        assert!(line.starts_with("{\"correct\":true,"), "{w}: {line}");
        assert!(line.contains("\"failed\":0,"), "{w}: {line}");
        for metric in ["setup_s", "peak_rss_mb", "throughput", "latency_ms_p50"] {
            let v = value(&line, metric);
            assert!(v.is_finite() && v > 0.0, "{w}: {metric} = {v}");
        }
    }
}

#[test]
fn traced_self_times_add_up_to_the_wall() {
    const SELF: &[&str] = &[
        "self_ms.topology",
        "self_ms.controller",
        "self_ms.netsim",
        "self_ms.dsa",
        "self_ms.json",
        "self_ms.collector",
        "self_ms.transport",
        "self_ms.serve",
        "self_ms.gen",
        "self_ms.check",
        "core.unattributed_ms",
    ];
    for w in WORKLOADS {
        let line = smoke(w, true);
        assert!(line.starts_with("{\"correct\":true,"), "{w}: {line}");
        let wall = value(&line, "trace.wall_ms");
        let sum: f64 = SELF.iter().map(|m| value(&line, m)).sum();
        assert!(wall > 0.0, "{w}: empty trace");
        assert!(
            (sum - wall).abs() <= 1e-3 * wall + 0.01,
            "{w}: self times sum to {sum} ms, wall {wall} ms"
        );
        assert_eq!(value(&line, "failed_frac"), 0.0, "{w}");
    }
}
