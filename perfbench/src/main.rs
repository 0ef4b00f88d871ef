//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim-fleet|sim-longhaul|live-ingest|live-query>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]
//! ```
//!
//! Runs one workload through the program's public entry points, checks
//! its correctness gates, and prints as the last line of stdout one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The lines before it carry provenance, the workload's own figures and
//! every gate. Exits 1 when a gate fails, 2 on bad arguments. See
//! `perfbench/README.md` for what each workload and metric means.

mod live;
mod outcome;
mod sim;
mod stats;
mod trace;

use outcome::Outcome;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("topology.resolve_ns", "ns"),
    ("controller.generate_ms", "ms"),
    ("controller.generations", "count"),
    ("mitigation.transitions", "count"),
    ("mitigation.blocked", "count"),
    ("netsim.probe_ns", "ns"),
    ("netsim.probes", "count"),
    ("netsim.timeouts", "count"),
    ("netsim.events_popped", "count"),
    ("core.new_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.ns_per_event", "ns"),
    ("core.unattributed_ms", "ms"),
    ("agent.probes_sent", "count"),
    ("agent.uploads", "count"),
    ("agent.upload_batch_records", "count"),
    ("agent.records_discarded", "count"),
    ("dsa.store.append_ns_per_record", "ns"),
    ("dsa.tick_ms.ten_min", "ms"),
    ("dsa.tick_ms.hourly", "ms"),
    ("dsa.tick_ms.daily", "ms"),
    ("dsa.ticks", "count"),
    ("dsa.extents_scanned_frac", "ratio"),
    ("dsa.findings", "count"),
    ("dsa.wal.append_ns_per_record", "ns"),
    ("dsa.wal.bytes_per_record", "B"),
    ("dsa.checkpoints", "count"),
    ("json.encode_us_per_batch", "us"),
    ("json.decode_us_per_batch", "us"),
    ("json.bytes_per_record", "B"),
    ("collector.respond_ms", "ms"),
    ("collector.uploads_rejected", "count"),
    ("transport.upload_ms", "ms"),
    ("transport.query_us", "us"),
    ("httpx.requests_read", "count"),
    ("httpx.read_errors", "count"),
    ("httpx.timeouts", "count"),
    ("serve.respond_us.hit", "us"),
    ("serve.respond_us.miss", "us"),
    ("serve.frozen_hit_rate", "ratio"),
    ("serve.not_modified_frac", "ratio"),
    ("serve.invalidations", "count"),
    ("gen.lag_ms_max", "ms"),
    ("gen.backlog_max", "count"),
    ("self_ms.topology", "ms"),
    ("self_ms.controller", "ms"),
    ("self_ms.netsim", "ms"),
    ("self_ms.dsa", "ms"),
    ("self_ms.json", "ms"),
    ("self_ms.collector", "ms"),
    ("self_ms.transport", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.gen", "ms"),
    ("self_ms.check", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["sim-fleet", "sim-longhaul", "live-ingest", "live-query"];

/// The per-layer metric a span name's self time is reported under.
pub fn self_metric(span: &str) -> &'static str {
    match span {
        "topology" => "self_ms.topology",
        "controller" => "self_ms.controller",
        "netsim" => "self_ms.netsim",
        "dsa" => "self_ms.dsa",
        "json" => "self_ms.json",
        "collector" => "self_ms.collector",
        "transport" => "self_ms.transport",
        "serve" => "self_ms.serve",
        "gen" => "self_ms.gen",
        "check" => "self_ms.check",
        _ => "core.unattributed_ms",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no gate lets through) as null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// First line of a command's stdout, confined to the checkout: git is
/// stopped from searching the directories above it.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stderr(std::process::Stdio::null());
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| json_str(&s));
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"nproc\":{nproc},\"rustc\":{},\"git_commit\":{}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        args.smoke,
        opt(rustc),
        opt(commit),
    )
}

fn run(args: &Args) -> Outcome {
    let longhaul = args.workload == "sim-longhaul";
    match args.workload.as_str() {
        "sim-fleet" | "sim-longhaul" => sim::run(sim::SimParams {
            longhaul,
            smoke: args.smoke,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
        _ => live::run(live::LiveParams {
            query: args.workload == "live-query",
            smoke: args.smoke,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            dir: args.out_dir.join(format!("live-{}", std::process::id())),
        }),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir <dir>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Keep every file the program opens inside the checkout.
    let tmp = args.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    if let Ok(abs) = tmp.canonicalize() {
        std::env::set_var("TMPDIR", abs);
    }
    println!("{}", provenance(&args));

    let out = run(&args);

    let report: Vec<String> = out
        .report
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let gates: Vec<String> = out
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"gate\":{},\"ok\":{},\"detail\":{}}}",
                json_str(&g.name),
                g.ok,
                json_str(&g.detail)
            )
        })
        .collect();
    println!(
        "{{\"report\":{{{}}},\"gates\":[{}]}}",
        report.join(","),
        gates.join(",")
    );
    for g in out.gates.iter().filter(|g| !g.ok) {
        eprintln!("perfbench: gate failed: {} ({})", g.name, g.detail);
    }

    if let Some(tracer) = &out.tracer {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let (names, values): (&[(&str, &str)], _) = if args.trace {
        let mut layers = out.layers.clone();
        layers.insert(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        (PER_LAYER, layers)
    } else {
        (END_TO_END, out.e2e.clone())
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                // A layer a workload does not exercise reads 0; a missing
                // end-to-end metric is a bug and prints null.
                json_num(values.get(name).copied().unwrap_or(if args.trace {
                    0.0
                } else {
                    f64::NAN
                })),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.correct();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
