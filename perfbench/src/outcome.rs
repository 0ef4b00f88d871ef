//! What one workload run produces, plus the readings every workload
//! takes from outside the program: the `obs` registry, peak memory and
//! a seeded RNG for input generation.

use crate::trace::Tracer;
use std::collections::BTreeMap;

/// One correctness gate.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values behind the verdict.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific figures under their own names (JSON values):
    /// offered rates, sample counts, horizons, digests.
    pub report: Vec<(String, String)>,
    /// Correctness gates, all checked on every run.
    pub gates: Vec<Gate>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused or answered wrongly.
    pub failed: u64,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a workload-specific figure (`value` is JSON text).
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.report.push((key.to_string(), value.into()));
    }

    /// Records a latency series under `key`: median, p90, tail, the
    /// tail's percentile and the sample count (`null` when too short).
    pub fn note_summary(&mut self, key: &str, samples: &[f64]) {
        let v = match crate::stats::summarize(samples) {
            Some(s) => format!(
                "{{\"p50\":{},\"p90\":{},\"tail\":{},\"tail_pct\":{:.3},\"n\":{}}}",
                s.p50,
                crate::stats::percentile(samples, 0.9).unwrap_or(f64::NAN),
                s.tail,
                s.tail_pct,
                s.n
            ),
            None => "null".to_string(),
        };
        self.note(key, v);
    }

    /// Records the end-to-end latency metric (the median) of a series; a
    /// series too short for a tail fails the run.
    pub fn set_latency(&mut self, samples: &[f64]) {
        let s = crate::stats::summarize(samples);
        self.gate(
            "latency series has a tail (more than ten samples)",
            s.is_some(),
            format!("{} samples", samples.len()),
        );
        self.e2e
            .insert("latency_ms_p50", s.map_or(f64::NAN, |s| s.p50));
    }

    /// True when every gate held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }
}

/// Totals of the global `obs` registry: counters and gauges by value,
/// histograms as `(count, sum µs)`, keyed by bare name (summed over label
/// sets) and by `name{label values}`.
#[derive(Debug, Clone, Default)]
pub struct ObsTotals {
    values: BTreeMap<String, f64>,
    hists: BTreeMap<String, (f64, f64)>,
}

impl ObsTotals {
    /// Reads the registry now.
    pub fn take() -> Self {
        let mut t = ObsTotals::default();
        for (id, v) in pingmesh_obs::registry().snapshot().samples {
            // Each sample counts under its bare name (summed over label
            // sets) and under `name{v1,v2}` for its own label values.
            let mut keys = vec![id.name.clone()];
            if !id.labels.is_empty() {
                let vals: Vec<&str> = id.labels.iter().map(|(_, v)| v.as_str()).collect();
                keys.push(format!("{}{{{}}}", id.name, vals.join(",")));
            }
            for key in keys {
                match &v {
                    pingmesh_obs::SampleValue::Counter(c) => {
                        *t.values.entry(key).or_default() += *c as f64;
                    }
                    pingmesh_obs::SampleValue::Gauge(g) => {
                        *t.values.entry(key).or_default() += *g;
                    }
                    pingmesh_obs::SampleValue::Histogram(h) => {
                        let e = t.hists.entry(key).or_default();
                        e.0 += h.count as f64;
                        e.1 += h.count as f64 * h.mean_us.unwrap_or(0) as f64;
                    }
                }
            }
        }
        t
    }

    /// A counter's (or gauge's) growth since `before`.
    pub fn delta(&self, before: &ObsTotals, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
            - before.values.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's `(samples, sum µs)` growth since `before`.
    pub fn hist_delta(&self, before: &ObsTotals, name: &str) -> (f64, f64) {
        let a = self.hists.get(name).copied().unwrap_or_default();
        let b = before.hists.get(name).copied().unwrap_or_default();
        (a.0 - b.0, a.1 - b.1)
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Deterministic input generator (splitmix64): the workloads' inputs are
/// a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Median wall time, ns, of `reps` runs of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&samples).unwrap_or(f64::NAN)
}
