//! The simulation workloads: `sim-fleet` and `sim-longhaul`.
//!
//! Both build two `DcSpec::medium` DCs (800 servers, US-West and
//! US-Central profiles) and drive the shipped serial engine through
//! `Orchestrator::run_until` over a fixed schedule of steps. Step
//! boundaries fall on every `step` of sim time and, around every DSA job
//! wakeup `w`, at `w - 1µs` and `w`: the step ending at `w` is then the
//! *analysis step*, the wall time from window close to findings in
//! `outputs()`. The simulated span is fixed per `--seconds` (sized from
//! the reference speed below), so every run of a seed does the same work
//! and reaches the same state, which the determinism gate checks with a
//! twin orchestrator driven over the same schedule to a checkpoint.

use crate::outcome::{median_ns, peak_rss_mb, ObsTotals, Outcome, Rng};
use crate::stats;
use crate::trace::Tracer;
use pingmesh_core::controller::{GeneratorConfig, PinglistGenerator};
use pingmesh_core::dsa::jobs::JobManager;
use pingmesh_core::dsa::store::{CosmosStore, StreamName};
use pingmesh_core::netsim::{ActiveFault, CounterDelta, DcProfile, FaultKind};
use pingmesh_core::topology::{DcSpec, Router, ServiceMap, Topology, TopologySpec};
use pingmesh_core::types::{
    DcId, FiveTuple, PingTarget, ProbeRecord, SimDuration, SimTime, SwitchId,
};
use pingmesh_core::{MitDevice, Orchestrator, OrchestratorConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Simulated seconds per wall second of the reference build (2-core
/// x86-64, rustc 1.95), used only to size the fixed span of a run.
const FLEET_REF_SPEED: f64 = 180.0;
const LONGHAUL_REF_SPEED: f64 = 1_350.0;
/// When the longhaul spine silent drop starts: after two hours of clean
/// windows have built the detector's baseline.
const ONSET_MIN: u64 = 120;
/// Shortest longhaul span: the onset window closes at 130 min, its
/// job runs at 140 min and drains the spine.
const LONGHAUL_MIN_SPAN_MIN: u64 = 150;

/// Which simulation, and how big.
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// `sim-longhaul` (slow cadence, faults) instead of `sim-fleet`.
    pub longhaul: bool,
    /// The shortest span that still passes every gate. (The topology
    /// stays medium: on two `DcSpec::tiny` DCs the detectors raise
    /// incidents before the onset at this cadence.)
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// Target measured seconds.
    pub seconds: f64,
    /// Record spans and per-layer metrics.
    pub trace: bool,
}

struct Faults {
    tor: SwitchId,
    spine: SwitchId,
    onset: SimTime,
}

fn topology() -> Arc<Topology> {
    Arc::new(
        Topology::build(TopologySpec {
            dcs: vec![
                DcSpec::medium("DC1 (US West)"),
                DcSpec::medium("DC2 (US Central)"),
            ],
        })
        .expect("valid topology spec"),
    )
}

fn config(p: &SimParams) -> OrchestratorConfig {
    let mut cfg = OrchestratorConfig {
        seed: p.seed,
        ..OrchestratorConfig::default()
    };
    if p.longhaul {
        // Slow cadence: per-window work becomes a large share of the
        // wall. Intra-DC pairs still get two probes per 10-min window,
        // which the silent-drop detector needs to name suspect pairs.
        cfg.generator = GeneratorConfig {
            intra_pod_interval: SimDuration::from_secs(600),
            intra_dc_interval: SimDuration::from_secs(300),
            ..GeneratorConfig::default()
        };
    }
    cfg
}

/// One setup: topology, orchestrator (pinglists generated inside),
/// faults. Returns the orchestrator, the faults, and the wall ns of
/// `Topology::build`, `Orchestrator::new` and the whole setup.
fn setup(p: &SimParams) -> (Orchestrator, Option<Faults>, [f64; 3]) {
    let t0 = Instant::now();
    let topo = topology();
    let t1 = Instant::now();
    let mut o = Orchestrator::new(
        topo.clone(),
        vec![DcProfile::us_west(), DcProfile::us_central()],
        ServiceMap::new(),
        config(p),
    );
    let t2 = Instant::now();
    let faults = p.longhaul.then(|| {
        // Seeded placement: a ToR in DC2 black-holes 10% of address
        // pairs from time zero; a DC1 spine silently drops 5% of packets
        // from the onset.
        let mut rng = Rng::new(p.seed, 7);
        let pods: Vec<_> = topo.pods_in_dc(DcId(1)).collect();
        let tor = topo.tor_of_pod(pods[rng.below(pods.len() as u64) as usize]);
        let spines: Vec<_> = topo.spines_of_dc(DcId(0)).collect();
        let spine = spines[rng.below(spines.len() as u64) as usize];
        let onset = SimTime::ZERO + SimDuration::from_mins(ONSET_MIN);
        let faults = o.net_mut().faults_mut();
        faults.add_switch_fault(
            tor,
            ActiveFault {
                kind: FaultKind::BlackholeIp { frac: 0.1 },
                from: SimTime::ZERO,
                until: None,
            },
        );
        faults.add_switch_fault(
            spine,
            ActiveFault {
                kind: FaultKind::SilentRandomDrop { prob: 0.05 },
                from: onset,
                until: None,
            },
        );
        Faults { tor, spine, onset }
    });
    let t3 = Instant::now();
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
    (o, faults, [ns(t0, t1), ns(t1, t2), ns(t0, t3)])
}

/// The step schedule: `(end, is_analysis_step)` up to `horizon`.
fn schedule(horizon: SimTime, step: SimDuration) -> Vec<(SimTime, bool)> {
    let mut mirror = JobManager::new();
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    while t < horizon {
        let next = (t + step).min(horizon);
        let w = mirror.next_wakeup();
        if w <= next {
            if SimTime(w.0 - 1) > t {
                out.push((SimTime(w.0 - 1), false));
            }
            out.push((w, true));
            mirror.due(w);
            t = w;
        } else {
            out.push((next, false));
            t = next;
        }
    }
    out
}

/// Registry handles read around every traced step.
struct StepObs {
    probes: Arc<pingmesh_obs::Counter>,
    appended: Arc<pingmesh_obs::Counter>,
    events: Arc<pingmesh_obs::Counter>,
    ticks: Vec<Arc<pingmesh_obs::Histogram>>,
    generate: Arc<pingmesh_obs::Histogram>,
}

/// Cumulative readings: probes, records appended, core events, DSA tick
/// µs, pinglist generation µs.
type StepReading = [f64; 5];

impl StepObs {
    fn new() -> Self {
        let r = pingmesh_obs::registry();
        Self {
            probes: r.counter("pingmesh_netsim_probes_total"),
            appended: r.counter("pingmesh_dsa_store_appended_records_total"),
            events: r.counter("pingmesh_core_events_total"),
            ticks: ["ten_min", "hourly", "daily"]
                .iter()
                .map(|s| r.histogram_with("pingmesh_dsa_tick_us", &[("stage", s)]))
                .collect(),
            generate: r.histogram("pingmesh_controller_generate_us"),
        }
    }

    fn read(&self) -> StepReading {
        let sum = |h: &pingmesh_obs::Histogram| {
            let s = h.snapshot();
            s.count() as f64 * s.mean().map_or(0.0, |m| m.as_micros() as f64)
        };
        [
            self.probes.get() as f64,
            self.appended.get() as f64,
            self.events.get() as f64,
            self.ticks.iter().map(|h| sum(h)).sum(),
            sum(&self.generate),
        ]
    }
}

struct Step {
    wall_ns: f64,
    analysis: bool,
    span: Option<usize>,
    delta: StepReading,
}

/// Runs the workload once.
pub fn run(p: SimParams) -> Outcome {
    let mut out = Outcome::default();
    let obs_setup = ObsTotals::take();
    let mut kept = Vec::new();
    let (mut topo_ns, mut new_ns, mut setup_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let (o, f, [t, n, s]) = setup(&p);
        topo_ns.push(t);
        new_ns.push(n);
        setup_ns.push(s);
        // Keep two: the determinism twin and the measured orchestrator.
        if kept.len() < 2 {
            kept.push((o, f));
        }
    }
    let (mut o, faults) = kept.pop().expect("measured orchestrator");
    let (mut twin, _) = kept.pop().expect("twin");
    let obs_after_setup = ObsTotals::take();
    out.e2e.insert(
        "setup_s",
        stats::median(&setup_ns).unwrap_or(f64::NAN) / 1e9,
    );

    let (step, ref_speed, min_span_s) = if p.longhaul {
        (60, LONGHAUL_REF_SPEED, LONGHAUL_MIN_SPAN_MIN * 60)
    } else {
        // Agents upload at ten minutes' age: twelve minutes reach the store.
        (10, FLEET_REF_SPEED, 720)
    };
    let span_s = if p.smoke {
        min_span_s
    } else {
        let raw = (p.seconds * ref_speed) as u64;
        let grain = if p.longhaul { 600 } else { 60 };
        (raw.div_ceil(grain) * grain).max(min_span_s)
    };
    let horizon = SimTime::ZERO + SimDuration::from_secs(span_s);
    let sched = schedule(horizon, SimDuration::from_secs(step));
    // The determinism twin replays the schedule up to this step: late
    // enough for uploads and, on sim-longhaul, DSA jobs, both detections
    // and the drain; short enough to cost well under the measured run.
    let check_at = SimTime::ZERO + SimDuration::from_secs((span_s * 2 / 5).max(min_span_s));
    let checkpoint = sched
        .iter()
        .position(|&(end, _)| end >= check_at)
        .unwrap_or(sched.len() - 1);
    // The twin runs first, so the measured run starts on memory the
    // allocator has already mapped once, as every later run in a
    // long-lived process would.
    for &(end, _) in &sched[..=checkpoint] {
        twin.run_until(end);
    }
    let twin_check = fingerprint(&twin);
    drop(twin);
    let obs_before_loop = ObsTotals::take();
    let mut check = None;

    // --- measured loop.
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let step_obs = p.trace.then(StepObs::new);
    let root = p.trace.then(|| tracer.push("core", origin, origin, None));
    let mut steps = Vec::with_capacity(sched.len());
    for (k, &(end, analysis)) in sched.iter().enumerate() {
        let b0 = Instant::now();
        let before = step_obs.as_ref().map(|s| s.read());
        let t0 = Instant::now();
        o.run_until(end);
        let t1 = Instant::now();
        let (span, delta) = match (&step_obs, before) {
            (Some(s), Some(b)) => {
                let a = s.read();
                let span = tracer.push("core", t0, t1, root);
                let bookkeeping = (t0 - b0) + t1.elapsed();
                tracer.charge_overhead(bookkeeping.as_nanos() as u64);
                (Some(span), std::array::from_fn(|i| a[i] - b[i]))
            }
            _ => (None, [0.0; 5]),
        };
        steps.push(Step {
            wall_ns: (t1 - t0).as_nanos() as f64,
            analysis,
            span,
            delta,
        });
        if k == checkpoint {
            let c0 = Instant::now();
            check = Some(fingerprint(&o));
            if p.trace {
                tracer.push("check", c0, Instant::now(), root);
            }
        }
    }
    let loop_end = Instant::now();
    let obs_after = ObsTotals::take();
    let loop_ns: f64 = steps.iter().map(|s| s.wall_ns).sum();
    out.e2e
        .insert("throughput", span_s as f64 / (loop_ns / 1e9));

    let step_ms: Vec<f64> = steps
        .iter()
        .filter(|s| s.analysis == p.longhaul)
        .map(|s| s.wall_ns / 1e6)
        .collect();
    let analysis_ms: Vec<f64> = steps
        .iter()
        .filter(|s| s.analysis)
        .map(|s| s.wall_ns / 1e6)
        .collect();
    out.set_latency(&step_ms);

    let (probes, records) = (o.outputs().probes_run, o.pipeline().store.record_count());
    out.gate(
        "probes ran and records reached the store",
        probes > 0 && records > 0,
        format!("{probes} probes, {records} records"),
    );
    let topo = o.net().topology().clone();
    let discarded: u64 = topo.servers().map(|s| o.agent(s).discarded_total()).sum();
    out.attempted = probes;
    out.failed = discarded;
    out.gate(
        "agents discarded no records",
        discarded == 0,
        format!("{discarded} discarded"),
    );
    let drained: Vec<MitDevice> = o
        .mitigation()
        .transitions()
        .iter()
        .filter(|t| t.to.label() == "drained")
        .map(|t| t.device)
        .collect();
    match &faults {
        None => {
            let outs = o.outputs();
            out.gate(
                "fault-free fleet raises no findings or repairs",
                outs.incidents.is_empty()
                    && outs.blackhole_candidates.is_empty()
                    && o.repair().reload_log.is_empty()
                    && o.repair().isolation_log.is_empty()
                    && drained.is_empty(),
                format!(
                    "{} incidents, {} black-hole candidates, {} reloads, {} isolations, {} drains",
                    outs.incidents.len(),
                    outs.blackhole_candidates.len(),
                    o.repair().reload_log.len(),
                    o.repair().isolation_log.len(),
                    drained.len()
                ),
            );
        }
        Some(f) => {
            // The gates name the faults; detections elsewhere are
            // reported beside them, not gated.
            let reloads = &o.repair().reload_log;
            out.gate(
                "black-hole reload names the faulted ToR",
                reloads.iter().any(|&(_, sw)| sw == f.tor),
                format!("faulted {}, reloaded {:?}", f.tor, names(reloads)),
            );
            let incidents: Vec<_> = o
                .outputs()
                .incidents
                .iter()
                .map(|i| (i.dc, i.window_start))
                .collect();
            let spine_dc = topo.dc_of_switch(f.spine);
            let in_dc: Vec<SimTime> = incidents
                .iter()
                .filter(|(dc, _)| Some(*dc) == spine_dc)
                .map(|&(_, t)| t)
                .collect();
            out.gate(
                "silent-drop incidents in the spine's DC start at the onset",
                !in_dc.is_empty() && in_dc.iter().all(|&t| t >= f.onset),
                format!(
                    "onset {}, incident windows {:?}",
                    f.onset,
                    incidents
                        .iter()
                        .map(|(dc, t)| format!("{dc}@{t}"))
                        .collect::<Vec<_>>()
                ),
            );
            let isolations = &o.repair().isolation_log;
            out.gate(
                "silent-drop drain names the faulted spine",
                drained.contains(&MitDevice::Switch(f.spine))
                    && isolations.iter().any(|&(_, sw)| sw == f.spine),
                format!(
                    "faulted {}, drained {:?}, isolated {:?}",
                    f.spine,
                    drained,
                    names(isolations)
                ),
            );
            out.note(
                "other_reloads",
                reloads
                    .iter()
                    .filter(|&&(_, sw)| sw != f.tor)
                    .count()
                    .to_string(),
            );
            out.note(
                "other_drains",
                drained
                    .iter()
                    .filter(|d| **d != MitDevice::Switch(f.spine))
                    .count()
                    .to_string(),
            );
            out.note(
                "other_incidents",
                (incidents.len() - in_dc.len()).to_string(),
            );
            out.note("faulted_tor", format!("\"{}\"", f.tor));
            out.note("faulted_spine", format!("\"{}\"", f.spine));
        }
    }
    out.note("span_s", span_s.to_string());
    out.note("steps", steps.len().to_string());
    out.note("sim_speed", out.e2e["throughput"].to_string());
    out.note_summary(if p.longhaul { "analysis_ms" } else { "step_ms" }, &step_ms);
    if !p.longhaul {
        out.note_summary("analysis_ms", &analysis_ms);
    }
    out.note("analysis_steps", analysis_ms.len().to_string());
    out.note("probes_run", probes.to_string());
    out.note("records_stored", records.to_string());

    if p.trace {
        let root = root.expect("traced run has a root span");
        tracer.spans[root].end_ns = (loop_end - origin).as_nanos() as u64;
        layers(
            &p,
            &mut out,
            &mut tracer,
            &o,
            &steps,
            [&obs_setup, &obs_after_setup, &obs_before_loop, &obs_after],
            [&topo_ns, &new_ns],
        );
        out.tracer = Some(tracer);
    }

    // --- determinism: the twin of the seed, run over the same schedule
    // up to the checkpoint, must have reached the same state.
    let ours = check.expect("checkpoint reached");
    out.note("state_digest_at_checkpoint", format!("\"{:016x}\"", ours.2));
    out.gate(
        "twin run of the seed matches at the checkpoint: probes, records, state_digest",
        ours == twin_check,
        format!(
            "at {}: (probes, records, digest) {ours:x?} vs {twin_check:x?}",
            sched[checkpoint].0
        ),
    );
    drop(o);
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out
}

/// Probes run, records stored and `check::state_digest`.
fn fingerprint(o: &Orchestrator) -> (u64, u64, u64) {
    (
        o.outputs().probes_run,
        o.pipeline().store.record_count(),
        pingmesh_check::digest::state_digest(o),
    )
}

fn names(log: &[(SimTime, SwitchId)]) -> Vec<String> {
    log.iter().map(|(_, sw)| sw.to_string()).collect()
}

/// Per-layer metrics of a traced run: replays of single layers on the
/// run's own inputs, the registry's deltas over the measured loop, and
/// the self-time breakdown of the step spans.
fn layers(
    p: &SimParams,
    out: &mut Outcome,
    tracer: &mut Tracer,
    o: &Orchestrator,
    steps: &[Step],
    [obs_setup, obs_after_setup, obs_before_loop, obs_after]: [&ObsTotals; 4],
    [topo_ns, new_ns]: [&Vec<f64>; 2],
) {
    let topo = o.net().topology().clone();
    let mut rng = Rng::new(p.seed, 11);

    // Probe pairs from the run's own pinglists.
    let lists = PinglistGenerator::new(config(p).generator).generate_all(&topo, 1);
    let mut pairs = Vec::new();
    while pairs.len() < 20_000 {
        let list = &lists.lists[rng.below(lists.lists.len() as u64) as usize];
        if list.entries.is_empty() {
            continue;
        }
        let e = list.entries[rng.below(list.entries.len() as u64) as usize];
        if let PingTarget::Server { id, ip } = e.target {
            let sport = 32_768 + rng.below(28_000) as u16;
            pairs.push((list.server, id, ip, sport, e));
        }
    }
    let router = Router::new(&topo);
    let resolve_ns = median_ns(3, || {
        for (src, dst, ip, sport, e) in &pairs {
            let tuple = FiveTuple::tcp(topo.ip_of(*src), *sport, *ip, e.port);
            black_box(router.resolve(*src, *dst, &tuple).hops.len());
        }
    }) / pairs.len() as f64;
    let probe_at = o.now() - SimDuration::from_secs(1);
    let probe_ns = median_ns(3, || {
        let mut counters = CounterDelta::default();
        for (src, _, ip, sport, e) in &pairs {
            black_box(o.net().state().probe_keyed(
                o.net().run_seed(),
                &mut counters,
                *src,
                *ip,
                *sport,
                e.port,
                e.kind,
                e.qos,
                probe_at,
            ));
        }
    }) / pairs.len() as f64;

    // In-memory store appends, replaying the run's records in batches of
    // the run's mean upload size.
    let d = |name: &str| obs_after.delta(obs_before_loop, name);
    let (uploads, batch_sum) =
        obs_after.hist_delta(obs_before_loop, "pingmesh_agent_upload_batch_size");
    let batch = if uploads > 0.0 {
        (batch_sum / uploads).round().max(1.0) as usize
    } else {
        2_000
    };
    let mut records: Vec<ProbeRecord> = Vec::new();
    for chunk in o
        .pipeline()
        .store
        .scan_all_window_chunks(SimTime::ZERO, SimTime(u64::MAX))
    {
        records.extend_from_slice(chunk);
        if records.len() >= 200_000 {
            break;
        }
    }
    records.truncate(200_000);
    let append_ns = if records.is_empty() {
        0.0
    } else {
        median_ns(1, || {
            let mut store = CosmosStore::with_defaults();
            for b in records.chunks(batch) {
                let t = b.iter().map(|r| r.ts).max().unwrap_or(SimTime::ZERO);
                black_box(store.append(StreamName { dc: b[0].src_dc }, b, t));
            }
        }) / records.len() as f64
    };

    // Charge each step's work to its layers; the step's self time is the
    // unattributed remainder (agents, event queue, barrier merge).
    for s in steps {
        let Some(span) = s.span else { continue };
        let [probes, appended, _, tick_us, gen_us] = s.delta;
        tracer.estimate(
            span,
            &[
                ("topology", probes * resolve_ns),
                ("netsim", probes * (probe_ns - resolve_ns).max(0.0)),
                ("dsa", appended * append_ns + tick_us * 1e3),
                ("controller", gen_us * 1e3),
            ],
        );
    }

    let l = &mut out.layers;
    l.insert(
        "topology.build_ms",
        stats::median(topo_ns).unwrap_or(0.0) / 1e6,
    );
    l.insert("topology.resolve_ns", resolve_ns);
    let (gens, gen_us) = obs_after_setup.hist_delta(obs_setup, "pingmesh_controller_generate_us");
    l.insert(
        "controller.generate_ms",
        if gens > 0.0 { gen_us / gens / 1e3 } else { 0.0 },
    );
    l.insert(
        "controller.generations",
        d("pingmesh_controller_generations_total"),
    );
    l.insert(
        "mitigation.transitions",
        d("pingmesh_mitigation_transitions_total"),
    );
    l.insert("mitigation.blocked", d("pingmesh_mitigation_blocked_total"));
    l.insert("netsim.probe_ns", probe_ns);
    l.insert("netsim.probes", d("pingmesh_netsim_probes_total"));
    l.insert("netsim.timeouts", d("pingmesh_netsim_probe_timeouts_total"));
    l.insert(
        "netsim.events_popped",
        d("pingmesh_netsim_events_popped_total"),
    );
    l.insert("core.new_ms", stats::median(new_ns).unwrap_or(0.0) / 1e6);
    let step_total: f64 = steps.iter().map(|s| s.wall_ns).sum();
    l.insert("core.step_ms", step_total / steps.len().max(1) as f64 / 1e6);
    let events = d("pingmesh_core_events_total");
    l.insert(
        "core.ns_per_event",
        if events > 0.0 {
            step_total / events
        } else {
            0.0
        },
    );
    l.insert("agent.probes_sent", d("pingmesh_agent_probes_sent_total"));
    l.insert("agent.uploads", d("pingmesh_agent_uploads_started_total"));
    l.insert(
        "agent.upload_batch_records",
        if uploads > 0.0 {
            batch_sum / uploads
        } else {
            0.0
        },
    );
    l.insert(
        "agent.records_discarded",
        d("pingmesh_agent_records_discarded_total"),
    );
    l.insert("dsa.store.append_ns_per_record", append_ns);
    let mut ticks = 0.0;
    for stage in ["ten_min", "hourly", "daily"] {
        let (n, us) =
            obs_after.hist_delta(obs_before_loop, &format!("pingmesh_dsa_tick_us{{{stage}}}"));
        ticks += n;
        let key = match stage {
            "ten_min" => "dsa.tick_ms.ten_min",
            "hourly" => "dsa.tick_ms.hourly",
            _ => "dsa.tick_ms.daily",
        };
        l.insert(key, if n > 0.0 { us / n / 1e3 } else { 0.0 });
    }
    l.insert("dsa.ticks", ticks);
    let (scanned, skipped) = (
        d("pingmesh_dsa_extents_scanned_total"),
        d("pingmesh_dsa_extents_skipped_total"),
    );
    l.insert(
        "dsa.extents_scanned_frac",
        if scanned + skipped > 0.0 {
            scanned / (scanned + skipped)
        } else {
            0.0
        },
    );
    let wall_ns = {
        let root = &tracer.spans[0];
        (root.end_ns - root.start_ns) as f64
    };
    l.insert("trace.wall_ms", wall_ns / 1e6);
    l.insert("trace.overhead_frac", tracer.overhead_ns as f64 / wall_ns);
    for (name, ns) in tracer.self_by_name() {
        l.insert(crate::self_metric(name), ns as f64 / 1e6);
    }
    let outs = o.outputs();
    l.insert(
        "dsa.findings",
        (outs.incidents.len()
            + outs.blackhole_candidates.len()
            + outs.escalations.len()
            + outs.alerts.iter().filter(|a| a.raised).count()) as f64,
    );
}
