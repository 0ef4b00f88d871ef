//! The live workloads: `live-ingest` and `live-query`.
//!
//! Both run the real write and read paths on loopback: a durable
//! `Collector` behind `serve_collector`, and one `QueryTier` replica over
//! the same store behind `serve_query`. The generator lives in this
//! process: at most two lanes (one OS thread and one connection each,
//! for the box's two cores) draw operations from one shared schedule.
//!
//! A run has two phases. In the *paced* phase operations are due at a
//! fixed offered rate below capacity (an open loop): each is timed from
//! when it was due, so a stall also charges the operations queued behind
//! it. Those times give the latency metrics. In the *saturated* phase
//! every lane issues its next operation as soon as the last one returns;
//! the completion rate is the throughput metric, the highest rate the
//! two lanes sustain.
//!
//! * `live-ingest`: an operation is one agent-shaped upload of a
//!   2,000-record JSON batch on a fresh connection (`upload_records`, as
//!   `RealAgent` does), then a hot-window `/api/sla` query that must
//!   count the batch (read-after-write). Latency is upload due → 200 ack.
//! * `live-query`: setup seeds a two-hour frozen corpus (360,000
//!   records) and warms the
//!   tier; an operation is one dashboard request on a keep-alive
//!   connection (CDF, heatmap and SLA over frozen windows with `ETag`
//!   replay, the hourly rollup, `/api/windows`, hot-window polls), and
//!   once a second an operation is a 100-record trickle upload instead.
//!   Latency is query due → full response.

use crate::outcome::{median_ns, peak_rss_mb, ObsTotals, Outcome, Rng};
use crate::stats;
use crate::trace::Tracer;
use pingmesh_core::controller::{GeneratorConfig, PinglistGenerator};
use pingmesh_core::dsa::store::{CosmosStore, StreamName};
use pingmesh_core::topology::{DcSpec, Topology, TopologySpec};
use pingmesh_core::types::{
    PingTarget, Pinglist, ProbeKind, ProbeOutcome, ProbeRecord, SimDuration, SimTime,
};
use pingmesh_httpx::{Conn, Request};
use pingmesh_realmode::{serve_collector, upload_records, Collector};
use pingmesh_serve::views::ApiQuery;
use pingmesh_serve::{get_with, serve_query, QueryTier};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tokio::net::{TcpListener, TcpStream};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Generator lanes (connections in flight): the box's core count.
const LANES: usize = 2;
/// One 10-min partial window, µs.
const W: u64 = 600_000_000;
/// Frozen corpus windows (two hours); window `HOT` takes the writes.
const HOT: u64 = 12;
/// Share of a run spent in the paced phase; the rest is saturated.
const PACED_SHARE: f64 = 0.6;
const IO_DEADLINE: Duration = Duration::from_secs(10);

/// Which live workload, and how big.
#[derive(Debug, Clone)]
pub struct LiveParams {
    /// `live-query` instead of `live-ingest`.
    pub query: bool,
    /// Small batches, corpus and rates.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// Target measured seconds.
    pub seconds: f64,
    /// Record spans and per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout (collector data).
    pub dir: PathBuf,
}

impl LiveParams {
    /// Records per upload batch.
    fn batch(&self) -> usize {
        match (self.smoke, self.query) {
            (true, _) => 200,
            (false, false) => 2_000,
            (false, true) => 100,
        }
    }

    /// Offered rate of the paced phase, operations per second.
    fn paced_rate(&self) -> f64 {
        match (self.smoke, self.query) {
            (true, false) => 20.0,
            (true, true) => 200.0,
            (false, false) => 25.0,
            (false, true) => 800.0,
        }
    }

    /// Frozen corpus records per window (`live-query` only).
    fn corpus_per_window(&self) -> usize {
        if self.smoke {
            1_000
        } else {
            30_000
        }
    }
}

/// A seeded synthetic fleet: real topology and pinglists, synthetic
/// probe outcomes. Batch `idx` is a pure function of `(seed, idx)`.
struct Fleet {
    topo: Arc<Topology>,
    lists: Vec<Pinglist>,
    seed: u64,
}

impl Fleet {
    /// Builds the fleet; also returns the wall ns of `Topology::build`
    /// and of `generate_all`.
    fn new(seed: u64, smoke: bool) -> (Self, [f64; 2]) {
        let dc = if smoke { DcSpec::tiny } else { DcSpec::medium };
        let t0 = Instant::now();
        let topo = Arc::new(
            Topology::build(TopologySpec {
                dcs: vec![dc("DC1 (US West)"), dc("DC2 (US Central)")],
            })
            .expect("valid topology spec"),
        );
        let t1 = Instant::now();
        let lists = PinglistGenerator::new(GeneratorConfig::default())
            .generate_all(&topo, 1)
            .lists;
        let ns = [(t1 - t0).as_nanos() as f64, t1.elapsed().as_nanos() as f64];
        (Fleet { topo, lists, seed }, ns)
    }

    /// One agent's upload batch of `n` records stamped inside `window`.
    fn batch(&self, idx: u64, n: usize, window: u64) -> Vec<ProbeRecord> {
        let mut rng = Rng::new(self.seed, 1_000 + idx);
        let list = &self.lists[rng.below(self.lists.len() as u64) as usize];
        let src = list.server;
        let s = *self.topo.server(src);
        let peers: Vec<_> = list
            .entries
            .iter()
            .filter_map(|e| match e.target {
                PingTarget::Server { id, .. } => Some((id, e.port, e.qos)),
                PingTarget::Vip { .. } => None,
            })
            .collect();
        (0..n)
            .map(|i| {
                let (dst, port, qos) = peers[i % peers.len()];
                let d = *self.topo.server(dst);
                let base = if d.dc != s.dc {
                    30_000
                } else if d.pod == s.pod {
                    150
                } else {
                    300
                };
                let outcome = if rng.below(500) == 0 {
                    ProbeOutcome::Timeout
                } else {
                    ProbeOutcome::Success {
                        rtt: SimDuration::from_micros(base + rng.below(base)),
                    }
                };
                ProbeRecord {
                    ts: SimTime(window * W + rng.below(W)),
                    src,
                    dst,
                    src_pod: s.pod,
                    dst_pod: d.pod,
                    src_podset: s.podset,
                    dst_podset: d.podset,
                    src_dc: s.dc,
                    dst_dc: d.dc,
                    kind: ProbeKind::TcpSyn,
                    qos,
                    src_port: 32_768 + rng.below(28_000) as u16,
                    dst_port: port,
                    outcome,
                }
            })
            .collect()
    }
}

fn append(store: &mut CosmosStore, batch: &[ProbeRecord]) -> bool {
    let t = batch.iter().map(|r| r.ts).max().unwrap_or(SimTime::ZERO);
    store.append(
        StreamName {
            dc: batch[0].src_dc,
        },
        batch,
        t,
    )
}

/// The services under test, listening on loopback.
struct Stack {
    fleet: Fleet,
    collector: Collector,
    tier: QueryTier,
    collector_addr: SocketAddr,
    query_addr: SocketAddr,
    tasks: Vec<tokio::task::JoinHandle<()>>,
    dir: PathBuf,
}

impl Stack {
    fn stop(self) {
        for t in &self.tasks {
            t.abort();
        }
        let rt = tokio::runtime::Runtime::new().expect("runtime");
        for t in self.tasks {
            let _ = rt.block_on(t);
        }
        drop((self.collector, self.tier));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One setup: fleet (topology + pinglists), durable collector, seeded
/// corpus and warmed cache (`live-query`), both services listening.
/// Also returns the wall ns of `Topology::build`, of `generate_all` and
/// of the whole setup.
fn setup(p: &LiveParams, k: usize) -> (Stack, [f64; 3]) {
    let t0 = Instant::now();
    let (fleet, [topo_ns, gen_ns]) = Fleet::new(p.seed, p.smoke);
    let dir = p.dir.join(format!("collector-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let collector = Collector::durable_at(&dir).expect("open durable collector");
    let tier = QueryTier::new(Arc::clone(collector.store()));
    if p.query {
        let mut store = collector.store().lock();
        let per_batch = 2_000;
        let mut idx = 1u64 << 32;
        for w in 0..HOT {
            for _ in 0..p.corpus_per_window().div_ceil(per_batch) {
                assert!(append(&mut store, &fleet.batch(idx, per_batch, w)));
                idx += 1;
            }
        }
        store.sync_wal().expect("sync seeded corpus");
        drop(store);
        tier.warm(SimTime(0), SimTime(HOT * W));
    }
    let rt = tokio::runtime::Runtime::new().expect("runtime");
    let (cl, ql) = rt.block_on(async {
        (
            TcpListener::bind("127.0.0.1:0")
                .await
                .expect("bind collector"),
            TcpListener::bind("127.0.0.1:0")
                .await
                .expect("bind query tier"),
        )
    });
    let collector_addr = cl.local_addr().expect("collector addr");
    let query_addr = ql.local_addr().expect("query addr");
    let tasks = vec![
        tokio::spawn(serve_collector(cl, collector.clone())),
        tokio::spawn(serve_query(ql, tier.clone())),
    ];
    (
        Stack {
            fleet,
            collector,
            tier,
            collector_addr,
            query_addr,
            tasks,
            dir,
        },
        [topo_ns, gen_ns, t0.elapsed().as_nanos() as f64],
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Upload,
    Query,
    ReadAfterWrite,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Due → done, ms.
    latency_ms: f64,
    /// Start → done, ms.
    service_ms: f64,
    ok: bool,
    /// Records carried (uploads).
    records: usize,
    /// The operation's span, in a traced run.
    span: Option<usize>,
}

/// Per-lane state.
struct Lane {
    rt: tokio::runtime::Runtime,
    conn: Option<Conn<TcpStream>>,
    etags: HashMap<String, String>,
    samples: Vec<Sample>,
    tracer: Tracer,
    trace: bool,
    lag_ms_max: f64,
    backlog_max: u64,
}

impl Lane {
    fn new(origin: Instant, trace: bool) -> Self {
        Lane {
            rt: tokio::runtime::Runtime::new().expect("runtime"),
            conn: None,
            etags: HashMap::new(),
            samples: Vec::new(),
            tracer: Tracer::new(origin),
            trace,
            lag_ms_max: 0.0,
            backlog_max: 0,
        }
    }

    fn record(&mut self, kind: Kind, due: Instant, started: Instant, ok: bool, records: usize) {
        let done = Instant::now();
        let span = self.trace.then(|| {
            let t = Instant::now();
            let id = self.tracer.push("transport", started, done, Some(0));
            self.tracer.charge_overhead(t.elapsed().as_nanos() as u64);
            id
        });
        self.samples.push(Sample {
            kind,
            latency_ms: (done - due).as_secs_f64() * 1e3,
            service_ms: (done - started).as_secs_f64() * 1e3,
            ok,
            records,
            span,
        });
    }

    /// One GET on the lane's keep-alive connection; reconnects once.
    fn get(
        &mut self,
        addr: SocketAddr,
        path: &str,
        etag: Option<&str>,
    ) -> Option<pingmesh_httpx::Response> {
        for _ in 0..2 {
            if self.conn.is_none() {
                let s = self.rt.block_on(TcpStream::connect(addr)).ok()?;
                self.conn = Some(Conn::new(s));
            }
            let conn = self.conn.as_mut().expect("connected");
            match self.rt.block_on(get_with(conn, path, etag, IO_DEADLINE)) {
                Ok(r) => return Some(r),
                Err(_) => self.conn = None,
            }
        }
        None
    }
}

/// Sleeps until `due`; returns the instant the operation starts.
fn wait_until(due: Instant) -> Instant {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    Instant::now()
}

/// What one phase produced.
struct Phase {
    lanes: Vec<Lane>,
    wall: Duration,
}

/// Runs one phase: `LANES` lanes draw operation indices from `next`
/// until `dur` has passed (saturated, `rate` = `None`) or every
/// operation due within `dur` has run (paced at `rate` per second).
fn run_phase(
    rate: Option<f64>,
    dur: Duration,
    trace: bool,
    origin: Instant,
    next: &AtomicU64,
    op: &(dyn Fn(&mut Lane, u64, Instant) -> Instant + Sync),
) -> Phase {
    let start = Instant::now();
    let end = start + dur;
    let first = next.load(Ordering::SeqCst);
    let completed = AtomicU64::new(0);
    let lanes: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|_| {
                let completed = &completed;
                s.spawn(move || {
                    let mut lane = Lane::new(origin, trace);
                    if trace {
                        lane.tracer.push("gen", start, start, None);
                    }
                    loop {
                        let now = Instant::now();
                        if rate.is_none() && now >= end {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let due = match rate {
                            Some(r) => start + Duration::from_secs_f64((i - first) as f64 / r),
                            None => now,
                        };
                        if due >= end {
                            break;
                        }
                        let started = op(&mut lane, i, due);
                        if let Some(r) = rate {
                            let lag = (started - due).as_secs_f64() * 1e3;
                            lane.lag_ms_max = lane.lag_ms_max.max(lag);
                            let due_by_start = ((started - start).as_secs_f64() * r) as u64 + 1;
                            let outstanding =
                                due_by_start.saturating_sub(completed.load(Ordering::SeqCst));
                            lane.backlog_max = lane.backlog_max.max(outstanding);
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread"))
            .collect()
    });
    let wall = start.elapsed();
    let mut lanes = lanes;
    if trace {
        for lane in &mut lanes {
            let end_ns = (start + wall - origin).as_nanos() as u64;
            lane.tracer.spans[0].end_ns = end_ns;
        }
    }
    Phase { lanes, wall }
}

/// Sums the `"probes":N` fields of the `dcs` rows of an `/api/sla`
/// body: every record in the range counts once there.
fn sla_probes(body: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(body).ok()?;
    let rows = s.split_once("\"dcs\":[")?.1.split_once(']')?.0;
    let mut total = 0;
    for part in rows.split("\"probes\":").skip(1) {
        let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().ok()?;
    }
    Some(total)
}

fn window_path(route: &str, from: u64, to: u64) -> String {
    format!("{route}from={}&to={}", from * W, to * W)
}

/// The dashboard's query universe (`live-query`).
struct Dashboard {
    historical: Vec<String>,
    rollup: String,
    hot: String,
}

impl Dashboard {
    fn new() -> Self {
        let mut historical = Vec::new();
        for k in 0..HOT {
            historical.push(window_path("/api/sla?", k, k + 1));
            for level in ["pod", "podset"] {
                historical.push(window_path(
                    &format!("/api/heatmap?level={level}&"),
                    k,
                    k + 1,
                ));
            }
            for dc in 0..2 {
                for scope in ["intrapod", "interpod", "interdc"] {
                    historical.push(window_path(
                        &format!("/api/cdf?dc={dc}&scope={scope}&"),
                        k,
                        k + 1,
                    ));
                }
            }
        }
        Dashboard {
            historical,
            rollup: window_path("/api/sla?", 0, 6),
            hot: window_path("/api/sla?", HOT, HOT + 1),
        }
    }

    /// Every cacheable path, for the byte-identity check.
    fn cacheable(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.historical.iter().map(String::as_str).collect();
        v.push(&self.rollup);
        v.push(&self.hot);
        v
    }
}

/// Runs the workload once.
pub fn run(p: LiveParams) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(&p.dir).expect("create scratch dir");
    let (mut topo_ns, mut gen_ns, mut setup_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut stack = None;
    for k in 0..SETUPS {
        // Stop the previous stack first: one stack at a time in memory.
        if let Some(old) = stack.take() {
            Stack::stop(old);
        }
        let (s, [t, g, total]) = setup(&p, k);
        topo_ns.push(t);
        gen_ns.push(g);
        setup_ns.push(total);
        stack = Some(s);
    }
    let stack = stack.expect("at least one setup");
    out.e2e.insert(
        "setup_s",
        stats::median(&setup_ns).unwrap_or(f64::NAN) / 1e9,
    );

    let obs_before = ObsTotals::take();
    let origin = Instant::now();
    let next = AtomicU64::new(0);
    let acked = AtomicU64::new(0);
    let trickled = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let dashboard = Dashboard::new();
    let batch = p.batch();
    let (caddr, qaddr) = (stack.collector_addr, stack.query_addr);

    // Operations build their input first, then wait for their due time,
    // and return when they started.
    let upload = |lane: &mut Lane, records: Vec<ProbeRecord>, due: Instant| -> (bool, Instant) {
        let started = wait_until(due);
        sent.fetch_add(records.len() as u64, Ordering::SeqCst);
        let ok = lane.rt.block_on(upload_records(caddr, &records)).is_ok();
        if ok {
            acked.fetch_add(records.len() as u64, Ordering::SeqCst);
        }
        lane.record(Kind::Upload, due, started, ok, records.len());
        (ok, started)
    };
    let ingest_op = |lane: &mut Lane, i: u64, due: Instant| -> Instant {
        let (ok, started) = upload(lane, stack.fleet.batch(i, batch, HOT), due);
        if ok {
            // Read-after-write: the hot-window SLA must count every batch
            // acked so far (this one included) and nothing never sent.
            let floor = acked.load(Ordering::SeqCst);
            let q0 = Instant::now();
            let resp = lane.get(qaddr, &dashboard.hot, None);
            let ok = resp.is_some_and(|r| {
                r.status == 200
                    && sla_probes(&r.body)
                        .is_some_and(|n| n >= floor && n <= sent.load(Ordering::SeqCst))
            });
            lane.record(Kind::ReadAfterWrite, q0, q0, ok, 0);
        }
        started
    };
    let query_op = |lane: &mut Lane, i: u64, due: Instant| -> Instant {
        let mut rng = Rng::new(p.seed, 1 << 40 | i);
        // One trickle upload per second of run time: the first operation
        // due after each whole second takes it.
        let second = (due - origin).as_secs();
        if trickled
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                (t <= second).then_some(second + 1)
            })
            .is_ok()
        {
            return upload(lane, stack.fleet.batch(1 << 40 | second, batch, HOT), due).1;
        }
        let path = match rng.below(100) {
            0..=64 => {
                dashboard.historical[rng.below(dashboard.historical.len() as u64) as usize].clone()
            }
            65..=74 => dashboard.rollup.clone(),
            75..=84 => "/api/windows".to_string(),
            _ => dashboard.hot.clone(),
        };
        // Dashboards replay the validator they last saw 80% of the time.
        let etag = (rng.below(10) < 8)
            .then(|| lane.etags.get(&path).cloned())
            .flatten();
        let started = wait_until(due);
        let resp = lane.get(qaddr, &path, etag.as_deref());
        let ok = match resp {
            Some(r) if r.status == 200 => {
                if let Some(tag) = r.header("etag") {
                    lane.etags.insert(path, tag.to_string());
                }
                true
            }
            Some(r) => r.status == 304 && etag.is_some(),
            None => false,
        };
        lane.record(Kind::Query, due, started, ok, 0);
        started
    };
    let op: &(dyn Fn(&mut Lane, u64, Instant) -> Instant + Sync) =
        if p.query { &query_op } else { &ingest_op };

    let paced_dur = Duration::from_secs_f64(p.seconds * PACED_SHARE);
    let saturated_dur = Duration::from_secs_f64(p.seconds * (1.0 - PACED_SHARE));
    let paced = run_phase(Some(p.paced_rate()), paced_dur, p.trace, origin, &next, op);
    // Peak memory through the paced phase: the saturated phase's volume
    // (and so its memory) follows the program's speed.
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    let saturated = run_phase(None, saturated_dur, p.trace, origin, &next, op);
    let obs_after = ObsTotals::take();

    // --- end-to-end metrics.
    let primary = if p.query { Kind::Query } else { Kind::Upload };
    let lat = |phase: &Phase, kind: Kind| -> Vec<f64> {
        phase
            .lanes
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ms)
            .collect()
    };
    out.set_latency(&lat(&paced, primary));
    let sat_samples = saturated.lanes.iter().flat_map(|l| &l.samples);
    let throughput = if p.query {
        sat_samples
            .filter(|s| s.kind == Kind::Query && s.ok)
            .count() as f64
    } else {
        sat_samples
            .filter(|s| s.kind == Kind::Upload && s.ok)
            .map(|s| s.records)
            .sum::<usize>() as f64
    } / saturated.wall.as_secs_f64();
    out.e2e.insert("throughput", throughput);

    let all: Vec<&Sample> = paced
        .lanes
        .iter()
        .chain(&saturated.lanes)
        .flat_map(|l| &l.samples)
        .collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|s| !s.ok).count() as u64;
    out.gate(
        "every operation succeeded and was answered correctly",
        out.failed == 0,
        format!("{} of {} failed", out.failed, out.attempted),
    );

    // --- correctness of the quiesced store.
    let acked_total = acked.load(Ordering::SeqCst);
    let stored = stack.collector.stats().records;
    let seeded = if p.query {
        (HOT as usize * p.corpus_per_window().div_ceil(2_000) * 2_000) as u64
    } else {
        0
    };
    out.gate(
        "store holds exactly the seeded and acknowledged records",
        stored == seeded + acked_total,
        format!("{stored} stored, {seeded} seeded + {acked_total} acked"),
    );
    if p.query {
        let (checked, mismatches) = byte_identity(qaddr, &stack, &dashboard);
        out.gate(
            "served bodies byte-identical to ApiQuery::build over the quiesced store",
            checked > 0 && mismatches.is_empty(),
            format!("{checked} checked, mismatches {mismatches:?}"),
        );
    }

    // --- figures under the workload's own names.
    out.note("offered_rate_per_s", p.paced_rate().to_string());
    out.note("batch_records", batch.to_string());
    out.note("paced_s", paced.wall.as_secs_f64().to_string());
    out.note("saturated_s", saturated.wall.as_secs_f64().to_string());
    if p.query {
        out.note_summary("query_ms", &lat(&paced, Kind::Query));
        out.note_summary("trickle_upload_ms", &lat(&paced, Kind::Upload));
        out.note("query_rps", throughput.to_string());
    } else {
        out.note_summary("upload_ms", &lat(&paced, Kind::Upload));
        out.note_summary("query_ms", &lat(&paced, Kind::ReadAfterWrite));
        out.note("ingest_rps", throughput.to_string());
    }
    let lag = paced.lanes.iter().map(|l| l.lag_ms_max).fold(0.0, f64::max);
    let backlog = paced.lanes.iter().map(|l| l.backlog_max).max().unwrap_or(0);
    out.note("gen_lag_ms_max", lag.to_string());
    out.note("gen_backlog_max", backlog.to_string());
    out.note("records_stored", stored.to_string());

    let service_median = |kinds: &[Kind]| {
        let v: Vec<f64> = paced
            .lanes
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|s| kinds.contains(&s.kind))
            .map(|s| s.service_ms)
            .collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let upload_service_ms = service_median(&[Kind::Upload]);
    let query_service_ms = service_median(&[Kind::Query, Kind::ReadAfterWrite]);

    if p.trace {
        let mut costs = replay_costs(&p, &stack, &dashboard);
        // `QueryTier::respond` as the tier itself timed it during the run.
        let (requests, respond_us) = obs_after.hist_delta(&obs_before, "pingmesh_serve_request_us");
        costs.serve_ns = if requests > 0.0 {
            respond_us * 1e3 / requests
        } else {
            0.0
        };
        let mut tracer = Tracer::new(origin);
        let mut walls = 0.0;
        for phase in [paced, saturated] {
            walls += phase.wall.as_secs_f64() * 1e3;
            for mut lane in phase.lanes {
                for s in &lane.samples {
                    if let Some(span) = s.span {
                        lane.tracer.estimate(span, &costs.parts(s));
                    }
                }
                tracer.absorb(lane.tracer);
            }
        }
        let l = &mut out.layers;
        l.insert(
            "topology.build_ms",
            stats::median(&topo_ns).unwrap_or(0.0) / 1e6,
        );
        l.insert(
            "controller.generate_ms",
            stats::median(&gen_ns).unwrap_or(0.0) / 1e6,
        );
        costs.insert(l);
        let d = |name: &str| obs_after.delta(&obs_before, name);
        let wal_records = d("pingmesh_store_wal_records_total");
        l.insert(
            "dsa.wal.bytes_per_record",
            if wal_records > 0.0 {
                d("pingmesh_store_wal_bytes_total") / wal_records
            } else {
                0.0
            },
        );
        l.insert("dsa.checkpoints", d("pingmesh_store_checkpoints_total"));
        l.insert(
            "controller.generations",
            d("pingmesh_controller_generations_total"),
        );
        l.insert(
            "collector.uploads_rejected",
            d("pingmesh_realmode_uploads_rejected_total"),
        );
        l.insert(
            "transport.upload_ms",
            (upload_service_ms - (costs.encode_ns + costs.respond_ns) / 1e6).max(0.0),
        );
        l.insert(
            "transport.query_us",
            (query_service_ms * 1e3 - costs.serve_ns / 1e3).max(0.0),
        );
        l.insert(
            "httpx.requests_read",
            d("pingmesh_httpx_requests_read_total"),
        );
        l.insert("httpx.read_errors", d("pingmesh_httpx_read_errors_total"));
        l.insert("httpx.timeouts", d("pingmesh_httpx_timeouts_total"));
        let tier = stack.tier.stats();
        let (hits, misses) = (
            tier.hits_frozen.load(Ordering::Relaxed) + tier.hits_hot.load(Ordering::Relaxed),
            tier.misses_frozen.load(Ordering::Relaxed) + tier.misses_hot.load(Ordering::Relaxed),
        );
        l.insert("serve.frozen_hit_rate", tier.frozen_hit_rate());
        l.insert(
            "serve.not_modified_frac",
            tier.not_modified.load(Ordering::Relaxed) as f64 / (hits + misses).max(1) as f64,
        );
        l.insert(
            "serve.invalidations",
            tier.invalidations.load(Ordering::Relaxed) as f64,
        );
        l.insert("gen.lag_ms_max", lag);
        l.insert("gen.backlog_max", backlog as f64);
        // Lanes run side by side: report self times per lane, so they
        // add up to the phases' wall.
        l.insert("trace.wall_ms", walls);
        for (name, ns) in tracer.self_by_name() {
            l.insert(crate::self_metric(name), ns as f64 / 1e6 / LANES as f64);
        }
        l.insert(
            "trace.overhead_frac",
            tracer.overhead_ns as f64 / LANES as f64 / (walls * 1e6),
        );
        out.tracer = Some(tracer);
    }
    stack.stop();
    let _ = std::fs::remove_dir_all(&p.dir);
    out
}

/// Single-layer costs replayed on the workload's own batches and store,
/// each the median over several calls.
struct Costs {
    encode_ns: f64,
    decode_ns: f64,
    bytes_per_record: f64,
    respond_ns: f64,
    wal_ns_per_record: f64,
    append_ns_per_record: f64,
    hit_ns: f64,
    miss_ns: f64,
    /// Mean `QueryTier::respond` time per request during the run, from
    /// the tier's own `pingmesh_serve_request_us`.
    serve_ns: f64,
}

impl Costs {
    /// Estimated children of one operation's span.
    fn parts(&self, s: &Sample) -> Vec<(&'static str, f64)> {
        match s.kind {
            Kind::Upload => {
                let wal = self.wal_ns_per_record * s.records as f64;
                vec![
                    ("json", self.encode_ns + self.decode_ns),
                    ("dsa", wal),
                    (
                        "collector",
                        (self.respond_ns - self.decode_ns - wal).max(0.0),
                    ),
                ]
            }
            Kind::Query | Kind::ReadAfterWrite => vec![("serve", self.serve_ns)],
        }
    }

    fn insert(&self, l: &mut std::collections::BTreeMap<&'static str, f64>) {
        l.insert("json.encode_us_per_batch", self.encode_ns / 1e3);
        l.insert("json.decode_us_per_batch", self.decode_ns / 1e3);
        l.insert("json.bytes_per_record", self.bytes_per_record);
        l.insert("collector.respond_ms", self.respond_ns / 1e6);
        l.insert("dsa.wal.append_ns_per_record", self.wal_ns_per_record);
        l.insert("dsa.store.append_ns_per_record", self.append_ns_per_record);
        l.insert("serve.respond_us.hit", self.hit_ns / 1e3);
        l.insert("serve.respond_us.miss", self.miss_ns / 1e3);
    }
}

fn replay_costs(p: &LiveParams, stack: &Stack, dashboard: &Dashboard) -> Costs {
    const REPS: u64 = 11;
    let n = p.batch();
    let batches: Vec<Vec<ProbeRecord>> = (0..REPS)
        .map(|k| stack.fleet.batch(1 << 50 | k, n, HOT + 1))
        .collect();
    let bodies: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| serde_json::to_vec(b).expect("encode batch"))
        .collect();
    let each = |f: &mut dyn FnMut(usize)| -> f64 {
        let mut k = 0;
        median_ns(REPS as usize, || {
            f(k % REPS as usize);
            k += 1;
        })
    };
    let encode_ns = each(&mut |k| {
        black_box(serde_json::to_vec(&batches[k]).expect("encode"));
    });
    let decode_ns = each(&mut |k| {
        black_box(serde_json::from_slice::<Vec<ProbeRecord>>(&bodies[k]).expect("decode"));
    });
    let bytes_per_record =
        bodies.iter().map(Vec::len).sum::<usize>() as f64 / (REPS as f64 * n as f64);

    let scratch = p.dir.join("replay");
    let _ = std::fs::remove_dir_all(&scratch);
    let collector = Collector::durable_at(&scratch.join("collector")).expect("replay collector");
    let respond_ns = each(&mut |k| {
        let resp = collector.respond(&Request::post("/upload", bodies[k].clone()));
        assert_eq!(resp.status, 200, "replayed upload refused");
    });
    drop(collector);
    let mut wal = CosmosStore::durable(&scratch.join("wal"), 250_000, 3).expect("replay WAL");
    let wal_ns_per_record = each(&mut |k| {
        assert!(append(&mut wal, &batches[k]), "replayed WAL append refused");
        if wal
            .durability_stats()
            .is_some_and(|d| d.unsynced_bytes >= 4 << 20)
        {
            wal.sync_wal().expect("WAL sync");
        }
    }) / n as f64;
    drop(wal);
    let mut mem = CosmosStore::with_defaults();
    let append_ns_per_record = each(&mut |k| {
        black_box(append(&mut mem, &batches[k]));
    }) / n as f64;
    let _ = std::fs::remove_dir_all(&scratch);

    // Hits and misses on fresh tiers over the quiesced store.
    let paths: Vec<&str> = if p.query {
        dashboard.cacheable().into_iter().step_by(7).collect()
    } else {
        vec![dashboard.hot.as_str()]
    };
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let tier = QueryTier::new(Arc::clone(stack.collector.store()));
        for path in &paths {
            for out in [&mut misses, &mut hits] {
                let t = Instant::now();
                black_box(tier.respond(&Request::get(path)));
                out.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    Costs {
        encode_ns,
        decode_ns,
        bytes_per_record,
        respond_ns,
        wal_ns_per_record,
        append_ns_per_record,
        hit_ns: stats::median(&hits).unwrap_or(0.0),
        miss_ns: stats::median(&misses).unwrap_or(0.0),
        serve_ns: 0.0,
    }
}

/// Fetches every cacheable path without a validator and compares the
/// bytes to a from-scratch `ApiQuery::build` over the quiesced store.
fn byte_identity(addr: SocketAddr, stack: &Stack, dashboard: &Dashboard) -> (u64, Vec<String>) {
    let mut lane = Lane::new(Instant::now(), false);
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for path in dashboard.cacheable() {
        let resp = lane.get(addr, path, None);
        let (route, query) = path.split_once('?').expect("cacheable paths have a query");
        let oracle = ApiQuery::parse(route, Some(query))
            .ok()
            .and_then(|q| q.build(&stack.collector.store().lock()).ok());
        checked += 1;
        if resp.as_ref().map(|r| (r.status, &r.body)) != oracle.as_ref().map(|b| (200, b)) {
            mismatches.push(path.to_string());
        }
    }
    (checked, mismatches)
}
