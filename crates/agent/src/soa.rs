//! Struct-of-arrays agent fleet: the one agent state machine.
//!
//! Every agent transition lives here: pinglist sanitize/guard, the
//! deterministic probe schedule, bounded result buffering and the
//! retry-then-discard upload cycle. The simulation drives a fleet of one
//! agent per server; the real-socket agent drives a fleet of one. The
//! state is flattened into parallel arenas (the same move `InlineVec`
//! made for `Path.hops`) so a 100k-agent wake is no pointer chase:
//!
//! * all pinglist entries live in one `Vec<PinglistEntry>` arena, each
//!   agent owning a contiguous [`Segment`] of it;
//! * per-entry next-due times live in a parallel `Vec<SimTime>` arena, so
//!   a due-scan is a cache-linear sweep of one agent's segment;
//! * per-agent scalars (cached next wake, ephemeral port cursor,
//!   generation, lifetime ledgers) are plain `Vec`s indexed by the fleet
//!   index.
//!
//! The schedule contract (pinned by the spec test below): entry `i`
//! first fires at `install time + phase_of(server, i, interval)`, then
//! every `interval` after the wake that fired it; each wake emits its due
//! entries in `(due time, entry index)` order; source ports count up from
//! `EPHEMERAL_LO` and wrap at `u16::MAX`. The sharded orchestrator gives
//! each shard its own `AgentFleet` over its podset's servers, so fleets
//! are mutated thread-locally and need no locks.

use crate::buffer::ResultBuffer;
use crate::config::AgentConfig;
use crate::guard::{GuardDecision, SafetyGuard};
use crate::scheduler::{phase_of, DueProbe, EPHEMERAL_LO};
use pingmesh_topology::Topology;
use pingmesh_types::{
    AgentCounters, CounterSnapshot, Pinglist, PinglistEntry, ProbeOutcome, ProbeRecord, ServerId,
    SimTime,
};
use std::sync::{Arc, OnceLock};

/// Fleet-wide agent metrics. Every agent shares these handles, so they
/// are resolved once; each touch is an atomic add.
struct AgentMetrics {
    probes_sent: Arc<pingmesh_obs::Counter>,
    guard_trips: Arc<pingmesh_obs::Counter>,
    sanitized: Arc<pingmesh_obs::Counter>,
    uploads_started: Arc<pingmesh_obs::Counter>,
    upload_retries: Arc<pingmesh_obs::Counter>,
    records_discarded: Arc<pingmesh_obs::Counter>,
    upload_batch_size: Arc<pingmesh_obs::Histogram>,
}

fn metrics() -> &'static AgentMetrics {
    static M: OnceLock<AgentMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pingmesh_obs::registry();
        AgentMetrics {
            probes_sent: r.counter("pingmesh_agent_probes_sent_total"),
            guard_trips: r.counter("pingmesh_agent_guard_trips_total"),
            sanitized: r.counter("pingmesh_agent_sanitized_entries_total"),
            uploads_started: r.counter("pingmesh_agent_uploads_started_total"),
            upload_retries: r.counter("pingmesh_agent_upload_retries_total"),
            records_discarded: r.counter("pingmesh_agent_records_discarded_total"),
            upload_batch_size: r.histogram("pingmesh_agent_upload_batch_size"),
        }
    })
}

/// What a controller poll produced (transport-agnostic: the orchestrator
/// adapts the in-process SLB, the real agent adapts HTTP).
#[derive(Debug, Clone)]
pub enum ControllerPollOutcome {
    /// A pinglist was served.
    Pinglist(Pinglist),
    /// The controller answered but had no pinglist (fleet stop switch).
    NoPinglist,
    /// The controller (VIP) was unreachable.
    Unreachable,
}

/// "No wake pending" sentinel in the `next_wake` arena (scans stay
/// branch-free: the min of an empty segment is simply the sentinel).
const NEVER: SimTime = SimTime(u64::MAX);

/// One agent's slice of the entry/due arenas.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    start: u32,
    len: u32,
    cap: u32,
}

/// The flattened agent fleet. Every per-agent operation takes the agent's
/// fleet index (assigned by [`AgentFleet::push_server`], dense from 0).
pub struct AgentFleet {
    topo: Arc<Topology>,
    config: AgentConfig,
    servers: Vec<ServerId>,
    // --- hot state: arenas + per-agent scalars ---
    segs: Vec<Segment>,
    entries: Vec<PinglistEntry>,
    due: Vec<SimTime>,
    next_wake: Vec<SimTime>,
    next_port: Vec<u16>,
    generation: Vec<u64>,
    // --- cold per-agent state ---
    guards: Vec<SafetyGuard>,
    buffers: Vec<ResultBuffer>,
    counters: Vec<AgentCounters>,
    sanitized_entries: Vec<u64>,
    probes_observed: Vec<u64>,
    unresolved_probes: Vec<u64>,
    discarded_seen: Vec<u64>,
    // Recycled wake-path scratch (calls within a shard are sequential, so
    // one per fleet suffices): due picks and the output buffer.
    picks_scratch: Vec<(SimTime, u32)>,
    due_scratch: Vec<DueProbe>,
}

impl AgentFleet {
    /// Creates an empty fleet.
    pub fn new(topo: Arc<Topology>, config: AgentConfig) -> Self {
        Self {
            topo,
            config,
            servers: Vec::new(),
            segs: Vec::new(),
            entries: Vec::new(),
            due: Vec::new(),
            next_wake: Vec::new(),
            next_port: Vec::new(),
            generation: Vec::new(),
            guards: Vec::new(),
            buffers: Vec::new(),
            counters: Vec::new(),
            sanitized_entries: Vec::new(),
            probes_observed: Vec::new(),
            unresolved_probes: Vec::new(),
            discarded_seen: Vec::new(),
            picks_scratch: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Adds an idle agent for `server`; returns its fleet index.
    pub fn push_server(&mut self, server: ServerId) -> usize {
        let idx = self.servers.len();
        self.servers.push(server);
        self.segs.push(Segment::default());
        self.next_wake.push(NEVER);
        self.next_port.push(EPHEMERAL_LO);
        self.generation.push(0);
        self.guards.push(SafetyGuard::new());
        self.buffers.push(ResultBuffer::new(self.config.clone()));
        self.counters.push(AgentCounters::new());
        self.sanitized_entries.push(0);
        self.probes_observed.push(0);
        self.unresolved_probes.push(0);
        self.discarded_seen.push(0);
        idx
    }

    /// Number of agents in the fleet.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The server of agent `idx`.
    pub fn server(&self, idx: usize) -> ServerId {
        self.servers[idx]
    }

    /// Active pinglist generation of agent `idx` (0 = none yet).
    pub fn generation(&self, idx: usize) -> u64 {
        self.generation[idx]
    }

    /// Whether agent `idx` is fail-closed (not probing).
    pub fn is_stopped(&self, idx: usize) -> bool {
        self.guards[idx].is_stopped()
    }

    /// Number of peers agent `idx` currently schedules.
    pub fn peer_count(&self, idx: usize) -> usize {
        self.segs[idx].len as usize
    }

    /// Agent `idx`'s installed (sanitized) pinglist entries, in pinglist
    /// order.
    pub fn entries(&self, idx: usize) -> &[PinglistEntry] {
        let seg = self.segs[idx];
        &self.entries[seg.start as usize..][..seg.len as usize]
    }

    /// Entries the guard had to clamp over agent `idx`'s lifetime.
    pub fn sanitized_entries(&self, idx: usize) -> u64 {
        self.sanitized_entries[idx]
    }

    /// Consecutive failed controller polls of agent `idx`.
    pub fn controller_failures(&self, idx: usize) -> u32 {
        self.guards[idx].failures()
    }

    fn note_guard_trip(&self, idx: usize, reason: &'static str, now: SimTime) {
        metrics().guard_trips.inc();
        pingmesh_obs::emit_sim!(now; Warn, "agent.guard", "guard_trip",
            "server" => self.servers[idx].0 as u64, "reason" => reason);
    }

    /// Installs a pinglist into agent `idx`'s arena segment: in place when
    /// the segment has capacity, else at the arena tail (the old slice is
    /// abandoned — reinstalls are rare, one per pinglist generation).
    fn install(&mut self, idx: usize, pl: &Pinglist, now: SimTime) {
        let server = self.servers[idx];
        let n = pl.entries.len();
        let seg = &mut self.segs[idx];
        let grow = n as u32 > seg.cap;
        if grow {
            seg.start = self.entries.len() as u32;
            seg.cap = n as u32;
            self.entries.reserve(n);
            self.due.reserve(n);
        }
        seg.len = n as u32;
        let start = seg.start as usize;
        let mut min_due = NEVER;
        for (i, e) in pl.entries.iter().enumerate() {
            let phase = phase_of(server, i, e.interval.as_micros());
            let due = now + pingmesh_types::SimDuration(phase);
            if grow {
                self.entries.push(*e);
                self.due.push(due);
            } else {
                self.entries[start + i] = *e;
                self.due[start + i] = due;
            }
            min_due = min_due.min(due);
        }
        self.next_wake[idx] = min_due;
    }

    fn clear_schedule(&mut self, idx: usize) {
        self.segs[idx].len = 0;
        self.next_wake[idx] = NEVER;
    }

    /// Folds a controller poll result into agent `idx`: sanitize and
    /// install a served pinglist (reinstalling, and so re-phasing, only on
    /// a new generation), or count a failure toward the fail-closed stop.
    pub fn on_controller_poll(&mut self, idx: usize, outcome: ControllerPollOutcome, now: SimTime) {
        let was_stopped = self.guards[idx].is_stopped();
        match outcome {
            ControllerPollOutcome::Pinglist(mut pl) => {
                let clamped = SafetyGuard::sanitize(&mut pl) as u64;
                if clamped > 0 {
                    metrics().sanitized.add(clamped);
                    pingmesh_obs::emit_sim!(now; Warn, "agent.guard", "entries_sanitized",
                        "server" => self.servers[idx].0 as u64, "entries" => clamped);
                }
                self.sanitized_entries[idx] += clamped;
                self.guards[idx].on_pinglist_received();
                if pl.generation != self.generation[idx] {
                    self.generation[idx] = pl.generation;
                    self.install(idx, &pl, now);
                }
            }
            ControllerPollOutcome::NoPinglist => {
                if self.guards[idx].on_empty_controller() == GuardDecision::StopProbing {
                    if !was_stopped {
                        self.note_guard_trip(idx, "no_pinglist", now);
                    }
                    self.clear_schedule(idx);
                    self.generation[idx] = 0;
                }
            }
            ControllerPollOutcome::Unreachable => {
                if self.guards[idx].on_controller_failure() == GuardDecision::StopProbing {
                    if !was_stopped {
                        self.note_guard_trip(idx, "controller_unreachable", now);
                    }
                    self.clear_schedule(idx);
                    self.generation[idx] = 0;
                }
            }
        }
    }

    /// When agent `idx` next needs to act.
    pub fn next_wakeup(&self, idx: usize) -> Option<SimTime> {
        let t = self.next_wake[idx];
        (t != NEVER).then_some(t)
    }

    /// Probes of agent `idx` due at `now`: a linear sweep of the agent's
    /// due segment, emitted in `(due time, entry index)` order, each with
    /// the next ephemeral source port. Hand the buffer back via
    /// [`AgentFleet::recycle_due`].
    pub fn due_probes(&mut self, idx: usize, now: SimTime) -> Vec<DueProbe> {
        let mut out = std::mem::take(&mut self.due_scratch);
        out.clear();
        if self.guards[idx].is_stopped() {
            return out;
        }
        let seg = self.segs[idx];
        let (start, len) = (seg.start as usize, seg.len as usize);
        let mut picks = std::mem::take(&mut self.picks_scratch);
        picks.clear();
        for i in 0..len {
            let t = self.due[start + i];
            if t <= now {
                picks.push((t, i as u32));
            }
        }
        picks.sort_unstable();
        for &(_, i) in picks.iter() {
            let i = i as usize;
            let entry = self.entries[start + i];
            let p = self.next_port[idx];
            self.next_port[idx] = if p == u16::MAX { EPHEMERAL_LO } else { p + 1 };
            self.due[start + i] = now + entry.interval;
            out.push(DueProbe {
                entry_index: i,
                entry,
                src_port: p,
            });
        }
        if !picks.is_empty() {
            let mut min_due = NEVER;
            for i in 0..len {
                min_due = min_due.min(self.due[start + i]);
            }
            self.next_wake[idx] = min_due;
        }
        picks.clear();
        self.picks_scratch = picks;
        out
    }

    /// Returns a drained `due_probes` buffer for reuse on the next wake.
    pub fn recycle_due(&mut self, mut due: Vec<DueProbe>) {
        due.clear();
        if due.capacity() > self.due_scratch.capacity() {
            self.due_scratch = due;
        }
    }

    /// Feeds a probe's network outcome back into agent `idx`: updates
    /// counters and buffers a record. `dst` is the physical server that
    /// was reached (VIPs resolve to a DIP); probes whose target could not
    /// be resolved are counted but produce no record.
    pub fn record_outcome(
        &mut self,
        idx: usize,
        due: &DueProbe,
        dst: Option<ServerId>,
        outcome: ProbeOutcome,
        now: SimTime,
    ) {
        self.counters[idx].observe(outcome);
        metrics().probes_sent.inc();
        self.probes_observed[idx] += 1;
        let Some(dst) = dst else {
            self.unresolved_probes[idx] += 1;
            return;
        };
        let src = self.servers[idx];
        let s = self.topo.server(src);
        let d = self.topo.server(dst);
        let rec = ProbeRecord {
            ts: now,
            src,
            dst,
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: due.entry.kind,
            qos: due.entry.qos,
            src_port: due.src_port,
            dst_port: due.entry.port,
            outcome,
        };
        pingmesh_obs::trace::on_probe(&rec);
        self.buffers[idx].push(rec);
    }

    /// Whether agent `idx` should start an upload now.
    pub fn upload_due(&self, idx: usize, now: SimTime) -> bool {
        self.buffers[idx].upload_due(now)
    }

    /// Starts an upload for agent `idx`; returns the batch.
    pub fn begin_upload(&mut self, idx: usize) -> Option<Vec<ProbeRecord>> {
        let batch = self.buffers[idx].begin_upload();
        if let Some(b) = &batch {
            metrics().uploads_started.inc();
            metrics().upload_batch_size.record_micros(b.len() as u64);
        }
        batch
    }

    /// Reports the uploader's verdict for agent `idx`; returns `true` if
    /// the caller should retry the batch it already holds.
    pub fn on_upload_result(&mut self, idx: usize, ok: bool) -> bool {
        let retry = self.buffers[idx].on_upload_result(ok);
        if !ok && retry {
            metrics().upload_retries.inc();
        }
        self.counters[idx].records_discarded = self.buffers[idx].discarded();
        let newly = self.buffers[idx]
            .discarded()
            .saturating_sub(self.discarded_seen[idx]);
        if newly > 0 {
            self.discarded_seen[idx] = self.buffers[idx].discarded();
            metrics().records_discarded.add(newly);
        }
        retry
    }

    /// Returns a finished upload batch's capacity to agent `idx`.
    pub fn recycle_batch(&mut self, idx: usize, batch: Vec<ProbeRecord>) {
        self.buffers[idx].recycle(batch);
    }

    /// Marks bytes as uploaded for agent `idx`.
    pub fn note_uploaded(&mut self, idx: usize, bytes: u64) {
        self.counters[idx].bytes_uploaded += bytes;
    }

    /// Cumulative records agent `idx` discarded over its lifetime.
    pub fn discarded_total(&self, idx: usize) -> u64 {
        self.buffers[idx].discarded()
    }

    /// Lifetime probe outcomes fed back into agent `idx`.
    pub fn probes_observed(&self, idx: usize) -> u64 {
        self.probes_observed[idx]
    }

    /// Lifetime unresolved (recordless) probes of agent `idx`.
    pub fn unresolved_probes(&self, idx: usize) -> u64 {
        self.unresolved_probes[idx]
    }

    /// Records agent `idx` currently buffers.
    pub fn buffered_records(&self, idx: usize) -> u64 {
        self.buffers[idx].len() as u64
    }

    /// Agent `idx`'s capped local log (oldest line first).
    pub fn log_lines(&self, idx: usize) -> impl Iterator<Item = &str> {
        self.buffers[idx].log_lines()
    }

    /// Whether agent `idx` has an upload batch in flight.
    pub fn has_pending_upload(&self, idx: usize) -> bool {
        self.buffers[idx].has_pending()
    }

    /// Live counters of agent `idx`.
    pub fn counters(&self, idx: usize) -> &AgentCounters {
        &self.counters[idx]
    }

    /// PA collection for agent `idx`: snapshot and reset the window.
    pub fn collect_counters(&mut self, idx: usize) -> CounterSnapshot {
        let snap = self.counters[idx].snapshot();
        self.counters[idx].reset_window();
        snap
    }

    /// A read-only single-agent view (what oracles and watchdogs consume).
    pub fn view(&self, idx: usize) -> AgentView<'_> {
        AgentView { fleet: self, idx }
    }
}

/// Read-only view of one agent in an [`AgentFleet`], so fleet-wide
/// invariant checks (`orch.agent(s).probes_observed()` …) read one agent
/// without carrying its fleet index around.
#[derive(Clone, Copy)]
pub struct AgentView<'a> {
    fleet: &'a AgentFleet,
    idx: usize,
}

impl AgentView<'_> {
    /// The server this agent runs on.
    pub fn server(&self) -> ServerId {
        self.fleet.server(self.idx)
    }

    /// Active pinglist generation (0 = none yet).
    pub fn generation(&self) -> u64 {
        self.fleet.generation(self.idx)
    }

    /// Whether the agent is fail-closed (not probing).
    pub fn is_stopped(&self) -> bool {
        self.fleet.is_stopped(self.idx)
    }

    /// Number of peers currently scheduled.
    pub fn peer_count(&self) -> usize {
        self.fleet.peer_count(self.idx)
    }

    /// Entries the guard had to clamp over this agent's lifetime.
    pub fn sanitized_entries(&self) -> u64 {
        self.fleet.sanitized_entries(self.idx)
    }

    /// When the agent next needs to act.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.fleet.next_wakeup(self.idx)
    }

    /// Lifetime probe outcomes fed back.
    pub fn probes_observed(&self) -> u64 {
        self.fleet.probes_observed(self.idx)
    }

    /// Lifetime unresolved (recordless) probes.
    pub fn unresolved_probes(&self) -> u64 {
        self.fleet.unresolved_probes(self.idx)
    }

    /// Records currently buffered.
    pub fn buffered_records(&self) -> u64 {
        self.fleet.buffered_records(self.idx)
    }

    /// Whether an upload batch is in flight.
    pub fn has_pending_upload(&self) -> bool {
        self.fleet.has_pending_upload(self.idx)
    }

    /// Cumulative records discarded.
    pub fn discarded_total(&self) -> u64 {
        self.fleet.discarded_total(self.idx)
    }

    /// Live counters.
    pub fn counters(&self) -> &AgentCounters {
        self.fleet.counters(self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::{PingTarget, ProbeKind, QosClass, SimDuration};
    use std::net::Ipv4Addr;
    use ControllerPollOutcome::{NoPinglist, Unreachable};

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::build(TopologySpec::single_tiny()).unwrap())
    }

    fn entry(peer: u32, interval_s: u64) -> PinglistEntry {
        PinglistEntry {
            target: PingTarget::Server {
                id: ServerId(peer),
                ip: Ipv4Addr::new(10, 0, 0, peer as u8),
            },
            port: 8100,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            interval: SimDuration::from_secs(interval_s),
        }
    }

    /// A pinglist of `n` peers, entry `i` every `10 + i` seconds.
    fn list(server: ServerId, generation: u64, n: usize) -> ControllerPollOutcome {
        let entries = (0..n).map(|i| entry(1 + i as u32, 10 + i as u64)).collect();
        ControllerPollOutcome::Pinglist(Pinglist {
            server,
            generation,
            entries,
        })
    }

    fn fleet_of_one(server: ServerId) -> (AgentFleet, usize) {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let idx = fleet.push_server(server);
        (fleet, idx)
    }

    fn wake(fleet: &mut AgentFleet, idx: usize, now: SimTime) -> Vec<usize> {
        fleet
            .due_probes(idx, now)
            .iter()
            .map(|d| d.entry_index)
            .collect()
    }

    /// The schedule contract, checked against a hand-written expectation
    /// rather than against another implementation: entry `i` fires at
    /// `t0 + phase_of(server, i, interval_i) + k·interval_i`, each wake
    /// emits in `(due, entry index)` order, and ports count up from
    /// `EPHEMERAL_LO`, wrapping at `u16::MAX`.
    #[test]
    fn schedule_matches_the_spec() {
        let server = ServerId(3);
        let (mut fleet, idx) = fleet_of_one(server);
        let ivl_s = [10u64, 20, 10, 10, 20, 10];
        let n = ivl_s.len();
        let ivl = |i: usize| SimDuration::from_secs(ivl_s[i]);
        let entries = (0..n).map(|i| entry(1 + i as u32, ivl_s[i])).collect();
        let t0 = SimTime(1_000);
        let pl = Pinglist {
            server,
            generation: 1,
            entries,
        };
        fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), t0);

        // First fires are spread inside each entry's interval.
        let first: Vec<SimTime> = (0..n)
            .map(|i| t0 + SimDuration(phase_of(server, i, ivl(i).as_micros())))
            .collect();
        assert!((0..n).all(|i| first[i] < t0 + ivl(i)));
        assert!(first.iter().any(|&t| t != first[0]), "phases spread");

        // On-time wakes: the emitted stream is every firing instance
        // `(first_i + k·interval_i, i)` below the horizon, sorted.
        let horizon = t0 + SimDuration::from_secs(60);
        let mut expected: Vec<(SimTime, usize)> = (0..n)
            .flat_map(|i| (0..6).map(move |k| (i, k)))
            .map(|(i, k)| (first[i] + SimDuration(k * ivl(i).as_micros()), i))
            .filter(|&(t, _)| t < horizon)
            .collect();
        expected.sort();
        let mut fired = [0u64; 6];
        let mut got = Vec::new();
        while got.len() < expected.len() {
            let t = fleet.next_wakeup(idx).unwrap();
            for d in fleet.due_probes(idx, t) {
                assert_eq!(d.src_port, EPHEMERAL_LO + got.len() as u16);
                fired[d.entry_index] += 1;
                got.push((t, d.entry_index));
            }
        }
        assert_eq!(got, expected);

        // A late wake fires every entry once, ordered by how overdue it
        // is (its due time), not by index.
        let late = horizon + SimDuration::from_secs(20);
        let mut overdue: Vec<(SimTime, usize)> = (0..n)
            .map(|i| (first[i] + SimDuration(fired[i] * ivl(i).as_micros()), i))
            .collect();
        overdue.sort();
        let want: Vec<usize> = overdue.iter().map(|&(_, i)| i).collect();
        assert_ne!(want, (0..n).collect::<Vec<_>>(), "case must discriminate");
        assert_eq!(wake(&mut fleet, idx, late), want);

        // Everything was rescheduled to `late + interval_i`, so the
        // following wakes tie on due time and emit in index order.
        for (after_s, want) in [(10, vec![0, 2, 3, 5]), (20, (0..n).collect())] {
            let t = fleet.next_wakeup(idx).unwrap();
            assert_eq!(t, late + SimDuration::from_secs(after_s));
            assert_eq!(wake(&mut fleet, idx, t), want);
        }

        // Port rotation wraps at u16::MAX back to the ephemeral floor.
        fleet.next_port[idx] = u16::MAX;
        let t = fleet.next_wakeup(idx).unwrap();
        let ports: Vec<u16> = fleet
            .due_probes(idx, t)
            .iter()
            .map(|d| d.src_port)
            .collect();
        assert_eq!(ports[..2], [u16::MAX, EPHEMERAL_LO]);
    }

    #[test]
    fn guard_transitions_clear_schedule() {
        // An empty controller stops at once, an unreachable one on the
        // third consecutive failure.
        for (stop, polls) in [(NoPinglist, 1), (Unreachable, 3)] {
            let (mut fleet, idx) = fleet_of_one(ServerId(0));
            fleet.on_controller_poll(idx, list(ServerId(0), 1, 3), SimTime::ZERO);
            // A same-generation re-poll keeps the schedule's phases.
            let first_due = fleet.next_wakeup(idx);
            fleet.on_controller_poll(idx, list(ServerId(0), 1, 3), SimTime(5_000_000));
            assert_eq!(fleet.next_wakeup(idx), first_due);
            for p in 1..=polls {
                // Below the threshold the schedule stays (stale grace).
                assert!(!fleet.is_stopped(idx), "{stop:?}: stopped before poll {p}");
                assert_eq!(fleet.entries(idx).len(), 3);
                fleet.on_controller_poll(idx, stop.clone(), SimTime(p));
            }
            assert!(fleet.is_stopped(idx), "{stop:?}");
            assert_eq!(fleet.peer_count(idx), 0);
            assert_eq!(fleet.generation(idx), 0);
            assert_eq!(fleet.next_wakeup(idx), None);
            assert!(fleet.due_probes(idx, SimTime(100_000_000)).is_empty());
            // Recovery reinstalls (new generation) and resumes.
            fleet.on_controller_poll(idx, list(ServerId(0), 4, 2), SimTime(10));
            assert!(!fleet.is_stopped(idx));
            assert_eq!(fleet.controller_failures(idx), 0);
            assert_eq!((fleet.generation(idx), fleet.peer_count(idx)), (4, 2));
            assert!(fleet.next_wakeup(idx).unwrap() >= SimTime(10));
        }
    }

    #[test]
    fn outcomes_become_records_counters_and_ledgers() {
        let topo = topo();
        let (mut fleet, idx) = fleet_of_one(ServerId(0));
        // Sub-floor intervals are clamped and counted.
        let ControllerPollOutcome::Pinglist(mut pl) = list(ServerId(0), 1, 2) else {
            unreachable!()
        };
        pl.entries[1].interval = SimDuration::from_secs(1);
        fleet.on_controller_poll(idx, ControllerPollOutcome::Pinglist(pl), SimTime::ZERO);
        assert_eq!(fleet.sanitized_entries(idx), 1);
        assert_eq!(fleet.entries(idx)[1].interval, SimDuration::from_secs(10));
        let (mut now, mut due) = (SimTime::ZERO, Vec::new());
        while due.len() < 2 {
            now = fleet.next_wakeup(idx).unwrap();
            due.extend(fleet.due_probes(idx, now));
        }
        // A resolved probe produces a record with denormalized scope; an
        // unresolved one is counted but recordless.
        let rtt = SimDuration::from_micros(200);
        let ok = ProbeOutcome::Success { rtt };
        fleet.record_outcome(idx, &due[0], Some(ServerId(1)), ok, now);
        fleet.record_outcome(idx, &due[1], None, ProbeOutcome::Timeout, now);
        assert_eq!(fleet.probes_observed(idx), 2);
        assert_eq!(fleet.unresolved_probes(idx), 1);
        assert_eq!(fleet.buffered_records(idx), 1);
        assert_eq!(fleet.counters(idx).probes_failed, 1);
        let batch = fleet.begin_upload(idx).unwrap();
        let rec = batch[0];
        assert_eq!((batch.len(), rec.src_port), (1, due[0].src_port));
        assert_eq!(rec.src_pod, topo.server(ServerId(0)).pod);
        assert_eq!(rec.dst_pod, topo.server(ServerId(1)).pod);
        assert!(rec.is_intra_pod());
        assert!(!fleet.on_upload_result(idx, true));
        fleet.recycle_batch(idx, batch);
        fleet.note_uploaded(idx, 64);
        // PA collection exports the window, then resets it; the lifetime
        // ledgers never reset.
        let snap = fleet.collect_counters(idx);
        assert_eq!((snap.probes_sent, snap.bytes_uploaded), (2, 64));
        assert_eq!(fleet.counters(idx).probes_sent, 0, "window reset");
        assert_eq!(fleet.view(idx).probes_observed(), 2);
    }

    #[test]
    fn segments_grow_and_reuse_without_cross_talk() {
        let mut fleet = AgentFleet::new(topo(), AgentConfig::default());
        let a = fleet.push_server(ServerId(0));
        let b = fleet.push_server(ServerId(5));
        fleet.on_controller_poll(a, list(ServerId(0), 1, 4), SimTime::ZERO);
        fleet.on_controller_poll(b, list(ServerId(5), 1, 2), SimTime::ZERO);
        let entries = |n: usize| -> Vec<PinglistEntry> {
            (0..n).map(|i| entry(1 + i as u32, 10 + i as u64)).collect()
        };
        // Growing a's segment relocates it to the arena tail, shrinking
        // reuses it in place; b is unaffected either way.
        for (generation, n) in [(2, 9), (3, 3)] {
            fleet.on_controller_poll(a, list(ServerId(0), generation, n), SimTime(50));
            assert_eq!(fleet.entries(a), entries(n));
            assert_eq!(fleet.entries(b), entries(2));
        }
        let tb = fleet.next_wakeup(b).unwrap();
        let due_b = wake(&mut fleet, b, tb);
        assert!(!due_b.is_empty() && due_b.iter().all(|&i| i < 2));
    }
}
