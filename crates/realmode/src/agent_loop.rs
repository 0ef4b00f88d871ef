//! The real-socket agent: a tokio driver over the shared agent state
//! machine.
//!
//! [`RealAgent`] holds no agent logic of its own. It drives an
//! [`AgentFleet`] of one — the state machine the simulation runs for
//! every server — over real sockets:
//!
//! * controller polls fetch the pinglist over HTTP from the controller
//!   VIP and feed the fleet's §3.4.2 fail-closed rules (3 consecutive
//!   failures or "no pinglist" → drop all peers, keep responding);
//! * probes run when the fleet's schedule says they are due — each entry
//!   at its pinglist interval, which the guard clamps to the hard
//!   10-second floor — every one on a fresh connection, and each outcome
//!   is recorded with the source port the OS assigned to it;
//! * records sit in the fleet's byte-capped buffer and capped local log
//!   until its batch-size or age trigger fires, then upload to the
//!   collector, retry-then-discard, with a jittered backoff between
//!   attempts;
//! * perf counters (P50 / P99 / drop rate) are exported for the PA path.
//!
//! [`RealAgent::run`] is the always-on loop; [`RealAgent::probe_round_once`]
//! probes every installed entry immediately, for demos and tests.

use crate::backoff::Backoff;
use crate::collector::upload_records_with;
use crate::directory::{PeerDirectory, PeerEndpoints};
use crate::vip::ControllerVip;
use pingmesh_agent::real::{http_ping, tcp_ping};
use pingmesh_agent::scheduler::DueProbe;
use pingmesh_agent::{AgentConfig, AgentFleet, ControllerPollOutcome};
use pingmesh_topology::Topology;
use pingmesh_types::{
    CounterSnapshot, PingTarget, PinglistEntry, PingmeshError, ProbeKind, ProbeOutcome, ServerId,
    SimDuration, SimTime,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-probe timeout.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Max probes in flight at once (the paper's agent spreads load across
/// cores; we bound concurrency instead).
const MAX_INFLIGHT: usize = 32;

/// Fleet index of the one agent a [`RealAgent`] drives.
const ME: usize = 0;

/// How the agent turns a pinglist entry into a socket address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Addressing {
    /// Probe the entry's IP and port directly — production behaviour,
    /// where the pinglist's addresses are the peers' real addresses.
    #[default]
    Direct,
    /// Translate the peer's server id through a [`PeerDirectory`] —
    /// the localhost mode, where every simulated server shares one host
    /// and gets its own port pair.
    Directory,
}

/// Configuration of one real agent.
#[derive(Debug, Clone)]
pub struct RealAgentConfig {
    /// This agent's server identity.
    pub me: ServerId,
    /// The controller VIP: one or more replica addresses, round-robined
    /// with per-poll failover (paper §3.3.2's SLB, client-side).
    pub controller: ControllerVip,
    /// The collector address records are uploaded to.
    pub collector: SocketAddr,
    /// Per-phase deadline for every control-plane call (connect, request
    /// write, response read — against controller replicas and collector).
    pub call_deadline: Duration,
    /// Peer address resolution mode.
    pub addressing: Addressing,
    /// The agent state machine's tunables: controller poll interval,
    /// upload batch and age triggers, buffer and log caps, upload
    /// retries.
    pub agent: AgentConfig,
}

impl RealAgentConfig {
    /// Sensible defaults for a localhost deployment with an unreplicated
    /// controller.
    pub fn new(me: ServerId, controller: SocketAddr, collector: SocketAddr) -> Self {
        Self::with_controllers(me, vec![controller], collector)
    }

    /// Defaults with several controller replicas behind one logical VIP.
    pub fn with_controllers(
        me: ServerId,
        controllers: Vec<SocketAddr>,
        collector: SocketAddr,
    ) -> Self {
        Self {
            me,
            controller: ControllerVip::new(controllers),
            collector,
            call_deadline: Duration::from_secs(5),
            addressing: Addressing::Directory,
            agent: AgentConfig::default(),
        }
    }
}

/// Seed for the jittered retry/poll backoff: decorrelates agents so a
/// fleet doesn't retry in lockstep, while staying reproducible for a
/// given server id.
fn backoff_seed(me: ServerId) -> u64 {
    0x5EED ^ me.0 as u64
}

/// The real-socket agent.
pub struct RealAgent {
    config: RealAgentConfig,
    directory: PeerDirectory,
    fleet: AgentFleet,
    epoch: Instant,
}

impl RealAgent {
    /// Creates an idle agent.
    pub fn new(config: RealAgentConfig, topo: Arc<Topology>, directory: PeerDirectory) -> Self {
        let mut fleet = AgentFleet::new(topo, config.agent.clone());
        fleet.push_server(config.me);
        Self {
            config,
            directory,
            fleet,
            epoch: Instant::now(),
        }
    }

    /// This agent's identity.
    pub fn server(&self) -> ServerId {
        self.config.me
    }

    /// Mutable access to the configuration — drills retarget controllers
    /// and tighten deadlines on a live agent. The buffer tunables in
    /// `agent` are fixed when the agent is created.
    pub fn config_mut(&mut self) -> &mut RealAgentConfig {
        &mut self.config
    }

    /// Whether the agent is fail-closed.
    pub fn is_stopped(&self) -> bool {
        self.fleet.is_stopped(ME)
    }

    /// Active peer count.
    pub fn peer_count(&self) -> usize {
        self.fleet.peer_count(ME)
    }

    /// Records discarded: dropped at the buffer's byte cap, or given up
    /// on after the upload retries ran out.
    pub fn discarded(&self) -> u64 {
        self.fleet.discarded_total(ME)
    }

    /// Lifetime count of probe records this agent has produced (whether
    /// or not they were ultimately uploaded) — one side of the
    /// completeness SLO's conservation ledger.
    pub fn produced(&self) -> u64 {
        self.fleet.probes_observed(ME) - self.fleet.unresolved_probes(ME)
    }

    /// Records currently buffered awaiting upload. Buffered records are
    /// lag, not loss — the completeness ledger subtracts them from the
    /// produced side.
    pub fn buffered(&self) -> u64 {
        self.fleet.buffered_records(ME)
    }

    /// Counter snapshot for the PA path (resets the window).
    pub fn collect_counters(&mut self) -> CounterSnapshot {
        self.fleet.collect_counters(ME)
    }

    /// When the next scheduled probe is due, if any peer is scheduled.
    pub fn next_wakeup(&self) -> Option<Instant> {
        let t = self.fleet.next_wakeup(ME)?;
        Some(self.epoch + Duration::from_micros(t.as_micros()))
    }

    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }

    /// Polls the controller VIP once, applying the fail-closed rules.
    ///
    /// Stale-pinglist grace: a failed poll before the §3.4.2 threshold
    /// keeps the installed pinglist — the agent probes stale rather than
    /// go dark during a short controller blip. Only crossing the
    /// threshold (or an explicit "no pinglist" answer) drops the peers.
    pub async fn poll_controller(&mut self) {
        let was_stopped = self.is_stopped();
        let outcome = match self
            .config
            .controller
            .fetch_pinglist(self.config.me, self.config.call_deadline)
            .await
        {
            Ok(Some(pl)) => ControllerPollOutcome::Pinglist(pl),
            Ok(None) => ControllerPollOutcome::NoPinglist,
            Err(_) => ControllerPollOutcome::Unreachable,
        };
        let now = self.now();
        self.fleet.on_controller_poll(ME, outcome, now);
        match (was_stopped, self.is_stopped()) {
            (false, true) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_realmode_fail_closed_transitions_total")
                    .inc();
                pingmesh_obs::emit!(Warn, "realmode.agent", "fail_closed",
                    "server" => self.config.me.0 as u64);
            }
            (true, false) => {
                pingmesh_obs::registry()
                    .counter("pingmesh_realmode_resumes_total")
                    .inc();
                pingmesh_obs::emit!(Info, "realmode.agent", "resumed",
                    "server" => self.config.me.0 as u64);
            }
            _ => {}
        }
    }

    /// Probes every installed pinglist entry once, now, whatever the
    /// schedule says. Returns the number of probes sent.
    pub async fn probe_round_once(&mut self) -> usize {
        let round: Vec<DueProbe> = self
            .fleet
            .entries(ME)
            .iter()
            .enumerate()
            .map(|(entry_index, &entry)| DueProbe {
                entry_index,
                entry,
                src_port: 0,
            })
            .collect();
        self.probe(&round).await
    }

    /// Probes `due` concurrently (bounded) and feeds every outcome back
    /// into the fleet. Entries the transport cannot probe — VIP targets,
    /// peers missing from the directory — are skipped without an
    /// outcome. Returns the number of probes sent.
    async fn probe(&mut self, due: &[DueProbe]) -> usize {
        let mut inflight = tokio::task::JoinSet::new();
        let mut sent = 0usize;
        for &d in due {
            let Some((peer, endpoints)) = self.endpoints(&d.entry) else {
                continue;
            };
            if inflight.len() >= MAX_INFLIGHT {
                if let Some(done) = inflight.join_next().await {
                    self.record(done.expect("probe task panicked"));
                }
            }
            sent += 1;
            inflight.spawn(async move {
                let (rtt, src_port) = ping(d.entry.kind, endpoints).await;
                (DueProbe { src_port, ..d }, peer, rtt)
            });
        }
        while let Some(done) = inflight.join_next().await {
            self.record(done.expect("probe task panicked"));
        }
        sent
    }

    fn endpoints(&self, entry: &PinglistEntry) -> Option<(ServerId, PeerEndpoints)> {
        let PingTarget::Server { id: peer, ip } = entry.target else {
            return None; // VIP targets need the production LB
        };
        let endpoints = match self.config.addressing {
            Addressing::Directory => self.directory.lookup(peer)?,
            // Production addressing: the pinglist's IP and port are the
            // peer agent's actual endpoints; HTTP probes use the
            // conventional HTTP port on the same host.
            Addressing::Direct => PeerEndpoints {
                echo: SocketAddr::from((ip, entry.port)),
                http: SocketAddr::from((ip, 80)),
            },
        };
        Some((peer, endpoints))
    }

    fn record(&mut self, (due, peer, rtt): (DueProbe, ServerId, Option<Duration>)) {
        let outcome = match rtt {
            Some(d) => ProbeOutcome::Success {
                rtt: SimDuration::from_micros(d.as_micros().max(1) as u64),
            },
            None => ProbeOutcome::Timeout,
        };
        let discarded = self.discarded();
        let now = self.now();
        self.fleet
            .record_outcome(ME, &due, Some(peer), outcome, now);
        self.note_discards(discarded);
    }

    /// Exports records discarded since the `before` total.
    fn note_discards(&self, before: u64) {
        let newly = self.discarded() - before;
        if newly > 0 {
            pingmesh_obs::registry()
                .counter("pingmesh_realmode_discarded_records_total")
                .add(newly);
        }
    }

    /// Uploads the buffer once the fleet's batch-size or age trigger
    /// fires; `force` uploads whatever is buffered regardless. Retries on
    /// a jittered backoff, then discards, per §3.4.2.
    pub async fn flush(&mut self, force: bool) {
        if !force && !self.fleet.upload_due(ME, self.now()) {
            return;
        }
        let Some(batch) = self.fleet.begin_upload(ME) else {
            return;
        };
        pingmesh_obs::trace::on_upload_batch(&batch, Some(self.now()));
        let discarded = self.discarded();
        let mut backoff = Backoff::control_plane(backoff_seed(self.config.me));
        loop {
            let result =
                upload_records_with(self.config.collector, &batch, self.config.call_deadline).await;
            if result.is_ok() {
                let bytes = batch.iter().map(|r| r.wire_size() as u64).sum();
                self.fleet.note_uploaded(ME, bytes);
            }
            if !self.fleet.on_upload_result(ME, result.is_ok()) {
                break;
            }
            let registry = pingmesh_obs::registry();
            registry.counter("pingmesh_realmode_retries_total").inc();
            if matches!(result, Err(PingmeshError::Timeout(_))) {
                registry.counter("pingmesh_realmode_timeouts_total").inc();
            }
            tokio::time::sleep(backoff.next_delay()).await;
        }
        self.note_discards(discarded);
        self.fleet.recycle_batch(ME, batch);
    }

    /// The always-on loop. Polls the controller every
    /// `agent.controller_poll_interval`, probes whatever the schedule
    /// says is due, and uploads on the buffer's triggers; in between it
    /// sleeps until the earliest of the next due probe, the next poll and
    /// `shutdown`. Flushes everything on the way out.
    pub async fn run(mut self, mut shutdown: tokio::sync::watch::Receiver<bool>) -> Self {
        let poll_interval =
            Duration::from_micros(self.config.agent.controller_poll_interval.as_micros());
        let mut next_poll = Instant::now();
        // While the controller is failing, re-poll on a capped jittered
        // backoff instead of the full poll interval — the agent recovers
        // quickly after an outage without hammering a struggling VIP.
        let mut poll_backoff = Backoff::control_plane(backoff_seed(self.config.me));
        while !*shutdown.borrow() {
            if Instant::now() >= next_poll {
                self.poll_controller().await;
                next_poll = Instant::now()
                    + if self.fleet.controller_failures(ME) > 0 {
                        poll_backoff.next_delay()
                    } else {
                        poll_backoff.reset();
                        poll_interval
                    };
            }
            let due = self.fleet.due_probes(ME, self.now());
            self.probe(&due).await;
            self.fleet.recycle_due(due);
            self.flush(false).await;
            let wake = self.next_wakeup().map_or(next_poll, |t| t.min(next_poll));
            tokio::select! {
                _ = tokio::time::sleep(wake.saturating_duration_since(Instant::now())) => {}
                _ = shutdown.changed() => {}
            }
        }
        self.flush(true).await;
        self
    }
}

/// One probe over real sockets: its RTT (`None` on failure or timeout)
/// and the source port the OS assigned (0 when no connection was made).
async fn ping(kind: ProbeKind, endpoints: PeerEndpoints) -> (Option<Duration>, u16) {
    match kind {
        ProbeKind::TcpSyn => match tcp_ping(endpoints.echo, None, PROBE_TIMEOUT).await {
            Ok(r) => (Some(r.connect_rtt), r.src_port),
            Err(_) => (None, 0),
        },
        ProbeKind::TcpPayload(n) => {
            let payload = vec![0xA5u8; n as usize];
            match tcp_ping(endpoints.echo, Some(&payload), PROBE_TIMEOUT).await {
                Ok(r) => (r.payload_rtt, r.src_port),
                Err(_) => (None, 0),
            }
        }
        ProbeKind::Http => (http_ping(endpoints.http, PROBE_TIMEOUT).await.ok(), 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LocalCluster;
    use pingmesh_controller::GeneratorConfig;
    use pingmesh_topology::TopologySpec;
    use pingmesh_types::constants::UPLOAD_RETRIES;
    use pingmesh_types::ProbeRecord;

    #[tokio::test]
    async fn full_loop_fetch_probe_upload() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(0));
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        assert!(agent.peer_count() > 0);
        let sent = agent.probe_round_once().await;
        assert!(sent > 0, "must probe peers");
        assert_eq!(agent.fleet.counters(ME).probes_sent as usize, sent);
        assert!(agent.fleet.counters(ME).probes_succeeded > 0);
        agent.flush(true).await;
        let stats = cluster.collector().stats();
        assert_eq!(stats.records, sent as u64);
    }

    #[tokio::test]
    async fn controller_loss_fail_closes_after_three_polls() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(1));
        agent.poll_controller().await;
        assert!(agent.peer_count() > 0);
        // Point the agent at a dead controller.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        agent.config.controller = ControllerVip::single(dead);
        agent.poll_controller().await;
        agent.poll_controller().await;
        // Stale-pinglist grace: below the threshold the cached list is
        // kept and the agent still probes.
        assert!(!agent.is_stopped());
        assert!(agent.peer_count() > 0);
        agent.poll_controller().await;
        assert!(agent.is_stopped());
        assert_eq!(agent.peer_count(), 0);
        assert_eq!(agent.probe_round_once().await, 0);
    }

    #[tokio::test]
    async fn fail_closed_agent_resumes_on_valid_pinglist() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(4));
        let live = agent.config.controller.clone();
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        agent.config.controller = ControllerVip::single(dead);
        for _ in 0..3 {
            agent.poll_controller().await;
        }
        assert!(agent.is_stopped());
        let resumes_before = pingmesh_obs::registry()
            .counter("pingmesh_realmode_resumes_total")
            .get();
        // Controller comes back: one successful poll re-arms the guard
        // (failure budget back to zero) and probing resumes.
        agent.config.controller = live;
        agent.poll_controller().await;
        assert!(!agent.is_stopped());
        assert_eq!(agent.fleet.controller_failures(ME), 0);
        assert!(agent.peer_count() > 0);
        assert!(agent.probe_round_once().await > 0);
        let resumes_after = pingmesh_obs::registry()
            .counter("pingmesh_realmode_resumes_total")
            .get();
        assert_eq!(resumes_after, resumes_before + 1);
    }

    #[tokio::test]
    async fn agent_fails_over_across_controller_replicas() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut config = RealAgentConfig::with_controllers(
            ServerId(6),
            vec![dead, cluster.controller_addr()],
            cluster.collector_addr(),
        );
        config.call_deadline = Duration::from_secs(2);
        let mut agent = RealAgent::new(
            config,
            cluster.topology().clone(),
            cluster.directory().clone(),
        );
        // Every poll succeeds despite the dead replica in rotation.
        for _ in 0..3 {
            agent.poll_controller().await;
            assert!(!agent.is_stopped());
            assert!(agent.peer_count() > 0);
        }
    }

    #[tokio::test]
    async fn run_loop_probes_until_shutdown_and_flushes() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(3));
        // The loop's own first poll serves the same generation, so the
        // schedule installed here is the one it runs.
        agent.poll_controller().await;
        let first_due = agent.next_wakeup().expect("peers scheduled");
        let (tx, rx) = tokio::sync::watch::channel(false);
        let handle = tokio::spawn(agent.run(rx));
        // Give the loop time past its first due probe, then stop it.
        tokio::time::sleep(
            first_due.saturating_duration_since(Instant::now()) + Duration::from_millis(500),
        )
        .await;
        tx.send(true).unwrap();
        let agent = handle.await.unwrap();
        let sent = agent.fleet.counters(ME).probes_sent;
        assert!(sent > 0, "the loop must have probed");
        // The final flush delivered everything.
        assert_eq!(agent.buffered(), 0);
        assert_eq!(cluster.collector().stats().records, sent);
    }

    #[tokio::test]
    async fn upload_outage_discards_after_retries() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(2));
        agent.poll_controller().await;
        agent.probe_round_once().await;
        cluster.collector().set_accepting(false);
        let retries_before = pingmesh_obs::registry()
            .counter("pingmesh_realmode_retries_total")
            .get();
        let t0 = Instant::now();
        agent.flush(true).await;
        assert!(agent.discarded() > 0, "retries exhausted must discard");
        // Memory is bounded: the buffer is empty again.
        assert_eq!(agent.buffered(), 0);
        // Retries are spaced by jittered exponential backoff, not fired
        // back-to-back: 3 retries with a 50 ms base wait at least
        // 25 + 50 + 100 ms worst-jitter-low, so well over 100 ms total.
        let retries_after = pingmesh_obs::registry()
            .counter("pingmesh_realmode_retries_total")
            .get();
        assert_eq!(retries_after, retries_before + u64::from(UPLOAD_RETRIES));
        assert!(
            t0.elapsed() >= Duration::from_millis(100),
            "backoff must actually delay: {:?}",
            t0.elapsed()
        );
    }

    #[tokio::test]
    async fn collector_outage_never_grows_the_buffer_past_its_cap() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut config = RealAgentConfig::new(
            ServerId(0),
            cluster.controller_addr(),
            cluster.collector_addr(),
        );
        let cap = 8 * ProbeRecord::WIRE_SIZE;
        config.agent.buffer_cap_bytes = cap;
        config.agent.log_cap_bytes = 256;
        let mut agent = RealAgent::new(
            config,
            cluster.topology().clone(),
            cluster.directory().clone(),
        );
        cluster.collector().set_accepting(false);
        agent.poll_controller().await;
        let mut sent = 0u64;
        for _ in 0..4 {
            sent += agent.probe_round_once().await as u64;
            assert!(agent.buffered() as usize * ProbeRecord::WIRE_SIZE <= cap);
        }
        assert!(sent > 8, "the rounds must overflow the cap: {sent}");
        assert_eq!(agent.produced(), sent);
        // Everything that did not fit was dropped and counted.
        assert_eq!(agent.buffered(), 8);
        assert_eq!(agent.discarded(), sent - 8);
        // The local log keeps only its newest lines.
        let log: usize = agent.fleet.log_lines(ME).map(str::len).sum();
        assert!(log > 0 && log <= 256, "local log {log} B");
        // The outage outlasts the retries: the rest goes too.
        agent.flush(true).await;
        assert_eq!(agent.buffered(), 0);
        assert_eq!(agent.discarded(), sent);
        assert_eq!(cluster.collector().stats().records, 0);
    }

    #[tokio::test]
    async fn tcp_probes_record_their_real_source_ports() {
        let cluster =
            LocalCluster::start(TopologySpec::single_tiny(), GeneratorConfig::default()).await;
        let mut agent = cluster.agent(ServerId(0));
        agent.poll_controller().await;
        assert!(agent.probe_round_once().await > 0);
        assert!(agent.probe_round_once().await > 0);
        agent.flush(true).await;
        let store = cluster.collector().store().lock();
        let mut ports = std::collections::HashMap::<ServerId, Vec<u16>>::new();
        for r in store.scan_all_window(SimTime(0), SimTime(u64::MAX)) {
            if r.src == ServerId(0) && r.kind == ProbeKind::TcpSyn && r.outcome.is_success() {
                ports.entry(r.dst).or_default().push(r.src_port);
            }
        }
        let (peer, ports) = ports
            .into_iter()
            .find(|(_, p)| p.len() >= 2)
            .expect("a peer probed twice over TCP");
        assert!(ports.iter().all(|&p| p != 0), "{peer}: {ports:?}");
        assert_ne!(ports[0], ports[1], "{peer}: a fresh source port per probe");
    }
}
