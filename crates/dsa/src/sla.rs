//! Network SLA computation at every scope (paper §4.3).
//!
//! "We define network SLA as a set of metrics including packet drop rate,
//! network latency at the 50th percentile and the 99th percentile.
//! Network SLA can then be tracked at different scopes including per
//! server, per pod/podset, per service, per data center, by using the
//! Pingmesh data."
//!
//! Since the ingest-time aggregation refactor the per-scope summaries are
//! the same mergeable [`ScopeStats`] the store's window partials fold at
//! upload time, so the 10-minute job derives its report from a finished
//! [`WindowAggregate`] in O(scopes) via [`SlaComputer::compute_from_aggregate`]
//! instead of re-walking raw records. The tests pin it against a
//! per-record fold over the same records.

use crate::agg::{PairKey, ScopeStats, WindowAggregate};
use pingmesh_types::{DcId, PairStats, PodId, PodsetId, ServerId, ServiceId};
use std::collections::HashMap;

/// SLA metrics of one scope over one window.
///
/// Alias of the mergeable [`ScopeStats`] summary that the ingest-time
/// window partials fold, so SLA rows, pattern classification, and
/// silent-drop detection all read the same numbers.
pub type ScopeSla = ScopeStats;

/// SLAs of every scope over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlaReport {
    /// Per probing server.
    pub per_server: HashMap<ServerId, ScopeSla>,
    /// Per pod (of the probing server).
    pub per_pod: HashMap<PodId, ScopeSla>,
    /// Per podset.
    pub per_podset: HashMap<PodsetId, ScopeSla>,
    /// Per data center.
    pub per_dc: HashMap<DcId, ScopeSla>,
    /// Per (source DC, destination DC) pair; inter-DC probes only. This
    /// is the inter-DC pipeline of §6.2.
    pub per_dc_pair: HashMap<(DcId, DcId), ScopeSla>,
    /// Per service: probes whose *both* endpoints belong to the service.
    pub per_service: HashMap<ServiceId, ScopeSla>,
    /// Per pair (used by troubleshooting drill-down).
    pub per_pair: HashMap<PairKey, PairStats>,
}

/// Computes SLA reports from probe records.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlaComputer;

impl SlaComputer {
    /// Derive the window's report from an already-folded
    /// [`WindowAggregate`] — O(scopes) map clones, no raw-record pass.
    ///
    /// Bit-equal to a per-record fold over the same records, provided the
    /// aggregate was folded with the same service map (per-service scopes
    /// are only present when it was).
    pub fn compute_from_aggregate(&self, agg: &WindowAggregate) -> SlaReport {
        SlaReport {
            per_server: agg.per_server.clone(),
            per_pod: agg.per_pod.clone(),
            per_podset: agg.per_podset.clone(),
            per_dc: agg.per_dc.clone(),
            per_dc_pair: agg.per_dc_pair.clone(),
            per_service: agg.per_service.clone(),
            per_pair: agg.pairs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::fold_pair_outcome;
    use pingmesh_topology::{ServiceMap, Topology, TopologySpec};
    use pingmesh_types::{ProbeKind, ProbeOutcome, ProbeRecord, QosClass, SimDuration, SimTime};

    /// The golden per-record fold: one pass over the window's records.
    /// `services` maps service → the servers it runs on; a probe counts
    /// toward a service when both endpoints host it.
    fn compute<'a>(
        records: impl IntoIterator<Item = &'a ProbeRecord>,
        services: &ServiceMap,
    ) -> SlaReport {
        let mut rep = SlaReport::default();
        for r in records {
            rep.per_server
                .entry(r.src)
                .or_default()
                .fold_outcome(r.outcome);
            rep.per_pod
                .entry(r.src_pod)
                .or_default()
                .fold_outcome(r.outcome);
            rep.per_podset
                .entry(r.src_podset)
                .or_default()
                .fold_outcome(r.outcome);
            rep.per_dc
                .entry(r.src_dc)
                .or_default()
                .fold_outcome(r.outcome);
            if r.is_inter_dc() {
                rep.per_dc_pair
                    .entry((r.src_dc, r.dst_dc))
                    .or_default()
                    .fold_outcome(r.outcome);
            }
            let pair = rep
                .per_pair
                .entry(PairKey {
                    src: r.src,
                    dst: r.dst,
                })
                .or_default();
            fold_pair_outcome(pair, r.outcome);
            for &svc in services.services_on(r.src) {
                if services.covers_pair(svc, r.src, r.dst) {
                    rep.per_service
                        .entry(svc)
                        .or_default()
                        .fold_outcome(r.outcome);
                }
            }
        }
        rep
    }

    fn topo() -> Topology {
        Topology::build(TopologySpec::single_tiny()).unwrap()
    }

    fn rec(topo: &Topology, src: u32, dst: u32, outcome: ProbeOutcome) -> ProbeRecord {
        let s = topo.server(ServerId(src));
        let d = topo.server(ServerId(dst));
        ProbeRecord {
            ts: SimTime(0),
            src: ServerId(src),
            dst: ServerId(dst),
            src_pod: s.pod,
            dst_pod: d.pod,
            src_podset: s.podset,
            dst_podset: d.podset,
            src_dc: s.dc,
            dst_dc: d.dc,
            kind: ProbeKind::TcpSyn,
            qos: QosClass::High,
            src_port: 40_000,
            dst_port: 8_100,
            outcome,
        }
    }

    fn ok(us: u64) -> ProbeOutcome {
        ProbeOutcome::Success {
            rtt: SimDuration::from_micros(us),
        }
    }

    #[test]
    fn scope_rollups_nest() {
        let t = topo();
        let records = vec![
            rec(&t, 0, 1, ok(200)),
            rec(&t, 0, 5, ok(300)),
            rec(&t, 4, 0, ok(250)),
        ];
        let rep = compute(&records, &ServiceMap::new());
        // Server 0 probed twice; server 4 once.
        assert_eq!(rep.per_server[&ServerId(0)].stats.ok, 2);
        assert_eq!(rep.per_server[&ServerId(4)].stats.ok, 1);
        // Pod 0 contains server 0 (2 probes); pod 1 contains server 4.
        let pod0 = t.server(ServerId(0)).pod;
        let pod1 = t.server(ServerId(4)).pod;
        assert_eq!(rep.per_pod[&pod0].stats.ok, 2);
        assert_eq!(rep.per_pod[&pod1].stats.ok, 1);
        // The DC rollup has all three.
        assert_eq!(rep.per_dc[&DcId(0)].stats.ok, 3);
        assert_eq!(rep.per_dc[&DcId(0)].latency.count(), 3);
    }

    #[test]
    fn sla_metrics_expose_percentiles_and_drop_rate() {
        let t = topo();
        let mut records = Vec::new();
        for _ in 0..99 {
            records.push(rec(&t, 0, 1, ok(250)));
        }
        records.push(rec(&t, 0, 1, ok(3_000_250)));
        let rep = compute(&records, &ServiceMap::new());
        let sla = &rep.per_server[&ServerId(0)];
        assert!((sla.drop_rate() - 0.01).abs() < 1e-9);
        assert!(sla.p50().unwrap().as_micros() < 300);
        assert!(sla.p99().unwrap().as_micros() < 400);
    }

    #[test]
    fn per_service_counts_only_covered_pairs() {
        let t = topo();
        let mut services = ServiceMap::new();
        let svc = services
            .register("search", [ServerId(0), ServerId(1)])
            .unwrap();
        let records = vec![
            rec(&t, 0, 1, ok(200)), // both in service
            rec(&t, 0, 5, ok(300)), // dst not in service
            rec(&t, 5, 1, ok(300)), // src not in service
        ];
        let rep = compute(&records, &services);
        assert_eq!(rep.per_service[&svc].stats.ok, 1);
    }

    #[test]
    fn per_pair_tracks_failures() {
        let t = topo();
        let records = vec![
            rec(&t, 0, 1, ProbeOutcome::Timeout),
            rec(&t, 0, 1, ProbeOutcome::Timeout),
            rec(&t, 0, 2, ok(220)),
        ];
        let rep = compute(&records, &ServiceMap::new());
        let dead = rep.per_pair[&PairKey {
            src: ServerId(0),
            dst: ServerId(1),
        }];
        assert!(dead.is_deterministic_failure());
        let alive = rep.per_pair[&PairKey {
            src: ServerId(0),
            dst: ServerId(2),
        }];
        assert!(!alive.is_deterministic_failure());
    }

    #[test]
    fn inter_dc_pairs_feed_the_interdc_pipeline() {
        let t = Topology::build(TopologySpec {
            dcs: vec![
                pingmesh_topology::DcSpec::tiny("a"),
                pingmesh_topology::DcSpec::tiny("b"),
            ],
        })
        .unwrap();
        let cross = t.servers_in_dc(DcId(1)).next().unwrap();
        let records = vec![
            rec(&t, 0, cross.0, ok(60_000)),
            rec(&t, cross.0, 0, ok(61_000)),
            rec(&t, 0, 1, ok(200)), // intra-DC: not in the pair scope
        ];
        let rep = compute(&records, &ServiceMap::new());
        assert_eq!(rep.per_dc_pair.len(), 2);
        assert_eq!(rep.per_dc_pair[&(DcId(0), DcId(1))].stats.ok, 1);
        assert_eq!(rep.per_dc_pair[&(DcId(1), DcId(0))].stats.ok, 1);
    }

    #[test]
    fn empty_window_is_empty_report() {
        let rep = compute(&[], &ServiceMap::new());
        assert!(rep.per_server.is_empty());
        assert!(rep.per_dc.is_empty());
    }

    #[test]
    fn report_from_aggregate_matches_per_record_compute() {
        let t = topo();
        let mut services = ServiceMap::new();
        services
            .register("search", [ServerId(0), ServerId(1), ServerId(4)])
            .unwrap();
        let records = vec![
            rec(&t, 0, 1, ok(200)),
            rec(&t, 0, 1, ok(3_000_400)),
            rec(&t, 0, 5, ProbeOutcome::Timeout),
            rec(&t, 4, 1, ok(9_000_250)),
            rec(&t, 4, 0, ok(260)),
            rec(&t, 5, 2, ProbeOutcome::Refused),
        ];
        let golden = compute(&records, &services);
        let agg = WindowAggregate::build_with(&records, Some(&services));
        let derived = SlaComputer.compute_from_aggregate(&agg);
        assert_eq!(derived, golden);
    }
}
