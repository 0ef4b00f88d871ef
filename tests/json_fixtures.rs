//! Byte-identity fixtures for the JSON encoder.
//!
//! Every file under `tests/fixtures/json/` holds the exact bytes the
//! encoder produced for one value when the fixture was recorded. ETags
//! are hashes of response bodies and the durable `MANIFEST` is JSON on
//! disk, so any change to the encoder's output — whitespace, float form,
//! escaping, key order — is a compatibility break these tests catch.
//! `durable-store/` is a small durable store directory; it must still
//! recover, which parses its `MANIFEST`.

use pingmesh_agent::AgentConfig;
use pingmesh_check::ScenarioSpec;
use pingmesh_dsa::store::{CosmosStore, StreamName};
use pingmesh_dsa::DurabilityStats;
use pingmesh_realmode::collector::{CollectorStats, HealthReport, SloJson, StageHealth};
use pingmesh_serve::views::ApiQuery;
use pingmesh_topology::{ServiceMap, TopologySpec};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const W: u64 = 600_000_000;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/json")
}

/// Asserts `bytes` equal the recorded fixture `name`, byte for byte.
fn check(name: &str, bytes: &[u8]) {
    let path = fixture_dir().join(name);
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if bytes != want.as_slice() {
        let at = bytes
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .unwrap_or(bytes.len().min(want.len()));
        let lo = at.saturating_sub(40);
        panic!(
            "{name}: output differs from fixture at byte {at} (len {} vs {})\n got: {:?}\nwant: {:?}",
            bytes.len(),
            want.len(),
            String::from_utf8_lossy(&bytes[lo..(at + 40).min(bytes.len())]),
            String::from_utf8_lossy(&want[lo..(at + 40).min(want.len())]),
        );
    }
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A seeded 2,000-record upload batch covering every `ProbeKind`,
/// `ProbeOutcome` and `QosClass` variant, with integers from 0 to
/// `u64::MAX`.
fn batch() -> Vec<ProbeRecord> {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    (0..2_000u64)
        .map(|i| {
            let r = rng.next();
            let ts = match i % 50 {
                0 => 0,
                1 => u64::MAX,
                _ => 1_000_000 * i + r % 1_000_000,
            };
            ProbeRecord {
                ts: SimTime(ts),
                src: ServerId((r % 4_000) as u32),
                dst: ServerId(((r >> 12) % 4_000) as u32),
                src_pod: PodId((r >> 24) as u32 % 200),
                dst_pod: PodId((r >> 32) as u32 % 200),
                src_podset: PodsetId((r >> 40) as u32 % 10),
                dst_podset: PodsetId((r >> 44) as u32 % 10),
                src_dc: DcId((r >> 48) as u32 % 2),
                dst_dc: DcId(if i == 7 {
                    u32::MAX
                } else {
                    (r >> 50) as u32 % 2
                }),
                kind: match i % 3 {
                    0 => ProbeKind::TcpSyn,
                    1 => ProbeKind::TcpPayload((r >> 52) as u32 % 1_200 + 1),
                    _ => ProbeKind::Http,
                },
                qos: QosClass::ALL[(i / 3 % 2) as usize],
                src_port: (r >> 16) as u16 | 0x8000,
                dst_port: if i == 9 { u16::MAX } else { 8_100 },
                outcome: match i % 7 {
                    5 => ProbeOutcome::Timeout,
                    6 => ProbeOutcome::Refused,
                    _ => ProbeOutcome::Success {
                        rtt: SimDuration::from_micros(50 + (r >> 20) % 3_000_000),
                    },
                },
            }
        })
        .collect()
}

/// A small fixed store: two DCs, three windows, a service map.
fn store() -> CosmosStore {
    let mut store = CosmosStore::new(128, 1);
    let mut services = ServiceMap::new();
    services
        .register("search", (0..40).map(ServerId).collect::<Vec<_>>())
        .unwrap();
    services
        .register("storage", (40..80).map(ServerId).collect::<Vec<_>>())
        .unwrap();
    store.set_service_map(Arc::new(services));
    let mut rng = XorShift(42);
    for dc in 0..2u32 {
        let records: Vec<ProbeRecord> = (0..1_200u64)
            .map(|i| {
                let r = rng.next();
                let (src, dst) = ((r % 80) as u32, ((r >> 8) % 80) as u32);
                ProbeRecord {
                    ts: SimTime(i * (3 * W / 1_200)),
                    src: ServerId(src),
                    dst: ServerId(dst),
                    src_pod: PodId(src / 10),
                    dst_pod: PodId(dst / 10),
                    src_podset: PodsetId(src / 40),
                    dst_podset: PodsetId(dst / 40),
                    src_dc: DcId(dc),
                    dst_dc: DcId(if i % 9 == 0 { 1 - dc } else { dc }),
                    kind: ProbeKind::TcpSyn,
                    qos: QosClass::High,
                    src_port: 40_000,
                    dst_port: 8_100,
                    outcome: match (r >> 16) % 50 {
                        0 => ProbeOutcome::Timeout,
                        1 => ProbeOutcome::Success {
                            rtt: SimDuration::from_micros(3_000_000 + (r >> 24) % 1_000),
                        },
                        _ => ProbeOutcome::Success {
                            rtt: SimDuration::from_micros(100 + (r >> 24) % 900),
                        },
                    },
                }
            })
            .collect();
        for chunk in records.chunks(100) {
            let t = chunk.iter().map(|r| r.ts).max().unwrap();
            store.append(StreamName { dc: DcId(dc) }, chunk, t);
        }
    }
    store
}

/// Appends a fixed history to a durable store: enough records to seal
/// extents into segments at the checkpoint, then a WAL tail.
fn fill_durable(store: &mut CosmosStore) {
    let recs: Vec<ProbeRecord> = batch()
        .into_iter()
        .take(300)
        .enumerate()
        .map(|(i, mut r)| {
            r.ts = SimTime(i as u64 * 1_000_000);
            r.src_dc = DcId(i as u32 % 2);
            r.dst_dc = r.src_dc;
            r
        })
        .collect();
    for (k, chunk) in recs[..240].chunks(40).enumerate() {
        let dc = DcId(k as u32 % 2);
        let t = chunk.iter().map(|r| r.ts).max().unwrap();
        assert!(store.append(StreamName { dc }, chunk, t));
    }
    store.checkpoint().unwrap();
    let t = recs[299].ts;
    assert!(store.append(StreamName { dc: DcId(0) }, &recs[240..], t));
}

#[test]
fn probe_record_batch_bytes_are_pinned() {
    let batch = batch();
    let bytes = serde_json::to_vec(&batch).unwrap();
    check("probe_batch.json", &bytes);
    let back: Vec<ProbeRecord> = serde_json::from_slice(&bytes).unwrap();
    assert_eq!(back, batch);
}

#[test]
fn serve_route_bodies_are_pinned() {
    let store = store();
    let routes = [
        ("windows", "/api/windows", None),
        (
            "cdf_intrapod",
            "/api/cdf",
            Some("dc=0&scope=intrapod&from=0&to=R"),
        ),
        (
            "cdf_interpod",
            "/api/cdf",
            Some("dc=1&scope=interpod&from=0&to=R"),
        ),
        (
            "cdf_interdc",
            "/api/cdf",
            Some("dc=0&scope=interdc&from=0&to=R"),
        ),
        ("heatmap_pod", "/api/heatmap", Some("level=pod&from=0&to=R")),
        (
            "heatmap_podset",
            "/api/heatmap",
            Some("level=podset&from=0&to=R"),
        ),
        ("sla", "/api/sla", Some("from=0&to=R")),
    ];
    for (name, path, query) in routes {
        let query = query.map(|q| q.replace('R', &(2 * W).to_string()));
        let body = ApiQuery::parse(path, query.as_deref())
            .unwrap()
            .build(&store)
            .unwrap();
        check(&format!("serve_{name}.json"), &body);
    }
}

#[test]
fn durable_manifest_bytes_are_pinned() {
    let dir = pingmesh_dsa::unique_dir("json-fixture-manifest");
    let _guard = pingmesh_dsa::DirGuard::new(dir.clone());
    let mut store = CosmosStore::durable(&dir, 64, 1).unwrap();
    fill_durable(&mut store);
    check(
        "manifest.json",
        &std::fs::read(dir.join("MANIFEST")).unwrap(),
    );
}

#[test]
fn a_recorded_durable_store_still_recovers() {
    let src = fixture_dir().join("durable-store");
    let dir = pingmesh_dsa::unique_dir("json-fixture-recover");
    let _guard = pingmesh_dsa::DirGuard::new(dir.clone());
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let recovered = CosmosStore::durable(&dir, 64, 1).unwrap();
    let mut fresh = CosmosStore::new(64, 1);
    fill_durable(&mut fresh);
    assert_eq!(recovered.record_count(), 300);
    assert_eq!(recovered.record_count(), fresh.record_count());
    let sla = ApiQuery::Sla {
        from: SimTime(0),
        to: SimTime(W),
    };
    assert_eq!(sla.build(&recovered), sla.build(&fresh));
}

#[test]
fn collector_surfaces_are_pinned() {
    let stats = CollectorStats {
        records: 123_456_789,
        logical_bytes: 7_901_234_496,
        physical_bytes: u64::MAX,
    };
    check("collector_stats.json", &serde_json::to_vec(&stats).unwrap());
    let health = HealthReport {
        healthy: false,
        stages: vec![
            StageHealth {
                stage: "probe".into(),
                spans: 17,
                p50_us: 250,
                p99_us: 3_001_207,
            },
            StageHealth {
                stage: "upload".into(),
                spans: 0,
                p50_us: 0,
                p99_us: 0,
            },
        ],
        slos: vec![
            SloJson {
                slo: "coverage".into(),
                value: 0.9973,
                target: 0.99,
                healthy: true,
                burn_rate: 0.27000000000000046,
            },
            SloJson {
                slo: "freshness".into(),
                value: 1.5e9,
                target: 600_000_000.0,
                healthy: false,
                burn_rate: f64::INFINITY,
            },
        ],
        durability: Some(DurabilityStats {
            boot_id: 2,
            wal_seq: 31,
            wal_entries: 4,
            wal_bytes: 512_012,
            unsynced_bytes: 0,
            flush_lag_us: 0,
            segments: 9,
            tombstones: 1,
            io_errors: 0,
            io_retries: 0,
            failed: false,
            checkpoints: 3,
            truncated_entries: 1,
            corrupt_entries: 0,
            recovered_records: 10_000,
        }),
    };
    check("healthz.json", &serde_json::to_vec(&health).unwrap());
    check(
        "healthz_pretty.json",
        serde_json::to_string_pretty(&health).unwrap().as_bytes(),
    );
    let in_memory = HealthReport {
        durability: None,
        ..health
    };
    check(
        "healthz_in_memory.json",
        &serde_json::to_vec(&in_memory).unwrap(),
    );
}

#[test]
fn configs_and_specs_are_pinned() {
    let agent = AgentConfig::default();
    check("agent_config.json", &serde_json::to_vec(&agent).unwrap());
    check(
        "agent_config_pretty.json",
        serde_json::to_string_pretty(&agent).unwrap().as_bytes(),
    );
    let mut specs = String::new();
    for seed in 1..=8 {
        specs.push_str(&ScenarioSpec::generate(seed, seed % 2 == 0).to_json());
        specs.push('\n');
    }
    check("scenario_specs.jsonl", specs.as_bytes());
    check(
        "scenario_spec_pretty.json",
        serde_json::to_string_pretty(&ScenarioSpec::generate(3, false))
            .unwrap()
            .as_bytes(),
    );
    check(
        "topology_pretty.json",
        TopologySpec::single_tiny().to_json().as_bytes(),
    );
}

/// Every escape class: quote, backslash, the named controls, every other
/// control byte, DEL, `/`, and multi-byte UTF-8 up to four bytes.
fn escapes() -> String {
    let mut s: String = "q\" b\\ s/ n\n r\r t\t ".into();
    s.extend((0u8..0x20).map(char::from));
    s.push_str(" \u{7f} é ❤ 😀 \u{2028} end");
    s
}

#[test]
fn escapes_and_scalars_are_pinned() {
    let s = escapes();
    check("escapes.json", &serde_json::to_vec(&s).unwrap());
    let back: String = serde_json::from_slice(&serde_json::to_vec(&s).unwrap()).unwrap();
    assert_eq!(back, s);

    let floats = [
        0.0,
        -0.0,
        1.0,
        -2.5,
        0.1,
        1.0 / 3.0,
        1e-7,
        123_456_789.125,
        1e15,
        1e16,
        1e21,
        1.5e300,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut map: HashMap<String, Vec<i64>> = HashMap::new();
    for (i, k) in ["zeta", "alpha", "mid", "Alpha", "", "é"]
        .iter()
        .enumerate()
    {
        map.insert(k.to_string(), vec![i as i64, -(i as i64)]);
    }
    let tree: BTreeMap<String, Option<u8>> = [("b".to_string(), None), ("a".to_string(), Some(7))]
        .into_iter()
        .collect();
    let scalars = (
        (floats.to_vec(), (u64::MAX, i64::MIN)),
        (
            (map, tree),
            (
                (3u32..17u32, Ipv4Addr::new(10, 1, 2, 254)),
                (
                    (u128::MAX, 42u128),
                    (vec![Some(true), None, Some(false)], (1.5f32, (-1i8, 255u8))),
                ),
            ),
        ),
    );
    check("scalars.json", &serde_json::to_vec(&scalars).unwrap());
    check(
        "scalars_pretty.json",
        serde_json::to_string_pretty(&scalars).unwrap().as_bytes(),
    );
    let empty: (Vec<u8>, HashMap<String, u8>) = (Vec::new(), HashMap::new());
    check(
        "empty_pretty.json",
        serde_json::to_string_pretty(&empty).unwrap().as_bytes(),
    );
}
