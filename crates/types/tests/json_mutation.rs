//! A seeded mutation sweep over a valid upload body: bit flips,
//! truncations and splices. On every input the typed decoder must return
//! (never panic) either an error or exactly the records the lenient
//! `Value` tree of the same bytes describes — read here field by field,
//! independently of the derived decoder.

mod common;

use common::{batch, XorShift};
use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};
use serde_json::Value;

const MUTATIONS: usize = 6_000;

fn uint<T: TryFrom<u64>>(v: &Value, key: &str) -> Option<T> {
    T::try_from(v.get(key)?.as_u64()?).ok()
}

/// An externally tagged enum: a bare string for a unit variant, or a
/// single-key object for a data variant.
fn variant(v: &Value) -> Option<(&str, Option<&Value>)> {
    match v {
        Value::String(s) => Some((s, None)),
        Value::Object(o) if o.len() == 1 => o.iter().next().map(|(k, v)| (k.as_str(), Some(v))),
        _ => None,
    }
}

fn record(v: &Value) -> Option<ProbeRecord> {
    Some(ProbeRecord {
        ts: SimTime(uint(v, "ts")?),
        src: ServerId(uint(v, "src")?),
        dst: ServerId(uint(v, "dst")?),
        src_pod: PodId(uint(v, "src_pod")?),
        dst_pod: PodId(uint(v, "dst_pod")?),
        src_podset: PodsetId(uint(v, "src_podset")?),
        dst_podset: PodsetId(uint(v, "dst_podset")?),
        src_dc: DcId(uint(v, "src_dc")?),
        dst_dc: DcId(uint(v, "dst_dc")?),
        kind: match variant(v.get("kind")?)? {
            ("TcpSyn", None) => ProbeKind::TcpSyn,
            ("Http", None) => ProbeKind::Http,
            ("TcpPayload", Some(n)) => ProbeKind::TcpPayload(u32::try_from(n.as_u64()?).ok()?),
            _ => return None,
        },
        qos: match v.get("qos")?.as_str()? {
            "High" => QosClass::High,
            "Low" => QosClass::Low,
            _ => return None,
        },
        src_port: uint(v, "src_port")?,
        dst_port: uint(v, "dst_port")?,
        outcome: match variant(v.get("outcome")?)? {
            ("Timeout", None) => ProbeOutcome::Timeout,
            ("Refused", None) => ProbeOutcome::Refused,
            ("Success", Some(o)) if o.as_object().is_some() => ProbeOutcome::Success {
                rtt: SimDuration(uint(o, "rtt")?),
            },
            _ => return None,
        },
    })
}

/// The records the `Value` tree of `bytes` describes, if it describes a
/// well-formed batch.
fn reference(bytes: &[u8]) -> Option<Vec<ProbeRecord>> {
    let tree: Value = serde_json::from_slice(bytes).ok()?;
    tree.as_array()?.iter().map(record).collect()
}

fn mutate(rng: &mut XorShift, base: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut m = base.to_vec();
    match rng.below(3) {
        0 => {
            let i = rng.below(m.len());
            m[i] ^= 1 << rng.below(8);
        }
        1 => m.truncate(rng.below(m.len())),
        _ => {
            let a = rng.below(m.len());
            let b = (a + rng.below(48)).min(m.len());
            let c = rng.below(donor.len());
            let d = (c + rng.below(48)).min(donor.len());
            m.splice(a..b, donor[c..d].iter().copied());
        }
    }
    m
}

#[test]
fn mutated_batches_decode_to_an_error_or_to_what_the_tree_says() {
    let original = batch(24, 11);
    let base = serde_json::to_vec(&original).unwrap();
    let donor = serde_json::to_vec(&batch(24, 12)).unwrap();
    assert_eq!(reference(&base).as_ref(), Some(&original));
    let mut rng = XorShift(0x5EED_CAFE);
    let (mut errors, mut unchanged, mut changed) = (0, 0, 0);
    for k in 0..MUTATIONS {
        let donor = if k % 2 == 0 { &base } else { &donor };
        let input = mutate(&mut rng, &base, donor);
        let decoded =
            std::panic::catch_unwind(|| serde_json::from_slice::<Vec<ProbeRecord>>(&input))
                .unwrap_or_else(|_| panic!("decoder panicked on mutation {k}: {input:?}"));
        let Ok(records) = decoded else {
            errors += 1;
            continue;
        };
        assert_eq!(
            Some(&records),
            reference(&input).as_ref(),
            "mutation {k} decoded to records the tree disagrees with: {}",
            String::from_utf8_lossy(&input)
        );
        if records == original {
            unchanged += 1;
        } else {
            changed += 1;
        }
    }
    // The sweep must exercise both outcomes, including decodes to
    // different records, or the equality check above proves nothing.
    assert!(errors > MUTATIONS / 4, "only {errors} errors");
    assert!(changed > MUTATIONS / 60, "only {changed} changed decodes");
    assert!(unchanged + changed + errors == MUTATIONS);
}
