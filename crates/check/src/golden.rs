//! Golden references: the slow, obviously-correct implementations that
//! the production fast paths replaced, kept here as one copy each so the
//! oracles, the tests and the `hotpath` bench all compare against the
//! same code.
//!
//! * [`rebuild_window`] — copy a window's records out of the
//!   store and fold them from raw. The DSA ticks never do this; they merge
//!   the store's ingest-time partials, which must be bit-equal to it.
//! * [`legacy_resolve`] — the pre-refactor ECMP resolver, verbatim: it
//!   collects every candidate set into a `Vec` per call and returns the
//!   hops as a `Vec`. `Router::resolve` must match it hop for hop, and
//!   `hotpath` times it as the resolver baseline.

use pingmesh_dsa::jobs::Pipeline;
use pingmesh_dsa::WindowAggregate;
use pingmesh_topology::Topology;
use pingmesh_types::{DeviceId, FiveTuple, ServerId, SimTime, SwitchId};

/// Rebuilds the window `[from, to)` from raw records: copies them out of
/// the pipeline's store (bumping `pingmesh_dsa_tick_record_copies_total`)
/// and folds them serially with the pipeline's service map.
pub fn rebuild_window(pipeline: &Pipeline, from: SimTime, to: SimTime) -> WindowAggregate {
    let records = pipeline.store.collect_window_records(from, to);
    WindowAggregate::build_with(&records, Some(pipeline.services()))
}

/// splitmix64 finalizer: the per-tier ECMP decorrelation mix.
fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const UP_LEAF: u64 = 0x01;
const UP_SPINE: u64 = 0x02;
const UP_BORDER: u64 = 0x03;
const DOWN_BORDER: u64 = 0x04;
const DOWN_SPINE: u64 = 0x05;
const DOWN_LEAF: u64 = 0x06;

fn pick<T: Copy>(items: &[T], hash: u64, s: u64) -> T {
    items[(mix(hash, s) % items.len() as u64) as usize]
}

fn pick_sw(items: &[SwitchId], hash: u64, s: u64, excluded: &dyn Fn(SwitchId) -> bool) -> SwitchId {
    let avail: Vec<SwitchId> = items.iter().copied().filter(|&x| !excluded(x)).collect();
    if avail.is_empty() {
        pick(items, hash, s)
    } else {
        pick(&avail, hash, s)
    }
}

/// The pre-refactor resolver: the device sequence a packet with `tuple`
/// traverses from `src` to `dst`, steering ECMP around every switch for
/// which `excluded` returns true (unless a tier has no other candidate).
pub fn legacy_resolve(
    t: &Topology,
    src: ServerId,
    dst: ServerId,
    tuple: &FiveTuple,
    excluded: &dyn Fn(SwitchId) -> bool,
) -> Vec<DeviceId> {
    let s = *t.server(src);
    let d = *t.server(dst);
    let h = tuple.ecmp_hash();
    let mut hops: Vec<DeviceId> = Vec::with_capacity(10);
    hops.push(src.into());
    if src == dst {
        return hops;
    }
    hops.push(t.tor_of_pod(s.pod).into());
    if s.pod == d.pod {
        hops.push(dst.into());
        return hops;
    }
    if s.podset == d.podset {
        let leaves: Vec<SwitchId> = t.leaves_of_podset(s.podset).collect();
        hops.push(pick_sw(&leaves, h, UP_LEAF, excluded).into());
        hops.push(t.tor_of_pod(d.pod).into());
        hops.push(dst.into());
        return hops;
    }
    if s.dc == d.dc {
        let up_leaves: Vec<SwitchId> = t.leaves_of_podset(s.podset).collect();
        hops.push(pick_sw(&up_leaves, h, UP_LEAF, excluded).into());
        let spines: Vec<SwitchId> = t.spines_of_dc(s.dc).collect();
        hops.push(pick_sw(&spines, h, UP_SPINE, excluded).into());
        let down_leaves: Vec<SwitchId> = t.leaves_of_podset(d.podset).collect();
        hops.push(pick_sw(&down_leaves, h, DOWN_LEAF, excluded).into());
        hops.push(t.tor_of_pod(d.pod).into());
        hops.push(dst.into());
        return hops;
    }
    let up_leaves: Vec<SwitchId> = t.leaves_of_podset(s.podset).collect();
    hops.push(pick_sw(&up_leaves, h, UP_LEAF, excluded).into());
    let up_spines: Vec<SwitchId> = t.spines_of_dc(s.dc).collect();
    hops.push(pick_sw(&up_spines, h, UP_SPINE, excluded).into());
    let up_borders: Vec<SwitchId> = t.borders_of_dc(s.dc).collect();
    hops.push(pick_sw(&up_borders, h, UP_BORDER, excluded).into());
    let down_borders: Vec<SwitchId> = t.borders_of_dc(d.dc).collect();
    hops.push(pick_sw(&down_borders, h, DOWN_BORDER, excluded).into());
    let down_spines: Vec<SwitchId> = t.spines_of_dc(d.dc).collect();
    hops.push(pick_sw(&down_spines, h, DOWN_SPINE, excluded).into());
    let down_leaves: Vec<SwitchId> = t.leaves_of_podset(d.podset).collect();
    hops.push(pick_sw(&down_leaves, h, DOWN_LEAF, excluded).into());
    hops.push(t.tor_of_pod(d.pod).into());
    hops.push(dst.into());
    hops
}
