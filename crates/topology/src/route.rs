//! ECMP-faithful path resolution.
//!
//! The fabric load-balances with ECMP over the five-tuple hash (paper
//! §2.1): at every tier a switch picks one of its equal-cost uplinks by
//! hashing the five-tuple, so "the exact path of a TCP connection is
//! unknown at the server side even if the five-tuple of the connection is
//! known". We reproduce that: [`Router::resolve`] maps a (src, dst,
//! five-tuple) to the exact device sequence the packet traverses, mixing a
//! per-decision salt into the hash so choices at successive tiers are
//! decorrelated — but fully deterministic, so a retransmitted SYN (same
//! five-tuple) follows the same path, which is what makes deterministic
//! black-holes kill a connection rather than one packet.

use crate::model::Topology;
use pingmesh_types::{DeviceId, FiveTuple, InlineVec, ServerId, SwitchId};

/// Upper bound on devices per path, fixed by the Clos structure: the
/// longest case (inter-DC) is src + ToR/Leaf/Spine/Border + Border/Spine/
/// Leaf/ToR + dst = 10 devices.
pub const MAX_HOPS: usize = 10;

/// A resolved forwarding path: the ordered devices a packet traverses,
/// including both endpoint servers.
///
/// Hops are stored inline (`InlineVec`), so resolving a path performs no
/// heap allocation and `Path` is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    /// Devices from source server to destination server, inclusive.
    pub hops: InlineVec<DeviceId, MAX_HOPS>,
}

impl Path {
    /// Number of store-and-forward hops (links) on the path.
    pub fn link_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }

    /// The switches on the path, in order.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.hops.iter().filter_map(|d| match d {
            DeviceId::Switch(s) => Some(*s),
            DeviceId::Server(_) => None,
        })
    }

    /// Whether the path crosses the given device.
    pub fn contains(&self, dev: DeviceId) -> bool {
        self.hops.contains(&dev)
    }
}

/// splitmix64 finalizer used to decorrelate per-hop ECMP decisions.
#[inline]
fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless path resolver over a topology.
///
/// ```
/// use pingmesh_topology::{Router, Topology, TopologySpec};
/// use pingmesh_types::{FiveTuple, ServerId};
///
/// let topo = Topology::build(TopologySpec::single_tiny()).unwrap();
/// let router = Router::new(&topo);
/// let (a, b) = (ServerId(0), ServerId(17));
/// let tuple = FiveTuple::tcp(topo.ip_of(a), 40_000, topo.ip_of(b), 8_100);
/// let path = router.resolve(a, b, &tuple);
/// // Cross-podset path: ToR -> Leaf -> Spine -> Leaf -> ToR.
/// assert_eq!(path.switches().count(), 5);
/// // Same five-tuple, same path — ECMP is deterministic per flow.
/// assert_eq!(router.resolve(a, b, &tuple), path);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Router<'a> {
    topo: &'a Topology,
}

/// Salts naming each ECMP decision point, so the same five-tuple makes
/// independent choices at each tier.
mod salt {
    pub const UP_LEAF: u64 = 0x01;
    pub const UP_SPINE: u64 = 0x02;
    pub const UP_BORDER: u64 = 0x03;
    pub const DOWN_BORDER: u64 = 0x04;
    pub const DOWN_SPINE: u64 = 0x05;
    pub const DOWN_LEAF: u64 = 0x06;
}

impl<'a> Router<'a> {
    /// Creates a router over a topology.
    pub fn new(topo: &'a Topology) -> Self {
        Self { topo }
    }

    #[inline]
    fn pick<T: Copy>(items: &[T], hash: u64, s: u64) -> T {
        debug_assert!(!items.is_empty());
        items[(mix(hash, s) % items.len() as u64) as usize]
    }

    /// ECMP choice among `items` minus the excluded switches, without
    /// materializing the filtered candidate set: count the survivors, take
    /// the hash modulo that count, then walk to the k-th survivor. This is
    /// element-for-element identical to collecting the survivors into a
    /// `Vec` and indexing it, but allocation-free.
    #[inline]
    fn pick_sw<F: Fn(SwitchId) -> bool>(
        items: &[SwitchId],
        hash: u64,
        s: u64,
        excluded: &F,
    ) -> SwitchId {
        let avail = items.iter().filter(|&&x| !excluded(x)).count();
        if avail == 0 {
            // Every candidate is excluded: the fabric has no alternative,
            // keep the original choice.
            return Self::pick(items, hash, s);
        }
        let k = (mix(hash, s) % avail as u64) as usize;
        items
            .iter()
            .copied()
            .filter(|&x| !excluded(x))
            .nth(k)
            .expect("k < survivor count")
    }

    /// Resolves the exact path taken by a packet with the given five-tuple
    /// from `src` to `dst`.
    ///
    /// The path of the reverse direction is obtained by resolving with
    /// [`FiveTuple::reversed`] and swapped endpoints; it is in general a
    /// *different* path through the fabric, as in a real Clos network.
    pub fn resolve(&self, src: ServerId, dst: ServerId, tuple: &FiveTuple) -> Path {
        self.resolve_excluding(src, dst, tuple, &|_| false)
    }

    /// Like [`Router::resolve`], but ECMP decisions skip switches for which
    /// `excluded` returns true — modelling the routing update that takes an
    /// isolated switch out of rotation (paper §5.2: "the silent random
    /// packet drops were gone after we isolated the switch from serving
    /// live traffic"). If *every* candidate at a tier is excluded the
    /// original choice is kept (the fabric has no alternative).
    ///
    /// This is the innermost loop of probe simulation; candidate sets come
    /// from the topology's precomputed route tables and the hop list is
    /// inline, so a call performs zero heap allocations.
    pub fn resolve_excluding<F: Fn(SwitchId) -> bool>(
        &self,
        src: ServerId,
        dst: ServerId,
        tuple: &FiveTuple,
        excluded: &F,
    ) -> Path {
        let t = self.topo;
        let s = *t.server(src);
        let d = *t.server(dst);
        let h = tuple.ecmp_hash();
        let mut hops: InlineVec<DeviceId, MAX_HOPS> = InlineVec::new();
        hops.push(src.into());

        if src == dst {
            // Loopback never leaves the host.
            return Path { hops };
        }

        let src_tor = t.tor_of_pod(s.pod);
        hops.push(src_tor.into());

        if s.pod == d.pod {
            // Intra-pod: one ToR bounce.
            hops.push(dst.into());
            return Path { hops };
        }

        if s.podset == d.podset {
            // Intra-podset: ToR -> Leaf (ECMP) -> ToR.
            let leaves = t.leaf_slice_of_podset(s.podset);
            hops.push(Self::pick_sw(leaves, h, salt::UP_LEAF, excluded).into());
            hops.push(t.tor_of_pod(d.pod).into());
            hops.push(dst.into());
            return Path { hops };
        }

        if s.dc == d.dc {
            // Intra-DC: ToR -> Leaf -> Spine (ECMP) -> Leaf -> ToR.
            let up_leaves = t.leaf_slice_of_podset(s.podset);
            hops.push(Self::pick_sw(up_leaves, h, salt::UP_LEAF, excluded).into());
            let spines = t.spine_slice_of_dc(s.dc);
            hops.push(Self::pick_sw(spines, h, salt::UP_SPINE, excluded).into());
            let down_leaves = t.leaf_slice_of_podset(d.podset);
            hops.push(Self::pick_sw(down_leaves, h, salt::DOWN_LEAF, excluded).into());
            hops.push(t.tor_of_pod(d.pod).into());
            hops.push(dst.into());
            return Path { hops };
        }

        // Inter-DC: up through the source fabric, across the long-haul
        // link between border routers, down through the destination fabric.
        let up_leaves = t.leaf_slice_of_podset(s.podset);
        hops.push(Self::pick_sw(up_leaves, h, salt::UP_LEAF, excluded).into());
        let up_spines = t.spine_slice_of_dc(s.dc);
        hops.push(Self::pick_sw(up_spines, h, salt::UP_SPINE, excluded).into());
        let up_borders = t.border_slice_of_dc(s.dc);
        hops.push(Self::pick_sw(up_borders, h, salt::UP_BORDER, excluded).into());
        let down_borders = t.border_slice_of_dc(d.dc);
        hops.push(Self::pick_sw(down_borders, h, salt::DOWN_BORDER, excluded).into());
        let down_spines = t.spine_slice_of_dc(d.dc);
        hops.push(Self::pick_sw(down_spines, h, salt::DOWN_SPINE, excluded).into());
        let down_leaves = t.leaf_slice_of_podset(d.podset);
        hops.push(Self::pick_sw(down_leaves, h, salt::DOWN_LEAF, excluded).into());
        hops.push(t.tor_of_pod(d.pod).into());
        hops.push(dst.into());
        Path { hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DcSpec, TopologySpec};
    use pingmesh_types::{PodId, SwitchTier};
    use std::collections::HashSet;

    fn topo() -> Topology {
        Topology::build(TopologySpec {
            dcs: vec![DcSpec::tiny("west"), DcSpec::tiny("east")],
        })
        .unwrap()
    }

    fn tuple_for(t: &Topology, src: ServerId, dst: ServerId, sp: u16) -> FiveTuple {
        FiveTuple::tcp(t.ip_of(src), sp, t.ip_of(dst), 8100)
    }

    fn tiers(p: &Path) -> Vec<SwitchTier> {
        p.switches().map(|s| s.tier).collect()
    }

    #[test]
    fn loopback_has_no_switches() {
        let t = topo();
        let r = Router::new(&t);
        let s = ServerId(0);
        let p = r.resolve(s, s, &tuple_for(&t, s, s, 1000));
        assert_eq!(p.hops, vec![DeviceId::Server(s)]);
        assert_eq!(p.link_count(), 0);
    }

    #[test]
    fn intra_pod_path_shape() {
        let t = topo();
        let r = Router::new(&t);
        let mut it = t.servers_in_pod(PodId(0));
        let (a, b) = (it.next().unwrap(), it.next().unwrap());
        let p = r.resolve(a, b, &tuple_for(&t, a, b, 1000));
        assert_eq!(tiers(&p), vec![SwitchTier::Tor]);
        assert_eq!(p.link_count(), 2);
    }

    #[test]
    fn intra_podset_path_shape() {
        let t = topo();
        let r = Router::new(&t);
        // pods 0 and 1 are in podset 0 of the tiny spec
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(1)).next().unwrap();
        let p = r.resolve(a, b, &tuple_for(&t, a, b, 1000));
        assert_eq!(
            tiers(&p),
            vec![SwitchTier::Tor, SwitchTier::Leaf, SwitchTier::Tor]
        );
    }

    #[test]
    fn intra_dc_cross_podset_path_shape() {
        let t = topo();
        let r = Router::new(&t);
        // pods 0 (podset 0) and 4 (podset 1) in dc0 of the tiny spec
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(4)).next().unwrap();
        assert_eq!(t.server(a).dc, t.server(b).dc);
        assert_ne!(t.server(a).podset, t.server(b).podset);
        let p = r.resolve(a, b, &tuple_for(&t, a, b, 1000));
        assert_eq!(
            tiers(&p),
            vec![
                SwitchTier::Tor,
                SwitchTier::Leaf,
                SwitchTier::Spine,
                SwitchTier::Leaf,
                SwitchTier::Tor
            ]
        );
    }

    #[test]
    fn inter_dc_path_shape() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_dc(pingmesh_types::DcId(0)).next().unwrap();
        let b = t.servers_in_dc(pingmesh_types::DcId(1)).next().unwrap();
        let p = r.resolve(a, b, &tuple_for(&t, a, b, 1000));
        assert_eq!(
            tiers(&p),
            vec![
                SwitchTier::Tor,
                SwitchTier::Leaf,
                SwitchTier::Spine,
                SwitchTier::Border,
                SwitchTier::Border,
                SwitchTier::Spine,
                SwitchTier::Leaf,
                SwitchTier::Tor
            ]
        );
    }

    #[test]
    fn path_is_deterministic_per_tuple() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(4)).next().unwrap();
        let tu = tuple_for(&t, a, b, 3777);
        assert_eq!(r.resolve(a, b, &tu), r.resolve(a, b, &tu));
    }

    #[test]
    fn ecmp_spreads_over_spines() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(4)).next().unwrap();
        let mut spines = HashSet::new();
        for sp in 0..512u16 {
            let p = r.resolve(a, b, &tuple_for(&t, a, b, 20_000 + sp));
            let spine = p
                .switches()
                .find(|s| s.tier == SwitchTier::Spine)
                .expect("cross-podset path must cross a spine");
            spines.insert(spine);
        }
        // tiny spec has 4 spines per DC; with 512 tuples all must appear.
        assert_eq!(spines.len(), 4, "ECMP failed to cover all spines");
    }

    #[test]
    fn picked_devices_belong_to_the_right_scope() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_dc(pingmesh_types::DcId(0)).next().unwrap();
        let b = t.servers_in_dc(pingmesh_types::DcId(1)).next().unwrap();
        for sp in [1000u16, 2000, 3000] {
            let p = r.resolve(a, b, &tuple_for(&t, a, b, sp));
            let sw: Vec<SwitchId> = p.switches().collect();
            // hops 0..=3 (ToR, Leaf, Spine, Border) live in the source DC,
            // hops 4..=7 (Border, Spine, Leaf, ToR) in the destination DC.
            for (i, hop) in sw.iter().enumerate() {
                let expect = if i < 4 {
                    t.server(a).dc
                } else {
                    t.server(b).dc
                };
                assert_eq!(t.dc_of_switch(*hop), Some(expect), "hop {i}");
            }
        }
    }

    #[test]
    fn exclusions_steer_ecmp_around_switches() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(4)).next().unwrap();
        // Exclude whatever spine each tuple would normally pick: the
        // resolved path must avoid it while staying well-formed.
        for sp in 0..64u16 {
            let tu = tuple_for(&t, a, b, 10_000 + sp);
            let normal = r.resolve(a, b, &tu);
            let spine = normal
                .switches()
                .find(|s| s.tier == SwitchTier::Spine)
                .unwrap();
            let rerouted = r.resolve_excluding(a, b, &tu, &|s| s == spine);
            assert!(
                !rerouted.contains(spine.into()),
                "excluded spine {spine} still on path"
            );
            assert_eq!(rerouted.switches().count(), normal.switches().count());
        }
        // When every candidate is excluded, the original choice is kept.
        let tu = tuple_for(&t, a, b, 999);
        let all_excluded = r.resolve_excluding(a, b, &tu, &|s| s.tier == SwitchTier::Spine);
        assert_eq!(all_excluded, r.resolve(a, b, &tu));
    }

    #[test]
    fn forward_and_reverse_paths_may_differ_but_share_endpoints() {
        let t = topo();
        let r = Router::new(&t);
        let a = t.servers_in_pod(PodId(0)).next().unwrap();
        let b = t.servers_in_pod(PodId(4)).next().unwrap();
        let fwd_tuple = tuple_for(&t, a, b, 4242);
        let fwd = r.resolve(a, b, &fwd_tuple);
        let rev = r.resolve(b, a, &fwd_tuple.reversed());
        assert_eq!(fwd.hops.first(), rev.hops.last());
        assert_eq!(fwd.hops.last(), rev.hops.first());
        assert_eq!(fwd.link_count(), rev.link_count());
    }
}
