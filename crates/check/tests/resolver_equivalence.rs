//! The zero-allocation `Router` must reproduce the pre-refactor resolver
//! (`pingmesh_check::golden::legacy_resolve`) hop for hop, with and
//! without ECMP exclusions.

use pingmesh_check::golden::legacy_resolve;
use pingmesh_topology::{DcSpec, Router, Topology, TopologySpec};
use pingmesh_types::{FiveTuple, ServerId, SwitchId, SwitchTier};

#[test]
fn resolver_matches_legacy_golden_on_sampled_grid() {
    // Every (src, dst) pair over a strided server sample of a two-DC
    // fabric, three source ports each, with and without exclusions.
    let t = Topology::build(TopologySpec {
        dcs: vec![DcSpec::tiny("west"), DcSpec::tiny("east")],
    })
    .unwrap();
    let r = Router::new(&t);
    let sample: Vec<ServerId> = t.servers().step_by(5).collect();
    assert!(sample.len() >= 12, "grid too small to be meaningful");
    // Exclusion grid: drop one spine and one leaf in every four.
    let excl = |sw: SwitchId| {
        (sw.tier == SwitchTier::Spine || sw.tier == SwitchTier::Leaf) && sw.index % 4 == 1
    };
    let mut cases = 0u32;
    for &a in &sample {
        for &b in &sample {
            for sp in [1_000u16, 22_222, 60_001] {
                let tu = FiveTuple::tcp(t.ip_of(a), sp, t.ip_of(b), 8100);
                let golden = legacy_resolve(&t, a, b, &tu, &|_| false);
                assert_eq!(r.resolve(a, b, &tu).hops, golden, "{a}->{b} sp={sp}");
                assert_eq!(
                    r.resolve_excluding(a, b, &tu, &excl).hops,
                    legacy_resolve(&t, a, b, &tu, &excl),
                    "excluding: {a}->{b} sp={sp}"
                );
                cases += 2;
            }
        }
    }
    assert!(cases >= 1_000, "grid covered only {cases} cases");
}
