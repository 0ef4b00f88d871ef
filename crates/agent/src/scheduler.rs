//! Probe scheduling primitives: when to ping which peer.
//!
//! Each pinglist entry fires every `interval`. Initial phases are spread
//! deterministically by hashing (server, entry index) so that a freshly
//! deployed fleet does not synchronize its probes ("easily balance the
//! probing activity among all the servers", §6.1), and so that the
//! controller and agents need no coordination.
//!
//! Ephemeral source ports rotate per probe: "Every probing needs to be a
//! new connection and uses a new TCP source port. This is to explore the
//! multi-path nature of the network as much as possible" (§3.4.1).
//!
//! The schedule itself lives in [`crate::soa::AgentFleet`]'s due arena.

use pingmesh_types::{PinglistEntry, ServerId};

/// First ephemeral port used by agents.
pub(crate) const EPHEMERAL_LO: u16 = 32_768;

/// A probe that is due now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueProbe {
    /// Index of the entry in the active pinglist.
    pub entry_index: usize,
    /// The pinglist entry itself.
    pub entry: PinglistEntry,
    /// Fresh ephemeral source port for this probe.
    pub src_port: u16,
}

/// Deterministic first-fire offset of entry `idx` of `server`'s pinglist,
/// in `[0, interval_us)`.
pub(crate) fn phase_of(server: ServerId, idx: usize, interval_us: u64) -> u64 {
    if interval_us == 0 {
        return 0;
    }
    let mut z = (server.0 as u64) << 32 | idx as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % interval_us
}
