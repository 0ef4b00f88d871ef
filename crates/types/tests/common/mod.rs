//! A seeded upload batch shared by the JSON codec tests.

#![allow(dead_code)]

use pingmesh_types::{
    DcId, PodId, PodsetId, ProbeKind, ProbeOutcome, ProbeRecord, QosClass, ServerId, SimDuration,
    SimTime,
};

/// Xorshift64: a tiny deterministic generator for test inputs.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` agent-shaped records from `seed`, cycling through every
/// `ProbeKind`, `ProbeOutcome` and `QosClass` variant.
pub fn batch(n: usize, seed: u64) -> Vec<ProbeRecord> {
    let mut rng = XorShift(seed | 1);
    (0..n)
        .map(|i| {
            let r = rng.next();
            ProbeRecord {
                ts: SimTime(1_000_000 * i as u64 + r % 1_000_000),
                src: ServerId((r % 4_000) as u32),
                dst: ServerId(((r >> 12) % 4_000) as u32),
                src_pod: PodId((r >> 24) as u32 % 200),
                dst_pod: PodId((r >> 32) as u32 % 200),
                src_podset: PodsetId((r >> 40) as u32 % 10),
                dst_podset: PodsetId((r >> 44) as u32 % 10),
                src_dc: DcId((r >> 48) as u32 % 2),
                dst_dc: DcId((r >> 50) as u32 % 2),
                kind: match i % 3 {
                    0 => ProbeKind::TcpSyn,
                    1 => ProbeKind::TcpPayload(1_000),
                    _ => ProbeKind::Http,
                },
                qos: QosClass::ALL[i / 3 % 2],
                src_port: (r >> 16) as u16 | 0x8000,
                dst_port: 8_100,
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
