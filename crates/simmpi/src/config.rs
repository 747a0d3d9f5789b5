//! Interconnect parameters.

use ptdg_core::comm::{is_rendezvous, EAGER_THRESHOLD};
use ptdg_simcore::SimTime;

/// Interconnect model parameters.
///
/// Defaults approximate a modern HPC fabric (BXI/InfiniBand class):
/// ~1.5 µs small-message latency, 12 GB/s effective per-link bandwidth,
/// and the eager threshold the Threads engine uses too
/// ([`EAGER_THRESHOLD`], 16 KiB).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Messages at or below this size use the eager protocol; above it the
    /// rendezvous protocol (sender waits for the receiver to be ready).
    pub eager_threshold: u64,
    /// Base latency per point-to-point message.
    pub latency: SimTime,
    /// Effective bandwidth per transfer, bytes per second.
    pub bw_bytes_per_s: f64,
    /// Extra round-trip cost of the rendezvous RTS/CTS handshake.
    pub rendezvous_rtt: SimTime,
    /// Per-stage latency of tree collectives.
    pub collective_stage_latency: SimTime,
    /// CPU cost of posting any request (descriptor setup).
    pub post_cost: SimTime,
    /// Delay between a request's physical completion and its observation
    /// by the runtime (models polling at scheduling points; 0 = ideal
    /// progression).
    pub poll_delay: SimTime,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            eager_threshold: EAGER_THRESHOLD,
            latency: SimTime::from_ns(1_500),
            bw_bytes_per_s: 12e9,
            rendezvous_rtt: SimTime::from_ns(3_000),
            collective_stage_latency: SimTime::from_ns(2_500),
            post_cost: SimTime::from_ns(400),
            poll_delay: SimTime::ZERO,
        }
    }
}

impl NetConfig {
    /// Pure transfer time of `bytes` at the configured bandwidth.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bw_bytes_per_s)
    }

    /// Whether a message of `bytes` uses the rendezvous protocol.
    pub fn is_rendezvous(&self, bytes: u64) -> bool {
        is_rendezvous(bytes, self.eager_threshold)
    }

    /// Number of stages of a recursive-doubling collective over `p` ranks.
    pub fn collective_stages(&self, p: u32) -> u32 {
        if p <= 1 {
            0
        } else {
            32 - (p - 1).leading_zeros()
        }
    }

    /// Time for the collective's tree phase over `p` ranks with `bytes`
    /// payload, counted from the moment the last rank joined.
    pub fn collective_tree_time(&self, p: u32, bytes: u64) -> SimTime {
        let stages = self.collective_stages(p) as u64;
        let per_stage = self.collective_stage_latency + self.transfer_time(bytes);
        per_stage.scaled(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_switch_on_threshold() {
        let c = NetConfig::default();
        assert!(!c.is_rendezvous(16 << 10));
        assert!(c.is_rendezvous((16 << 10) + 1));
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = NetConfig {
            bw_bytes_per_s: 1e9,
            ..Default::default()
        };
        assert_eq!(c.transfer_time(1_000_000_000).as_ns(), 1_000_000_000);
        assert_eq!(c.transfer_time(0), SimTime::ZERO);
    }

    #[test]
    fn collective_stages_is_ceil_log2() {
        let c = NetConfig::default();
        assert_eq!(c.collective_stages(1), 0);
        assert_eq!(c.collective_stages(2), 1);
        assert_eq!(c.collective_stages(3), 2);
        assert_eq!(c.collective_stages(4), 2);
        assert_eq!(c.collective_stages(5), 3);
        assert_eq!(c.collective_stages(1024), 10);
        assert_eq!(c.collective_stages(1025), 11);
    }

    #[test]
    fn collective_tree_time_scales_with_ranks() {
        let c = NetConfig::default();
        let t8 = c.collective_tree_time(8, 8);
        let t64 = c.collective_tree_time(64, 8);
        assert_eq!(t64.as_ns(), t8.as_ns() * 2); // 6 stages vs 3
    }
}
