//! Typed invariant violations the network's self-checks can report.

use crate::barrier::RouterHealth;
use crate::coord::Coord;
use inpg_sim::Addr;
use std::fmt;

/// One violated network invariant, with enough identity to find the
/// culprit (router coordinate, VC, packet counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocViolation {
    /// The number of packets actually present in the network (inject
    /// queues, VC buffers, generator queues, ejection reassembly) does not
    /// match `injected + generated - delivered - consumed`.
    PacketConservation {
        /// Packets counted by walking every buffer.
        counted: u64,
        /// Packets the counters say should be in flight.
        expected: u64,
    },
    /// A router's cached occupied-VC mask disagrees with its buffers.
    OccupancyMask {
        /// Router coordinate.
        router: Coord,
        /// The cached mask, bit `port * vcs + vc`.
        cached: u64,
        /// The mask of input VCs actually holding flits.
        actual: u64,
    },
    /// A node's cached injection-pending count disagrees with the
    /// packets queued or streaming at its network interface.
    InjectPending {
        /// Router coordinate of the node.
        router: Coord,
        /// The cached count.
        cached: usize,
        /// Packets queued for injection plus packets mid-injection.
        actual: usize,
    },
    /// A node's delivered bit disagrees with its delivered queue: set
    /// with nothing waiting, or clear with packets waiting.
    DeliveredMask {
        /// Router coordinate of the node.
        router: Coord,
        /// Whether the node's bit is set.
        flagged: bool,
        /// Packets awaiting pickup at the node.
        waiting: usize,
    },
    /// A router holding flits or generated packets is missing from the
    /// active set, so the interception and switch phases would skip it.
    ActiveRouters {
        /// Router coordinate.
        router: Coord,
        /// The router's occupied-VC mask.
        occupied: u64,
        /// Packets in its generator queue.
        generated: usize,
    },
    /// A node with packets to inject is missing from the injection set,
    /// so the injection phase would skip it.
    InjectMask {
        /// Router coordinate of the node.
        router: Coord,
        /// Packets queued or streaming at its network interface.
        pending: usize,
    },
    /// A big router whose barrier table a tick would change is missing
    /// from the barrier-live set, so its TTLs would stop counting down.
    BarrierLive {
        /// Big router coordinate.
        router: Coord,
        /// Live barriers in its table.
        barriers: usize,
        /// The table's health state.
        health: RouterHealth,
    },
    /// Credits plus downstream occupancy no longer equal the VC depth.
    CreditConservation {
        /// Upstream router coordinate.
        router: Coord,
        /// Output port direction name.
        port: &'static str,
        /// Virtual channel index.
        vc: usize,
        /// Credits held upstream.
        credits: usize,
        /// Flits buffered downstream.
        occupancy: usize,
        /// Configured VC depth.
        depth: usize,
    },
    /// A live barrier-table entry has an out-of-range TTL (zero, or above
    /// the configured default — entries must expire, and must never be
    /// refreshed beyond the reset value).
    BarrierTtl {
        /// Big router coordinate.
        router: Coord,
        /// Lock block address of the barrier.
        addr: Addr,
        /// The entry's TTL.
        ttl: u32,
        /// The configured reset TTL.
        max: u32,
    },
}

impl fmt::Display for NocViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocViolation::PacketConservation { counted, expected } => write!(
                f,
                "packet conservation: {counted} packets found in buffers but counters \
                 imply {expected} in flight"
            ),
            NocViolation::OccupancyMask { router, cached, actual } => write!(
                f,
                "router {router}: occupied-VC mask {cached:#x} != {actual:#x} from its buffers"
            ),
            NocViolation::InjectPending { router, cached, actual } => write!(
                f,
                "router {router}: injection-pending count {cached} != {actual} packets queued \
                 or streaming"
            ),
            NocViolation::DeliveredMask { router, flagged, waiting } => write!(
                f,
                "router {router}: delivered bit {} with {waiting} packet(s) awaiting pickup",
                if *flagged { "set" } else { "clear" }
            ),
            NocViolation::ActiveRouters { router, occupied, generated } => write!(
                f,
                "router {router}: occupied-VC mask {occupied:#x} and {generated} generated \
                 packet(s) but missing from the active set"
            ),
            NocViolation::InjectMask { router, pending } => write!(
                f,
                "router {router}: {pending} packet(s) awaiting injection but missing from \
                 the injection set"
            ),
            NocViolation::BarrierLive { router, barriers, health } => write!(
                f,
                "big router {router}: {health} table with {barriers} live barrier(s) but \
                 missing from the barrier-live set"
            ),
            NocViolation::CreditConservation { router, port, vc, credits, occupancy, depth } => {
                write!(
                    f,
                    "credit leak at router {router} port {port} vc {vc}: {credits} credits + \
                     {occupancy} buffered != depth {depth}"
                )
            }
            NocViolation::BarrierTtl { router, addr, ttl, max } => write!(
                f,
                "barrier TTL out of range at big router {router}: lock {addr} has ttl {ttl} \
                 (valid range 1..={max})"
            ),
        }
    }
}

impl std::error::Error for NocViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_culprit() {
        let v = NocViolation::BarrierTtl {
            router: Coord::new(2, 3),
            addr: Addr::new(0x400),
            ttl: 0,
            max: 128,
        };
        let text = v.to_string();
        assert!(text.contains("(2, 3)") || text.contains("2,3") || text.contains("2, 3"));
        assert!(text.contains("ttl 0"));
    }
}
