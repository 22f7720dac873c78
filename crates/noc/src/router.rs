//! Router micro-architecture: input-buffered virtual-channel router with a
//! 2-stage pipeline, plus the big-router packet generator attachment.
//!
//! Pipeline model: a flit that arrives in an input VC at cycle *t* becomes
//! eligible at *t + 1* (Route Computation, VC Allocation and Switch
//! Allocation happen in that stage, speculatively in parallel as in the
//! Peh–Dally router the paper baselines on); if it wins switch allocation
//! it traverses the switch and the output link in the same motion and
//! lands in the downstream input VC at the end of the cycle. An
//! uncontended hop therefore costs 2 cycles, matching the paper's 2-stage
//! pipelined router with single-cycle links.

use crate::barrier::LockingBarrierTable;
use crate::coord::{Coord, Port};
use crate::packet::{Packet, PacketGenPayload, PacketId};
use inpg_sim::Cycle;
use std::collections::VecDeque;

/// One flit in a buffer. The head flit carries the packet; body flits
/// carry only the packet identity for reassembly.
#[derive(Debug, Clone)]
pub(crate) struct Flit<P> {
    pub packet_id: PacketId,
    pub head: Option<Box<Packet<P>>>,
    pub tail: bool,
    /// First cycle this flit may compete for the switch.
    pub eligible_at: Cycle,
}

/// The output route assigned to the packet currently draining a VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutRoute {
    pub port: Port,
    /// Downstream VC index; meaningless for local ejection.
    pub vc: usize,
}

/// One input virtual channel.
#[derive(Debug)]
pub(crate) struct InputVc<P> {
    pub flits: VecDeque<Flit<P>>,
    /// Route of the packet at the head of the queue, once computed.
    pub route: Option<OutRoute>,
}

impl<P> InputVc<P> {
    fn new() -> Self {
        InputVc { flits: VecDeque::new(), route: None }
    }

    /// Number of buffered flits.
    pub fn occupancy(&self) -> usize {
        self.flits.len()
    }
}

/// Iterates the indices of the set bits of a mask, lowest first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetBits(pub u64);

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

/// One router's switch-allocation bids for one cycle.
///
/// Every input slot is one bit: input VC `vc` on port `port` is bit
/// `port * vcs + vc`, and the packet generator's front packet is bit
/// `5 * vcs`. Each eligible flit bids for exactly one output port.
#[derive(Debug)]
pub(crate) struct Bids {
    /// Slots bidding for each output port, indexed by [`Port::index`].
    pub by_out: [u64; 5],
    /// Slots whose head flit claims its downstream VC when granted.
    pub claims_vc: u64,
    /// Downstream VC each slot bids for (0 for local ejection).
    pub out_vc: [u8; 64],
    /// Aged OCOR priority of each slot's flit (0 for body flits).
    pub priority: [u8; 64],
}

impl Bids {
    pub(crate) fn new() -> Self {
        Bids { by_out: [0; 5], claims_vc: 0, out_vc: [0; 64], priority: [0; 64] }
    }

    /// Records `slot`'s bid for `out`.
    pub(crate) fn add(&mut self, slot: usize, out: OutRoute, claims_vc: bool, priority: u8) {
        let bit = 1u64 << slot;
        self.by_out[out.port.index()] |= bit;
        if claims_vc {
            self.claims_vc |= bit;
        }
        // VC indices fit a byte: validation caps a port at 12 VCs.
        self.out_vc[slot] = out.vc as u8;
        self.priority[slot] = priority;
    }
}

/// Per-packet ejection reassembly state.
#[derive(Debug)]
pub(crate) struct EjectSlot<P> {
    pub packet: Box<Packet<P>>,
    pub flits_seen: u8,
}

/// One mesh router (normal or big).
#[derive(Debug)]
pub(crate) struct Router<P> {
    pub coord: Coord,
    /// Input VC buffers, indexed `[port][vc]`.
    pub inputs: Vec<Vec<InputVc<P>>>,
    /// Credits toward the downstream input VC on each output link,
    /// indexed `[port][vc]`. Entries for the local port are unused.
    pub out_credits: Vec<Vec<u8>>,
    /// Which packet currently owns each downstream VC.
    pub out_owner: Vec<Vec<Option<PacketId>>>,
    /// Packet generator output queue (big routers only; empty otherwise).
    pub gen_queue: VecDeque<Packet<P>>,
    /// Locking barrier table; `Some` iff this is a big router.
    pub barrier: Option<LockingBarrierTable>,
    /// Round-robin pointer per output port: the lowest input slot that
    /// has priority in the next grant.
    pub rr: [usize; 5],
    /// In-progress ejection reassembly, indexed by the input slot the
    /// packet ejects from (the generator slot included). A packet's
    /// flits all arrive through one input VC, so a slot reassembles at
    /// most one packet at a time, and ejecting never allocates.
    pub eject: Vec<Option<EjectSlot<P>>>,
    /// VCs per input port.
    pub vcs: usize,
    /// Non-empty input VCs, bit `port * vcs + vc`: the per-cycle sweeps
    /// visit only these and skip idle routers outright.
    pub occupied: u64,
}

impl<P: PacketGenPayload> Router<P> {
    pub(crate) fn new(
        coord: Coord,
        vcs_per_port: usize,
        vc_depth: u8,
        barrier: Option<LockingBarrierTable>,
    ) -> Self {
        let inputs =
            (0..5).map(|_| (0..vcs_per_port).map(|_| InputVc::new()).collect()).collect();
        Router {
            coord,
            inputs,
            out_credits: (0..5).map(|_| vec![vc_depth; vcs_per_port]).collect(),
            out_owner: (0..5).map(|_| vec![None; vcs_per_port]).collect(),
            gen_queue: VecDeque::new(),
            barrier,
            rr: [0; 5],
            eject: (0..=5 * vcs_per_port).map(|_| None).collect(),
            vcs: vcs_per_port,
            occupied: 0,
        }
    }

    /// Whether this router carries a packet generator.
    pub(crate) fn is_big(&self) -> bool {
        self.barrier.is_some()
    }

    /// Picks a free downstream VC for a head flit of `vnet` on `port`:
    /// unowned and with at least one credit. Returns its index.
    pub(crate) fn allocate_vc(
        &self,
        port: Port,
        vnet: usize,
        vcs_per_vnet: usize,
    ) -> Option<usize> {
        let p = port.index();
        let base = vnet * vcs_per_vnet;
        (base..base + vcs_per_vnet)
            .find(|&vc| self.out_owner[p][vc].is_none() && self.out_credits[p][vc] > 0)
    }

    /// The input slot of the packet generator's front packet.
    pub(crate) fn generator_slot(&self) -> usize {
        5 * self.vcs
    }

    /// Route computation and VC allocation for a head flit carrying
    /// `packet`: its XY output port and a free downstream VC (0 for local
    /// ejection), or `None` on a VA stall.
    pub(crate) fn head_route(&self, packet: &Packet<P>, vcs_per_vnet: usize) -> Option<OutRoute> {
        let Some(dir) = self.coord.xy_next_hop(packet.dst) else {
            return Some(OutRoute { port: Port::Local, vc: 0 });
        };
        let port = Port::Link(dir);
        let vc = self.allocate_vc(port, packet.vnet.index(), vcs_per_vnet)?;
        Some(OutRoute { port, vc })
    }

    /// Appends `flit` to input VC `(port, vc)`.
    pub(crate) fn push_flit(&mut self, port: usize, vc: usize, flit: Flit<P>) {
        self.inputs[port][vc].flits.push_back(flit);
        self.occupied |= 1 << (port * self.vcs + vc);
    }

    /// Removes the front flit of input VC `(port, vc)`.
    pub(crate) fn pop_flit(&mut self, port: usize, vc: usize) -> Option<Flit<P>> {
        let input = &mut self.inputs[port][vc];
        let flit = input.flits.pop_front();
        if input.flits.is_empty() {
            self.occupied &= !(1 << (port * self.vcs + vc));
        }
        flit
    }

    /// Deterministic round-robin winner selection for one output port
    /// among the input slots set in `bids`.
    ///
    /// Highest `priority` wins when `by_priority` is set (OCOR); ties
    /// (and the non-OCOR case) go to the first slot at or after the
    /// port's round-robin pointer, wrapping cyclically.
    pub(crate) fn pick_winner(
        &mut self,
        out_port: Port,
        bids: u64,
        priority: &[u8; 64],
        by_priority: bool,
    ) -> Option<usize> {
        let mut open = bids;
        if by_priority {
            let max = SetBits(open).map(|slot| priority[slot]).max()?;
            open = SetBits(open).filter(|&slot| priority[slot] == max).fold(0, |m, s| m | 1 << s);
        }
        if open == 0 {
            return None;
        }
        let p = out_port.index();
        let from_ptr = open & u64::MAX.checked_shl(self.rr[p] as u32).unwrap_or(0);
        let winner = if from_ptr != 0 { from_ptr } else { open }.trailing_zeros() as usize;
        self.rr[p] = winner + 1;
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::OpaquePayload;

    fn router() -> Router<OpaquePayload> {
        Router::new(Coord::new(0, 0), 8, 4, None)
    }

    /// Bid mask and priority table for `(slot, priority)` pairs.
    fn bids(slots: &[(usize, u8)]) -> (u64, [u8; 64]) {
        let mut mask = 0;
        let mut priority = [0; 64];
        for &(slot, p) in slots {
            mask |= 1 << slot;
            priority[slot] = p;
        }
        (mask, priority)
    }

    #[test]
    fn allocate_vc_respects_vnet_partition() {
        let mut r = router();
        // vnet 1 with 2 VCs per vnet owns VCs 2 and 3.
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(2));
        r.out_owner[Port::Local.index()][2] = Some(PacketId::new(1));
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), Some(3));
        r.out_credits[Port::Local.index()][3] = 0;
        assert_eq!(r.allocate_vc(Port::Local, 1, 2), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut r = router();
        let (mask, prio) = bids(&[(0, 0), (1, 0), (2, 0)]);
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(0));
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(1));
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(2));
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(0), "wraps around");
    }

    #[test]
    fn priority_beats_round_robin_when_enabled() {
        let mut r = router();
        let (mask, prio) = bids(&[(0, 1), (1, 5), (2, 3)]);
        assert_eq!(
            r.pick_winner(Port::Local, mask, &prio, true),
            Some(1),
            "highest OCOR priority wins"
        );
        // Without OCOR arbitration, round-robin ignores priority.
        assert_eq!(
            r.pick_winner(Port::Local, mask, &prio, false),
            Some(2),
            "rr pointer advanced past 1"
        );
    }

    #[test]
    fn priority_ties_fall_to_round_robin() {
        let mut r = router();
        let (mask, prio) = bids(&[(0, 5), (3, 5), (7, 2)]);
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, true), Some(0));
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, true), Some(3));
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut r = router();
        assert_eq!(r.pick_winner(Port::Local, 0, &[0; 64], false), None);
        assert_eq!(r.pick_winner(Port::Local, 0, &[0; 64], true), None);
    }

    #[test]
    fn pointer_past_the_top_slot_wraps_to_the_lowest_bid() {
        let mut r = router();
        let (mask, prio) = bids(&[(4, 0), (63, 0)]);
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(4));
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(63));
        // The pointer now sits at 64, past every slot: wrap to the lowest.
        assert_eq!(r.rr[Port::Local.index()], 64);
        assert_eq!(r.pick_winner(Port::Local, mask, &prio, false), Some(4));
    }

    #[test]
    fn occupancy_mask_tracks_push_and_pop() {
        let mut r = router();
        let flit = || Flit {
            packet_id: PacketId::new(1),
            head: None,
            tail: false,
            eligible_at: Cycle::ZERO,
        };
        r.push_flit(2, 3, flit());
        r.push_flit(2, 3, flit());
        assert_eq!(r.occupied, 1 << (2 * 8 + 3));
        assert!(r.pop_flit(2, 3).is_some());
        assert_eq!(r.occupied, 1 << (2 * 8 + 3), "one flit still buffered");
        assert!(r.pop_flit(2, 3).is_some());
        assert_eq!(r.occupied, 0);
        assert!(r.pop_flit(2, 3).is_none());
    }

    #[test]
    fn set_bits_lists_indices_in_ascending_order() {
        let bits: Vec<usize> = SetBits(0b1010_0001 | 1 << 63).collect();
        assert_eq!(bits, vec![0, 5, 7, 63]);
        assert_eq!(SetBits(0).next(), None);
    }
}
