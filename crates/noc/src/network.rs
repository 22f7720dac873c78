//! The mesh network: injection, per-cycle switching, big-router
//! interception, and delivery.

use crate::barrier::{BarrierSnapshot, BarrierStats, LockingBarrierTable};
use crate::config::NocConfig;
use crate::coord::{Coord, Direction, Port};
use crate::invariant::NocViolation;
use crate::packet::{Packet, PacketGenPayload, PacketId, Sink, VirtualNetwork};
use crate::router::{Bids, EjectSlot, Flit, InputVc, OutRoute, Router, SetBits};
use crate::stats::NocStats;
use inpg_sim::{ConfigError, CoreId, Cycle, TileSet};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// SplitMix64 step for the fault-injection jitter stream.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything needed to inject one packet.
#[derive(Debug, Clone)]
pub struct Message<P> {
    /// Source core (tile) id.
    pub src: CoreId,
    /// Destination core (tile) id.
    pub dst: CoreId,
    /// Whether the packet terminates at the NI or inside the router.
    pub sink: Sink,
    /// Virtual network class.
    pub vnet: VirtualNetwork,
    /// Packet length in flits.
    pub flits: u8,
    /// OCOR arbitration priority (0 when unused).
    pub priority: u8,
    /// Protocol payload.
    pub payload: P,
}

/// OCOR anti-starvation: a packet's effective priority rises with age
/// (the paper embeds program-progress information in request packets so
/// low-priority requests cannot starve). One level per 128 cycles in
/// flight, capped at the top spinning level.
fn aged_priority<P>(packet: &Packet<P>, now: Cycle) -> u8 {
    let boost = (now.saturating_since(packet.injected_at) / 128).min(8) as u8;
    packet.priority.saturating_add(boost).min(8)
}

/// Injection progress of the packet currently streaming into a local
/// input VC.
#[derive(Debug, Clone, Copy)]
struct InjectProgress {
    packet_id: PacketId,
    vc: usize,
    sent: u8,
    total: u8,
}

/// A cycle-driven 2D-mesh network-on-chip.
///
/// See the crate-level docs for the micro-architecture model. The network
/// is generic over the payload `P`; big routers use the
/// [`PacketGenPayload`] hooks to intercept lock requests and generate
/// early invalidations.
#[derive(Debug)]
pub struct Network<P> {
    cfg: NocConfig,
    routers: Vec<Router<P>>,
    /// Per-node, per-vnet injection queues.
    inject: Vec<Vec<VecDeque<Packet<P>>>>,
    /// Per-node, per-vnet injection progress.
    inject_state: Vec<Vec<Option<InjectProgress>>>,
    /// Per-node round-robin over vnets at the injection port.
    inject_rr: Vec<usize>,
    /// Per-node packets not yet fully injected: queued in `inject` plus
    /// streaming per `inject_state`.
    inject_pending: Vec<usize>,
    /// Nodes with a nonzero `inject_pending`: the injection phase visits
    /// only these.
    inject_mask: TileSet,
    /// Per-node delivered packets awaiting pickup by the tile.
    delivered: Vec<VecDeque<Packet<P>>>,
    /// Nodes whose `delivered` queue is non-empty, so the tile side
    /// visits only nodes with packets.
    delivered_mask: TileSet,
    /// A superset of the routers with buffered flits or generated
    /// packets: the interception and switch phases visit only these.
    /// Set wherever a flit or generated packet enters a router, cleared
    /// by the switch phase once the router drains.
    active: TileSet,
    /// The big routers (those with a barrier table).
    big: TileSet,
    /// A superset of the big routers whose barrier table a tick can
    /// change: live barriers, or a Degraded table waiting to heal. Set by
    /// every interception action and fault that touches a table, cleared
    /// once a tick leaves the table quiet.
    barrier_live: TileSet,
    next_packet_id: u64,
    stats: NocStats,
    /// Fault-injection jitter stream state.
    fault_rng: u64,
    /// Invalidation acknowledgements observed so far — early acks
    /// consumed at big routers plus ack packets ejected at their NI
    /// (the drop-ack fault's 1-based ordinal).
    acks_observed: u64,
    /// The barrier-off fault has fired: tables are flushed and
    /// interception is off, but router-sink acks are still consumed.
    barrier_disabled: bool,
    /// The TTL-storm fault has fired.
    ttl_storm_fired: bool,
    /// The router-fail fault has fired.
    router_fail_fired: bool,
    /// REQUEST-class packets seen at injection (the link-drop fault's
    /// 1-based ordinal; only counted while that fault is configured).
    requests_observed: u64,
}

impl<P: PacketGenPayload> Network<P> {
    /// Builds the mesh described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `cfg` fails validation.
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let nodes = cfg.nodes();
        let vcs = cfg.vcs_per_port();
        let mut routers = Vec::with_capacity(nodes);
        let mut big = TileSet::new(nodes);
        for idx in 0..nodes {
            let coord = Coord::from_core(CoreId::new(idx), cfg.width, cfg.height);
            let barrier = cfg
                .placement
                .is_big(coord, cfg.width, cfg.height)
                .then(|| {
                    let mut table = LockingBarrierTable::new(
                        cfg.barrier_entries,
                        cfg.barrier_entries,
                        cfg.barrier_ttl,
                    );
                    if let Some(cap) = cfg.faults.ei_capacity_clamp() {
                        table.clamp_ei_capacity(cap);
                    }
                    table
                });
            if barrier.is_some() {
                big.set(idx);
            }
            routers.push(Router::new(coord, vcs, cfg.vc_depth, barrier));
        }
        Ok(Network {
            inject: (0..nodes).map(|_| (0..cfg.vnets as usize).map(|_| VecDeque::new()).collect()).collect(),
            inject_state: (0..nodes).map(|_| vec![None; cfg.vnets as usize]).collect(),
            inject_rr: vec![0; nodes],
            inject_pending: vec![0; nodes],
            inject_mask: TileSet::new(nodes),
            delivered: (0..nodes).map(|_| VecDeque::new()).collect(),
            delivered_mask: TileSet::new(nodes),
            active: TileSet::new(nodes),
            big,
            barrier_live: TileSet::new(nodes),
            next_packet_id: 0,
            stats: NocStats::default(),
            fault_rng: cfg.faults.seed ^ 0x6a09_e667_f3bc_c908,
            acks_observed: 0,
            barrier_disabled: false,
            ttl_storm_fired: false,
            router_fail_fired: false,
            requests_observed: 0,
            routers,
            cfg,
        })
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Number of big routers on the mesh.
    pub fn big_router_count(&self) -> usize {
        self.routers.iter().filter(|r| r.is_big()).count()
    }

    /// Enqueues `msg` for injection at its source tile. Returns the
    /// assigned packet id.
    ///
    /// # Panics
    ///
    /// Panics if the vnet index or either core id is out of range, or the
    /// flit count is zero.
    pub fn send(&mut self, now: Cycle, msg: Message<P>) -> PacketId {
        assert!(msg.flits > 0, "packets must have at least one flit");
        assert!((msg.vnet.index()) < self.cfg.vnets as usize, "vnet out of range");
        assert!(msg.src.index() < self.cfg.nodes(), "src out of range");
        assert!(msg.dst.index() < self.cfg.nodes(), "dst out of range");
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src: Coord::from_core(msg.src, self.cfg.width, self.cfg.height),
            dst: Coord::from_core(msg.dst, self.cfg.width, self.cfg.height),
            sink: msg.sink,
            vnet: msg.vnet,
            flits: msg.flits,
            priority: msg.priority,
            injected_at: now,
            payload: msg.payload,
        };
        self.stats.injected += 1;
        self.stats.in_flight += 1;
        self.inject_pending[msg.src.index()] += 1;
        self.inject_mask.set(msg.src.index());
        self.inject[msg.src.index()][msg.vnet.index()].push_back(packet);
        id
    }

    /// Removes and returns the next packet delivered to `node`'s NI.
    pub fn pop_delivered(&mut self, node: CoreId) -> Option<Packet<P>> {
        let n = node.index();
        let packet = self.delivered[n].pop_front();
        if self.delivered[n].is_empty() {
            self.delivered_mask.clear(n);
        }
        packet
    }

    /// The lowest node at or above `from` with delivered packets awaiting
    /// pickup, if any. Draining it with
    /// [`pop_delivered`](Self::pop_delivered) and asking again from the
    /// next node visits every such node in ascending order.
    pub fn next_delivered(&self, from: usize) -> Option<CoreId> {
        self.delivered_mask.next_from(from).map(CoreId::new)
    }

    /// Packets currently inside the network (injected or generated but
    /// not yet delivered/consumed).
    pub fn in_flight(&self) -> u64 {
        self.stats.in_flight
    }

    /// Accumulated network statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Sums barrier-table counters over all big routers.
    pub fn barrier_stats(&self) -> BarrierStats {
        let mut total = BarrierStats::default();
        for r in &self.routers {
            if let Some(b) = &r.barrier {
                let s = b.stats();
                total.barriers_installed += s.barriers_installed;
                total.barriers_expired += s.barriers_expired;
                total.requests_stopped += s.requests_stopped;
                total.passes_table_full += s.passes_table_full;
                total.acks_relayed += s.acks_relayed;
                total.stale_acks_dropped += s.stale_acks_dropped;
                total.degraded_transitions += s.degraded_transitions;
                total.in_pass_through += s.in_pass_through;
            }
        }
        total
    }

    /// Verifies internal conservation invariants (test support). See
    /// [`try_check_invariants`](Self::try_check_invariants) for the
    /// non-panicking form.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        if let Err(violation) = self.try_check_invariants() {
            panic!("{violation}");
        }
    }

    /// Verifies internal conservation invariants, reporting the first
    /// violation as a typed value instead of panicking:
    ///
    /// * every router's cached occupied-VC mask matches its buffers,
    /// * every node's injection-pending count equals its queued plus
    ///   streaming packets, and its delivered bit is set exactly when
    ///   packets await pickup,
    /// * every tile that can act next cycle is in its activity set: a
    ///   router holding flits or generated packets in `active`, a node
    ///   with packets to inject in `inject_mask`, a big router whose
    ///   barrier table is not quiet in `barrier_live`,
    /// * credits plus downstream buffer occupancy equal the VC depth,
    /// * every live barrier entry's TTL is in `1..=default`,
    /// * packets found by walking every queue and buffer equal
    ///   `injected + generated - delivered - consumed` (conservation).
    ///
    /// # Errors
    ///
    /// Returns the first [`NocViolation`] found.
    pub fn try_check_invariants(&self) -> Result<(), NocViolation> {
        let vcs = self.cfg.vcs_per_port();
        for (node, router) in self.routers.iter().enumerate() {
            let queued: usize = self.inject[node].iter().map(VecDeque::len).sum();
            let streaming = self.inject_state[node].iter().flatten().count();
            if self.inject_pending[node] != queued + streaming {
                return Err(NocViolation::InjectPending {
                    router: router.coord,
                    cached: self.inject_pending[node],
                    actual: queued + streaming,
                });
            }
            if self.inject_pending[node] > 0 && !self.inject_mask.contains(node) {
                return Err(NocViolation::InjectMask {
                    router: router.coord,
                    pending: self.inject_pending[node],
                });
            }
            let flagged = self.delivered_mask.contains(node);
            if flagged == self.delivered[node].is_empty() {
                return Err(NocViolation::DeliveredMask {
                    router: router.coord,
                    flagged,
                    waiting: self.delivered[node].len(),
                });
            }
            let actual = router
                .inputs
                .iter()
                .flatten()
                .enumerate()
                .filter(|(_, input)| input.occupancy() > 0)
                .fold(0u64, |mask, (slot, _)| mask | 1 << slot);
            if actual != router.occupied {
                return Err(NocViolation::OccupancyMask {
                    router: router.coord,
                    cached: router.occupied,
                    actual,
                });
            }
            if (router.occupied != 0 || !router.gen_queue.is_empty()) && !self.active.contains(node)
            {
                return Err(NocViolation::ActiveRouters {
                    router: router.coord,
                    occupied: router.occupied,
                    generated: router.gen_queue.len(),
                });
            }
            for dir in Direction::ALL {
                let Some(neighbor) = router.coord.neighbor(dir, self.cfg.width, self.cfg.height)
                else {
                    continue;
                };
                let n_node = neighbor.to_core(self.cfg.width).index();
                let in_port = Port::Link(dir.opposite()).index();
                let out_port = Port::Link(dir).index();
                for vc in 0..vcs {
                    let credits = router.out_credits[out_port][vc] as usize;
                    let occupancy = self.routers[n_node].inputs[in_port][vc].occupancy();
                    if credits + occupancy != self.cfg.vc_depth as usize {
                        return Err(NocViolation::CreditConservation {
                            router: router.coord,
                            port: dir.name(),
                            vc,
                            credits,
                            occupancy,
                            depth: self.cfg.vc_depth as usize,
                        });
                    }
                }
            }
            if let Some(barrier) = &router.barrier {
                if !barrier.is_quiet() && !self.barrier_live.contains(node) {
                    return Err(NocViolation::BarrierLive {
                        router: router.coord,
                        barriers: barrier.barrier_count(),
                        health: barrier.health(),
                    });
                }
                for (addr, ttl, _eis) in barrier.snapshot() {
                    if ttl == 0 || ttl > barrier.default_ttl() {
                        return Err(NocViolation::BarrierTtl {
                            router: router.coord,
                            addr,
                            ttl,
                            max: barrier.default_ttl(),
                        });
                    }
                }
            }
        }
        let counted = self.count_resident_packets();
        let expected = self.stats.in_flight;
        if counted != expected {
            return Err(NocViolation::PacketConservation { counted, expected });
        }
        Ok(())
    }

    /// Counts the packets physically present in the network by walking
    /// every injection queue, input-VC head flit, generator queue and
    /// ejection-reassembly slot. Each in-flight packet appears in exactly
    /// one of those places.
    fn count_resident_packets(&self) -> u64 {
        let mut n = 0u64;
        for queues in &self.inject {
            for q in queues {
                n += q.len() as u64;
            }
        }
        for router in &self.routers {
            n += router.gen_queue.len() as u64;
            n += router.eject.iter().flatten().count() as u64;
            for port in &router.inputs {
                for vc in port {
                    n += vc.flits.iter().filter(|f| f.head.is_some()).count() as u64;
                }
            }
        }
        n
    }

    /// Snapshot of every non-empty barrier table:
    /// `(big router tile, entries)` with each entry `(lock, ttl, live EIs)`.
    pub fn barrier_snapshots(&self) -> Vec<(CoreId, BarrierSnapshot)> {
        self.routers
            .iter()
            .filter_map(|r| {
                let snap = r.barrier.as_ref()?.snapshot();
                (!snap.is_empty()).then(|| (r.coord.to_core(self.cfg.width), snap))
            })
            .collect()
    }

    /// Multi-line occupancy report for stall diagnostics: per-router
    /// buffered flits, VC occupancy and credits, generator backlogs, live
    /// barrier entries, and the oldest in-flight packet's identity and
    /// position.
    pub fn congestion_report(&self, now: Cycle) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "noc: {} in flight ({} injected, {} generated, {} delivered, {} consumed)",
            self.stats.in_flight,
            self.stats.injected,
            self.stats.generated_packets,
            self.stats.delivered,
            self.stats.consumed,
        );
        for (node, router) in self.routers.iter().enumerate() {
            let pending_inject: usize = self.inject[node].iter().map(VecDeque::len).sum();
            if router.occupied == 0 && router.gen_queue.is_empty() && pending_inject == 0 {
                continue;
            }
            let buffered: usize = router.inputs.iter().flatten().map(InputVc::occupancy).sum();
            let _ = write!(
                out,
                "  router {} ({}): {buffered} flits buffered",
                router.coord,
                if router.is_big() { "big" } else { "normal" },
            );
            if pending_inject > 0 {
                let _ = write!(out, ", {pending_inject} awaiting injection");
            }
            if !router.gen_queue.is_empty() {
                let _ = write!(out, ", {} in generator queue", router.gen_queue.len());
            }
            let _ = writeln!(out);
            for (port, vcs) in router.inputs.iter().enumerate() {
                for (vc, input) in vcs.iter().enumerate() {
                    if input.occupancy() == 0 {
                        continue;
                    }
                    let _ = writeln!(
                        out,
                        "    in port {port} vc {vc}: {} flits (credits out {:?})",
                        input.occupancy(),
                        router.out_credits[port][vc],
                    );
                }
            }
            if let Some(barrier) = &router.barrier {
                for (addr, ttl, eis) in barrier.snapshot() {
                    let _ = writeln!(
                        out,
                        "    barrier {addr}: ttl {ttl}, {eis} live EI entr{}",
                        if eis == 1 { "y" } else { "ies" },
                    );
                }
            }
        }
        if let Some(line) = self.oldest_in_flight_line(now) {
            let _ = writeln!(out, "  oldest in flight: {line}");
        }
        out
    }

    /// Describes the oldest packet still inside the network: id, age,
    /// endpoints, and where it is stuck.
    fn oldest_in_flight_line(&self, now: Cycle) -> Option<String> {
        let mut best: Option<(Cycle, String)> = None;
        let mut note = |injected_at: Cycle, line: String| {
            if best.as_ref().is_none_or(|(t, _)| injected_at < *t) {
                best = Some((injected_at, line));
            }
        };
        for (node, queues) in self.inject.iter().enumerate() {
            for q in queues {
                for p in q {
                    note(
                        p.injected_at,
                        format!(
                            "{} {} {}->{} awaiting injection at node {node}",
                            p.id, p.vnet, p.src, p.dst
                        ),
                    );
                }
            }
        }
        for router in &self.routers {
            for p in &router.gen_queue {
                note(
                    p.injected_at,
                    format!(
                        "{} {} {}->{} in generator queue at {}",
                        p.id, p.vnet, p.src, p.dst, router.coord
                    ),
                );
            }
            // Ascending packet id, so ties on age resolve the same way
            // whatever slot a packet reassembles in.
            let mut ejecting: Vec<&EjectSlot<P>> = router.eject.iter().flatten().collect();
            ejecting.sort_by_key(|slot| slot.packet.id);
            for slot in ejecting {
                let p = &slot.packet;
                note(
                    p.injected_at,
                    format!(
                        "{} {} {}->{} reassembling at {} ({}/{} flits)",
                        p.id, p.vnet, p.src, p.dst, router.coord, slot.flits_seen, p.flits
                    ),
                );
            }
            for (port, vcs) in router.inputs.iter().enumerate() {
                for (vc, input) in vcs.iter().enumerate() {
                    for flit in &input.flits {
                        if let Some(p) = flit.head.as_deref() {
                            note(
                                p.injected_at,
                                format!(
                                    "{} {} {}->{} buffered at {} port {port} vc {vc}",
                                    p.id, p.vnet, p.src, p.dst, router.coord
                                ),
                            );
                        }
                    }
                }
            }
        }
        best.map(|(injected_at, line)| {
            format!("{line} (age {} cycles)", now.saturating_since(injected_at))
        })
    }

    /// Advances the network one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.apply_scheduled_faults(now);
        self.intercept_phase(now);
        self.barrier_tick_phase();
        self.switch_phase(now);
        self.inject_phase(now);
    }

    /// Fires cycle-triggered faults from the configured plan.
    fn apply_scheduled_faults(&mut self, now: Cycle) {
        if !self.barrier_disabled {
            if let Some(at) = self.cfg.faults.barrier_off_at() {
                if now.as_u64() >= at {
                    self.barrier_disabled = true;
                    for (node, router) in self.routers.iter_mut().enumerate() {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.flush();
                            self.barrier_live.set(node);
                        }
                    }
                }
            }
        }
        if !self.ttl_storm_fired {
            if let Some(at) = self.cfg.faults.ttl_storm_at() {
                if now.as_u64() >= at {
                    self.ttl_storm_fired = true;
                    for (node, router) in self.routers.iter_mut().enumerate() {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.set_all_ttls(1);
                            self.barrier_live.set(node);
                        }
                    }
                }
            }
        }
        if !self.router_fail_fired {
            if let Some(at) = self.cfg.faults.router_fail_at() {
                if now.as_u64() >= at {
                    self.router_fail_fired = true;
                    for (node, router) in self.routers.iter_mut().enumerate() {
                        if let Some(barrier) = router.barrier.as_mut() {
                            barrier.fail();
                            self.barrier_live.set(node);
                        }
                    }
                }
            }
        }
    }

    // ---- interception (big-router packet generation) ------------------

    fn intercept_phase(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs_per_port();
        let mut next = 0;
        while let Some(node) = self.active.next_from_in(next, &self.big) {
            next = node + 1;
            // Interception only pops the VC it inspects, so a snapshot of
            // the occupied VCs visits exactly the non-empty ones in order.
            for slot in SetBits(self.routers[node].occupied) {
                self.intercept_vc_head(now, node, slot / vcs, slot % vcs);
            }
        }
    }

    /// Inspects the head flit of one input VC and consumes it if it is a
    /// router-sink ack or a stoppable lock GetX.
    fn intercept_vc_head(&mut self, now: Cycle, node: usize, port: usize, vc: usize) {
        enum Action {
            ConsumeAck,
            StopGetx,
            InstallBarrier,
        }
        let action = {
            let router = &self.routers[node];
            let Some(flit) = router.inputs[port][vc].flits.front() else { return };
            if flit.eligible_at > now {
                return;
            }
            let Some(packet) = flit.head.as_deref() else { return };
            if packet.sink == Sink::Router && packet.dst == router.coord {
                Action::ConsumeAck
            } else if self.barrier_disabled {
                // Barrier-off fault: interception is dark, lock requests
                // pass through like in a normal router.
                return;
            } else if let Some(barrier) = &router.barrier {
                let ejecting = packet.dst == router.coord;
                match packet.payload.as_lock_request() {
                    Some(req) if !ejecting => {
                        if barrier.should_stop(req.addr) {
                            Action::StopGetx
                        } else if !barrier.has_barrier(req.addr) {
                            Action::InstallBarrier
                        } else {
                            // Barrier exists but the EI pool is full: the
                            // request passes through like in a normal
                            // router (paper §4.1).
                            return;
                        }
                    }
                    _ => return,
                }
            } else {
                return;
            }
        };
        self.barrier_live.set(node);

        match action {
            Action::ConsumeAck => {
                let packet = self.pop_head_packet(node, port, vc);
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                let coord = self.routers[node].coord;
                match packet.payload.as_early_ack() {
                    Some(ack) => {
                        if let Some(barrier) = self.routers[node].barrier.as_mut() {
                            // Bookkeeping only: even a "stale" ack is
                            // relayed, because the home node is the
                            // protocol-level deduplicator and losing an
                            // InvAck would wedge the winner.
                            let _ = barrier.take_ack(ack.addr, ack.from);
                        }
                        self.acks_observed += 1;
                        if self.cfg.faults.drop_ack_nth() == Some(self.acks_observed) {
                            // Fault injection: lose this ack instead of
                            // relaying it. The home never learns the
                            // loser's copy died — exactly the coherence
                            // bug the invariant checker must catch.
                            self.stats.acks_dropped_by_fault += 1;
                            return;
                        }
                        let relay = Packet {
                            id: self.alloc_id(),
                            src: coord,
                            dst: Coord::from_core(ack.home, self.cfg.width, self.cfg.height),
                            sink: Sink::NetworkInterface,
                            vnet: VirtualNetwork::RESPONSE,
                            flits: 1,
                            priority: 0,
                            injected_at: now,
                            payload: P::relayed_ack(ack, now),
                        };
                        self.push_generated(node, relay);
                    }
                    None => {
                        self.stats.dropped_router_sink += 1;
                    }
                }
            }
            Action::StopGetx => {
                let packet = self.pop_head_packet(node, port, vc);
                debug_assert_eq!(packet.flits, 1, "lock GetX must be single-flit");
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                let coord = self.routers[node].coord;
                // lint: allow(unwrap) — Action::StopGetx is only chosen after
                // as_lock_request() returned Some for this very flit.
                let req = packet.payload.as_lock_request().expect("checked above");
                self.routers[node]
                    .barrier
                    .as_mut()
                    // lint: allow(unwrap) — decide_action emits StopGetx only
                    // when the router has a barrier table (is_big()).
                    .expect("stop only on big routers")
                    .stop(req.addr, req.requester);
                self.stats.early_invs_generated += 1;
                let inv = Packet {
                    id: self.alloc_id(),
                    src: coord,
                    dst: Coord::from_core(req.requester, self.cfg.width, self.cfg.height),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::FORWARD,
                    flits: 1,
                    priority: 0,
                    injected_at: now,
                    payload: P::early_inv(req, coord.to_core(self.cfg.width), now),
                };
                let fwd = Packet {
                    id: self.alloc_id(),
                    src: packet.src,
                    dst: Coord::from_core(req.home, self.cfg.width, self.cfg.height),
                    sink: Sink::NetworkInterface,
                    vnet: VirtualNetwork::REQUEST,
                    flits: 1,
                    priority: packet.priority,
                    // The FwdGetX continues the stopped request's journey,
                    // so it keeps the original injection timestamp.
                    injected_at: packet.injected_at,
                    payload: packet.payload.forwarded_getx(now),
                };
                self.push_generated(node, inv);
                self.push_generated(node, fwd);
            }
            Action::InstallBarrier => {
                // Install at first sight. The paper installs the barrier
                // when the first GetX is *transferred*; installing when it
                // reaches the head of an input VC is at most a couple of
                // cycles earlier and keeps the pipeline model simple.
                let router = &mut self.routers[node];
                let req = router.inputs[port][vc]
                    .flits
                    .front()
                    .and_then(|f| f.head.as_deref())
                    .and_then(|p| p.payload.as_lock_request())
                    // lint: allow(unwrap) — InstallBarrier is only chosen after
                    // the same chain returned Some in decide_action.
                    .expect("checked above");
                // lint: allow(unwrap) — InstallBarrier only fires on big routers.
                router.barrier.as_mut().expect("big router").observe_transfer(req.addr);
            }
        }
    }

    fn alloc_id(&mut self) -> PacketId {
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        id
    }

    /// Buffers `flit` in `node`'s input VC `(port, vc)`, activating the
    /// router.
    fn push_flit(&mut self, node: usize, port: usize, vc: usize, flit: Flit<P>) {
        self.routers[node].push_flit(port, vc, flit);
        self.active.set(node);
    }

    fn push_generated(&mut self, node: usize, packet: Packet<P>) {
        self.stats.generated_packets += 1;
        self.stats.in_flight += 1;
        self.routers[node].gen_queue.push_back(packet);
        self.active.set(node);
    }

    /// Pops the (single-flit) head packet of a VC, returning credit to
    /// the upstream router.
    fn pop_head_packet(&mut self, node: usize, port: usize, vc: usize) -> Packet<P> {
        let flit = self.routers[node]
            .pop_flit(port, vc)
            // lint: allow(unwrap) — interception actions are decided while
            // inspecting this VC's front flit, which stays put until here.
            .expect("caller checked the flit exists");
        debug_assert!(flit.tail, "interception only consumes single-flit packets");
        self.routers[node].inputs[port][vc].route = None;
        self.return_credit(node, port, vc);
        // lint: allow(unwrap) — only head flits carry a lock request, and
        // decide_action matched on one.
        *flit.head.expect("caller checked this is a head flit")
    }

    /// Returns one credit to whatever feeds `(node, port, vc)`.
    fn return_credit(&mut self, node: usize, port: usize, vc: usize) {
        if port == Port::Local.index() {
            // Injection checks occupancy directly; no credit counter.
            return;
        }
        let dir = match port {
            1 => Direction::North,
            2 => Direction::South,
            3 => Direction::West,
            4 => Direction::East,
            _ => unreachable!("port index out of range"),
        };
        let coord = self.routers[node].coord;
        let upstream = coord
            .neighbor(dir, self.cfg.width, self.cfg.height)
            // lint: allow(unwrap) — a flit can only have arrived on a link
            // port if a neighbour exists in that direction.
            .expect("link ports always have a neighbour");
        let upstream_node = upstream.to_core(self.cfg.width).index();
        // The upstream router's output toward us is the opposite port.
        let up_port = Port::Link(dir.opposite()).index();
        self.routers[upstream_node].out_credits[up_port][vc] += 1;
    }

    // ---- barrier TTLs --------------------------------------------------

    fn barrier_tick_phase(&mut self) {
        let mut next = 0;
        while let Some(node) = self.barrier_live.next_from(next) {
            next = node + 1;
            if let Some(barrier) = self.routers[node].barrier.as_mut() {
                barrier.tick();
                if barrier.is_quiet() {
                    self.barrier_live.clear(node);
                }
            }
        }
    }

    // ---- switch allocation & traversal ---------------------------------

    /// Routers a neighbour's push activates mid-sweep may be passed
    /// over: their only flits become eligible at `now + 2`, so visiting
    /// them this cycle would change nothing.
    fn switch_phase(&mut self, now: Cycle) {
        let mut next = 0;
        while let Some(node) = self.active.next_from(next) {
            next = node + 1;
            self.switch_router(now, node);
            let router = &self.routers[node];
            if router.occupied == 0 && router.gen_queue.is_empty() {
                self.active.clear(node);
            }
        }
    }

    /// Switch allocation for one router: every eligible front flit is
    /// routed and VC-allocated once and bids for its single output port;
    /// the output ports then grant in [`Port::ALL`] order, at most one
    /// flit per input port (and the generator) per cycle.
    ///
    /// One bid collection serves all five grants because a grant on
    /// output `k` changes only output `k`'s credits and VC owners, the
    /// flit it pushes downstream is not eligible before `now + 2`, and
    /// the VC it pops belongs to an input port that is then excluded.
    fn switch_router(&mut self, now: Cycle, node: usize) {
        let router = &self.routers[node];
        if router.occupied == 0 && router.gen_queue.is_empty() {
            return;
        }
        let bids = self.collect_bids(now, node);
        let vcs = self.cfg.vcs_per_port();
        let generator = self.routers[node].generator_slot();
        let port_slots = (1u64 << vcs) - 1;
        let mut used = 0u64;
        for out_port in Port::ALL {
            let open = bids.by_out[out_port.index()] & !used;
            let winner = self.routers[node].pick_winner(
                out_port,
                open,
                &bids.priority,
                self.cfg.ocor_arbitration,
            );
            let Some(slot) = winner else { continue };
            used |= if slot == generator { 1 << slot } else { port_slots << (slot / vcs * vcs) };
            let out = OutRoute { port: out_port, vc: bids.out_vc[slot] as usize };
            self.apply_move(now, node, slot, out, bids.claims_vc & 1 << slot != 0);
        }
    }

    /// Route computation and VC allocation for `node`'s eligible front
    /// flits and its generator's front packet.
    fn collect_bids(&self, now: Cycle, node: usize) -> Bids {
        let router = &self.routers[node];
        let vcs = self.cfg.vcs_per_port();
        let vcs_per_vnet = self.cfg.vcs_per_vnet as usize;
        let mut bids = Bids::new();
        for slot in SetBits(router.occupied) {
            let input = &router.inputs[slot / vcs][slot % vcs];
            let Some(flit) = input.flits.front() else { continue };
            if flit.eligible_at > now {
                continue;
            }
            if let Some(packet) = flit.head.as_deref() {
                if packet.sink == Sink::Router && packet.dst == router.coord {
                    // Router-sink packets are consumed by the interception
                    // phase, never ejected; leave the flit for the next
                    // cycle's interception sweep.
                    continue;
                }
                if let Some(out) = router.head_route(packet, vcs_per_vnet) {
                    let priority = aged_priority(packet, now);
                    bids.add(slot, out, out.port != Port::Local, priority);
                }
            } else if let Some(route) = input.route {
                // Body flit: follows the route claimed by its head, if
                // the downstream VC has a credit.
                if route.port == Port::Local || router.out_credits[route.port.index()][route.vc] > 0
                {
                    bids.add(slot, route, false, 0);
                }
            }
        }
        // The packet generator's front packet bids like a sixth input.
        if let Some(packet) = router.gen_queue.front() {
            if let Some(out) = router.head_route(packet, vcs_per_vnet) {
                let priority = aged_priority(packet, now);
                bids.add(router.generator_slot(), out, out.port != Port::Local, priority);
            }
        }
        bids
    }

    /// Executes one granted switch traversal of input `slot` along `out`.
    fn apply_move(&mut self, now: Cycle, node: usize, slot: usize, out: OutRoute, claims_vc: bool) {
        let flit = if slot == self.routers[node].generator_slot() {
            let packet =
                // lint: allow(unwrap) — the generator slot only bids when
                // gen_queue has a front packet.
                self.routers[node].gen_queue.pop_front().expect("bidding packet exists");
            debug_assert_eq!(packet.flits, 1, "generated packets are single-flit");
            Flit {
                packet_id: packet.id,
                tail: true,
                eligible_at: now,
                head: Some(Box::new(packet)),
            }
        } else {
            let vcs = self.cfg.vcs_per_port();
            let (port, vc) = (slot / vcs, slot % vcs);
            let router = &mut self.routers[node];
            // lint: allow(unwrap) — the bid was built from this VC's front
            // flit in the same cycle; nothing drains between.
            let flit = router.pop_flit(port, vc).expect("bidding flit exists");
            let input = &mut router.inputs[port][vc];
            if flit.head.is_some() {
                input.route = Some(out);
            }
            if flit.tail {
                input.route = None;
            }
            self.return_credit(node, port, vc);
            flit
        };
        self.stats.flit_hops += 1;

        match out.port {
            Port::Local => self.eject_flit(now, node, slot, flit),
            Port::Link(dir) => {
                let router = &mut self.routers[node];
                let p = out.port.index();
                if claims_vc {
                    debug_assert!(router.out_owner[p][out.vc].is_none());
                    router.out_owner[p][out.vc] = Some(flit.packet_id);
                }
                debug_assert!(router.out_credits[p][out.vc] > 0);
                router.out_credits[p][out.vc] -= 1;
                if flit.tail {
                    router.out_owner[p][out.vc] = None;
                }
                let coord = router.coord;
                let neighbor = coord
                    .neighbor(dir, self.cfg.width, self.cfg.height)
                    // lint: allow(unwrap) — XY route computation only picks a
                    // direction with an in-mesh neighbour.
                    .expect("route stays on mesh");
                let n_node = neighbor.to_core(self.cfg.width).index();
                let in_port = Port::Link(dir.opposite()).index();
                let mut flit = flit;
                // One cycle of link traversal plus the downstream router's
                // RC/VA/SA stage: the flit competes for the next switch two
                // cycles after leaving this one (2-cycle hop, Table 1's
                // 2-stage pipelined router).
                flit.eligible_at = now + 2;
                self.push_flit(n_node, in_port, out.vc, flit);
            }
        }
    }

    /// Accumulates a flit ejected from input `slot`; delivers the packet
    /// when complete.
    fn eject_flit(&mut self, now: Cycle, node: usize, slot: usize, flit: Flit<P>) {
        let reassembly = &mut self.routers[node].eject[slot];
        if let Some(packet) = flit.head {
            debug_assert!(reassembly.is_none(), "one packet reassembles per input slot");
            *reassembly = Some(EjectSlot { packet, flits_seen: 1 });
        } else if let Some(open) = reassembly.as_mut() {
            debug_assert_eq!(open.packet.id, flit.packet_id, "body flit follows its head");
            open.flits_seen += 1;
        }
        if flit.tail {
            let open = reassembly
                .take()
                // lint: allow(unwrap) — wormhole switching keeps a packet's
                // flits in order on one input VC, so its head opened this
                // slot already.
                .expect("tail flit follows its head at ejection");
            debug_assert_eq!(open.flits_seen, open.packet.flits, "all flits ejected");
            let packet = *open.packet;
            debug_assert_eq!(packet.sink, Sink::NetworkInterface, "router-sink packets are consumed by interception");
            if self.cfg.faults.drop_ack_nth().is_some() && packet.payload.is_inv_ack() {
                self.acks_observed += 1;
                if self.cfg.faults.drop_ack_nth() == Some(self.acks_observed) {
                    // Fault injection: the acknowledgement vanishes at the
                    // last hop. Counted as consumed so packet conservation
                    // still balances; the *protocol* is what breaks.
                    self.stats.in_flight -= 1;
                    self.stats.consumed += 1;
                    self.stats.acks_dropped_by_fault += 1;
                    return;
                }
            }
            let latency = now.saturating_since(packet.injected_at);
            self.stats.record_delivery(packet.vnet, latency);
            self.stats.in_flight -= 1;
            self.delivered[node].push_back(packet);
            self.delivered_mask.set(node);
        }
    }

    // ---- injection -------------------------------------------------------

    fn inject_phase(&mut self, now: Cycle) {
        let vnets = self.cfg.vnets as usize;
        let mut next = 0;
        while let Some(node) = self.inject_mask.next_from(next) {
            next = node + 1;
            let start = self.inject_rr[node];
            for offset in 0..vnets {
                let vnet = (start + offset) % vnets;
                if self.try_inject_flit(now, node, vnet) {
                    self.inject_rr[node] = vnet + 1;
                    break;
                }
            }
            if self.inject_pending[node] == 0 {
                self.inject_mask.clear(node);
            }
        }
    }

    /// Tries to inject one flit for `vnet` at `node`. Returns whether a
    /// flit entered the router.
    fn try_inject_flit(&mut self, now: Cycle, node: usize, vnet: usize) -> bool {
        let vc_depth = self.cfg.vc_depth as usize;
        let vcs_per_vnet = self.cfg.vcs_per_vnet as usize;
        let local = Port::Local.index();

        if let Some(progress) = self.inject_state[node][vnet] {
            // Continue streaming the in-flight packet.
            if self.routers[node].inputs[local][progress.vc].occupancy() >= vc_depth {
                return false;
            }
            let sent = progress.sent + 1;
            let tail = sent == progress.total;
            let flit =
                Flit { packet_id: progress.packet_id, head: None, tail, eligible_at: now + 1 };
            self.push_flit(node, local, progress.vc, flit);
            self.inject_state[node][vnet] =
                (!tail).then_some(InjectProgress { sent, ..progress });
            if tail {
                self.inject_pending[node] -= 1;
            }
            return true;
        }

        if self.inject[node][vnet].is_empty() {
            return false;
        }
        // Pick a local input VC in this vnet's partition with space. The
        // injector is the only writer of local input VCs and streams one
        // packet per vnet at a time, so any VC with space and no other
        // vnet's in-flight packet is usable; the vnet partition makes the
        // latter impossible by construction.
        let base = vnet * vcs_per_vnet;
        let vc = (base..base + vcs_per_vnet)
            .find(|&vc| self.routers[node].inputs[local][vc].occupancy() < vc_depth);
        let Some(vc) = vc else { return false };
        let Some(packet) = self.inject[node][vnet].pop_front() else { return false };
        // Link-drop fault: the nth REQUEST-class packet vanishes at the
        // injection link instead of entering the mesh. Counted as
        // consumed so packet conservation still balances; the lost
        // request is the recovery layer's problem to retransmit.
        if packet.vnet == VirtualNetwork::REQUEST && self.cfg.faults.link_drop_nth().is_some() {
            self.requests_observed += 1;
            if self.cfg.faults.link_drop_nth() == Some(self.requests_observed) {
                self.inject_pending[node] -= 1;
                self.stats.in_flight -= 1;
                self.stats.consumed += 1;
                self.stats.requests_dropped_by_fault += 1;
                return false;
            }
        }
        let id = packet.id;
        let total = packet.flits;
        let tail = total == 1;
        // Jitter fault: delay this packet's first switch eligibility by a
        // seeded pseudo-random amount. Body flits queue behind the head in
        // the same VC, so per-packet flit order is unaffected.
        let mut eligible_at = now + 1;
        if let Some(max_extra) = self.cfg.faults.jitter_max() {
            if max_extra > 0 {
                let extra = splitmix_next(&mut self.fault_rng) % (max_extra + 1);
                if extra > 0 {
                    self.stats.jitter_delays += 1;
                    eligible_at = now + 1 + extra;
                }
            }
        }
        let flit = Flit { packet_id: id, head: Some(Box::new(packet)), tail, eligible_at };
        self.push_flit(node, local, vc, flit);
        if tail {
            self.inject_pending[node] -= 1;
        } else {
            self.inject_state[node][vnet] =
                Some(InjectProgress { packet_id: id, vc, sent: 1, total });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::OpaquePayload;

    fn net(cfg: NocConfig) -> Network<OpaquePayload> {
        Network::new(cfg).expect("valid config")
    }

    fn run_until_delivered(
        network: &mut Network<OpaquePayload>,
        dst: CoreId,
        deadline: u64,
    ) -> (Packet<OpaquePayload>, Cycle) {
        let mut now = Cycle::ZERO;
        for _ in 0..deadline {
            network.tick(now);
            if let Some(p) = network.pop_delivered(dst) {
                return (p, now);
            }
            now = now.next();
        }
        panic!("packet not delivered within {deadline} cycles");
    }

    fn msg(src: usize, dst: usize, flits: u8) -> Message<OpaquePayload> {
        Message {
            src: CoreId::new(src),
            dst: CoreId::new(dst),
            sink: Sink::NetworkInterface,
            vnet: VirtualNetwork::REQUEST,
            flits,
            priority: 0,
            payload: OpaquePayload,
        }
    }

    #[test]
    fn single_flit_delivery_and_latency() {
        let mut network = net(NocConfig::baseline());
        // (0,0) -> (3,0): 3 hops.
        network.send(Cycle::ZERO, msg(0, 3, 1));
        let (packet, when) = run_until_delivered(&mut network, CoreId::new(3), 100);
        assert_eq!(packet.src, Coord::new(0, 0));
        assert_eq!(packet.dst, Coord::new(3, 0));
        // 1 cycle injection + 2 cycles per hop + ejection, uncontended.
        let latency = when.saturating_since(packet.injected_at);
        assert!((6..=10).contains(&latency), "unexpected latency {latency}");
        assert_eq!(network.in_flight(), 0);
        assert_eq!(network.stats().delivered, 1);
    }

    #[test]
    fn local_delivery_no_hops() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(5, 5, 1));
        let (_, when) = run_until_delivered(&mut network, CoreId::new(5), 20);
        assert!(when.as_u64() <= 4);
    }

    #[test]
    fn multi_flit_packet_arrives_whole() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(0, 63, 8));
        let (packet, _) = run_until_delivered(&mut network, CoreId::new(63), 300);
        assert_eq!(packet.flits, 8);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        // Every core sends to the diagonally opposite core.
        for src in 0..64usize {
            network.send(now, msg(src, 63 - src, 1));
        }
        let mut received = 0;
        for _ in 0..2000 {
            network.tick(now);
            for dst in 0..64usize {
                while network.pop_delivered(CoreId::new(dst)).is_some() {
                    received += 1;
                }
            }
            now = now.next();
            if received == 64 {
                break;
            }
        }
        assert_eq!(received, 64);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn hotspot_traffic_drains() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        for src in 0..64usize {
            for _ in 0..4 {
                network.send(now, msg(src, 27, 1));
            }
        }
        let mut received = 0;
        for _ in 0..5000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(27)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, 64 * 4);
        assert_eq!(network.in_flight(), 0);
    }

    #[test]
    fn mixed_sizes_interleave_without_loss() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        let mut expected = 0;
        for src in 0..8usize {
            network.send(now, msg(src, 60, 8));
            network.send(now, msg(src, 60, 1));
            expected += 2;
        }
        let mut received = 0;
        for _ in 0..3000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(60)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, expected);
    }

    #[test]
    fn vnets_do_not_block_each_other_at_injection() {
        let mut network = net(NocConfig::baseline());
        let mut now = Cycle::ZERO;
        // Saturate vnet 0 from node 0, then send one vnet-2 packet; it
        // must still get through promptly.
        for _ in 0..50 {
            network.send(now, msg(0, 7, 8));
        }
        let mut m = msg(0, 8, 1);
        m.vnet = VirtualNetwork::RESPONSE;
        network.send(now, m);
        let mut response_seen_at = None;
        for _ in 0..4000 {
            network.tick(now);
            if network.pop_delivered(CoreId::new(8)).is_some() {
                response_seen_at = Some(now);
                break;
            }
            now = now.next();
        }
        let at = response_seen_at.expect("response delivered");
        assert!(at.as_u64() < 100, "response crawled: {at}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut network = net(NocConfig::paper_default());
            let mut now = Cycle::ZERO;
            for src in 0..64usize {
                network.send(now, msg(src, (src * 7 + 3) % 64, if src % 3 == 0 { 8 } else { 1 }));
            }
            let mut log = Vec::new();
            for _ in 0..1500 {
                network.tick(now);
                for dst in 0..64usize {
                    while let Some(p) = network.pop_delivered(CoreId::new(dst)) {
                        log.push((now.as_u64(), dst, p.id.as_u64()));
                    }
                }
                now = now.next();
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn activity_indexes_track_injection_and_delivery() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(0, 9, 8));
        network.send(Cycle::ZERO, msg(0, 9, 1));
        network.send(Cycle::ZERO, msg(3, 12, 1));
        assert_eq!(network.inject_pending[0], 2);
        assert_eq!(network.next_delivered(0), None);
        let mut now = Cycle::ZERO;
        while network.stats().delivered < 3 {
            network.tick(now);
            network.check_invariants();
            now = now.next();
            assert!(now.as_u64() < 500, "packets not delivered");
        }
        assert_eq!(network.inject_pending, vec![0; 64]);
        assert_eq!(network.next_delivered(0), Some(CoreId::new(9)));
        assert_eq!(network.next_delivered(10), Some(CoreId::new(12)));
        assert_eq!(network.next_delivered(13), None);
        while network.pop_delivered(CoreId::new(9)).is_some() {}
        assert_eq!(network.next_delivered(0), Some(CoreId::new(12)));
        network.check_invariants();
    }

    #[test]
    fn next_delivered_spans_mask_words() {
        let cfg = NocConfig { width: 16, height: 8, ..NocConfig::baseline() };
        let mut network = net(cfg);
        network.send(Cycle::ZERO, msg(0, 64, 1));
        network.send(Cycle::ZERO, msg(0, 127, 1));
        let mut now = Cycle::ZERO;
        while network.stats().delivered < 2 {
            network.tick(now);
            now = now.next();
            assert!(now.as_u64() < 500, "packets not delivered");
        }
        assert_eq!(network.next_delivered(0), Some(CoreId::new(64)));
        assert_eq!(network.next_delivered(65), Some(CoreId::new(127)));
        assert_eq!(network.next_delivered(128), None);
        network.check_invariants();
    }

    #[test]
    fn desynchronised_inject_pending_is_a_violation() {
        let mut network = net(NocConfig::baseline());
        network.send(Cycle::ZERO, msg(5, 9, 8));
        network.tick(Cycle::ZERO);
        assert!(network.try_check_invariants().is_ok());
        // The packet is streaming: queue empty, injection in progress.
        network.inject_pending[5] = 0;
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::InjectPending { router: Coord::new(5, 0), cached: 0, actual: 1 })
        );
    }

    #[test]
    fn desynchronised_delivered_mask_is_a_violation() {
        let mut network = net(NocConfig::baseline());
        let node = CoreId::new(9);
        network.send(Cycle::ZERO, msg(9, 9, 1));
        let _ = run_until_delivered(&mut network, node, 20);
        assert!(network.try_check_invariants().is_ok());
        // A stale bit with nothing waiting.
        network.delivered_mask.set(9);
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::DeliveredMask { router: Coord::new(1, 1), flagged: true, waiting: 0 })
        );
        // A lost bit with a packet waiting.
        network.send(Cycle::new(20), msg(9, 9, 1));
        let mut now = Cycle::new(20);
        while network.stats().delivered < 2 {
            network.tick(now);
            now = now.next();
        }
        network.delivered_mask.clear(9);
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::DeliveredMask { router: Coord::new(1, 1), flagged: false, waiting: 1 })
        );
    }

    /// A 16×8 mesh: node ids 64..128 live in the second word of every
    /// per-node set.
    fn wide() -> NocConfig {
        NocConfig { width: 16, height: 8, ..NocConfig::paper_default() }
    }

    #[test]
    fn router_missing_from_the_active_set_is_a_violation() {
        let mut network = net(wide());
        network.send(Cycle::ZERO, msg(100, 3, 1));
        network.tick(Cycle::ZERO);
        assert!(network.try_check_invariants().is_ok());
        // The head flit sits in node 100's local input VC.
        let occupied = network.routers[100].occupied;
        assert_ne!(occupied, 0);
        network.active.clear(100);
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::ActiveRouters { router: Coord::new(4, 6), occupied, generated: 0 })
        );
    }

    #[test]
    fn node_missing_from_the_injection_set_is_a_violation() {
        let mut network = net(wide());
        network.send(Cycle::ZERO, msg(70, 3, 1));
        assert!(network.try_check_invariants().is_ok());
        network.inject_mask.clear(70);
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::InjectMask { router: Coord::new(6, 4), pending: 1 })
        );
    }

    #[test]
    fn live_barrier_missing_from_its_set_is_a_violation_until_it_expires() {
        let mut network = net(wide());
        // (1, 4) is big under the checkerboard placement.
        let node = 65;
        let table = network.routers[node].barrier.as_mut().expect("big router");
        assert!(table.observe_transfer(inpg_sim::Addr::new(0x40)));
        assert_eq!(
            network.try_check_invariants(),
            Err(NocViolation::BarrierLive {
                router: Coord::new(1, 4),
                barriers: 1,
                health: crate::barrier::RouterHealth::Healthy,
            })
        );
        // Once in the set, the barrier counts down, expires, and leaves
        // the set on the tick that empties the table.
        network.barrier_live.set(node);
        let ttl = u64::from(network.cfg.barrier_ttl);
        for cycle in 0..ttl {
            assert!(network.barrier_live.contains(node));
            network.tick(Cycle::new(cycle));
            network.check_invariants();
        }
        assert_eq!(network.barrier_stats().barriers_expired, 1);
        assert!(!network.barrier_live.contains(node));
    }

    #[test]
    fn big_router_count_matches_placement() {
        let network = net(NocConfig::paper_default());
        assert_eq!(network.big_router_count(), 32);
        let network = net(NocConfig::baseline());
        assert_eq!(network.big_router_count(), 0);
    }

    #[test]
    fn opaque_payloads_are_never_intercepted() {
        let mut network = net(NocConfig::paper_default());
        let mut now = Cycle::ZERO;
        for src in 0..32usize {
            network.send(now, msg(src, 45, 1));
        }
        let mut received = 0;
        for _ in 0..2000 {
            network.tick(now);
            while network.pop_delivered(CoreId::new(45)).is_some() {
                received += 1;
            }
            now = now.next();
        }
        assert_eq!(received, 32);
        assert_eq!(network.stats().generated_packets, 0);
        assert_eq!(network.barrier_stats().barriers_installed, 0);
    }
}
