//! Golden delivery logs: four fixed traffic mixes whose
//! `(cycle, node, packet id)` delivery sequences are pinned by digest.
//!
//! Every router-pipeline change (arbitration, VC allocation, injection,
//! interception) must reproduce these logs exactly; a digest mismatch
//! means simulated behaviour moved, not just speed. The 8×8 digests were
//! recorded with the per-output-port candidate scan that preceded the
//! one-pass switch allocator, and the 16×16 digest with the all-router
//! sweeps that preceded the activity sets.

use inpg_noc::packet::{EarlyAck, LockRequest, PacketGenPayload, Sink, VirtualNetwork};
use inpg_noc::{BigRouterPlacement, Message, Network, NocConfig};
use inpg_sim::{Addr, CoreId, Cycle};

/// A miniature lock protocol so big routers stop requests, generate
/// early invalidations and relay acks (generator-queue traffic).
#[derive(Debug, Clone)]
enum Msg {
    Data,
    LockGetx { addr: Addr, requester: CoreId, home: CoreId },
    FwdGetx,
    EarlyInv { addr: Addr, home: CoreId, ack_router: CoreId },
    EarlyInvAck { addr: Addr, from: CoreId, home: CoreId, inv_sent_at: Cycle },
    RelayedAck,
}

impl PacketGenPayload for Msg {
    fn as_lock_request(&self) -> Option<LockRequest> {
        match *self {
            Msg::LockGetx { addr, requester, home } => Some(LockRequest { addr, requester, home }),
            _ => None,
        }
    }

    fn as_early_ack(&self) -> Option<EarlyAck> {
        match *self {
            Msg::EarlyInvAck { addr, from, home, inv_sent_at } => {
                Some(EarlyAck { addr, from, home, inv_sent_at })
            }
            _ => None,
        }
    }

    fn early_inv(request: LockRequest, ack_router: CoreId, _now: Cycle) -> Self {
        Msg::EarlyInv { addr: request.addr, home: request.home, ack_router }
    }

    fn forwarded_getx(&self, _now: Cycle) -> Self {
        Msg::FwdGetx
    }

    fn relayed_ack(_ack: EarlyAck, _now: Cycle) -> Self {
        Msg::RelayedAck
    }
}

/// SplitMix64: a fixed, dependency-free traffic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Delivery-log summary: packet count and an FNV-1a digest over every
/// `(cycle, node, packet id)` triple in delivery order.
#[derive(Debug, PartialEq, Eq)]
struct Log {
    delivered: u64,
    digest: u64,
}

impl Log {
    fn new() -> Self {
        Log { delivered: 0, digest: 0xcbf2_9ce4_8422_2325 }
    }

    fn note(&mut self, cycle: u64, node: usize, id: u64) {
        self.delivered += 1;
        for word in [cycle, node as u64, id] {
            for byte in word.to_le_bytes() {
                self.digest ^= u64::from(byte);
                self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Drives `cfg` for `cycles` with `traffic` offering packets every cycle,
/// answering early invalidations with router-sink acks, and returns the
/// delivery log and the drained network.
fn run(
    cfg: NocConfig,
    cycles: u64,
    mut traffic: impl FnMut(Cycle, &mut Network<Msg>),
) -> (Log, Network<Msg>) {
    let nodes = cfg.nodes();
    let mut network: Network<Msg> = Network::new(cfg).expect("valid config");
    let mut log = Log::new();
    let mut now = Cycle::ZERO;
    let drain_deadline = cycles + 20_000;
    while now.as_u64() < cycles || network.in_flight() > 0 {
        assert!(now.as_u64() < drain_deadline, "network failed to drain");
        if now.as_u64() < cycles {
            traffic(now, &mut network);
        }
        network.tick(now);
        for node in 0..nodes {
            while let Some(p) = network.pop_delivered(CoreId::new(node)) {
                log.note(now.as_u64(), node, p.id.as_u64());
                if let Msg::EarlyInv { addr, home, ack_router } = p.payload {
                    let from = CoreId::new(node);
                    network.send(
                        now,
                        Message {
                            src: from,
                            dst: ack_router,
                            sink: Sink::Router,
                            vnet: VirtualNetwork::RESPONSE,
                            flits: 1,
                            priority: 0,
                            payload: Msg::EarlyInvAck { addr, from, home, inv_sent_at: now },
                        },
                    );
                }
            }
        }
        if now.as_u64().is_multiple_of(97) {
            network.check_invariants();
        }
        now = now.next();
    }
    network.check_invariants();
    (log, network)
}

fn message(src: u64, dst: u64, vnet: u8, flits: u8, priority: u8, payload: Msg) -> Message<Msg> {
    Message {
        src: CoreId::new(src as usize),
        dst: CoreId::new(dst as usize),
        sink: Sink::NetworkInterface,
        vnet: VirtualNetwork::new(vnet),
        flits,
        priority,
        payload,
    }
}

#[test]
fn baseline_uniform_traffic_log_is_pinned() {
    let mut rng = Rng(1);
    let (log, _) = run(NocConfig::baseline(), 1500, |now, network| {
        for src in 0..64 {
            if rng.below(100) < 6 {
                let dst = rng.below(64);
                let vnet = rng.below(4) as u8;
                let flits = if rng.below(4) == 0 { 8 } else { 1 };
                network.send(now, message(src, dst, vnet, flits, 0, Msg::Data));
            }
        }
    });
    assert_eq!(log, Log { delivered: 5796, digest: 14231682190192457055 });
}

#[test]
fn checkerboard_ocor_lock_traffic_log_is_pinned() {
    let cfg = NocConfig { ocor_arbitration: true, ..NocConfig::paper_default() };
    assert_eq!(cfg.placement, BigRouterPlacement::Checkerboard);
    let mut rng = Rng(2);
    let (log, network) = run(cfg, 1500, |now, network| {
        for src in 0..64 {
            let roll = rng.below(100);
            if roll < 3 {
                // Contended lock requests on four hot lines.
                let lock = rng.below(4);
                let home = [9, 22, 45, 54][lock as usize];
                let addr = Addr::new(0x1000 + 0x40 * lock);
                let payload = Msg::LockGetx {
                    addr,
                    requester: CoreId::new(src as usize),
                    home: CoreId::new(home as usize),
                };
                let priority = rng.below(9) as u8;
                network.send(now, message(src, home, 0, 1, priority, payload));
            } else if roll < 8 {
                let dst = rng.below(64);
                let vnet = rng.below(4) as u8;
                let flits = if rng.below(3) == 0 { 8 } else { 1 };
                let priority = rng.below(9) as u8;
                network.send(now, message(src, dst, vnet, flits, priority, Msg::Data));
            }
        }
    });
    assert_eq!(log, Log { delivered: 13059, digest: 14995915250476072816 });
    // The mix must exercise the generator queue's switch bids.
    assert!(network.stats().early_invs_generated > 0);
    assert!(network.barrier_stats().acks_relayed > 0);
}

#[test]
fn mixed_size_hotspot_traffic_log_is_pinned() {
    let mut rng = Rng(3);
    let (log, _) = run(NocConfig::paper_default(), 1200, |now, network| {
        for src in 0..64 {
            if rng.below(100) < 2 {
                let dst = if rng.below(2) == 0 { 27 } else { rng.below(64) };
                let flits = if rng.below(2) == 0 { 8 } else { 1 };
                let vnet = if flits == 8 { 2 } else { rng.below(2) as u8 };
                network.send(now, message(src, dst, vnet, flits, 0, Msg::Data));
            }
        }
    });
    assert_eq!(log, Log { delivered: 1525, digest: 7238028070363734906 });
}

/// A 16×16 mesh spans four 64-bit words of every per-node index, so
/// routers, big routers and injection points on both sides of each word
/// boundary carry traffic, including lock requests stopped at big
/// routers.
#[test]
fn wide_mesh_lock_traffic_log_is_pinned() {
    let cfg = NocConfig { width: 16, height: 16, ..NocConfig::paper_default() };
    let mut rng = Rng(4);
    let (log, network) = run(cfg, 1000, |now, network| {
        for src in 0..256 {
            let roll = rng.below(1000);
            if roll < 8 {
                let lock = rng.below(4);
                let home = [9, 100, 170, 250][lock as usize];
                let addr = Addr::new(0x2000 + 0x40 * lock);
                let payload = Msg::LockGetx {
                    addr,
                    requester: CoreId::new(src as usize),
                    home: CoreId::new(home as usize),
                };
                network.send(now, message(src, home, 0, 1, 0, payload));
            } else if roll < 20 {
                let dst = rng.below(256);
                let vnet = rng.below(4) as u8;
                let flits = if rng.below(4) == 0 { 8 } else { 1 };
                network.send(now, message(src, dst, vnet, flits, 0, Msg::Data));
            }
        }
    });
    assert_eq!(log, Log { delivered: 9126, digest: 7398517577761208549 });
    assert!(network.stats().early_invs_generated > 0);
    assert!(network.barrier_stats().acks_relayed > 0);
}
