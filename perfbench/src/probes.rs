//! Standalone layer probes: a bare `Network` and a bare `HomeBank`,
//! driven through their public functions at a load taken from the
//! workload's own counters.

use crate::stats::median;
use inpg_coherence::{CoherenceMsg, Envelope, HomeBank, HomeMap};
use inpg_noc::{Message, Network, NocConfig, Sink, VirtualNetwork};
use inpg_sim::{Addr, CoreId, Cycle, SimRng};
use std::time::Instant;

/// Ticks per timed batch in the NoC probes.
const NOC_BATCH: u64 = 1_000;

/// The traffic the loaded NoC probe offers, measured from a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfferedLoad {
    pub width: u8,
    pub height: u8,
    /// Packets injected per node per cycle.
    pub rate: f64,
    /// Share of packets per virtual network (request, forward, response, system).
    pub vnet_share: [f64; 4],
    /// Share of response packets that carry a data block (8 flits).
    pub data_share: f64,
    /// Tile that request-class packets target; uniform when `None`.
    pub hot_dst: Option<usize>,
}

/// Median nanoseconds per `Network::tick` over timed batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocProbe {
    pub idle_tick_ns: f64,
    pub loaded_tick_ns: f64,
    /// Packets the loaded probe injected and saw delivered.
    pub loaded_injected: u64,
    pub loaded_delivered: u64,
}

fn network(width: u8, height: u8) -> Result<Network<CoherenceMsg>, String> {
    let cfg = NocConfig {
        width,
        height,
        ..NocConfig::baseline()
    };
    Network::new(cfg).map_err(|e| format!("noc probe: {e}"))
}

/// Ticks an empty network, then one loaded at `load`, in `batches`
/// timed batches each.
pub fn noc_probe(load: &OfferedLoad, batches: usize, seed: u64) -> Result<NocProbe, String> {
    let nodes = usize::from(load.width) * usize::from(load.height);

    let mut idle = network(load.width, load.height)?;
    let mut now = Cycle::ZERO;
    let mut idle_ns = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..NOC_BATCH {
            idle.tick(now);
            for n in 0..nodes {
                while idle.pop_delivered(CoreId::new(n)).is_some() {}
            }
            now = now.next();
        }
        idle_ns.push(t.elapsed().as_nanos() as f64 / NOC_BATCH as f64);
    }

    let mut net = network(load.width, load.height)?;
    let mut rng = SimRng::seed_from_u64(seed ^ 0x6e6f_635f_7072_6f62);
    let per_million = (load.rate.clamp(0.0, 1.0) * 1e6).round() as u64;
    let data_per_million = (load.data_share.clamp(0.0, 1.0) * 1e6).round() as u64;
    let mut cumulative = [0u64; 4];
    let mut acc = 0.0;
    for (slot, share) in cumulative.iter_mut().zip(load.vnet_share) {
        acc += share;
        *slot = (acc * 1e6).round() as u64;
    }
    let mut now = Cycle::ZERO;
    let mut loaded_ns = Vec::with_capacity(batches);
    let mut delivered = 0u64;
    // One untimed batch of warm-up so the timed ones see a loaded mesh.
    for batch in 0..=batches {
        let t = Instant::now();
        for _ in 0..NOC_BATCH {
            for src in 0..nodes {
                if !rng.chance(per_million, 1_000_000) {
                    continue;
                }
                let pick = rng.next_below(1_000_000);
                let vnet = cumulative.iter().position(|&c| pick < c).unwrap_or(3);
                let dst = match load.hot_dst {
                    Some(hot) if vnet == 0 => hot,
                    _ => rng.next_below(nodes as u64) as usize,
                };
                let dst = if dst == src { (src + 1) % nodes } else { dst };
                let flits = if vnet == 2 && rng.chance(data_per_million, 1_000_000) {
                    8
                } else {
                    1
                };
                net.send(
                    now,
                    Message {
                        src: CoreId::new(src),
                        dst: CoreId::new(dst),
                        sink: Sink::NetworkInterface,
                        vnet: VirtualNetwork::new(vnet as u8),
                        flits,
                        priority: 0,
                        payload: CoherenceMsg::GetS {
                            addr: Addr::new(0),
                            requester: CoreId::new(src),
                        },
                    },
                );
            }
            net.tick(now);
            for n in 0..nodes {
                while net.pop_delivered(CoreId::new(n)).is_some() {
                    delivered += 1;
                }
            }
            now = now.next();
        }
        if batch > 0 {
            loaded_ns.push(t.elapsed().as_nanos() as f64 / NOC_BATCH as f64);
        }
    }
    net.try_check_invariants()
        .map_err(|v| format!("noc probe: {v}"))?;
    Ok(NocProbe {
        idle_tick_ns: median(&idle_ns).ok_or("noc probe: no batches")?,
        loaded_tick_ns: median(&loaded_ns).ok_or("noc probe: no batches")?,
        loaded_injected: net.stats().injected,
        loaded_delivered: delivered,
    })
}

/// Median nanoseconds per exclusive request served by a home bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomeProbe {
    pub getx_ns: f64,
    /// Sharers each exclusive request found (owner included).
    pub sharers: usize,
    /// Invalidations plus owner forwards the bank emitted per request.
    pub invs_per_getx: f64,
}

/// Steps `bank` one cycle, collecting what it emits.
fn step(bank: &mut HomeBank, now: &mut u64, out: &mut Vec<Envelope>) -> Result<(), String> {
    bank.try_tick(Cycle::new(*now), out)
        .map_err(|e| format!("home probe: {e}"))?;
    *now += 1;
    Ok(())
}

/// Steps until the bank emits something (bounded).
fn step_until_output(
    bank: &mut HomeBank,
    now: &mut u64,
    out: &mut Vec<Envelope>,
) -> Result<(), String> {
    for _ in 0..64 {
        step(bank, now, out)?;
        if !out.is_empty() {
            return Ok(());
        }
    }
    Err("home probe: bank emitted nothing within 64 cycles".into())
}

/// Serves `iterations` exclusive requests, each against a fresh block
/// first read by `sharers` cores (the first becomes the owner), through
/// `HomeBank::handle` and `try_tick`. Only the exclusive request is timed.
pub fn home_probe(cores: usize, sharers: usize, iterations: usize) -> Result<HomeProbe, String> {
    let sharers = sharers.clamp(1, cores.saturating_sub(2).max(1));
    if cores < sharers + 2 {
        return Err(format!(
            "home probe: {cores} cores cannot hold {sharers} sharers"
        ));
    }
    let map = HomeMap::new(cores);
    let home = CoreId::new(0);
    let winner = CoreId::new(sharers + 1);
    let mut bank = HomeBank::new(home, cores, 6);
    let mut now = 0u64;
    let mut out = Vec::new();
    let mut samples = Vec::with_capacity(iterations);
    let mut emitted = 0u64;
    for i in 0..iterations {
        if i % 256 == 0 {
            bank = HomeBank::new(home, cores, 6);
        }
        let addr = map.addr_homed_at(home, i as u64);
        for r in 1..=sharers {
            let requester = CoreId::new(r);
            bank.handle(CoherenceMsg::GetS { addr, requester }, Cycle::new(now));
            out.clear();
            step_until_output(&mut bank, &mut now, &mut out)?;
            // Only the first reader's E grant blocks the home; later
            // readers are forwarded to that owner without blocking it.
            if r == 1 {
                bank.handle(
                    CoherenceMsg::UnblockS {
                        addr,
                        from: requester,
                    },
                    Cycle::new(now),
                );
                step(&mut bank, &mut now, &mut out)?;
            }
        }
        out.clear();
        let getx = CoherenceMsg::GetX {
            addr,
            requester: winner,
            home,
            lock: true,
            failable: false,
            seq: 1,
        };
        let t = Instant::now();
        bank.handle(std::hint::black_box(getx), Cycle::new(now));
        step_until_output(&mut bank, &mut now, &mut out)?;
        samples.push(t.elapsed().as_nanos() as f64);
        emitted += out
            .iter()
            .filter(|e| {
                matches!(
                    e.msg,
                    CoherenceMsg::Inv { .. } | CoherenceMsg::FwdGetX { .. }
                )
            })
            .count() as u64;
        bank.handle(
            CoherenceMsg::UnblockX { addr, from: winner },
            Cycle::new(now),
        );
        step(&mut bank, &mut now, &mut out)?;
    }
    Ok(HomeProbe {
        getx_ns: median(&samples).ok_or("home probe: no iterations")?,
        sharers,
        invs_per_getx: emitted as f64 / iterations.max(1) as f64,
    })
}
