//! Host-speed calibration for the host-time metrics.
//!
//! On a shared host the simulator's speed swings by 30% and more over
//! tens of seconds, with the other tenants' load. A fixed ALU loop or a
//! pointer chase does not follow it, so neither can tell how fast the
//! host is running this kind of code. A small cycle-driven mesh
//! model does: heap-allocated packets in per-port queues, XY routing,
//! round-robin output arbitration and a hash-map directory at the
//! destination. Timed in short slices beside the simulator, its slice
//! time followed the simulator's host time with a correlation of 0.99
//! over windows of about 35 s: the ratio of the two spread 0.04 while
//! the simulator's own time spread 0.38 (2-vCPU shared Xeon).
//!
//! The model lives here, not in the simulator crates, so that it stays
//! the same while the simulator changes. Every host time the benchmark
//! bounds is rescaled to a host on which one slice takes
//! [`REFERENCE_SLICE_S`]: `host seconds × REFERENCE_SLICE_S ÷ median
//! slice time`, the median taken over the slices timed during the same
//! unit of work and a few seconds either side of it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Simulated cycles of one calibration slice.
pub const SLICE_CYCLES: u64 = 10_000;

/// The slice time the host-time metrics are rescaled to: roughly one
/// slice on the 2-vCPU Xeon the benchmark was tuned on, when its other
/// tenants were quiet.
pub const REFERENCE_SLICE_S: f64 = 0.03;

/// Host time between slices while a unit runs.
pub const INTERVAL: Duration = Duration::from_millis(500);

/// How often, in simulated cycles, the run loop asks whether a slice is
/// due (one clock read per check).
pub const CHECK_CYCLES: u64 = 1024;

const MESH: usize = 8;
const PORTS: usize = 5;
const LOCAL: usize = 4;

struct Packet {
    dst: u16,
    born: u64,
    payload: Vec<u64>,
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Runs the reference mesh model for `cycles` cycles and returns a
/// checksum of what it delivered. The same `cycles` always give the
/// same checksum.
pub fn reference_model(cycles: u64) -> u64 {
    let nodes = MESH * MESH;
    let mut queues: Vec<[VecDeque<Box<Packet>>; PORTS]> =
        (0..nodes).map(|_| Default::default()).collect();
    let mut directory: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut round_robin = vec![0usize; nodes];
    let mut checksum = 0u64;
    for now in 0..cycles {
        for queue in &mut queues {
            if rng.next().is_multiple_of(16) {
                let dst = (rng.next() % nodes as u64) as u16;
                let len = if rng.next().is_multiple_of(3) { 8 } else { 1 };
                queue[LOCAL].push_back(Box::new(Packet {
                    dst,
                    born: now,
                    payload: vec![now; len],
                }));
            }
        }
        let mut hops: Vec<(usize, usize, Box<Packet>)> = Vec::new();
        for node in 0..nodes {
            let (x, y) = (node % MESH, node / MESH);
            let first = round_robin[node];
            round_robin[node] = (first + 1) % PORTS;
            let mut granted = [false; PORTS];
            for k in 0..PORTS {
                let port = (first + k) % PORTS;
                let Some(head) = queues[node][port].front() else {
                    continue;
                };
                let (dx, dy) = (usize::from(head.dst) % MESH, usize::from(head.dst) / MESH);
                let (next, out) = if dx > x {
                    (node + 1, 0)
                } else if dx < x {
                    (node - 1, 1)
                } else if dy > y {
                    (node + MESH, 2)
                } else if dy < y {
                    (node - MESH, 3)
                } else {
                    (node, LOCAL)
                };
                if granted[out] {
                    continue;
                }
                granted[out] = true;
                let Some(packet) = queues[node][port].pop_front() else {
                    continue;
                };
                if next == node {
                    let key = u64::from(packet.dst) << 32 | (packet.payload[0] & 0xff);
                    let entry = directory.entry(key).or_insert((0, 0));
                    entry.0 += now - packet.born;
                    entry.1 += 1;
                    checksum = checksum.wrapping_add(packet.payload.iter().sum::<u64>());
                    if directory.len() > 4096 {
                        directory.clear();
                    }
                } else {
                    hops.push((next, out, packet));
                }
            }
        }
        for (next, out, packet) in hops {
            // The input port opposite the output it left by.
            let input = [1, 0, 3, 2, LOCAL][out];
            queues[next][input].push_back(packet);
        }
    }
    checksum.wrapping_add(directory.len() as u64)
}

/// Keeps the calling thread, and every thread it starts afterwards, on
/// the CPU it runs on now; returns that CPU, or `None` when the host
/// refuses. Call it before any other thread starts. The slices run on
/// the main thread, while the campaign's cells run on a pool worker;
/// unpinned, the two can sit on different vCPUs of a shared host, whose
/// speeds differ, and the slices then misjudge the pool's.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a number.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly
    // `size_of_val(&mask)` bytes that the call only reads; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Host time around a unit whose slices set its slowdown: the host's
/// speed drifts over tens of seconds, while a single slice is noisy.
pub const WINDOW_PAD_S: f64 = 5.0;

/// Times reference slices beside the simulator and keeps them.
#[derive(Debug)]
pub struct Calibrator {
    origin: Instant,
    /// `(start, host nanoseconds)` of every slice, the start in seconds
    /// since the calibrator was made.
    samples: Vec<(f64, u64)>,
    /// Host nanoseconds spent in slices, to take out of unit timings.
    spent_ns: u64,
    last: Instant,
    checksum: Option<u64>,
    /// Set when a slice's checksum differs from the first slice's.
    pub mismatch: bool,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        let now = Instant::now();
        Calibrator {
            origin: now,
            samples: Vec::new(),
            spent_ns: 0,
            last: now,
            checksum: None,
            mismatch: false,
        }
    }

    /// Seconds since the calibrator was made.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs one slice without keeping its time, so that the first kept
    /// slice does not pay for cold caches and a fresh heap.
    pub fn warm_up(&mut self) {
        self.checksum = Some(black_box(reference_model(black_box(SLICE_CYCLES))));
        self.last = Instant::now();
    }

    /// Times one slice now and returns its host nanoseconds.
    pub fn slice(&mut self) -> u64 {
        let at = self.now_s();
        let start = Instant::now();
        let sum = black_box(reference_model(black_box(SLICE_CYCLES)));
        let ns = start.elapsed().as_nanos() as u64;
        match self.checksum {
            None => self.checksum = Some(sum),
            Some(first) => self.mismatch |= first != sum,
        }
        self.samples.push((at, ns));
        self.spent_ns += ns;
        self.last = Instant::now();
        ns
    }

    /// Times a slice when [`INTERVAL`] has passed since the last one;
    /// returns the host nanoseconds spent (0 when none was due).
    pub fn poll(&mut self) -> u64 {
        if self.last.elapsed() >= INTERVAL {
            self.slice()
        } else {
            0
        }
    }

    /// Slices timed so far.
    pub fn slices(&self) -> usize {
        self.samples.len()
    }

    /// Host nanoseconds spent in slices so far.
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// The host's slowdown over `[from_s, to_s]` widened by
    /// [`WINDOW_PAD_S`] on each side: median slice time there ÷
    /// [`REFERENCE_SLICE_S`], above 1 on a host slower than the
    /// reference. `None` when no slice started in that window.
    pub fn slowdown(&self, from_s: f64, to_s: f64) -> Option<f64> {
        let inside: Vec<f64> = self
            .samples
            .iter()
            .filter(|(at, _)| (from_s - WINDOW_PAD_S..=to_s + WINDOW_PAD_S).contains(at))
            .map(|&(_, ns)| ns as f64 / 1e9)
            .collect();
        crate::stats::median(&inside).map(|m| m / REFERENCE_SLICE_S)
    }
}
