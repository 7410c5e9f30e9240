//! Host-speed references owned by the benchmark, never by the program,
//! so they do the same work on every commit of the repository.
//!
//! The host this benchmark runs on shares its caches and memory
//! bandwidth with other tenants, and its speed drifts by up to 2x over
//! minutes. Two references measure the host's current speed for the
//! two kinds of work the benchmark times:
//!
//! - the slice ([`slice`]): a small cache-and-memory-image simulation
//!   (set-associative tag lookups with LRU over the Setup-I geometry,
//!   sparse 4 KiB page-image writes, a generated address stream), the
//!   same kind of work as the simulator, timed at every interval
//!   boundary;
//! - the copy ([`CopyRef`]): the runs of each commit staged and applied
//!   between two benchmark-owned sparse images, timed right after the
//!   commit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Reference-slice host ns that defines nominal host speed: about the
/// slice on a quiet host.
pub const NOMINAL_NS: f64 = 350_000.0;

/// The factor that scales host time measured while the slice took
/// `slice_ns` to nominal host speed: `NOMINAL_NS / slice_ns` on a host
/// slower than nominal, 1 otherwise. A slice below nominal means a
/// quiet host, where the slice, whose working set is a few MiB, gains
/// far more than the simulator does (on the host of `RESULTS.md` slices
/// of 270–375 µs came with the same simulator throughput), so only
/// slowdowns are scaled.
pub fn speed_factor(slice_ns: f64) -> f64 {
    NOMINAL_NS / slice_ns.max(NOMINAL_NS)
}

/// Accesses per reference slice.
const SLICE_ACCESSES: u32 = 4096;
/// Pages the reference's memory image may hold.
const IMAGE_PAGES: u64 = 1024;

/// One set-associative level: `sets * ways` (tag, last-use) pairs.
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<(u64, u64)>,
}

impl Level {
    fn new(bytes: usize, ways: usize) -> Self {
        let sets = bytes / 64 / ways;
        Self {
            sets,
            ways,
            tags: vec![(u64::MAX, 0); sets * ways],
        }
    }

    /// Looks `line` up, filling it on a miss; returns whether it hit.
    fn access(&mut self, line: u64, clock: u64) -> bool {
        let set = (line as usize) % self.sets;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        if let Some(w) = ways.iter_mut().find(|w| w.0 == line) {
            w.1 = clock;
            return true;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|w| w.1)
            .expect("a level has at least one way");
        *victim = (line, clock);
        false
    }
}

/// The reference simulation.
struct RefSim {
    levels: [Level; 3],
    image: BTreeMap<u64, Box<[u8; 4096]>>,
    rng: u64,
    clock: u64,
    hot: u64,
}

impl Default for RefSim {
    fn default() -> Self {
        Self {
            levels: [
                Level::new(32 * 1024, 8),
                Level::new(512 * 1024, 16),
                Level::new(2 * 1024 * 1024, 16),
            ],
            image: BTreeMap::new(),
            rng: 0x9e37_79b9_7f4a_7c15,
            clock: 0,
            hot: 0,
        }
    }
}

impl RefSim {
    fn next(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Runs one slice of fixed work and returns its host ns.
    fn slice(&mut self) -> u64 {
        let t = Instant::now();
        let mut hits = 0u64;
        for _ in 0..SLICE_ACCESSES {
            let r = self.next();
            // A stack-like hot window (sequential) or a heap-like
            // random address over 64 MiB.
            let addr = if r % 10 < 7 {
                self.hot = (self.hot + 8) % (16 * 1024);
                0x7fff_0000_0000 + self.hot
            } else {
                0x5555_0000_0000 + (r >> 8) % (64 << 20)
            };
            self.clock += 1;
            let line = addr / 64;
            for level in &mut self.levels {
                if level.access(line, self.clock) {
                    hits += 1;
                    break;
                }
            }
            if r & 1 == 0 {
                let page = (addr / 4096) % IMAGE_PAGES;
                let off = (addr % 4096) as usize & !7;
                let chunk = self
                    .image
                    .entry(page)
                    .or_insert_with(|| Box::new([0u8; 4096]));
                chunk[off..off + 8].copy_from_slice(&r.to_le_bytes());
            }
        }
        std::hint::black_box(hits);
        t.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static REF: RefCell<Option<RefSim>> = const { RefCell::new(None) };
}

/// Runs one reference slice on this thread's reference simulation
/// (built and warmed on first use) and returns its host ns.
pub fn slice() -> u64 {
    REF.with(|r| {
        let mut r = r.borrow_mut();
        let sim = r.get_or_insert_with(|| {
            let mut sim = RefSim::default();
            for _ in 0..16 {
                sim.slice();
            }
            sim
        });
        sim.slice()
    })
}

/// A sparse byte image of 4 KiB chunks.
type Image = BTreeMap<u64, Box<[u8; 4096]>>;

/// The commit's reference: a benchmark-owned copy of the same runs a
/// commit copies, timed right after it. Like `PersistentProcess::commit`
/// it first asks `std::thread::available_parallelism()` (which reads
/// cgroup files, the largest cost of a small commit), then stages each
/// run from one sparse image into a buffer of its own and applies it
/// to a second image, as the commit does with the program's volatile
/// and persistent images. The images grow to the pages the runs touch,
/// so the reference walks a footprint as large as the commit's and
/// slows down with the host's kernel and memory system the way the
/// commit does, which a small fixed slice does not.
#[derive(Debug, Default)]
pub struct CopyRef {
    src: Image,
    dst: Image,
}

/// Host ns the reference takes at nominal host speed for the
/// parallelism query, per run, per byte and per distinct 4 KiB chunk a
/// commit touches (a cold chunk costs tree-walk and cache misses in
/// both images). They only fix what "nominal" means: a commit's time
/// is scaled by `nominal / measured` reference time over its block.
const COPY_NS_QUERY: f64 = 15_000.0;
const COPY_NS_PER_RUN: f64 = 120.0;
const COPY_NS_PER_BYTE: f64 = 0.1;
const COPY_NS_PER_CHUNK: f64 = 1200.0;

/// Calls `f(chunk, offset, len)` for each chunk piece of `[addr, addr + len)`.
fn pieces(addr: u64, len: u64, mut f: impl FnMut(u64, usize, usize)) {
    let mut pos = addr;
    let end = addr + len;
    while pos < end {
        let off = (pos % 4096) as usize;
        let take = ((end - pos) as usize).min(4096 - off);
        f(pos / 4096, off, take);
        pos += take as u64;
    }
}

impl CopyRef {
    /// Stages and applies `runs` (`(start, len)` pairs, ascending within
    /// each region) and returns the host ns it took and its nominal ns.
    /// Its memory stays out of the live-heap count.
    pub fn copy(&mut self, runs: impl Iterator<Item = (u64, u64)>) -> (u64, f64) {
        crate::alloc::uncounted(|| {
            let t = Instant::now();
            std::hint::black_box(std::thread::available_parallelism().ok());
            let mut staged: Vec<(u64, Vec<u8>)> = Vec::new();
            let (mut bytes, mut chunks, mut last) = (0, 0, u64::MAX);
            for (addr, len) in runs {
                let mut data = Vec::with_capacity(len as usize);
                pieces(addr, len, |id, off, take| {
                    let chunk = self.src.entry(id).or_insert_with(|| Box::new([0u8; 4096]));
                    data.extend_from_slice(&chunk[off..off + take]);
                    chunks += u64::from(id != last);
                    last = id;
                });
                bytes += len;
                staged.push((addr, data));
            }
            for (addr, data) in &staged {
                let mut at = 0;
                pieces(*addr, data.len() as u64, |id, off, take| {
                    let chunk = self.dst.entry(id).or_insert_with(|| Box::new([0u8; 4096]));
                    chunk[off..off + take].copy_from_slice(&data[at..at + take]);
                    at += take;
                });
            }
            std::hint::black_box(&staged);
            let nominal = COPY_NS_QUERY
                + COPY_NS_PER_RUN * staged.len() as f64
                + COPY_NS_PER_BYTE * bytes as f64
                + COPY_NS_PER_CHUNK * chunks as f64;
            drop(staged);
            (t.elapsed().as_nanos() as u64, nominal)
        })
    }
}

impl Drop for CopyRef {
    fn drop(&mut self) {
        crate::alloc::uncounted(|| {
            drop(std::mem::take(&mut self.src));
            drop(std::mem::take(&mut self.dst));
        });
    }
}

/// Median of reference-slice samples.
pub fn median(samples: &[u64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    match v.len() {
        0 => NOMINAL_NS,
        n if n % 2 == 1 => v[n / 2] as f64,
        n => (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0,
    }
}
