//! Property-based tests of the core invariants, spanning crates.

use proptest::prelude::*;
use prosper_repro::core::bitmap::{BitmapGeometry, DirtyBitmap};
use prosper_repro::core::lookup::{AllocPolicy, BitmapOp, LookupTable};
use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::gemos::image::MemoryImage;
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const RANGE_LO: u64 = 0x7000_0000;
const RANGE_HI: u64 = 0x7010_0000;

fn stack_range() -> VirtRange {
    VirtRange::new(VirtAddr::new(RANGE_LO), VirtAddr::new(RANGE_HI))
}

/// Base and size of the region the image round-trip writes into: a
/// heap-sized range, so chunk numbers are large and far apart.
const IMAGE_BASE: u64 = 0x5555_0000_0000;
const IMAGE_SPAN: u64 = 512 << 20;

/// An offset into the image region: mostly clustered near its base,
/// sometimes anywhere in it, so one image holds chunks far apart.
fn arb_image_offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..0x8000,
        1 => 0u64..IMAGE_SPAN - 0x1000,
    ]
}

proptest! {
    /// The tracker + bitmap pipeline never loses a dirty granule: for
    /// any store sequence, after a flush, the set of granules marked
    /// in the bitmap equals the exact dirty set.
    #[test]
    fn tracker_bitmap_is_exact(
        offsets in prop::collection::vec(0u64..0x10_000, 1..200),
        granularity_pow in 0u32..5,
    ) {
        let granularity = 8u64 << granularity_pow;
        let cfg = TrackerConfig::default().with_granularity(granularity);
        let mut tracker = DirtyTracker::new(cfg);
        tracker.configure(stack_range(), VirtAddr::new(0x1000_0000));

        let mut expected: BTreeSet<u64> = BTreeSet::new();
        let mut ops = Vec::new();
        for &off in &offsets {
            let addr = RANGE_LO + (off & !7);
            tracker.observe_store(VirtAddr::new(addr), 8, &mut ops);
            let first = (addr - RANGE_LO) / granularity;
            let last = (addr + 7 - RANGE_LO) / granularity;
            for granule in first..=last {
                expected.insert(granule);
            }
        }
        tracker.flush();
        prop_assert_eq!(tracker.bitmap().total_set_bits(), expected.len() as u64);

        // Inspection must produce runs covering exactly the dirty set.
        let geom = tracker.geometry();
        let (runs, _) = tracker
            .bitmap_mut()
            .inspect_and_clear(&geom, stack_range());
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        for run in &runs {
            prop_assert_eq!(run.len % granularity, 0);
            let first = (run.start.raw() - RANGE_LO) / granularity;
            for g in 0..run.len / granularity {
                prop_assert!(covered.insert(first + g), "runs never overlap");
            }
        }
        prop_assert_eq!(covered, expected);
    }

    /// Both lookup-table allocation policies produce the same final
    /// bitmap contents (they differ only in traffic timing).
    #[test]
    fn alloc_policies_agree_on_final_bitmap(
        words in prop::collection::vec((0u64..64, 0u32..32), 1..300),
    ) {
        let run = |policy: AllocPolicy| {
            let mut table = LookupTable::new(16, 24, 8, policy);
            let mut mem: HashMap<u64, u32> = HashMap::new();
            let apply = |mem: &mut HashMap<u64, u32>, ops: &[BitmapOp]| {
                for op in ops {
                    if let BitmapOp::Store(a, v) = op {
                        // Stores carry the merged value under A&A and
                        // the latest value under L&U; OR is safe for
                        // both because bits are only ever set.
                        *mem.entry(*a).or_insert(0) |= *v;
                    }
                }
            };
            for &(word, bit) in &words {
                let addr = 0x1000 + word * 4;
                let snapshot = mem.clone();
                let mut ops = Vec::new();
                table.record(addr, bit, &mut |a| {
                    snapshot.get(&a).copied().unwrap_or(0)
                }, &mut ops);
                apply(&mut mem, &ops);
            }
            let snapshot = mem.clone();
            let ops = table.flush_all(&mut |a| snapshot.get(&a).copied().unwrap_or(0));
            apply(&mut mem, &ops);
            mem
        };
        let a = run(AllocPolicy::AccumulateAndApply);
        let b = run(AllocPolicy::LoadAndUpdate);
        // Compare non-zero words.
        let norm = |m: HashMap<u64, u32>| -> Vec<(u64, u32)> {
            let mut v: Vec<(u64, u32)> = m.into_iter().filter(|(_, w)| *w != 0).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(norm(a), norm(b));
    }

    /// MemoryImage write/read round-trips arbitrary data at arbitrary
    /// (possibly chunk-straddling) addresses inside one 512 MiB
    /// region: clustered near its base or on chunks far apart, applied
    /// in the given order or from the highest address down (so the
    /// chunk table grows at the front). `read_into` appends after what
    /// the buffer holds, unwritten bytes read zero below, across and
    /// above the written span, one chunk is resident per distinct
    /// 4 KiB chunk written, and images holding the same bytes in the
    /// same chunks are equal whatever order their tables grew in and
    /// agree over each chunk and over the whole region.
    #[test]
    fn memory_image_roundtrip(
        writes in prop::collection::vec((arb_image_offset(), prop::collection::vec(any::<u8>(), 1..128)), 1..40),
        descending in any::<bool>(),
        probe in (0u64..0x9000, 1usize..256),
    ) {
        let mut writes = writes;
        if descending {
            writes.sort_by_key(|(off, _)| std::cmp::Reverse(*off));
        }
        let mut img = MemoryImage::new();
        let mut shadow: BTreeMap<u64, u8> = BTreeMap::new();
        for (off, data) in &writes {
            img.write(VirtAddr::new(IMAGE_BASE + off), data);
            for (i, b) in data.iter().enumerate() {
                shadow.insert(IMAGE_BASE + off + i as u64, *b);
            }
        }
        let expected = |at: u64, len: usize| -> Vec<u8> {
            (at..at + len as u64)
                .map(|a| shadow.get(&a).copied().unwrap_or(0))
                .collect()
        };
        for (off, data) in &writes {
            let got = img.read(VirtAddr::new(IMAGE_BASE + off), data.len());
            prop_assert_eq!(got, expected(IMAGE_BASE + off, data.len()));
        }
        // A probe that may reach past every write: bytes never written
        // read zero, appended after what the buffer already holds.
        let (at, len) = probe;
        let mut buf = vec![0xEE; 3];
        img.read_into(VirtAddr::new(IMAGE_BASE + at), len, &mut buf);
        prop_assert_eq!(&buf[..3], &[0xEE; 3]);
        prop_assert_eq!(&buf[3..], &expected(IMAGE_BASE + at, len)[..]);
        // Reads wholly below and above the written span, and across
        // each of its ends.
        let lo = *shadow.keys().next().unwrap();
        let hi = *shadow.keys().next_back().unwrap() + 1;
        for at in [
            lo.saturating_sub(0x10_0000 + len as u64),
            (lo & !4095).saturating_sub(len as u64 / 2 + 1),
            lo.saturating_sub(len as u64 / 2),
            hi - 1,
            hi.next_multiple_of(4096) - len as u64 / 2,
            hi + 0x10_0000,
        ] {
            prop_assert_eq!(img.read(VirtAddr::new(at), len), expected(at, len), "read at {:#x}", at);
        }
        let chunks: BTreeSet<u64> = shadow.keys().map(|a| a / 4096).collect();
        prop_assert_eq!(img.resident_chunks(), chunks.len());
        // The same final bytes, written one at a time from the highest
        // address down and from the lowest up: three tables grown in
        // three orders hold one image.
        let mut down = MemoryImage::new();
        for (&a, &b) in shadow.iter().rev() {
            down.write(VirtAddr::new(a), &[b]);
        }
        let mut up = MemoryImage::new();
        for (&a, &b) in &shadow {
            up.write(VirtAddr::new(a), &[b]);
        }
        let chunk_range = |c: u64| VirtRange::new(VirtAddr::new(c * 4096), VirtAddr::new((c + 1) * 4096));
        let region = VirtRange::new(VirtAddr::new(IMAGE_BASE), VirtAddr::new(IMAGE_BASE + IMAGE_SPAN));
        for other in [&down, &up] {
            for &c in &chunks {
                prop_assert!(img.matches(other, chunk_range(c)));
                prop_assert_eq!(img.first_mismatch(other, chunk_range(c)), None);
            }
            prop_assert!(img.matches(other, region));
            prop_assert!(img == *other, "same chunks, same bytes");
        }
        // One changed byte, or one more resident chunk, breaks equality.
        let mut changed = up.clone();
        changed.write(VirtAddr::new(lo), &[shadow[&lo] ^ 1]);
        prop_assert!(img != changed);
        prop_assert_eq!(img.first_mismatch(&changed, chunk_range(lo / 4096)), Some(VirtAddr::new(lo)));
        prop_assert_eq!(img.first_mismatch(&changed, region), Some(VirtAddr::new(lo)));
        let mut extra = up;
        extra.write(VirtAddr::new(IMAGE_BASE + IMAGE_SPAN + 0x2000), &[0]);
        prop_assert!(img != extra, "a resident chunk of zeros is still resident");
    }

    /// Bitmap geometry locate/granule_start round-trips for any
    /// address and granularity.
    #[test]
    fn geometry_roundtrip(off in 0u64..0x100_000, granularity_pow in 0u32..6) {
        let granularity = 8u64 << granularity_pow;
        let geom = BitmapGeometry {
            range_start: VirtAddr::new(RANGE_LO),
            bitmap_base: VirtAddr::new(0x1000_0000),
            granularity,
        };
        let addr = VirtAddr::new(RANGE_LO + off);
        let (word, bit) = geom.locate(addr);
        prop_assert!(bit < 32);
        let back = geom.granule_start(word, bit);
        prop_assert!(back <= addr);
        prop_assert!(addr - back < granularity);
    }

    /// Inspection after merging arbitrary words clears everything in
    /// the window and nothing outside it.
    #[test]
    fn inspect_clears_only_window(
        inside in prop::collection::vec((0u64..32, 1u32..u32::MAX), 1..20),
        outside in prop::collection::vec((100u64..132, 1u32..u32::MAX), 1..20),
    ) {
        let geom = BitmapGeometry {
            range_start: VirtAddr::new(RANGE_LO),
            bitmap_base: VirtAddr::new(0x1000_0000),
            granularity: 8,
        };
        let mut bm = DirtyBitmap::new();
        for &(w, v) in &inside {
            bm.merge_word(0x1000_0000 + w * 4, v);
        }
        for &(w, v) in &outside {
            bm.merge_word(0x1000_0000 + w * 4, v);
        }
        let outside_bits: u64 = (100u64..132)
            .map(|w| u64::from(bm.read_word(0x1000_0000 + w * 4).count_ones()))
            .sum();
        // Window covers words 0..32 => granule bytes 0 .. 32*256.
        let window = VirtRange::new(
            VirtAddr::new(RANGE_LO),
            VirtAddr::new(RANGE_LO + 32 * 256),
        );
        bm.inspect_and_clear(&geom, window);
        for w in 0u64..32 {
            prop_assert_eq!(bm.read_word(0x1000_0000 + w * 4), 0);
        }
        let outside_after: u64 = (100u64..132)
            .map(|w| u64::from(bm.read_word(0x1000_0000 + w * 4).count_ones()))
            .sum();
        prop_assert_eq!(outside_after, outside_bits);
    }
}
