//! Sparse byte-addressable memory images.
//!
//! Used as the data plane of the crash-consistency machinery: the
//! workload's ground-truth memory and a thread's live and NVM
//! persistent stacks are all [`MemoryImage`]s, and restore-after-crash
//! verification compares images byte for byte.
//!
//! An image keeps its 4 KiB chunks in a [`SlotTable`] indexed by
//! chunk number, so every write, read and staged or applied run finds
//! each chunk it touches with a subtraction and one indexed load,
//! however many chunks are resident (a 256 MiB heap holds 65,536).
//! Reads, [`MemoryImage::matches`] and [`MemoryImage::first_mismatch`]
//! walk the requested range and look each chunk up, and a comparison
//! reads no chunk that neither image holds; equality compares the
//! resident chunks in address order. Each image is confined to one
//! tracked region, so its table spans a pointer per chunk of that
//! region at most. Writing never panics, because recovery's redo
//! writes images.

use prosper_memsim::addr::{VirtAddr, VirtRange};

use crate::slots::SlotTable;

/// Granularity of internal chunks (one 4 KiB page per chunk).
const CHUNK: u64 = 4096;

/// A sparse, byte-addressable memory image.
///
/// Unwritten bytes read as zero, matching demand-zeroed anonymous
/// memory. Two images are equal when the same chunks are resident with
/// the same bytes.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct MemoryImage {
    chunks: SlotTable<[u8; CHUNK as usize]>,
}

impl MemoryImage {
    /// Creates an empty (all-zero) image.
    pub fn new() -> Self {
        Self::default()
    }

    fn chunk_mut(&mut self, id: u64) -> &mut [u8; CHUNK as usize] {
        self.chunks
            .get_or_insert_with(id, || Box::new([0u8; CHUNK as usize]))
    }

    /// Writes `bytes` starting at `addr`.
    pub fn write(&mut self, addr: VirtAddr, bytes: &[u8]) {
        let mut pos = addr.raw();
        let mut remaining = bytes;
        while !remaining.is_empty() {
            let id = pos / CHUNK;
            let off = (pos % CHUNK) as usize;
            let take = remaining.len().min(CHUNK as usize - off);
            self.chunk_mut(id)[off..off + take].copy_from_slice(&remaining[..take]);
            pos += take as u64;
            remaining = &remaining[take..];
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(addr, len, &mut out);
        out
    }

    /// Appends the `len` bytes starting at `addr` to `out`, after
    /// whatever it already holds; allocates only if `out` must grow.
    pub fn read_into(&self, addr: VirtAddr, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        let mut pos = addr.raw();
        let mut remaining = len;
        while remaining > 0 {
            let id = pos / CHUNK;
            let off = (pos % CHUNK) as usize;
            let take = remaining.min(CHUNK as usize - off);
            match self.chunks.get(id) {
                Some(chunk) => out.extend_from_slice(&chunk[off..off + take]),
                None => out.resize(out.len() + take, 0),
            }
            pos += take as u64;
            remaining -= take;
        }
    }

    /// Returns `true` if `self` and `other` agree over `range`.
    pub fn matches(&self, other: &MemoryImage, range: VirtRange) -> bool {
        self.first_mismatch(other, range).is_none()
    }

    /// First differing address within `range`, if any (for diagnostics).
    ///
    /// Walks the range chunk by chunk and allocates nothing: a chunk
    /// neither image holds agrees without a byte read, and a chunk only
    /// one holds is compared with zeros.
    pub fn first_mismatch(&self, other: &MemoryImage, range: VirtRange) -> Option<VirtAddr> {
        static ZEROS: [u8; CHUNK as usize] = [0; CHUNK as usize];
        let mut pos = range.start().raw();
        let end = range.end().raw();
        while pos < end {
            let id = pos / CHUNK;
            let off = (pos % CHUNK) as usize;
            let take = ((end - pos).min(CHUNK - pos % CHUNK)) as usize;
            let (a, b) = (self.chunks.get(id), other.chunks.get(id));
            if a.is_some() || b.is_some() {
                let a = &a.unwrap_or(&ZEROS)[off..off + take];
                let b = &b.unwrap_or(&ZEROS)[off..off + take];
                if a != b {
                    let i = a
                        .iter()
                        .zip(b)
                        .position(|(x, y)| x != y)
                        .expect("unequal slices of one length differ at some byte");
                    return Some(VirtAddr::new(pos + i as u64));
                }
            }
            pos += take as u64;
        }
        None
    }

    /// Number of materialised 4 KiB chunks (diagnostics).
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let img = MemoryImage::new();
        assert_eq!(img.read(VirtAddr::new(0x5000), 4), vec![0, 0, 0, 0]);
        assert_eq!(img.resident_chunks(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut img = MemoryImage::new();
        img.write(VirtAddr::new(0x1234), b"hello");
        assert_eq!(img.read(VirtAddr::new(0x1234), 5), b"hello");
        assert_eq!(img.read(VirtAddr::new(0x1233), 1), vec![0]);
    }

    #[test]
    fn write_across_chunk_boundary() {
        let mut img = MemoryImage::new();
        let addr = VirtAddr::new(CHUNK - 2);
        img.write(addr, &[1, 2, 3, 4]);
        assert_eq!(img.read(addr, 4), vec![1, 2, 3, 4]);
        assert_eq!(img.resident_chunks(), 2);
    }

    #[test]
    fn mismatch_located() {
        let mut a = MemoryImage::new();
        let b = MemoryImage::new();
        a.write(VirtAddr::new(0x3005), &[1]);
        let range = VirtRange::new(VirtAddr::new(0x3000), VirtAddr::new(0x3010));
        assert!(!a.matches(&b, range));
        assert_eq!(a.first_mismatch(&b, range), Some(VirtAddr::new(0x3005)));
    }

    #[test]
    fn absent_chunks_read_as_zeros_in_comparisons() {
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        // A resident chunk of zeros matches an absent one.
        a.write(VirtAddr::new(0x7000), &[0; 16]);
        b.write(VirtAddr::new(CHUNK * 9 - 1), &[0, 5]);
        let range = VirtRange::new(VirtAddr::new(0x10), VirtAddr::new(CHUNK * 9 - 1));
        assert!(a.matches(&b, range));
        // A byte past a chunk edge, present in one image only.
        let wide = VirtRange::new(VirtAddr::new(0x10), VirtAddr::new(CHUNK * 12));
        assert_eq!(a.first_mismatch(&b, wide), Some(VirtAddr::new(CHUNK * 9)));
        assert_eq!(b.first_mismatch(&a, wide), Some(VirtAddr::new(CHUNK * 9)));
    }

    #[test]
    fn matches_empty_range() {
        let a = MemoryImage::new();
        let b = MemoryImage::new();
        let range = VirtRange::new(VirtAddr::new(0x100), VirtAddr::new(0x100));
        assert!(a.matches(&b, range));
        assert_eq!(a.first_mismatch(&b, range), None);
    }
}
