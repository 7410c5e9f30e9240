//! Pages found by index: the one page store under the data-plane
//! image and the dirty bitmap.
//!
//! A [`SlotTable`] keeps the page number of its slot 0 and one
//! optional boxed page per page number from there to the highest page
//! written, so finding a page is a subtraction and one indexed load —
//! the flat layout of the paper's DRAM bitmap, where the tracker finds
//! a word at the programmed base plus an offset. Both users confine a
//! table to one tracked region (a stack, or a heap range), so its span
//! stays small: a pointer per page of the region at most.

/// Boxed pages indexed by page number.
///
/// Slot `i` holds page `first + i`. The table grows at either end to
/// reach a page it does not span, in amortized O(1) per page; a lookup
/// or removal outside the span finds nothing and grows nothing. Two
/// tables are equal when they hold the same pages with equal contents,
/// whatever order they grew in.
///
/// # Examples
///
/// ```
/// use prosper_gemos::slots::SlotTable;
///
/// let mut t: SlotTable<u32> = SlotTable::new();
/// *t.get_or_insert_with(40, Box::default) = 7;
/// *t.get_or_insert_with(10, Box::default) = 3; // grows at the front
/// assert_eq!(t.get(40), Some(&7));
/// assert_eq!(t.get(11), None);
/// t.remove(40);
/// assert_eq!((t.get(40), t.len()), (None, 1));
/// ```
#[derive(Clone, Debug)]
pub struct SlotTable<T> {
    /// Page number of slot 0.
    first: u64,
    /// One optional page per page number from `first` on.
    slots: Vec<Option<Box<T>>>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self {
            first: 0,
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> SlotTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no page.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of page `id`, if the table spans it.
    fn index(&self, id: u64) -> Option<usize> {
        let i = id.wrapping_sub(self.first);
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// Page `id`, if held.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots[self.index(id)?].as_deref()
    }

    /// Page `id` for writing, if held.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots[i].as_deref_mut()
    }

    /// Page `id`, inserting `make()` first if it is not held.
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> Box<T>) -> &mut T {
        let i = self.grow_to(id);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Frees page `id`'s slot, if it holds a page.
    pub fn remove(&mut self, id: u64) {
        if let Some(i) = self.index(id) {
            self.len -= usize::from(self.slots[i].take().is_some());
        }
    }

    /// Every held page with its page number, in page order.
    fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        (self.first..)
            .zip(&self.slots)
            .filter_map(|(id, slot)| Some((id, slot.as_deref()?)))
    }

    /// Slot index of page `id`, growing the span to reach it. Growing
    /// at the front adds at least as many slots as the table holds, so
    /// a stack written from its top down copies the table a
    /// logarithmic number of times, not once per page; growing at the
    /// back is `Vec`'s own doubling. No bound is asserted: recovery's
    /// redo writes images, so this path must not panic.
    fn grow_to(&mut self, id: u64) -> usize {
        if self.slots.is_empty() {
            self.first = id;
        } else if id < self.first {
            // Never below page 0: `first - id` is at most `first`.
            let grow = (self.first - id)
                .max(self.slots.len() as u64)
                .min(self.first);
            let mut grown = Vec::with_capacity(self.slots.len() + grow as usize);
            grown.resize_with(grow as usize, || None);
            grown.append(&mut self.slots);
            self.slots = grown;
            self.first -= grow;
        }
        let i = (id - self.first) as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        i
    }
}

impl<T: PartialEq> PartialEq for SlotTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SlotTable<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_outside_the_span_find_nothing_and_grow_nothing() {
        let mut t: SlotTable<u8> = SlotTable::new();
        assert_eq!(t.get(5), None);
        t.remove(5);
        t.get_or_insert_with(100, || Box::new(1));
        for id in [0, 99, 101, u64::MAX] {
            assert_eq!(t.get(id), None);
            assert_eq!(t.get_mut(id), None);
            t.remove(id);
        }
        assert_eq!((t.first, t.slots.len(), t.len()), (100, 1, 1));
    }

    #[test]
    fn grows_at_both_ends_and_keeps_pages() {
        let mut t: SlotTable<u64> = SlotTable::new();
        for id in [50, 20, 80, 19, 81, 0] {
            *t.get_or_insert_with(id, Box::default) = id * 10;
        }
        for id in [50, 20, 80, 19, 81, 0] {
            assert_eq!(t.get(id), Some(&(id * 10)));
        }
        assert_eq!(t.len(), 6);
        assert_eq!(t.first, 0, "front growth stops at page 0");
        let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [0, 19, 20, 50, 80, 81]);
    }

    #[test]
    fn downward_writes_grow_the_front_geometrically() {
        let mut t: SlotTable<u8> = SlotTable::new();
        let top = 1 << 20;
        t.get_or_insert_with(top, Box::default);
        let mut copies = 0;
        for id in (top - 4096..top).rev() {
            let before = t.first;
            t.get_or_insert_with(id, Box::default);
            copies += usize::from(t.first != before);
        }
        assert_eq!(t.len(), 4097);
        assert!(copies <= 13, "front regrown {copies} times for 4,097 pages");
        assert!(t.slots.len() <= 2 * 4097);
    }

    #[test]
    fn remove_frees_the_slot() {
        let mut t: SlotTable<u8> = SlotTable::new();
        t.get_or_insert_with(7, || Box::new(9));
        t.remove(7);
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
        t.remove(7);
        assert!(t.is_empty(), "removing a free slot changes nothing");
        assert_eq!(*t.get_or_insert_with(7, || Box::new(4)), 4);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn equality_ignores_growth_order_and_empty_slots() {
        let mut up: SlotTable<u8> = SlotTable::new();
        let mut down: SlotTable<u8> = SlotTable::new();
        for id in 10..20 {
            *up.get_or_insert_with(id, Box::default) = id as u8;
        }
        for id in (10..20).rev() {
            *down.get_or_insert_with(id, Box::default) = id as u8;
        }
        down.get_or_insert_with(3, Box::default);
        down.remove(3);
        assert_ne!(up.slots.len(), down.slots.len());
        assert_eq!(up, down);
        *down.get_mut(15).unwrap() = 0;
        assert_ne!(up, down);
        *down.get_mut(15).unwrap() = 15;
        down.get_or_insert_with(25, Box::default);
        assert_ne!(up, down, "an extra page breaks equality");
    }
}
