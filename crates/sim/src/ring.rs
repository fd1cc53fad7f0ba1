//! Packed metadata of a fixed-capacity ring over caller-provided storage.
//!
//! [`RingMeta`] is the metadata of one ring — head, length and capacity —
//! packed into a single `u64` word (16 bits each).  It owns no storage: the
//! ring's elements live in a caller-provided slice, so any number of rings
//! can share one backing pool at exact capacities.
//!
//! `RingMeta` is off the hot path.  Input VCs used to keep their packet slots
//! in such rings; they are now packet lists threaded through the arena (see
//! [`crate::buffer::InputVc`]), and the link pipelines are rings of slots
//! indexed by cycle with their own counters (see [`crate::fabric`]).  The
//! type is kept for the perf ledger's `sim.ring_push_pop_ns` primitive row,
//! which `benchmark/` times through the public API, and for its tests.

/// Packed metadata of one bounded FIFO ring: `head | len | cap`, 16 bits
/// each, in one `u64` word.
///
/// The word is the only per-ring state; the elements live in a caller-provided
/// slice of exactly `cap` elements.  Pushing beyond the capacity panics: a
/// ring's capacity is a bound its user proves, so an overflow is a bug, not a
/// load condition.
///
/// Wrap-around is a compare-and-subtract rather than a power-of-two mask:
/// exact-capacity slices pack tightly into the shared pools, which is worth
/// more than the mask (the branch is perfectly predicted in the steady state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMeta(u64);

const SHIFT_HEAD: u32 = 0;
const SHIFT_LEN: u32 = 16;
const SHIFT_CAP: u32 = 32;
const FIELD: u64 = 0xFFFF;

impl RingMeta {
    /// Metadata of an empty ring of `cap` elements (at most `u16::MAX`).
    pub fn new(cap: usize) -> Self {
        assert!(
            cap <= u16::MAX as usize,
            "ring capacity {cap} exceeds the 16-bit packed field"
        );
        Self((cap as u64) << SHIFT_CAP)
    }

    /// Physical index of the oldest element.
    #[inline]
    pub fn head(self) -> usize {
        ((self.0 >> SHIFT_HEAD) & FIELD) as usize
    }

    /// Number of elements currently held.
    #[inline]
    pub fn len(self) -> usize {
        ((self.0 >> SHIFT_LEN) & FIELD) as usize
    }

    /// The fixed capacity the ring was built with.
    #[inline]
    pub fn capacity(self) -> usize {
        ((self.0 >> SHIFT_CAP) & FIELD) as usize
    }

    /// True when the ring holds no elements.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn set_head(&mut self, head: usize) {
        self.0 = (self.0 & !(FIELD << SHIFT_HEAD)) | ((head as u64) << SHIFT_HEAD);
    }

    #[inline]
    fn set_len(&mut self, len: usize) {
        self.0 = (self.0 & !(FIELD << SHIFT_LEN)) | ((len as u64) << SHIFT_LEN);
    }

    /// Physical index of logical position `i` (caller guarantees `i < len`).
    #[inline]
    fn phys(self, i: usize) -> usize {
        let cap = self.capacity();
        let p = self.head() + i;
        if p >= cap {
            p - cap
        } else {
            p
        }
    }

    /// Reserve the next tail slot: asserts the ring is not full, bumps `len`
    /// and returns the physical index the new
    /// element must be written to.  Storage-agnostic core of every push.
    #[inline]
    pub fn push_slot(&mut self) -> usize {
        let len = self.len();
        assert!(
            len < self.capacity(),
            "ring overflow: capacity {} exceeded",
            self.capacity()
        );
        let pos = self.phys(len);
        self.set_len(len + 1);
        pos
    }

    /// Release the head slot: returns its physical index and advances `head`,
    /// or `None` when the ring is empty.  Storage-agnostic core of every pop.
    #[inline]
    pub fn pop_slot(&mut self) -> Option<usize> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        let pos = self.head();
        let next = pos + 1;
        self.set_head(if next == self.capacity() { 0 } else { next });
        self.set_len(len - 1);
        Some(pos)
    }

    // --- Slice-backed ring view -------------------------------------------
    //
    // The methods below treat `buf` (a slice of exactly `capacity` elements,
    // typically a sub-slice of a shared pool) as the ring's storage.

    /// Append an element; panics if the ring is full.
    #[inline]
    pub fn push_back<T: Copy>(&mut self, buf: &mut [T], value: T) {
        debug_assert_eq!(buf.len(), self.capacity());
        let pos = self.push_slot();
        buf[pos] = value;
    }

    /// Remove and return the oldest element.
    #[inline]
    pub fn pop_front<T: Copy>(&mut self, buf: &[T]) -> Option<T> {
        debug_assert_eq!(buf.len(), self.capacity());
        self.pop_slot().map(|pos| buf[pos])
    }

    /// The oldest element, if any.
    #[inline]
    pub fn front<'a, T>(&self, buf: &'a [T]) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&buf[self.head()])
        }
    }

    /// Mutable access to the oldest element, if any.
    #[inline]
    pub fn front_mut<'a, T>(&self, buf: &'a mut [T]) -> Option<&'a mut T> {
        if self.is_empty() {
            None
        } else {
            Some(&mut buf[self.head()])
        }
    }

    /// Mutable access to the newest element, if any.
    #[inline]
    pub fn back_mut<'a, T>(&self, buf: &'a mut [T]) -> Option<&'a mut T> {
        let len = self.len();
        if len == 0 {
            None
        } else {
            Some(&mut buf[self.phys(len - 1)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut buf = [0; 4];
        let mut r = RingMeta::new(4);
        r.push_back(&mut buf, 1);
        r.push_back(&mut buf, 2);
        r.push_back(&mut buf, 3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.front(&buf), Some(&1));
        assert_eq!(r.pop_front(&buf), Some(1));
        assert_eq!(r.pop_front(&buf), Some(2));
        assert_eq!(r.pop_front(&buf), Some(3));
        assert_eq!(r.pop_front(&buf), None);
        assert!(r.is_empty());
    }

    #[test]
    fn wraparound_at_exactly_capacity() {
        // Fill to capacity, drain, and refill repeatedly so head sweeps the
        // whole physical buffer and every push after the first lap lands on a
        // wrapped index.
        let mut buf = [0u32; 3];
        let mut r = RingMeta::new(3);
        for lap in 0..5u32 {
            for i in 0..3 {
                r.push_back(&mut buf, lap * 10 + i);
            }
            assert_eq!(r.len(), r.capacity());
            for i in 0..3 {
                assert_eq!(r.pop_front(&buf), Some(lap * 10 + i));
            }
        }
    }

    #[test]
    fn interleaved_push_pop_wraps() {
        let mut buf = [0; 2];
        let mut r = RingMeta::new(2);
        r.push_back(&mut buf, 0);
        for i in 1..100 {
            r.push_back(&mut buf, i);
            assert_eq!(r.pop_front(&buf), Some(i - 1));
        }
        assert_eq!(r.pop_front(&buf), Some(99));
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut buf = [0; 2];
        let mut r = RingMeta::new(2);
        r.push_back(&mut buf, 1);
        r.push_back(&mut buf, 2);
        r.push_back(&mut buf, 3);
    }

    #[test]
    fn front_back_mut() {
        let mut buf = [0; 2];
        let mut r = RingMeta::new(2);
        r.push_back(&mut buf, 10);
        r.push_back(&mut buf, 20);
        *r.front_mut(&mut buf).unwrap() += 1;
        *r.back_mut(&mut buf).unwrap() += 2;
        assert_eq!(r.pop_front(&buf), Some(11));
        assert_eq!(r.pop_front(&buf), Some(22));
    }

    #[test]
    fn zero_capacity_ring_is_empty_forever() {
        let buf: [u8; 0] = [];
        let r = RingMeta::new(0);
        assert!(r.is_empty());
        assert_eq!(r.capacity(), 0);
        assert_eq!(r.front(&buf), None);
    }

    // --- RingMeta slice-backed view ---------------------------------------

    #[test]
    fn meta_view_fifo_over_a_shared_pool() {
        // Two rings sharing one pool, back to back at exact capacities.
        let mut pool = [0u32; 5];
        let (mut a, mut b) = (RingMeta::new(2), RingMeta::new(3));
        let (pa, pb) = pool.split_at_mut(2);
        a.push_back(pa, 10);
        b.push_back(pb, 20);
        a.push_back(pa, 11);
        b.push_back(pb, 21);
        assert_eq!(a.pop_front(pa), Some(10));
        assert_eq!(b.front(pb), Some(&20));
        assert_eq!(a.pop_front(pa), Some(11));
        assert_eq!(b.pop_front(pb), Some(20));
        assert_eq!(b.pop_front(pb), Some(21));
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn meta_packed_word_roundtrip() {
        let mut pool = [0u8; 3];
        let mut m = RingMeta::new(3);
        m.push_back(&mut pool, 1);
        m.push_back(&mut pool, 2);
        m.pop_front(&pool);
        // Each lane reads back what the pushes and the pop wrote into it.
        assert_eq!(m.head(), 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.capacity(), 3);
        assert_eq!(std::mem::size_of::<RingMeta>(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit packed field")]
    fn meta_rejects_oversized_capacity() {
        RingMeta::new(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn meta_wraparound_is_branch_not_mask() {
        // Capacity 3 (not a power of two): the wrap must land on index 0.
        let mut pool = [0i32; 3];
        let mut m = RingMeta::new(3);
        for i in 0..3 {
            m.push_back(&mut pool, i);
        }
        m.pop_front(&pool);
        m.push_back(&mut pool, 3); // physically wraps to index 0
        assert_eq!(pool[0], 3);
        let v: Vec<i32> = std::iter::from_fn(|| m.pop_front(&pool)).collect();
        assert_eq!(v, vec![1, 2, 3]);
    }
}
