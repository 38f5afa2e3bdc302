//! Fixed-capacity ring buffer for the pipeline's fetch queue.

/// A bounded FIFO over a power-of-two buffer.
///
/// The fetch queue and its branch side ring are bounded by configuration
/// and used on every cycle, which makes `VecDeque` a poor fit: its
/// capacity is not guaranteed to be a power of two, so each element
/// access pays a wrap *branch* rather than a mask. `Ring` fixes the
/// capacity at construction (rounded up to a power of two) so every
/// logical→physical index translation is a single AND. (The RUU is not a
/// ring: it is the pipeline's 64-slot window, indexed by sequence
/// number.)
///
/// `T: Copy` keeps the implementation entirely safe Rust: the buffer is
/// pre-filled with a caller-supplied fill value and popped slots simply
/// hold stale copies — nothing is ever dropped or uninitialized.
#[derive(Clone, Debug)]
pub(crate) struct Ring<T> {
    buf: Box<[T]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Physical index of the logical front element.
    head: usize,
    len: usize,
}

impl<T: Copy> Ring<T> {
    /// A ring holding at least `cap` elements, pre-filled with `fill`
    /// (an arbitrary placeholder — never observable through the API).
    pub fn with_capacity(cap: usize, fill: T) -> Self {
        let size = cap.max(1).next_power_of_two();
        Self {
            buf: vec![fill; size].into_boxed_slice(),
            mask: size - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.buf[self.head])
    }

    /// Appends to the tail. The caller keeps `len()` under the configured
    /// queue limit (always ≤ capacity); overflowing is a logic error.
    #[inline]
    pub fn push_back(&mut self, value: T) {
        debug_assert!(self.len <= self.mask, "ring overflow");
        self.buf[(self.head + self.len) & self.mask] = value;
        self.len += 1;
    }

    /// Removes the front element without copying it out — for callers
    /// that already read what they need through [`Ring::front`].
    #[inline]
    pub fn drop_front(&mut self) {
        debug_assert!(self.len > 0, "drop_front on empty ring");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    #[cfg(test)]
    pub fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let value = self.buf[self.head];
        self.drop_front();
        Some(value)
    }

    #[inline]
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_with_wraparound() {
        let mut r = Ring::with_capacity(3, 0u32); // rounds up to 4
        assert!(r.is_empty());
        assert_eq!(r.front(), None);
        // Cycle enough values through to wrap the physical buffer twice.
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for _ in 0..5 {
            while r.len() < 3 {
                r.push_back(next_in);
                next_in += 1;
            }
            assert_eq!(r.front(), Some(&next_out));
            while let Some(v) = r.pop_front() {
                assert_eq!(v, next_out);
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn clear_resets_to_empty() {
        let mut r = Ring::with_capacity(2, 7u8);
        r.push_back(1);
        r.push_back(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.pop_front(), None);
        r.push_back(3);
        assert_eq!(r.front(), Some(&3));
    }
}
