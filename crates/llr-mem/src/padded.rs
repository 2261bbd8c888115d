//! Cache-line padding for contended registers.

use std::fmt;

/// Pads and aligns a value to the size of a cache line, so that two
/// neighbouring `CachePadded` values never share a line.
///
/// The renaming protocols allocate their shared registers contiguously
/// (see [`crate::Layout`]), which is ideal for the model checker's
/// snapshots but terrible under real contention: a splitter's `LAST`,
/// `ADVICE[1]` and `ADVICE[2]` land in the *same* 64-byte line, so every
/// write by one process invalidates the line in every other process's
/// cache even when they touch different registers (false sharing).
/// [`crate::AtomicMemory`] therefore stores its cells as
/// `CachePadded<AtomicU64>` when the layout's [`crate::MemPolicy`] asks
/// for padding.
///
/// The alignment is 128 bytes on `x86_64` and `aarch64` — on those
/// architectures the adjacent-line prefetcher effectively couples pairs
/// of 64-byte lines — and 64 bytes elsewhere.
///
/// # Example
///
/// ```
/// use llr_mem::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let cells: Vec<CachePadded<AtomicU64>> =
///     (0..4).map(|v| CachePadded::new(AtomicU64::new(v))).collect();
/// // Each cell starts on its own cache line:
/// assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 64);
/// assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(),
///            std::mem::size_of::<CachePadded<AtomicU64>>());
/// let _ = &cells;
/// ```
#[cfg_attr(any(target_arch = "x86_64", target_arch = "aarch64"), repr(align(128)))]
#[cfg_attr(
    not(any(target_arch = "x86_64", target_arch = "aarch64")),
    repr(align(64))
)]
#[derive(Default)]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value` out to its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn size_is_a_full_line() {
        let sz = std::mem::size_of::<CachePadded<AtomicU64>>();
        let align = std::mem::align_of::<CachePadded<AtomicU64>>();
        assert!(sz >= 64, "padded cell smaller than a cache line: {sz}");
        assert_eq!(sz, align, "padding must round size up to the alignment");
        assert!(sz.is_power_of_two());
    }

    #[test]
    fn neighbours_never_share_a_line() {
        let cells: Vec<CachePadded<AtomicU64>> = (0..8)
            .map(|v| CachePadded::new(AtomicU64::new(v)))
            .collect();
        for w in cells.windows(2) {
            let a = &*w[0] as *const AtomicU64 as usize;
            let b = &*w[1] as *const AtomicU64 as usize;
            assert!(b - a >= 64, "cells {a:#x} and {b:#x} share a line");
        }
    }

    #[test]
    fn deref_and_into_inner() {
        let mut c = CachePadded::new(AtomicU64::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7);
        *c.get_mut() = 9;
        assert_eq!(c.into_inner().into_inner(), 9);
    }

    #[test]
    fn debug_and_from() {
        let c: CachePadded<u64> = 5u64.into();
        assert_eq!(format!("{c:?}"), "CachePadded(5)");
    }
}
