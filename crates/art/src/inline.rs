//! A fixed-capacity inline vector for traversal scratch state.
//!
//! Range scans and ordered iteration keep one short, hot scratch buffer:
//! the stack of inner nodes on the current root-to-leaf path, bounded by
//! the key length (which the workloads keep under a couple dozen bytes).
//! [`InlineVec`] keeps it inside the cursor and only spills to the heap for
//! the rare deep case (long string keys), so a scan allocates nothing.

use std::ops::Deref;

/// A vector of `Copy` elements that stores up to `N` of them inline and
/// transparently spills to a heap `Vec` beyond that.
#[derive(Clone, Debug)]
pub(crate) enum InlineVec<T: Copy + Default, const N: usize> {
    /// Elements live in a stack array; only `buf[..len]` is meaningful.
    Inline {
        /// Inline storage; slots past `len` hold `T::default()` filler.
        buf: [T; N],
        /// Number of live elements.
        len: usize,
    },
    /// Capacity exceeded `N`; elements moved to the heap.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector with all-inline storage.
    pub(crate) fn new() -> Self {
        InlineVec::Inline { buf: [T::default(); N], len: 0 }
    }

    /// Appends one element, spilling to the heap when the inline buffer
    /// is full.
    pub(crate) fn push(&mut self, value: T) {
        match self {
            InlineVec::Inline { buf, len } => {
                if *len < N {
                    buf[*len] = value;
                    *len += 1;
                } else {
                    let mut heap = Vec::with_capacity(2 * N);
                    heap.extend_from_slice(&buf[..*len]);
                    heap.push(value);
                    *self = InlineVec::Heap(heap);
                }
            }
            InlineVec::Heap(v) => v.push(value),
        }
    }

    /// Removes and returns the last element.
    pub(crate) fn pop(&mut self) -> Option<T> {
        match self {
            InlineVec::Inline { buf, len } => {
                *len = len.checked_sub(1)?;
                Some(buf[*len])
            }
            InlineVec::Heap(v) => v.pop(),
        }
    }

    /// The last element, mutably.
    pub(crate) fn last_mut(&mut self) -> Option<&mut T> {
        match self {
            InlineVec::Inline { buf, len } => buf[..*len].last_mut(),
            InlineVec::Heap(v) => v.last_mut(),
        }
    }

    /// Empties the vector, keeping whichever storage it has grown into.
    pub(crate) fn clear(&mut self) {
        match self {
            InlineVec::Inline { len, .. } => *len = 0,
            InlineVec::Heap(v) => v.clear(),
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { buf, len } => &buf[..*len],
            InlineVec::Heap(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u8, 4> = InlineVec::new();
        for b in 0..4u8 {
            v.push(b);
        }
        assert!(matches!(v, InlineVec::Inline { .. }));
        assert_eq!(&*v, &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_to_heap_past_capacity() {
        let mut v: InlineVec<u8, 4> = InlineVec::new();
        for b in 0..9u8 {
            v.push(b);
        }
        assert!(matches!(v, InlineVec::Heap(_)));
        assert_eq!(&*v, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn pop_last_mut_and_clear_agree_across_the_spill() {
        for count in [3u8, 9] {
            let mut v: InlineVec<u8, 4> = InlineVec::new();
            for b in 0..count {
                v.push(b);
            }
            *v.last_mut().unwrap() += 100;
            assert_eq!(v.pop(), Some(count - 1 + 100));
            assert_eq!(v.len(), usize::from(count) - 1);
            v.clear();
            assert_eq!(v.pop(), None);
            assert!(v.last_mut().is_none());
            v.push(7);
            assert_eq!(&*v, &[7]);
        }
    }
}
