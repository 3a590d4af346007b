//! A short sequence kept inside its owner, spilling to the heap only
//! when it outgrows its inline capacity.
//!
//! Per-transaction engines keep a few such sequences — a participant's
//! audit trail, a coordinator's votes and PC-ACKs — that almost always
//! hold a handful of entries. In a heap collection each costs an
//! allocation per transaction; inline it costs its bytes in the engine.

use std::fmt;

/// Up to `N` elements inline; past that, all of them move into one
/// boxed `Vec`. The box is a thin pointer, so the spill path costs 8 B
/// of the inline footprint and nothing else until it is taken.
#[derive(Clone)]
pub(crate) struct InlineVec<T: Copy, const N: usize> {
    inline: [T; N],
    /// Elements in use in `inline`; meaningless once `spill` is set.
    len: u8,
    /// Every element, once there were more than `N`. Boxed on purpose:
    /// a thin 8 B pointer where a bare `Vec` would take 24 B of every
    /// owner, for a path correct runs never take.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<T>>>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Rejects, at compile time, a capacity `len` cannot count.
    const FITS: () = assert!(N <= u8::MAX as usize, "inline capacity exceeds u8");

    /// An empty sequence. `fill` occupies the unused inline slots and is
    /// never read back.
    pub(crate) fn new(fill: T) -> Self {
        let () = Self::FITS;
        InlineVec {
            inline: [fill; N],
            len: 0,
            spill: None,
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(all) => all,
            None => &self.inline[..self.len as usize],
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(all) => all,
            None => &mut self.inline[..self.len as usize],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn push(&mut self, v: T) {
        self.insert(self.len(), v);
    }

    /// Inserts `v` at position `at`, shifting the elements after it.
    pub(crate) fn insert(&mut self, at: usize, v: T) {
        if let Some(all) = &mut self.spill {
            all.insert(at, v);
            return;
        }
        let len = self.len as usize;
        assert!(at <= len, "insertion index {at} past the end ({len})");
        if len < N {
            self.inline.copy_within(at..len, at + 1);
            self.inline[at] = v;
            self.len += 1;
        } else {
            let mut all = Vec::with_capacity(2 * N + 1);
            all.extend_from_slice(&self.inline);
            all.insert(at, v);
            self.spill = Some(Box::new(all));
        }
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random pushes and inserts across the spill boundary, against a
    /// `Vec` doing the same.
    #[test]
    fn matches_a_vec_across_the_spill() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for round in 0..200 {
            let mut v: InlineVec<u16, 3> = InlineVec::new(0);
            let mut model: Vec<u16> = Vec::new();
            for k in 0..(round % 9) {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let at = (seed % (model.len() as u64 + 1)) as usize;
                if seed & 1 == 0 {
                    v.push(k);
                    model.push(k);
                } else {
                    v.insert(at, k);
                    model.insert(at, k);
                }
                assert_eq!(v.as_slice(), model.as_slice());
                assert_eq!(v.len(), model.len());
                assert_eq!(v.spill.is_some(), model.len() > 3);
            }
            if let Some(first) = v.as_mut_slice().first_mut() {
                *first = 99;
                model[0] = 99;
            }
            assert_eq!(v.as_slice(), model.as_slice());
            assert_eq!(format!("{v:?}"), format!("{model:?}"));
        }
    }
}
