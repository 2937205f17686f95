//! Fixed-length arrays whose pages are allocated on first write.
//!
//! Per-row simulator state — disturbance accumulators, activation
//! counters — is zero for every row a run never touches, and a run touches
//! a small share of a bank's 64K rows. [`Paged`] stores such an array as
//! equal pages (one per subarray in practice), each allocated when a write
//! first reaches it. A read from a page that does not exist yet returns
//! `T::default()`. Memory and set-up time therefore follow the rows a run
//! touches, not the size of the bank.

/// A `len`-element array of `T` in pages of `page_len` elements, each
/// allocated on first write and reading as `T::default()` until then.
#[derive(Debug, Clone)]
pub struct Paged<T> {
    len: u32,
    page_len: u32,
    pages: Vec<Option<Box<[T]>>>,
}

impl<T: Copy + Default> Paged<T> {
    /// An all-default array of `len` elements in pages of `page_len`
    /// (the last page is shorter when `page_len` does not divide `len`).
    /// Allocates only the page directory.
    ///
    /// # Panics
    ///
    /// Panics if `page_len == 0`.
    pub fn new(len: u32, page_len: u32) -> Self {
        assert!(page_len > 0, "pages need at least one element");
        Paged {
            len,
            page_len,
            pages: vec![None; len.div_ceil(page_len) as usize],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages allocated so far.
    pub fn pages_allocated(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Element `i` (`T::default()` if its page does not exist).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: u32) -> T {
        assert!(i < self.len, "index {i} out of range");
        match &self.pages[(i / self.page_len) as usize] {
            Some(page) => page[(i % self.page_len) as usize],
            None => T::default(),
        }
    }

    /// Element `i` for writing, or `None` if its page does not exist.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        assert!(i < self.len, "index {i} out of range");
        let o = (i % self.page_len) as usize;
        self.pages[(i / self.page_len) as usize]
            .as_mut()
            .map(|page| &mut page[o])
    }

    /// Element `i` for writing, allocating its page if needed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn materialize(&mut self, i: u32) -> &mut T {
        assert!(i < self.len, "index {i} out of range");
        let o = (i % self.page_len) as usize;
        &mut self.materialize_page(i / self.page_len)[o]
    }

    /// Page `p` for writing, allocating it (all default) if needed.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a page of this array.
    #[inline]
    pub fn materialize_page(&mut self, p: u32) -> &mut [T] {
        let n = self.page_len.min(self.len - p * self.page_len) as usize;
        self.pages[p as usize].get_or_insert_with(|| vec![T::default(); n].into_boxed_slice())
    }

    /// The allocated pages with the index of their first element, in
    /// index order.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[T])> {
        let page_len = self.page_len;
        self.pages
            .iter()
            .enumerate()
            .filter_map(move |(p, page)| page.as_deref().map(|pg| (p as u32 * page_len, pg)))
    }

    /// The allocated pages for writing, in index order.
    pub fn pages_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        self.pages.iter_mut().filter_map(|p| p.as_deref_mut())
    }

    /// Resets elements `start..end` (clamped to `len`) to `T::default()`,
    /// touching only the pages that exist.
    pub fn reset_range(&mut self, start: u32, end: u32) {
        let end = end.min(self.len);
        let mut i = start;
        while i < end {
            let p = i / self.page_len;
            let page_end = (p + 1).saturating_mul(self.page_len).min(end);
            if let Some(page) = self.pages[p as usize].as_deref_mut() {
                let base = p * self.page_len;
                page[(i - base) as usize..(page_end - base) as usize].fill(T::default());
            }
            i = page_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_until_written() {
        let mut a: Paged<u32> = Paged::new(10, 4);
        assert_eq!(a.pages_allocated(), 0);
        assert_eq!(a.get(9), 0);
        assert!(a.get_mut(5).is_none());
        *a.materialize(5) = 7;
        assert_eq!(a.get(5), 7);
        assert_eq!(a.get(4), 0);
        assert_eq!(a.pages_allocated(), 1);
        *a.get_mut(6).expect("page 1 exists") += 1;
        assert_eq!(a.get(6), 1);
    }

    #[test]
    fn last_page_is_exact() {
        let mut a: Paged<u8> = Paged::new(10, 4);
        assert_eq!(a.materialize_page(2).len(), 2);
        let firsts: Vec<u32> = a.pages().map(|(first, _)| first).collect();
        assert_eq!(firsts, vec![8]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics_on_absent_page() {
        let a: Paged<u32> = Paged::new(10, 4);
        let _ = a.get(11);
    }

    #[test]
    fn reset_range_skips_absent_pages() {
        let mut a: Paged<u32> = Paged::new(12, 4);
        for i in [1, 9, 10] {
            *a.materialize(i) = 3;
        }
        a.reset_range(0, 10);
        assert_eq!((a.get(1), a.get(9), a.get(10)), (0, 0, 3));
        assert_eq!(a.pages_allocated(), 2, "page 1 must stay absent");
        a.reset_range(5, u32::MAX);
        assert_eq!(a.get(10), 0);
    }
}
