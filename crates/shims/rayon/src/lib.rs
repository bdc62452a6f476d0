//! Offline stand-in for the `rayon` crate (see `crates/shims/`).
//!
//! The `par_iter` / `par_iter_mut` / `into_par_iter` / `par_chunks` entry
//! points return *standard library iterators*, so every downstream
//! combinator (`map`, `for_each`, `collect`, `sum`, ...) is the ordinary
//! `Iterator` method and the code runs sequentially. This trades the
//! shared-memory parallel speedup for zero-dependency builds; the
//! distributed simulation's parallelism (one OS thread per rank in
//! `ygm::World`) is unaffected.

pub mod prelude {
    /// `into_par_iter()` on any `IntoIterator` (ranges, `Vec`, ...).
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I {}

    /// `par_iter()` / `par_chunks()` on slices (and `Vec` via deref).
    pub trait ParallelSlice<T> {
        fn par_iter(&self) -> std::slice::Iter<'_, T>;
        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T>;
        fn par_windows(&self, window_size: usize) -> std::slice::Windows<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_iter(&self) -> std::slice::Iter<'_, T> {
            self.iter()
        }

        fn par_chunks(&self, chunk_size: usize) -> std::slice::Chunks<'_, T> {
            self.chunks(chunk_size)
        }

        fn par_windows(&self, window_size: usize) -> std::slice::Windows<'_, T> {
            self.windows(window_size)
        }
    }

    /// `par_iter_mut()` / `par_chunks_mut()` on slices.
    pub trait ParallelSliceMut<T> {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T>;
        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
            self.iter_mut()
        }

        fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(chunk_size)
        }
    }
}

/// Sequential `rayon::join`: runs `a` then `b`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_behaves_like_iter() {
        let v = [1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn into_par_iter_on_ranges() {
        let sum: u64 = (0u64..10).into_par_iter().sum();
        assert_eq!(sum, 45);
    }

    #[test]
    fn par_iter_mut_mutates() {
        let mut v = vec![1, 2, 3];
        v.par_iter_mut().for_each(|x| *x += 10);
        assert_eq!(v, vec![11, 12, 13]);
    }

    #[test]
    fn join_returns_both() {
        assert_eq!(super::join(|| 1, || "x"), (1, "x"));
    }
}
