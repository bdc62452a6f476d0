//! Epoch-stamped visited marks: the "seen" set of a graph walk, reset in
//! O(1).
//!
//! A walk that kept one flag per node would clear `n` flags before every
//! search. [`VisitMarks`] keeps, per node, the epoch of the walk that last
//! visited it instead, so starting a walk is one increment; the rare
//! wrap-around of the epoch does the full clear. `nnd::search`'s scratch and
//! `hnsw`'s layer search each hold one per worker.

use crate::set::PointId;

/// Visited marks over the ids `0..len`, one walk at a time.
#[derive(Debug, Clone, Default)]
pub struct VisitMarks {
    marks: Vec<u32>,
    epoch: u32,
}

impl VisitMarks {
    /// Marks for ids `0..n`, none visited.
    pub fn new(n: usize) -> Self {
        VisitMarks {
            marks: vec![0; n],
            epoch: 0,
        }
    }

    /// Cover ids `0..n` too, the new ones unvisited; never shrinks.
    pub fn grow(&mut self, n: usize) {
        if n > self.marks.len() {
            self.marks.resize(n, 0);
        }
    }

    /// Number of ids covered.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no id is covered.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Start a walk: every id unvisited.
    #[inline]
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `id` visited; whether it was not yet, in this walk.
    #[inline]
    pub fn visit(&mut self, id: PointId) -> bool {
        std::mem::replace(&mut self.marks[id as usize], self.epoch) != self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walk_sees_each_id_once_and_a_reset_forgets_it() {
        let mut m = VisitMarks::new(5);
        m.reset();
        assert!(m.visit(3));
        assert!(!m.visit(3));
        assert!(m.visit(0));
        m.reset();
        assert!(m.visit(3) && m.visit(0) && !m.visit(0));
    }

    #[test]
    fn the_epoch_wraparound_clears_every_mark() {
        let mut m = VisitMarks::new(4);
        m.epoch = u32::MAX - 1;
        m.reset();
        assert!(m.visit(2));
        // A mark left from an old epoch 1 reads as visited after the wrap
        // unless the wrap clears it.
        m.marks[1] = 1;
        m.reset();
        assert_eq!(m.epoch, 1, "the epoch wrapped");
        assert!((0..4).all(|id| m.visit(id)), "a mark survived the wrap");
    }
}
