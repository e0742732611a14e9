//! A reusable pool of matrix buffers for allocation-free steady state.
//!
//! Hot loops that repeatedly build same-shaped matrices — autodiff tapes
//! rebuilt every training step, Newton iterations reassembling a Jacobian,
//! LM damping attempts — can check buffers out of a [`Workspace`], use them
//! as ordinary [`Matrix`] values, and return them when done. After the first
//! pass has populated the pool, subsequent passes recycle capacity instead
//! of touching the allocator.
//!
//! Reuse never changes numeric results: [`Workspace::take`] always hands
//! back a fully zeroed matrix of the requested shape, so a pooled buffer is
//! indistinguishable from a fresh [`Matrix::zeros`].
//!
//! # Examples
//!
//! ```
//! use pnc_linalg::Workspace;
//!
//! let mut ws = Workspace::new();
//! let m = ws.take(3, 4);
//! assert_eq!(m.shape(), (3, 4));
//! ws.give(m);
//! assert_eq!(ws.available(), 1);
//! // The next take of any shape that fits reuses the pooled buffer.
//! let again = ws.take(4, 3);
//! assert_eq!(again.shape(), (4, 3));
//! assert_eq!(ws.available(), 0);
//! ```

use crate::Matrix;

/// A pool of retired `f64` buffers recycled into zeroed [`Matrix`] values.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of retired buffers currently available for reuse.
    pub fn available(&self) -> usize {
        self.pool.len()
    }

    /// Total `f64` capacity currently held by the pool.
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(|b| b.capacity()).sum()
    }

    /// Checks out a zeroed `rows`×`cols` matrix, reusing a pooled buffer
    /// whose capacity already fits when one exists (searched newest-first so
    /// shape-stable loops hit their own buffer), growing one otherwise.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut buf = self.empty_buffer(rows * cols);
        buf.resize(rows * cols, 0.0);
        // Length matches by construction; the fallback keeps this panic-free.
        Matrix::from_vec(rows, cols, buf).unwrap_or_else(|_| Matrix::zeros(rows, cols))
    }

    /// Checks out a pooled copy of `src`: the same buffer [`Self::take`]
    /// would pick for its shape, filled straight from `src` without
    /// zeroing it first.
    pub fn take_copy(&mut self, src: &Matrix) -> Matrix {
        let (rows, cols) = src.shape();
        let mut buf = self.empty_buffer(rows * cols);
        buf.extend_from_slice(src.as_slice());
        // Length matches by construction; the fallback keeps this panic-free.
        Matrix::from_vec(rows, cols, buf).unwrap_or_else(|_| src.clone())
    }

    /// An empty pooled buffer for `n` elements: the newest whose capacity
    /// already fits (so shape-stable loops hit their own buffer), else one
    /// that will grow.
    fn empty_buffer(&mut self, n: usize) -> Vec<f64> {
        let mut buf = match self.pool.iter().rposition(|b| b.capacity() >= n) {
            Some(i) => self.pool.swap_remove(i),
            None => self.pool.pop().unwrap_or_default(),
        };
        buf.clear();
        buf
    }

    /// Returns a matrix's buffer to the pool for later reuse.
    pub fn give(&mut self, m: Matrix) {
        let mut buf = m.into_vec();
        buf.clear();
        self.pool.push(buf);
    }

    /// Drops every pooled buffer, releasing the memory.
    pub fn shrink(&mut self) {
        self.pool.clear();
        self.pool.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut ws = Workspace::new();
        let mut m = ws.take(2, 2);
        m[(0, 0)] = 7.0;
        m[(1, 1)] = -3.0;
        ws.give(m);
        let again = ws.take(2, 2);
        assert_eq!(again, Matrix::zeros(2, 2));
    }

    #[test]
    fn reuses_capacity_for_smaller_shapes() {
        let mut ws = Workspace::new();
        let big = ws.take(8, 8);
        ws.give(big);
        let cap_before = ws.pooled_capacity();
        assert!(cap_before >= 64);
        let small = ws.take(2, 3);
        assert_eq!(small.shape(), (2, 3));
        assert_eq!(ws.available(), 0);
        ws.give(small);
        // The same (grown) buffer came back: no capacity was lost.
        assert_eq!(ws.pooled_capacity(), cap_before);
    }

    #[test]
    fn prefers_fitting_buffer_over_regrowth() {
        let mut ws = Workspace::new();
        ws.give(Matrix::zeros(1, 2));
        ws.give(Matrix::zeros(10, 10));
        let m = ws.take(3, 3);
        assert_eq!(m.shape(), (3, 3));
        // The 100-element buffer was chosen; the 2-element one remains.
        assert_eq!(ws.pooled_capacity(), 2);
    }

    #[test]
    fn take_copy_matches_the_source_and_reuses_the_pool() {
        let mut ws = Workspace::new();
        ws.give(Matrix::zeros(3, 3));
        let src = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 2.5);
        let copy = ws.take_copy(&src);
        assert_eq!(copy, src);
        assert_eq!(ws.available(), 0, "the pooled buffer was reused");
    }

    #[test]
    fn shrink_releases_everything() {
        let mut ws = Workspace::new();
        ws.give(Matrix::zeros(4, 4));
        ws.shrink();
        assert_eq!(ws.available(), 0);
        assert_eq!(ws.pooled_capacity(), 0);
    }
}
