//! A minimal row-major matrix type for the CPU kernels.
//!
//! The kernels in this crate only need dense 2-D `f32` storage with cheap
//! row access; a full tensor library would be overkill and would obscure
//! the memory-access patterns the Figure-12 experiment is about.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major `f32` matrix. The default is empty, `0 x 0`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from existing row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Makes this a zero-filled `rows x cols` matrix, reusing its buffer.
    pub(crate) fn zero(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        (self.rows, self.cols) = (rows, cols);
    }

    /// Makes this a copy of `other`, reusing its buffer.
    pub(crate) fn copy_from(&mut self, other: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        (self.rows, self.cols) = (other.rows, other.cols);
    }

    /// Keeps rows `keep` (ascending) in that order and drops the rest,
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is not ascending or names a row out of range.
    pub(crate) fn keep_rows(&mut self, keep: &[usize]) {
        let cols = self.cols;
        for (to, &from) in keep.iter().enumerate() {
            assert!(from >= to && from < self.rows, "rows to keep out of order");
            self.data
                .copy_within(from * cols..(from + 1) * cols, to * cols);
        }
        self.rows = keep.len();
        self.data.truncate(self.rows * cols);
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The full row-major backing slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The full mutable row-major backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let cells: Vec<String> = self.row(r)[..self.cols.min(8)]
                .iter()
                .map(|v| format!("{v:+.4}"))
                .collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m[(0, 1)] = 5.0;
        m.row_mut(1)[2] = 7.0;
        assert_eq!(m[(0, 1)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 7.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn max_abs_diff_finds_largest() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
