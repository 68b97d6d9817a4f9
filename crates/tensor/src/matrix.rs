//! Row-major `f32` matrix with the handful of operations attention kernels need.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// This is the workhorse container of the workspace: query/key/value blocks, weight
/// matrices and activation buffers are all `Matrix` values. Storage is a flat
/// `Vec<f32>` of length `rows * cols`.
///
/// # Example
///
/// ```
/// use lserve_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies rows `[start, end)` into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "bad row range {start}..{end}"
        );
        Matrix::from_vec(
            end - start,
            self.cols,
            self.data[start * self.cols..end * self.cols].to_vec(),
        )
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Dense matrix product `self * rhs`.
    ///
    /// Every output element is the sum `Σ_k self[i][k] · rhs[k][j]` accumulated
    /// in ascending `k` from `0.0`, skipping terms whose left factor is zero —
    /// so each output row depends only on its own input row, and a block of
    /// rows multiplies to exactly the bits of the rows multiplied one at a
    /// time.
    ///
    /// Pairs of zero-free rows run a register-tiled kernel that keeps a
    /// `2 × MATMUL_TILE_COLS` block of accumulators in registers across the
    /// whole `k` loop, streaming each `rhs` row segment once per row pair; it
    /// performs the same additions in the same order, so the result is
    /// bit-identical. Rows containing a zero (whose skipped terms would
    /// otherwise add `±0.0` and could flip a zero's sign), a final unpaired
    /// row, and the ragged column tail use the plain i-k-j loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        let tiled = n - n % MATMUL_TILE_COLS;
        let zero_free = |i: usize| self.row(i).iter().all(|&a| a != 0.0);
        let mut i = 0;
        while i < self.rows {
            if tiled > 0 && i + 1 < self.rows && zero_free(i) && zero_free(i + 1) {
                let (top, bottom) = out.data[i * n..(i + 2) * n].split_at_mut(n);
                for j0 in (0..tiled).step_by(MATMUL_TILE_COLS) {
                    matmul_tile_2rows(self.row(i), self.row(i + 1), rhs, j0, top, bottom);
                }
                self.matmul_row_into(i, rhs, tiled, top);
                self.matmul_row_into(i + 1, rhs, tiled, bottom);
                i += 2;
            } else {
                self.matmul_row_into(i, rhs, 0, &mut out.data[i * n..(i + 1) * n]);
                i += 1;
            }
        }
        out
    }

    /// The plain i-k-j loop for one output row, columns `from..`: adds
    /// `self[i][k] · rhs[k][j]` into `out_row[j]` in ascending `k`, skipping
    /// zero left factors.
    fn matmul_row_into(&self, i: usize, rhs: &Matrix, from: usize, out_row: &mut [f32]) {
        let n = rhs.cols;
        if from == n {
            return;
        }
        for (k, &a) in self.row(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let rhs_row = &rhs.data[k * n + from..(k + 1) * n];
            for (o, &b) in out_row[from..].iter_mut().zip(rhs_row) {
                *o += a * b;
            }
        }
    }

    /// Matrix product `self * rhs^T`, i.e. `out[i][j] = dot(self.row(i), rhs.row(j))`.
    ///
    /// This is the natural layout for attention scores `Q * K^T` when keys are stored
    /// row-per-token.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt inner-dim mismatch: {} vs {}",
            self.cols, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let a = self.row(i);
            for j in 0..rhs.rows {
                let b = rhs.row(j);
                let mut acc = 0.0f32;
                for (x, y) in a.iter().zip(b) {
                    acc += x * y;
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// Adds `rhs` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Appends the rows of `rhs` below `self`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn append_rows(&mut self, rhs: &Matrix) {
        assert_eq!(self.cols, rhs.cols, "append_rows column mismatch");
        self.data.extend_from_slice(&rhs.data);
        self.rows += rhs.rows;
    }

    /// Maximum absolute difference to another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Output columns one register tile of [`Matrix::matmul`] covers.
const MATMUL_TILE_COLS: usize = 16;

/// One `2 × MATMUL_TILE_COLS` register tile of [`Matrix::matmul`]: output
/// columns `j0..j0 + MATMUL_TILE_COLS` of two rows, each accumulated from
/// `0.0` in ascending `k` — the same additions, in the same order, as the
/// plain loop performs on zero-free rows.
#[inline]
fn matmul_tile_2rows(
    a0: &[f32],
    a1: &[f32],
    rhs: &Matrix,
    j0: usize,
    out0: &mut [f32],
    out1: &mut [f32],
) {
    let n = rhs.cols;
    let mut acc0 = [0.0f32; MATMUL_TILE_COLS];
    let mut acc1 = [0.0f32; MATMUL_TILE_COLS];
    for (k, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
        let b: &[f32; MATMUL_TILE_COLS] = rhs.data[k * n + j0..k * n + j0 + MATMUL_TILE_COLS]
            .try_into()
            .expect("tile lies inside the row");
        for j in 0..MATMUL_TILE_COLS {
            acc0[j] += x0 * b[j];
            acc1[j] += x1 * b[j];
        }
    }
    out0[j0..j0 + MATMUL_TILE_COLS].copy_from_slice(&acc0);
    out1[j0..j0 + MATMUL_TILE_COLS].copy_from_slice(&acc1);
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[2.0, 2.0, 2.0]]);
        let via_t = a.matmul(&b.transpose());
        let direct = a.matmul_nt(&b);
        assert!(via_t.max_abs_diff(&direct) < 1e-6);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn slice_rows_extracts_middle() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let s = a.slice_rows(1, 3);
        assert_eq!(s.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn append_rows_grows() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        a.append_rows(&b);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(2), &[5.0, 6.0]);
    }

    /// The pre-tiling kernel, kept as the bitwise reference.
    fn matmul_plain(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let x = a[(i, k)];
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += x * b[(k, j)];
                }
            }
        }
        out
    }

    fn filled(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed.wrapping_mul(2_654_435_761).max(1);
        let data = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state % 2001) as f32 / 1000.0 - 1.0 + 1e-3
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn assert_bitwise(a: &Matrix, b: &Matrix) {
        let got: Vec<u32> = a.matmul(b).as_slice().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u32> = matmul_plain(a, b)
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, want, "{}x{} * {}x{}", a.rows, a.cols, b.rows, b.cols);
    }

    #[test]
    fn tiled_matmul_is_bitwise_equal_to_the_plain_loop() {
        // 1 row, odd and even row counts, exact tiles and ragged column tails.
        for (rows, inner, cols) in [
            (1, 32, 48),
            (2, 32, 48),
            (3, 17, 16),
            (5, 64, 40),
            (8, 256, 130),
            (7, 9, 7),
        ] {
            assert_bitwise(&filled(rows, inner, 7), &filled(inner, cols, 11));
        }
        // Rows containing zeros (including -0.0) fall back to the plain loop;
        // their neighbours still tile.
        let mut a = filled(6, 24, 3);
        a[(1, 5)] = 0.0;
        a[(2, 0)] = -0.0;
        a[(5, 23)] = 0.0;
        let mut b = filled(24, 35, 5);
        b[(5, 3)] = -0.0;
        b[(0, 7)] = f32::INFINITY;
        assert_bitwise(&a, &b);
        // Products that are all signed zeros keep the plain loop's zero bits.
        let neg = Matrix::from_rows(&[&[1.0; 4], &[2.0; 4]]);
        let z = Matrix::full(4, 16, -0.0);
        assert_bitwise(&neg, &z);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_and_add() {
        let mut a = Matrix::full(2, 2, 1.0);
        a.scale(3.0);
        let b = Matrix::full(2, 2, 0.5);
        a.add_assign(&b);
        assert!(a.as_slice().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }
}
