//! Dense channel × block matrices.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A dense `C × B` matrix of plaintext spectrum quantities (quantized
/// milliwatt fixed-point integers).
///
/// Indexing is `(channel, block)`, matching the paper's `M(c, b)`
/// notation; storage is channel-major.
///
/// # Examples
///
/// ```
/// use pisa_watch::IntMatrix;
///
/// let mut m = IntMatrix::zeros(3, 4);
/// m.set(1, 2, 42);
/// assert_eq!(m.get(1, 2), 42);
/// assert_eq!(m.get(0, 0), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntMatrix {
    channels: usize,
    blocks: usize,
    data: Vec<i128>,
}

impl IntMatrix {
    /// A `channels × blocks` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(channels: usize, blocks: usize) -> Self {
        assert!(channels > 0 && blocks > 0, "matrix must be non-empty");
        IntMatrix {
            channels,
            blocks,
            data: vec![0; channels * blocks],
        }
    }

    /// Builds a matrix by evaluating `f(c, b)` for every entry.
    pub fn from_fn(
        channels: usize,
        blocks: usize,
        mut f: impl FnMut(usize, usize) -> i128,
    ) -> Self {
        let mut m = IntMatrix::zeros(channels, blocks);
        for c in 0..channels {
            for b in 0..blocks {
                m.set(c, b, f(c, b));
            }
        }
        m
    }

    /// Number of channels `C`.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Number of blocks `B`.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Entry `(c, b)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, c: usize, b: usize) -> i128 {
        self.data[self.index(c, b)]
    }

    /// Sets entry `(c, b)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, c: usize, b: usize, v: i128) {
        let i = self.index(c, b);
        self.data[i] = v;
    }

    /// Iterates `(c, b, value)` over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, i128)> + '_ {
        let blocks = self.blocks;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i / blocks, i % blocks, v))
    }

    /// The underlying channel-major storage.
    pub fn as_slice(&self) -> &[i128] {
        &self.data
    }

    /// Multiplies every entry by a scalar (the paper's ⊗ in plaintext).
    pub fn scale(&self, k: i128) -> IntMatrix {
        IntMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self.data.iter().map(|v| v * k).collect(),
        }
    }

    /// `true` if every entry is strictly positive — the paper's grant
    /// condition on the indicator matrix **I**.
    pub fn all_positive(&self) -> bool {
        self.data.iter().all(|&v| v > 0)
    }

    /// Entries `(c, b)` that are `<= 0` — the violated budgets.
    pub fn non_positive_entries(&self) -> Vec<(usize, usize)> {
        self.iter()
            .filter(|&(_, _, v)| v <= 0)
            .map(|(c, b, _)| (c, b))
            .collect()
    }

    fn index(&self, c: usize, b: usize) -> usize {
        assert!(
            c < self.channels && b < self.blocks,
            "index ({c}, {b}) out of {}x{} matrix",
            self.channels,
            self.blocks
        );
        c * self.blocks + b
    }

    fn assert_same_shape(&self, other: &IntMatrix) {
        assert!(
            self.channels == other.channels && self.blocks == other.blocks,
            "shape mismatch: {}x{} vs {}x{}",
            self.channels,
            self.blocks,
            other.channels,
            other.blocks
        );
    }
}

impl Add<&IntMatrix> for &IntMatrix {
    type Output = IntMatrix;
    fn add(self, rhs: &IntMatrix) -> IntMatrix {
        self.assert_same_shape(rhs);
        IntMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&IntMatrix> for &IntMatrix {
    type Output = IntMatrix;
    fn sub(self, rhs: &IntMatrix) -> IntMatrix {
        self.assert_same_shape(rhs);
        IntMatrix {
            channels: self.channels,
            blocks: self.blocks,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl fmt::Display for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IntMatrix {}x{}:", self.channels, self.blocks)?;
        for c in 0..self.channels.min(8) {
            write!(f, "  c{c}:")?;
            for b in 0..self.blocks.min(12) {
                write!(f, " {:>6}", self.get(c, b))?;
            }
            writeln!(f, "{}", if self.blocks > 12 { " …" } else { "" })?;
        }
        if self.channels > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = IntMatrix::zeros(2, 3);
        assert_eq!(m.channels(), 2);
        assert_eq!(m.blocks(), 3);
        m.set(1, 2, -7);
        assert_eq!(m.get(1, 2), -7);
        assert_eq!(m.as_slice().iter().sum::<i128>(), -7);
    }

    #[test]
    fn add_sub_scale() {
        let a = IntMatrix::from_fn(2, 2, |c, b| (c * 10 + b) as i128);
        let b = IntMatrix::from_fn(2, 2, |_, _| 1);
        assert_eq!((&a + &b).get(1, 1), 12);
        assert_eq!((&a - &b).get(0, 0), -1);
        assert_eq!(a.scale(3).get(1, 0), 30);
    }

    #[test]
    fn positivity_checks() {
        let pos = IntMatrix::from_fn(2, 2, |_, _| 5);
        assert!(pos.all_positive());
        assert!(pos.non_positive_entries().is_empty());
        let mut mixed = pos.clone();
        mixed.set(0, 1, 0);
        mixed.set(1, 0, -3);
        assert!(!mixed.all_positive());
        assert_eq!(mixed.non_positive_entries(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn iter_covers_all() {
        let m = IntMatrix::from_fn(3, 4, |c, b| (c * 4 + b) as i128);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 12);
        assert_eq!(collected[5], (1, 1, 5));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a = IntMatrix::zeros(2, 2);
        let b = IntMatrix::zeros(2, 3);
        let _ = &a + &b;
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_panics() {
        let m = IntMatrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn display_truncates() {
        let m = IntMatrix::zeros(20, 30);
        let s = m.to_string();
        assert!(s.contains("IntMatrix 20x30"));
        assert!(s.contains('…'));
    }
}
