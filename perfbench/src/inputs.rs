//! Op inputs from the seed: a seeded RNG and, per program, a list of
//! distinct sizes whose costs are alike, so no two ops of a run ask the
//! same question and no op's cost sits far from the others'.

use sa_loops::{Kernel, Size};

/// Deterministic SplitMix64.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Ops every run answers at least (the tail percentile needs 40).
pub const MIN_OPS: usize = 40;

/// `n` distinct op indices below [`MIN_OPS`] in a seeded order: the ops a
/// run re-answers with the reference interpreter. They are fixed before
/// the run, so every other answer can be dropped once checked.
pub fn sample(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..MIN_OPS).collect();
    Rng::new(seed, salt).shuffle(&mut v);
    v.truncate(n);
    v
}

/// How a program's size varies from op to op.
#[derive(Debug, Clone, Copy)]
pub enum Vary {
    /// Step the outer extent (grid rows, loop length, matrix rows) by one
    /// per size, centred on the base size — for programs whose cost is
    /// linear in it and sensitive to the inner extents' page alignment.
    Outer(Size),
    /// Every grid shape whose cell count is within 3% of `cells`, with no
    /// extent further than 2× from the cube (or square) side.
    Shape {
        /// Target cell count.
        cells: usize,
        /// 2 or 3 extents.
        rank: usize,
        /// Relaxation sweeps.
        sweeps: usize,
    },
    /// A sparse matrix of fixed rows and degree with a different column
    /// count per size (the gathered vector's length), between 0.75× and
    /// 1.25× the rows.
    Cols {
        /// Matrix rows.
        rows: usize,
        /// Nonzeros per row.
        deg: usize,
    },
}

/// Cell-count tolerance of [`Vary::Shape`].
const SHAPE_TOLERANCE: f64 = 0.03;
/// Largest ratio of an extent to the side of [`Vary::Shape`]'s cube.
const SHAPE_SPREAD: f64 = 2.0;

/// Every extent tuple of `rank` dimensions within [`SHAPE_TOLERANCE`] of
/// `cells`, in lexicographic order.
fn shapes(cells: usize, rank: usize) -> Vec<Vec<usize>> {
    let side = (cells as f64).powf(1.0 / rank as f64);
    let lo = ((side / SHAPE_SPREAD).ceil() as usize).max(3);
    let hi = (side * SHAPE_SPREAD).floor() as usize;
    let mut out = Vec::new();
    let mut stack = vec![(Vec::new(), 1usize)];
    while let Some((prefix, prod)) = stack.pop() {
        for e in lo..=hi {
            let mut dims = prefix.clone();
            dims.push(e);
            let p = prod * e;
            if dims.len() == rank {
                if (p as f64 / cells as f64 - 1.0).abs() <= SHAPE_TOLERANCE {
                    out.push(dims);
                }
            } else {
                stack.push((dims, p));
            }
        }
    }
    out.sort();
    out
}

/// `n` distinct sizes of a program varying as `vary`. Entry 0 sizes the
/// warm-up op: the largest size of the variation, whatever the seed, so
/// set-up pays for the heap's growth and costs the same on every seed.
/// Entries `1..n` are the others in a seeded order (`salt` decorrelates
/// programs); entry `r + 1` sizes the program's `r`-th timed op. Panics
/// if the variation has fewer than `n` sizes.
pub fn sizes(vary: Vary, n: usize, seed: u64, salt: u64) -> Vec<Size> {
    let mut rng = Rng::new(seed, salt);
    let mut all: Vec<Size> = match vary {
        Vary::Outer(base) => {
            let half = (n / 2) as i64;
            (0..n as i64).map(|k| outer(base, k - half)).collect()
        }
        Vary::Shape {
            cells,
            rank,
            sweeps,
        } => shapes(cells, rank)
            .into_iter()
            .map(|d| match *d.as_slice() {
                [nx, ny] => Size::Grid2 { nx, ny, sweeps },
                [nx, ny, nz] => Size::Grid3 { nx, ny, nz, sweeps },
                _ => unreachable!("rank is 2 or 3"),
            })
            .collect(),
        Vary::Cols { rows, deg } => (rows * 3 / 4..=rows * 5 / 4)
            .map(|cols| Size::Sparse { rows, cols, deg })
            .collect(),
    };
    assert!(
        all.len() >= n,
        "{vary:?} has {} sizes, {n} are needed",
        all.len()
    );
    let largest = (0..all.len()).max_by_key(|&i| volume(all[i])).unwrap_or(0);
    let warm_up = all.remove(largest);
    rng.shuffle(&mut all);
    all.truncate(n - 1);
    all.insert(0, warm_up);
    all
}

/// Elements a program of `size` declares, roughly: what its transient
/// memory grows with.
fn volume(size: Size) -> usize {
    match size {
        Size::N(n) => n,
        Size::Grid2 { nx, ny, .. } => nx * ny,
        Size::Grid3 { nx, ny, nz, .. } => nx * ny * nz,
        Size::Sparse { rows, cols, deg } => rows * deg + cols,
    }
}

/// `size` with its outer extent moved by `off`.
fn outer(size: Size, off: i64) -> Size {
    let step = |n: usize| (n as i64 + off).max(3) as usize;
    match size {
        Size::N(n) => Size::N(step(n)),
        Size::Grid2 { nx, ny, sweeps } => Size::Grid2 {
            nx: step(nx),
            ny,
            sweeps,
        },
        Size::Grid3 { nx, ny, nz, sweeps } => Size::Grid3 {
            nx: step(nx),
            ny,
            nz,
            sweeps,
        },
        Size::Sparse { rows, cols, deg } => Size::Sparse {
            rows: step(rows),
            cols,
            deg,
        },
    }
}

/// Build `code` from the `sa_loops` registry at `size`, as `sapp` does.
pub fn build_kernel(code: &str, size: Size) -> Kernel {
    sa_loops::workload(code)
        .unwrap_or_else(|| panic!("{code} is not in the registry"))
        .build(size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_distinct_and_seeded() {
        let v = Vary::Shape {
            cells: 1600,
            rank: 2,
            sweeps: 2,
        };
        let a = sizes(v, 40, 1, 9);
        let b = sizes(v, 40, 2, 9);
        assert_eq!(a, sizes(v, 40, 1, 9));
        assert_ne!(a, b);
        assert_eq!(a[0], b[0], "the warm-up size does not depend on the seed");
        for (i, x) in a.iter().enumerate() {
            assert!(!a[..i].contains(x), "{x:?} repeats");
        }
    }

    #[test]
    fn outer_steps_are_centred() {
        let v = sizes(Vary::Outer(Size::N(100)), 5, 3, 0);
        let mut n: Vec<usize> = v
            .iter()
            .map(|s| match s {
                Size::N(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        n.sort();
        assert_eq!(n, vec![98, 99, 100, 101, 102]);
    }
}
