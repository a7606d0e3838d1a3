//! The benchmark's own evaluation of the quantities the program derives,
//! written from their definitions and kept deliberately plain: a dense
//! grid and brute-force window sums, no prefix sums, no shared code with
//! the crates under test. Rationals are `(numerator, denominator)` pairs.

use cmvrp_grid::{DemandMap, GridBounds};

/// A demand field as a dense row-major array over a `side`×`side` grid.
pub struct Dense {
    side: usize,
    cells: Vec<u64>,
}

impl Dense {
    pub fn new(bounds: &GridBounds<2>, demand: &DemandMap<2>) -> Self {
        let side = (bounds.max()[0] - bounds.min()[0] + 1) as usize;
        let mut cells = vec![0u64; side * side];
        for (p, d) in demand.iter() {
            let x = (p[0] - bounds.min()[0]) as usize;
            let y = (p[1] - bounds.min()[1]) as usize;
            cells[y * side + x] += d;
        }
        Dense { side, cells }
    }

    /// The largest demand in any `s`×`s` window of the grid (the whole
    /// grid when `s` exceeds it).
    pub fn window_max(&self, s: u64) -> u64 {
        let s = (s as usize).min(self.side);
        let starts = self.side - s + 1;
        let mut best = 0;
        for y0 in 0..starts {
            for x0 in 0..starts {
                let mut sum = 0;
                for y in y0..y0 + s {
                    sum += self.cells[y * self.side + x0..y * self.side + x0 + s]
                        .iter()
                        .sum::<u64>();
                }
                best = best.max(sum);
            }
        }
        best
    }
}

/// Corollary 2.2.7: `ω_c` is the infimum `ω` with
/// `ω·(3⌈ω⌉)² ≥ M(⌈ω⌉)`, where `M(s)` is the largest side-`s` window sum.
pub fn omega_c(window_max: impl Fn(u64) -> u64) -> (u128, u128) {
    let mut s: u128 = 1;
    loop {
        let m = window_max(s as u64) as u128;
        let den = 9 * s * s;
        if m <= (s - 1) * den {
            return (s - 1, 1);
        }
        if m <= s * den {
            return (m, den);
        }
        s += 1;
    }
}

/// The cube side the protocol partitions with: the smallest `s` with
/// `M(s) ≤ s·(3s)²`.
pub fn cube_side(window_max: impl Fn(u64) -> u64) -> u64 {
    (1..)
        .find(|&s: &u64| window_max(s) as u128 <= s as u128 * 9 * (s as u128).pow(2))
        .expect("some side holds the demand")
}

/// The discretized Lemma 3.3.1 battery: a job budget of `4·⌈M/s²⌉ + 4`
/// per vehicle plus the `2(s−1) + 2` relocation reserve, for cube side
/// `s` and window maximum `M` at that side.
pub fn capacity(side: u64, window_max_at_side: u64) -> u64 {
    4 * window_max_at_side.div_ceil(side * side) + 4 + 2 * (side - 1) + 2
}

/// `ω*` of a single point source of demand `d` far from the grid's edge.
/// Every `T` holding the point has `Σd = d` and `|N_ω(T)| ≥ |N_ω(p)|`, so
/// `ω* = ω_{p}`, the solution of `ω·|N_⌊ω⌋(p)| = d` with
/// `|N_k(p)| = 2k² + 2k + 1` (equation (1.1)).
pub fn omega_star_point(d: u64) -> (u128, u128) {
    let d = d as u128;
    let mut k: u128 = 0;
    loop {
        let ball = 2 * k * k + 2 * k + 1;
        if d < k * ball {
            return (k, 1);
        }
        if d < (k + 1) * ball {
            return (d, ball);
        }
        k += 1;
    }
}

/// Whether two rationals are equal.
pub fn same(a: (u128, u128), num: i128, den: i128) -> bool {
    num >= 0 && den > 0 && a.0 * den as u128 == num as u128 * a.1
}

/// Whether `x ≥ num/den`.
pub fn at_least(x: u64, num: i128, den: i128) -> bool {
    x as i128 * den >= num
}
