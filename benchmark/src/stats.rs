//! Order statistics and the FNV-1a digest the benchmark reports with.

use std::io::Write;

/// Median of `values` (the mean of the two middle values for an even
/// count), or `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, `exclusive`, which
/// extrapolates for small counts), so the spreads printed here are the ones
/// a reader recomputes from the runs. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let at = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((at(1), at(3)))
        }
    }
}

/// Percentile ladder in basis points, lowest first.
const LADDER_BP: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest percentile of the ladder p50, p90, p99, p99.9, p99.99 that
/// has at least ten samples beyond it, as `(percentile, value)` by the
/// nearest-rank rule; `None` when fewer than twenty samples exist.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len() as u64;
    LADDER_BP.iter().rev().find_map(|&bp| {
        let rank = (bp * n).div_ceil(10_000);
        (rank >= 1 && n - rank >= 10).then(|| (bp as f64 / 100.0, sorted[rank as usize - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Streaming 64-bit FNV-1a, usable as an `io::Write` sink so the run file
/// encoder can write straight into it. Also counts the bytes it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
    bytes: u64,
}

impl Fnv64 {
    pub const fn new() -> Self {
        Fnv64 {
            state: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }

    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes += data.len() as u64;
    }

    pub const fn digest(&self) -> u64 {
        self.state
    }

    pub const fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Write for Fnv64 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(median(&ten), Some(5.5));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(19)), None, "p50 of 19 leaves only 9 beyond");
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(99)), Some((50.0, 50.0)), "p90 of 99 leaves 9");
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(999)), Some((90.0, 900.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv64::new();
            h.update(s.as_bytes());
            h.digest()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces equals hashing the concatenation.
        let mut split = Fnv64::new();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.digest(), hash("foobar"));
        assert_eq!(split.bytes(), 6);
    }
}
