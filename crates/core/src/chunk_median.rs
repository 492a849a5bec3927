//! The chunk rule of every split-median statistic: the outlier stage's
//! MVB and MCD balls ([`crate::outlier`]) and the exact-IQR bin rule
//! ([`crate::p3cplus::bins_per_attribute_columnar`]).
//!
//! Paper §5.5 takes each median over per-split estimates; a Hadoop split
//! is a fixed-size block, so the input is cut into
//! [`MEDIAN_CHUNK_POINTS`]-row chunks (`chunks`), each chunk yields
//! one estimate together with the number of rows behind it, and the
//! estimates combine by their [`weighted_median`]: the median, over
//! those rows, of their chunk's estimate. A chunk that holds few of a
//! statistic's rows (a ragged last chunk, a cluster barely present in
//! it) therefore weighs little. The serial pipelines and the MR mappers
//! cut the same chunks whenever the MR splits are whole chunks.

use crate::em::EM_BLOCK_POINTS;
use crate::outlier::Ball;
use p3c_stats::descriptive::weighted_median;

/// Rows per median chunk: 16 EM blocks. Chunk `b` is the global rows
/// `8192·b .. 8192·(b+1)`. The MR pipelines' default `split_size` is
/// one chunk.
pub const MEDIAN_CHUNK_POINTS: usize = 16 * EM_BLOCK_POINTS;

/// The chunks of `rows`, in row order.
pub(crate) fn chunks<T>(rows: &[T]) -> std::slice::Chunks<'_, T> {
    rows.chunks(MEDIAN_CHUNK_POINTS)
}

/// The combine step of a ball pass: the dimension-wise weighted median
/// of one cluster's chunk centers and the weighted median of its chunk
/// radii, each chunk weighted by its members. `None` when the cluster
/// has no member in any chunk.
pub(crate) fn median_ball(balls: &[Ball]) -> Option<Ball> {
    let median = |value: &dyn Fn(&Ball) -> f64| {
        let mut weighted: Vec<(f64, usize)> = balls.iter().map(|b| (value(b), b.members)).collect();
        weighted_median(&mut weighted)
    };
    let center = (0..balls.first()?.center.len())
        .map(|j| median(&|b| b.center[j]))
        .collect();
    Some(Ball {
        center,
        radius: median(&|b| b.radius),
        members: balls.iter().map(|b| b.members).sum(),
    })
}

/// One chunk's `(q1, q3)` and the rows behind them.
pub(crate) type ChunkQuartiles = ((f64, f64), usize);

/// The exact-IQR bin rule's combine step: the weighted median over
/// chunks of q1 and of q3; `None` without chunk quartiles.
pub(crate) fn median_quartiles(quartiles: &[ChunkQuartiles]) -> Option<(f64, f64)> {
    if quartiles.is_empty() {
        return None;
    }
    let mut q1s: Vec<(f64, usize)> = quartiles.iter().map(|&((q1, _), n)| (q1, n)).collect();
    let mut q3s: Vec<(f64, usize)> = quartiles.iter().map(|&((_, q3), n)| (q3, n)).collect();
    Some((weighted_median(&mut q1s), weighted_median(&mut q3s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_balls_combine_by_weighted_medians() {
        let ball = |center: Vec<f64>, radius, members| Ball {
            center,
            radius,
            members,
        };
        let balls = [
            ball(vec![0.0, 5.0], 1.0, 4),
            ball(vec![1.0, 3.0], 4.0, 4),
            ball(vec![9.0, 4.0], 2.0, 4),
        ];
        assert_eq!(median_ball(&balls), Some(ball(vec![1.0, 4.0], 2.0, 12)));
        // A lone member in a ragged chunk does not move a full chunk's ball.
        let balls = [
            ball(vec![0.5, 0.5], 0.1, 8192),
            ball(vec![9.0, 9.0], 0.0, 1),
        ];
        assert_eq!(median_ball(&balls), Some(ball(vec![0.5, 0.5], 0.1, 8193)));
        assert!(median_ball(&[]).is_none());
    }

    #[test]
    fn chunk_quartiles_combine_by_weighted_medians() {
        let full = ((0.25, 0.75), MEDIAN_CHUNK_POINTS);
        assert_eq!(
            median_quartiles(&[full, ((0.9, 1.0), 2)]),
            Some((0.25, 0.75))
        );
        assert_eq!(
            median_quartiles(&[((0.25, 0.5), 5), ((0.5, 1.0), 5)]),
            Some((0.375, 0.75))
        );
        assert!(median_quartiles(&[]).is_none());
    }
}
