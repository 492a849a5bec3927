//! Serial histogram building over all attributes (paper Section 5.1).
//!
//! For a dataset of `n` points and `d` attributes, one histogram per
//! attribute is built, with the bin counts decided by the configured bin
//! rule. The MapReduce variant lives in [`crate::mr::histogram`] and
//! must produce bit-identical counts (tested there).

use p3c_stats::Histogram;

/// All per-attribute histograms of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeHistograms {
    /// One histogram per attribute. Bin counts are usually uniform, but
    /// the exact-IQR Freedman–Diaconis extension produces per-attribute
    /// counts — read them via `histograms[j].num_bins()`.
    pub histograms: Vec<Histogram>,
    /// The largest bin count across attributes (uniform rules: the count).
    pub bins: usize,
}

impl AttributeHistograms {
    /// Number of attributes.
    pub fn dim(&self) -> usize {
        self.histograms.len()
    }
}

/// Builds one histogram per attribute over a row-major `n × d` buffer,
/// attribute `j` with `bins_per_attr[j]` bins (uniform rules pass a
/// constant vector; the exact-IQR Freedman–Diaconis extension does not).
///
/// Each block of rows is binned in one streaming pass
/// ([`p3c_stats::bin_rows`]) with the bin-index conversion state hoisted
/// per attribute, reading every cache line exactly once (a
/// per-attribute strided re-scan was tried and re-reads each line `d`
/// times). The block scan runs on the engine worker pool
/// ([`p3c_mapreduce::parallel_for_blocks`]) over `threads` workers
/// (`1` = inline on the calling thread): each worker bins its claimed
/// blocks into private per-attribute histograms and the per-block
/// partials merge in fixed block-index order. Counts are exact `+1.0`
/// sums (far below 2^53), so every merge order — and every thread
/// count — yields histograms bit-identical to adding the values one by
/// one with [`Histogram::add`] (DESIGN.md §11).
pub fn build_histograms_columnar_threads(
    n: usize,
    d: usize,
    data: &[f64],
    bins_per_attr: &[usize],
    threads: usize,
) -> AttributeHistograms {
    assert_eq!(data.len(), n * d, "row-major buffer has wrong length");
    build_histograms_blocks_threads(d, &[data], bins_per_attr, threads)
}

/// [`build_histograms_columnar_threads`] over several row-major buffers
/// of width `d`, read in place (the incremental engine's pinned row
/// blocks). Each buffer is split into the same ~256 KiB work blocks;
/// the counts are exact sums, so the histograms equal those of the
/// buffers' concatenation bit for bit.
pub(crate) fn build_histograms_blocks_threads(
    d: usize,
    buffers: &[&[f64]],
    bins_per_attr: &[usize],
    threads: usize,
) -> AttributeHistograms {
    assert_eq!(bins_per_attr.len(), d, "one bin count per attribute");
    let fresh = || -> Vec<Histogram> {
        bins_per_attr
            .iter()
            .map(|&b| Histogram::new(b.max(1)))
            .collect()
    };
    // ~256 KiB of f64 per block, rounded to whole rows.
    let stride = d.max(1);
    let block = (32_768 / stride).max(1) * stride;
    let chunks: Vec<&[f64]> = buffers
        .iter()
        .flat_map(|data| {
            assert_eq!(data.len() % stride, 0, "buffer holds whole rows");
            data.chunks(block)
        })
        .collect();
    let partials = p3c_mapreduce::parallel_for_blocks(threads, chunks.len(), |b| {
        let mut hists = fresh();
        p3c_stats::bin_rows(&mut hists, chunks[b].chunks_exact(stride));
        hists
    });
    let mut histograms = fresh();
    for part in &partials {
        for (hist, partial) in histograms.iter_mut().zip(part) {
            hist.merge(partial);
        }
    }
    let bins = bins_per_attr.iter().copied().max().unwrap_or(1).max(1);
    AttributeHistograms { histograms, bins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3c_dataset::Dataset;
    use p3c_stats::BinRule;

    fn grid_dataset(n: usize) -> Dataset {
        // Attribute 0: uniform grid; attribute 1: everything in one spot.
        let rows = (0..n)
            .map(|i| vec![(i as f64 + 0.5) / n as f64, 0.42])
            .collect();
        Dataset::from_rows(rows)
    }

    /// The serial case of the one builder: `bins` per attribute, inline.
    fn build(data: &Dataset, bins: &[usize]) -> AttributeHistograms {
        build_histograms_columnar_threads(data.len(), data.dim(), data.as_slice(), bins, 1)
    }

    #[test]
    fn counts_sum_to_n_per_attribute() {
        let ds = grid_dataset(100);
        let h = build(&ds, &[BinRule::FreedmanDiaconis.num_bins(100); 2]);
        for hist in &h.histograms {
            assert_eq!(hist.total(), 100.0);
        }
        assert_eq!(h.dim(), 2);
    }

    #[test]
    fn uniform_attribute_is_flat_and_concentrated_attribute_spikes() {
        let ds = grid_dataset(1000);
        let h = build(&ds, &[10, 10]);
        for i in 0..10 {
            assert_eq!(h.histograms[0].count(i), 100.0);
        }
        // 0.42 → bin ⌈4.2⌉−1 = 4.
        assert_eq!(h.histograms[1].count(4), 1000.0);
    }

    #[test]
    fn per_attribute_bin_counts() {
        let ds = grid_dataset(100);
        let h = build(&ds, &[4, 16]);
        assert_eq!(h.histograms[0].num_bins(), 4);
        assert_eq!(h.histograms[1].num_bins(), 16);
        assert_eq!(h.bins, 16);
        assert_eq!(h.histograms[0].total(), 100.0);
        assert_eq!(h.histograms[1].total(), 100.0);
    }

    #[test]
    fn empty_dataset() {
        let h = build(&Dataset::from_rows(vec![]), &[]);
        assert_eq!(h.dim(), 0);
        assert_eq!(h.bins, 1);
    }

    #[test]
    fn block_scan_matches_per_value_adds() {
        // Awkward values near bin edges; counts must agree exactly.
        let rows: Vec<Vec<f64>> = (0..257)
            .map(|i| {
                let t = i as f64 / 257.0;
                vec![t, (t * 7.3).fract(), 1.0 - t, 0.5]
            })
            .collect();
        let ds = Dataset::from_rows(rows.clone());
        for bins in [2usize, 7, 16] {
            let mut per_row = vec![Histogram::new(bins); ds.dim()];
            for row in &rows {
                for (hist, &v) in per_row.iter_mut().zip(row) {
                    hist.add(v);
                }
            }
            let scanned = build(&ds, &vec![bins; ds.dim()]);
            assert_eq!(scanned.histograms, per_row, "bins = {bins}");
        }
    }

    #[test]
    fn split_buffers_match_one_buffer() {
        // 9000 rows of width 4 span several work blocks; cut them into
        // uneven buffers, an empty one included.
        let d = 4;
        let data: Vec<f64> = (0..9000 * d)
            .map(|i| ((i * 37) % 1009) as f64 / 1009.0)
            .collect();
        let bins = vec![9; d];
        let whole = build_histograms_columnar_threads(9000, d, &data, &bins, 1);
        let cuts = [0, 1, 1, 2500, 8191, 9000];
        let buffers: Vec<&[f64]> = cuts.windows(2).map(|w| &data[w[0] * d..w[1] * d]).collect();
        for threads in [1, 2] {
            let split = build_histograms_blocks_threads(d, &buffers, &bins, threads);
            assert_eq!(split, whole, "threads = {threads}");
        }
    }
}
