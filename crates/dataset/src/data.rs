//! The row-major dataset container — also the columnar data plane's
//! carrier ([`RowBlock`](crate::RowBlock) is this type): produced by
//! `p3c-datagen`, appended block by block to the clustering service,
//! kept in the MapReduce `DatasetStore`, scanned by the histogram and EM
//! kernels. Row views are free (`&data[i*d..(i+1)*d]`), per-attribute
//! scans are strided iterators, and [`Dataset::columns`] materializes a
//! column-major transpose when a kernel wants contiguous attributes.

use crate::bytes::{self, DecodeError, Reader};

/// An `n × d` dataset stored row-major in one contiguous allocation.
///
/// The P3C model assumes every attribute normalized to `[0,1]`
/// (paper Section 3.1); [`Dataset::normalize`] produces that form and a
/// [`NormalizationMap`] for mapping results back to original coordinates.
///
/// ```
/// use p3c_dataset::Dataset;
///
/// let ds = Dataset::from_rows(vec![vec![0.0, 10.0], vec![4.0, 30.0]]);
/// let (normalized, map) = ds.normalize();
/// assert!(normalized.is_normalized());
/// assert_eq!(normalized.row(1), &[1.0, 1.0]);
/// assert_eq!(map.denormalize(1, 0.5), 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    n: usize,
    d: usize,
    data: Vec<f64>,
}

impl Dataset {
    /// Builds a dataset from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n * d`.
    pub fn new(n: usize, d: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * d, "row-major buffer has wrong length");
        Self { n, d, data }
    }

    /// Builds a dataset from row vectors (all of equal length).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let d = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * d);
        for row in &rows {
            assert_eq!(row.len(), d, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { n, d, data }
    }

    /// Concatenates blocks (all of equal dimensionality) into one
    /// contiguous dataset, rows in argument order — how the incremental
    /// service materializes a cumulative dataset from its append log.
    /// Empty blocks are dimension-neutral; an empty input list yields
    /// the `0 × 0` dataset.
    pub fn concat(blocks: &[&Dataset]) -> Dataset {
        let d = blocks.iter().find(|b| b.n > 0).map_or(0, |b| b.d);
        let n: usize = blocks.iter().map(|b| b.n).sum();
        let mut data = Vec::with_capacity(n * d);
        for block in blocks {
            if block.n > 0 {
                assert_eq!(block.d, d, "concatenating blocks of different widths");
                data.extend_from_slice(&block.data);
            }
        }
        Dataset::new(n, d, data)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.d..(i + 1) * self.d]
    }

    /// Value of point `i` on attribute `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.d + j]
    }

    /// Iterator over row slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.d.max(1)).take(self.n)
    }

    /// Materialized row references — the MapReduce engine's input format
    /// (`&[&[f64]]` chunks into splits without copying point data).
    pub fn row_refs(&self) -> Vec<&[f64]> {
        self.rows().collect()
    }

    /// Raw row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Strided iterator over attribute `j`'s values, in row order — the
    /// column-scan access path of the histogram kernels. Empty on an
    /// empty dataset.
    pub fn column(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(j < self.d, "attribute {j} out of range (d = {})", self.d);
        self.data
            .get(j..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.d)
            .copied()
    }

    /// Materializes the column-major transpose, giving each attribute a
    /// contiguous slice (see [`Columns::col`]).
    pub fn columns(&self) -> Columns {
        let (n, d) = (self.n, self.d);
        let mut data = vec![0.0; n * d];
        for (i, row) in self.rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                data[j * n + i] = v;
            }
        }
        Columns { n, d, data }
    }

    /// Appends the raw block encoding — `u64 n`, `u64 d`, then the `n·d`
    /// values as `f64` bits, all little-endian. The one layout of a row
    /// block at rest: journal append records and snapshot payloads both
    /// carry exactly these bytes.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        bytes::put_usize(buf, self.n);
        bytes::put_usize(buf, self.d);
        bytes::put_f64_run(buf, &self.data);
    }

    /// Decodes one raw block from the reader (see
    /// [`Dataset::encode_into`]). The claimed `n · d` is overflow-checked
    /// and compared against the bytes remaining before anything is
    /// allocated.
    pub fn decode(r: &mut Reader<'_>) -> Result<Dataset, DecodeError> {
        let n = r.usize()?;
        let d = r.usize()?;
        let len = n
            .checked_mul(d)
            .ok_or(DecodeError::Malformed("block size overflow"))?;
        Ok(Dataset {
            n,
            d,
            data: r.f64_run(len)?,
        })
    }

    /// The raw block encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.data.len() * 8);
        self.encode_into(&mut buf);
        buf
    }

    /// Decodes exactly one raw block; trailing bytes are an error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Dataset, DecodeError> {
        let mut r = Reader::new(bytes);
        let ds = Dataset::decode(&mut r)?;
        r.finish()?;
        Ok(ds)
    }

    /// Consumes the dataset, returning `(n, d, row-major buffer)`.
    pub fn into_raw(self) -> (usize, usize, Vec<f64>) {
        (self.n, self.d, self.data)
    }

    /// Per-attribute minima and maxima; `None` on an empty dataset.
    pub fn attribute_ranges(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        if self.n == 0 || self.d == 0 {
            return None;
        }
        let mut mins = vec![f64::INFINITY; self.d];
        let mut maxs = vec![f64::NEG_INFINITY; self.d];
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        Some((mins, maxs))
    }

    /// Whether all values already lie in `[0,1]` (the P3C precondition).
    pub fn is_normalized(&self) -> bool {
        self.data.iter().all(|&v| (0.0..=1.0).contains(&v))
    }

    /// Min–max normalizes every attribute to `[0,1]`, returning the
    /// normalized dataset and the map back to original coordinates.
    /// Constant attributes map to `0.5`.
    pub fn normalize(&self) -> (Dataset, NormalizationMap) {
        let (mins, maxs) = match self.attribute_ranges() {
            Some(r) => r,
            None => {
                return (
                    self.clone(),
                    NormalizationMap {
                        mins: vec![],
                        scales: vec![],
                    },
                )
            }
        };
        let scales: Vec<f64> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi > lo { hi - lo } else { 0.0 })
            .collect();
        let mut data = Vec::with_capacity(self.data.len());
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                if scales[j] > 0.0 {
                    data.push((v - mins[j]) / scales[j]);
                } else {
                    data.push(0.5);
                }
            }
        }
        (
            Dataset::new(self.n, self.d, data),
            NormalizationMap { mins, scales },
        )
    }

    /// Extracts the sub-dataset of the given point ids (in the given order).
    pub fn subset(&self, ids: &[usize]) -> Dataset {
        let mut data = Vec::with_capacity(ids.len() * self.d);
        for &i in ids {
            data.extend_from_slice(self.row(i));
        }
        Dataset::new(ids.len(), self.d, data)
    }
}

/// A column-major `d × n` transpose of a [`Dataset`]: attribute `j` is
/// the contiguous slice `data[j*n..(j+1)*n]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    n: usize,
    d: usize,
    data: Vec<f64>,
}

impl Columns {
    /// Number of rows in the originating dataset.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the originating dataset had no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of attributes.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Attribute `j`'s values as one contiguous slice, in row order.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n..(j + 1) * self.n]
    }
}

/// The affine map produced by [`Dataset::normalize`]; lets interval bounds
/// found in normalized space be reported in original coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizationMap {
    mins: Vec<f64>,
    scales: Vec<f64>,
}

impl NormalizationMap {
    /// Maps a normalized value on attribute `j` back to the original scale.
    pub fn denormalize(&self, j: usize, v: f64) -> f64 {
        self.mins[j] + v * self.scales[j]
    }

    /// Maps an original value on attribute `j` into `[0,1]`.
    pub fn normalize(&self, j: usize, v: f64) -> f64 {
        if self.scales[j] > 0.0 {
            (v - self.mins[j]) / self.scales[j]
        } else {
            0.5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 40.0]])
    }

    #[test]
    fn shape_and_access() {
        let ds = sample();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.row(1), &[5.0, 20.0]);
        assert_eq!(ds.get(2, 1), 40.0);
        assert_eq!(ds.rows().count(), 3);
    }

    #[test]
    fn normalization_maps_to_unit_interval() {
        let (norm, map) = sample().normalize();
        assert!(norm.is_normalized());
        assert_eq!(norm.row(0), &[0.0, 0.0]);
        assert_eq!(norm.row(2), &[1.0, 1.0]);
        assert!((norm.get(1, 0) - 0.5).abs() < 1e-15);
        assert!((norm.get(1, 1) - 1.0 / 3.0).abs() < 1e-15);
        // Roundtrip through the map.
        assert!((map.denormalize(1, norm.get(1, 1)) - 20.0).abs() < 1e-12);
        assert!((map.normalize(0, 5.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn constant_attribute_maps_to_half() {
        let ds = Dataset::from_rows(vec![vec![7.0, 1.0], vec![7.0, 2.0]]);
        let (norm, map) = ds.normalize();
        assert_eq!(norm.get(0, 0), 0.5);
        assert_eq!(norm.get(1, 0), 0.5);
        assert_eq!(map.normalize(0, 7.0), 0.5);
    }

    #[test]
    fn subset_selects_rows_in_order() {
        let ds = sample();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.row(0), ds.row(2));
        assert_eq!(sub.row(1), ds.row(0));
    }

    #[test]
    fn attribute_ranges() {
        let (mins, maxs) = sample().attribute_ranges().unwrap();
        assert_eq!(mins, vec![0.0, 10.0]);
        assert_eq!(maxs, vec![10.0, 40.0]);
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::from_rows(vec![]);
        assert!(ds.is_empty());
        assert!(ds.attribute_ranges().is_none());
        let (norm, _) = ds.normalize();
        assert!(norm.is_empty());
    }

    #[test]
    fn row_refs_chunk_into_splits() {
        let ds = sample();
        let refs = ds.row_refs();
        assert_eq!(refs.len(), 3);
        let splits: Vec<&[&[f64]]> = refs.chunks(2).collect();
        assert_eq!(splits.len(), 2);
        assert_eq!(splits[0][1], ds.row(1));
    }

    #[test]
    fn column_iteration_and_transpose_match_rows() {
        let ds = sample();
        assert_eq!(ds.column(1).collect::<Vec<_>>(), vec![10.0, 20.0, 40.0]);
        let cols = ds.columns();
        assert_eq!(cols.col(0), &[0.0, 5.0, 10.0]);
        assert_eq!(cols.col(1), &[10.0, 20.0, 40.0]);
        assert_eq!((cols.len(), cols.dim()), (3, 2));
        // A zero-row dataset of positive width scans as empty columns.
        let empty = Dataset::new(0, 2, vec![]);
        assert_eq!(empty.column(1).count(), 0);
        assert!(empty.columns().is_empty());
    }

    #[test]
    fn concat_keeps_row_order_and_ignores_empty_blocks() {
        let a = sample();
        let b = Dataset::from_rows(vec![vec![1.0, 2.0]]);
        let empty = Dataset::new(0, 7, vec![]);
        let all = Dataset::concat(&[&a, &empty, &b]);
        assert_eq!((all.len(), all.dim()), (4, 2));
        assert_eq!(all.row(3), &[1.0, 2.0]);
        assert_eq!(Dataset::concat(&[]), Dataset::new(0, 0, vec![]));
    }

    #[test]
    fn raw_block_bytes_roundtrip_bit_exactly() {
        let ds = Dataset::new(
            2,
            2,
            vec![-0.0, f64::from_bits(0x7ff8_dead_beef_0001), 1.0, 0.5],
        );
        let bytes = ds.to_bytes();
        assert_eq!(bytes.len(), 16 + 4 * 8);
        assert_eq!(
            &bytes[..16],
            &[2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
        );
        let back = Dataset::from_bytes(&bytes).unwrap();
        let bits = |d: &Dataset| d.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((back.len(), back.dim()), (2, 2));
        assert_eq!(bits(&back), bits(&ds));
        let empty = Dataset::from_rows(vec![]);
        assert_eq!(Dataset::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn raw_block_decoder_rejects_hostile_and_malformed_bytes() {
        // Sixteen hostile bytes: `n · d · 8` overflows (and `n · d`
        // alone would be an absurd reservation).
        for (n, d) in [
            (1u64 << 61, 1u64),
            (u64::MAX, u64::MAX),
            (1 << 40, 1 << 40),
            (3, 1),
        ] {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.extend_from_slice(&d.to_le_bytes());
            assert!(Dataset::from_bytes(&bytes).is_err(), "n={n} d={d}");
        }
        assert_eq!(Dataset::from_bytes(&[0u8; 8]), Err(DecodeError::Truncated));
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Dataset::from_bytes(&bytes),
            Err(DecodeError::Malformed(_))
        ));
        bytes.truncate(bytes.len() - 2);
        assert!(Dataset::from_bytes(&bytes).is_err());
    }

    #[test]
    #[should_panic(expected = "row-major buffer")]
    fn wrong_buffer_length_panics() {
        let _ = Dataset::new(2, 2, vec![0.0; 3]);
    }
}
