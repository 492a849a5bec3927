//! The MapReduce programming model: mappers, reducers, emitter.
//!
//! A map task runs over a whole input split, as in Hadoop: the engine
//! calls [`Mapper::map_split`] once per split, and a mapper that works
//! one record at a time loops over its split.

use crate::weight::Weighable;

/// Collector handed to map tasks; counts emitted records and bytes for the
/// job metrics (Hadoop's "map output records/bytes" counters).
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
    records: u64,
    bytes: u64,
}

impl<K: Weighable, V: Weighable> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Weighable, V: Weighable> Emitter<K, V> {
    /// Creates an empty emitter. Public so mapper implementations can be
    /// unit-tested outside the engine.
    pub fn new() -> Self {
        Self {
            pairs: Vec::new(),
            records: 0,
            bytes: 0,
        }
    }

    /// Emits one intermediate key/value pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.records += 1;
        self.bytes += (key.weight() + value.weight()) as u64;
        self.pairs.push((key, value));
    }

    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Consumes the emitter, returning the emitted pairs. Public for
    /// mapper unit-testing.
    pub fn into_parts(self) -> Vec<(K, V)> {
        self.pairs
    }
}

/// A map task over records of type `I`, producing `(K, V)` pairs.
///
/// Implementations must be [`Sync`]: one mapper instance is shared by all
/// map tasks, exactly like a Hadoop `Mapper` class configured once and
/// instantiated per task. Any per-job configuration ("distributed cache"
/// content) lives in the implementing struct's fields.
pub trait Mapper<I, K, V>: Sync
where
    K: Weighable,
    V: Weighable,
{
    /// Processes a whole input split. Setup and cleanup-phase logic
    /// lives here too (e.g. the paper's MVB mapper, which sorts its
    /// cached split in the cleanup phase).
    fn map_split(&self, split: &[I], out: &mut Emitter<K, V>);
}

/// A reduce task: receives one key with all its values (already grouped by
/// the shuffle) and appends output records.
pub trait Reducer<K, V, O>: Sync {
    /// Folds one key's grouped values into output records.
    fn reduce(&self, key: &K, values: Vec<V>, out: &mut Vec<O>);
}

/// Blanket mapper for plain functions over a split — convenient for
/// small jobs/tests.
impl<I, K, V, F> Mapper<I, K, V> for F
where
    F: Fn(&[I], &mut Emitter<K, V>) + Sync,
    K: Weighable,
    V: Weighable,
{
    fn map_split(&self, split: &[I], out: &mut Emitter<K, V>) {
        self(split, out)
    }
}

/// Blanket reducer for plain functions.
impl<K, V, O, F> Reducer<K, V, O> for F
where
    F: Fn(&K, Vec<V>, &mut Vec<O>) + Sync,
{
    fn reduce(&self, key: &K, values: Vec<V>, out: &mut Vec<O>) {
        self(key, values, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_counts_records_and_bytes() {
        let mut e: Emitter<u32, f64> = Emitter::new();
        e.emit(1, 2.0);
        e.emit(2, 3.0);
        assert_eq!(e.records(), 2);
        assert_eq!(e.bytes(), 2 * 12);
        let pairs = e.into_parts();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn closures_are_mappers_and_reducers() {
        let m = |rs: &[u32], out: &mut Emitter<u32, u32>| {
            for r in rs {
                out.emit(*r % 2, *r);
            }
        };
        let mut e = Emitter::new();
        m.map_split(&[7, 4], &mut e);
        let pairs = e.into_parts();
        assert_eq!(pairs, vec![(1, 7), (0, 4)]);

        let r = |k: &u32, vs: Vec<u32>, out: &mut Vec<(u32, u32)>| {
            out.push((*k, vs.into_iter().sum()));
        };
        let mut out = Vec::new();
        r.reduce(&1, vec![1, 2, 3], &mut out);
        assert_eq!(out, vec![(1, 6)]);
    }
}
