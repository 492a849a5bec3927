//! Property tests: the engine's shuffle must agree with a reference
//! in-memory grouping, regardless of split size, thread count and reducer
//! count.

use p3c_check::cases;
use p3c_mapreduce::{Emitter, Engine, MrConfig};
use std::collections::BTreeMap;

fn reference_group(items: &[(u32, u32)]) -> BTreeMap<u32, u64> {
    let mut m = BTreeMap::new();
    for &(k, v) in items {
        *m.entry(k).or_insert(0u64) += v as u64;
    }
    m
}

fn run_engine(items: &[(u32, u32)], cfg: MrConfig) -> BTreeMap<u32, u64> {
    let engine = Engine::new(cfg);
    let mapper = |r: &(u32, u32), out: &mut Emitter<u32, u64>| out.emit(r.0, r.1 as u64);
    let reducer = |k: &u32, vs: Vec<u64>, out: &mut Vec<(u32, u64)>| {
        out.push((*k, vs.into_iter().sum()));
    };
    engine
        .run("prop", items, &mapper, &reducer)
        .unwrap()
        .output
        .into_iter()
        .collect()
}

#[test]
fn shuffle_agrees_with_reference() {
    cases(256, |g| {
        let items = g.vec(0..300, |g| (g.range(0u32..50), g.range(0u32..100)));
        let split_size = g.range(1usize..64);
        let reducers = g.range(1usize..9);
        let threads = g.range(1usize..8);
        let cfg = MrConfig {
            num_reducers: reducers,
            split_size,
            threads,
            ..MrConfig::default()
        };
        assert_eq!(run_engine(&items, cfg), reference_group(&items));
    });
}

#[test]
fn map_only_output_is_identity_ordered() {
    cases(256, |g| {
        let items = g.vec(0..500, |g| g.range(0u64..10_000));
        let split_size = g.range(1usize..64);
        let engine = Engine::new(MrConfig {
            split_size,
            ..MrConfig::default()
        });
        let mapper = |r: &u64, out: &mut Emitter<(), u64>| out.emit((), *r);
        let out = engine.run_map_only("id", &items, &mapper).unwrap().output;
        assert_eq!(out, items);
    });
}

#[test]
fn metrics_conserve_records() {
    cases(256, |g| {
        let items = g.vec(0..200, |g| (g.range(0u32..10), g.range(0u32..10)));
        let split_size = g.range(1usize..32);
        let engine = Engine::new(MrConfig {
            split_size,
            ..MrConfig::default()
        });
        let mapper = |r: &(u32, u32), out: &mut Emitter<u32, u64>| out.emit(r.0, r.1 as u64);
        let reducer = |k: &u32, vs: Vec<u64>, out: &mut Vec<(u32, u64)>| {
            out.push((*k, vs.into_iter().sum()));
        };
        let res = engine.run("conserve", &items, &mapper, &reducer).unwrap();
        assert_eq!(res.metrics.map_input_records, items.len() as u64);
        assert_eq!(res.metrics.map_output_records, items.len() as u64);
        // Every emitted record is shuffled.
        assert_eq!(res.metrics.shuffle_records, items.len() as u64);
        let distinct = reference_group(&items).len() as u64;
        assert_eq!(res.metrics.reduce_input_groups, distinct);
        assert_eq!(res.metrics.output_records, distinct);
    });
}
