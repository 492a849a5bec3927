//! The incremental clustering service's contracts (DESIGN.md §14).
//!
//! * **Byte-identity** — after any schedule of appends and retracts,
//!   `recluster` returns exactly the model a from-scratch
//!   `P3cPlusLight` fit produces on the cumulative data: equal
//!   `Clustering` (bit-for-bit interval bounds), equal cores, equal
//!   pipeline stats. Randomized schedules are drawn from the seeded
//!   generator, 16 of them per run.
//! * **Sublinear lineage** — an append-only stream with a stable core
//!   set takes the fast finalization path and answers core-generation
//!   levels from the support cache instead of scanning.
//! * **Spill** — under a tight store budget, random schedules and
//!   multi-tenant streams force evictions and spill reloads through the
//!   segmented codec, and the models remain byte-identical to batch.

use p3c_check::cases;
use p3c_suite::core::config::P3cParams;
use p3c_suite::core::incremental::{IncrementalLight, ReclusterPath};
use p3c_suite::core::p3cplus::{P3cPlusLight, P3cResult};
use p3c_suite::datagen::{generate, SyntheticSpec};
use p3c_suite::dataset::RowBlock;
use p3c_suite::mapreduce::{ClusterService, DatasetStore};
use std::sync::Arc;

fn spec(n: usize, d: usize, k: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        n,
        d,
        num_clusters: k,
        noise_fraction: 0.1,
        max_cluster_dims: 4.min(d),
        seed,
        ..SyntheticSpec::default()
    }
}

fn chunk(block: &RowBlock, start: usize, len: usize) -> RowBlock {
    block.subset(&(start..start + len).collect::<Vec<_>>())
}

fn batch(cumulative: RowBlock, params: &P3cParams) -> P3cResult {
    P3cPlusLight::new(params.clone()).cluster(&cumulative)
}

/// Full-result equality: clustering (memberships, subspaces, interval
/// bounds bit-for-bit via `AttrInterval: PartialEq` on f64), cores, and
/// the pipeline stats batch would report.
fn assert_identical(tag: &str, inc: &P3cResult, bat: &P3cResult) {
    assert_eq!(inc.clustering, bat.clustering, "{tag}: clustering differs");
    assert_eq!(inc.cores, bat.cores, "{tag}: cores differ");
    assert_eq!(inc.stats.bins, bat.stats.bins, "{tag}");
    assert_eq!(
        inc.stats.relevant_intervals, bat.stats.relevant_intervals,
        "{tag}"
    );
    assert_eq!(inc.stats.cores, bat.stats.cores, "{tag}");
    assert_eq!(inc.stats.outliers, bat.stats.outliers, "{tag}");
    assert_eq!(
        inc.stats.core_gen.candidates_per_level, bat.stats.core_gen.candidates_per_level,
        "{tag}"
    );
}

/// One schedule step: append a chunk of the stream or retract the
/// oldest live block.
#[derive(Debug, Clone, Copy)]
enum Step {
    Append(usize),
    RetractOldest,
}

/// Rows a schedule appends in all.
fn appended_rows(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| match s {
            Step::Append(n) => *n,
            Step::RetractOldest => 0,
        })
        .sum()
}

/// Runs one schedule over 8-attribute rows, checking every recluster
/// against batch; returns the lineage path each recluster took, and
/// whether some core-generation level missed the support cache.
fn run_schedule(
    steps: &[Step],
    params: &P3cParams,
    seed: u64,
    store: &DatasetStore,
) -> Vec<(ReclusterPath, bool)> {
    let data = generate(&spec(appended_rows(steps).max(1), 8, 3, seed));
    let all = data.dataset;
    let mut eng = IncrementalLight::new(format!("sched-{seed}"), params.clone());
    let mut fed = 0usize;
    // (id, start, len) of live blocks, oldest first.
    let mut live: Vec<(u64, usize, usize)> = Vec::new();
    let mut paths = Vec::with_capacity(steps.len());
    for (step_no, step) in steps.iter().enumerate() {
        match step {
            Step::Append(len) => {
                let id = eng.append(store, chunk(&all, fed, *len)).unwrap();
                live.push((id, fed, *len));
                fed += len;
            }
            Step::RetractOldest => {
                if let Some((id, _, _)) = live.first().copied() {
                    assert!(eng.retract(store, id).unwrap());
                    live.remove(0);
                }
            }
        }
        let scans = eng.stats().support_scans;
        let outcome = eng.recluster(store).unwrap();
        let missed = eng.stats().support_scans > scans;
        let refs: Vec<&RowBlock> = Vec::new();
        let mut cumulative = RowBlock::concat(&refs);
        if !live.is_empty() {
            let blocks: Vec<RowBlock> = live
                .iter()
                .map(|&(_, start, len)| chunk(&all, start, len))
                .collect();
            let refs: Vec<&RowBlock> = blocks.iter().collect();
            cumulative = RowBlock::concat(&refs);
        }
        let expected = batch(cumulative, params);
        assert_identical(
            &format!("seed {seed} step {step_no}"),
            &outcome.result,
            &expected,
        );
        paths.push((outcome.path, missed));
    }
    paths
}

/// Any interleaving of appends and retracts stays byte-identical to a
/// from-scratch batch run at every single recluster. Sixteen seeded
/// schedules of 3–6 steps: op 0 of 0..=3 retracts the oldest live block
/// (1-in-4 weight), the rest append a fresh chunk of 200–699 rows. The
/// default bin rule steps with almost every append, so every other
/// schedule runs Sturges, whose bin count holds between powers of two
/// and lets appends take the fast path. Each schedule runs twice: over
/// an unbounded store, and over one that holds about a third of its
/// row bytes, so full reclusters read blocks reloaded from their
/// spills, cached or not. Under both stores some full recluster must
/// have missed the support cache, so that the membership read the
/// bitmaps a support count filled.
#[test]
fn random_schedules_match_batch() {
    let mut paths = Vec::new();
    let mut tight_paths = Vec::new();
    let mut schedule = 0;
    let mut spill_loads = 0;
    cases(16, |g| {
        let params = match schedule % 2 {
            0 => P3cParams::default(),
            _ => P3cParams {
                bin_rule: p3c_suite::core::BinRuleChoice::Sturges,
                ..P3cParams::default()
            },
        };
        schedule += 1;
        let seed = g.range(0u64..1000);
        let steps: Vec<Step> = (0..g.range(3usize..7))
            .map(|_| match (g.range(0usize..4), g.range(200usize..700)) {
                (0, _) => Step::RetractOldest,
                (_, len) => Step::Append(len),
            })
            .collect();
        let store = DatasetStore::new();
        paths.extend(run_schedule(&steps, &params, seed, &store));
        let row_bytes = appended_rows(&steps) * 8 * 8;
        let tight = DatasetStore::with_budget(row_bytes / 3);
        tight_paths.extend(run_schedule(&steps, &params, seed, &tight));
        spill_loads += tight.stats().spill_loads;
    });
    assert_eq!(
        paths, tight_paths,
        "the store budget changed a lineage path"
    );
    for path in [ReclusterPath::Fast, ReclusterPath::Full] {
        assert!(
            paths.iter().any(|&(p, _)| p == path),
            "no {path:?} recluster in {paths:?}"
        );
    }
    for (store, paths) in [("unbounded", &paths), ("budgeted", &tight_paths)] {
        assert!(
            paths.contains(&(ReclusterPath::Full, true)),
            "no full recluster with a support miss under the {store} store: {paths:?}"
        );
    }
    assert!(spill_loads > 0, "no budgeted run reloaded a block");
}

#[test]
fn append_only_stream_goes_fast_and_sublinear_in_scans() {
    // Sturges keeps its bin count constant between powers of two, so a
    // stream inside one plateau (4500..8000 rows → 14 bins throughout)
    // exercises pure delta maintenance: no histogram rebuild, a warm
    // support cache, and cores whose signatures survive each append.
    let params = P3cParams {
        bin_rule: p3c_suite::core::BinRuleChoice::Sturges,
        ..P3cParams::default()
    };
    let data = generate(&spec(8000, 8, 3, 42));
    let all = data.dataset;
    let store = DatasetStore::new();
    let mut eng = IncrementalLight::new("stream", params.clone());
    eng.append(&store, chunk(&all, 0, 4500)).unwrap();
    let mut fed = 4500;
    eng.recluster(&store).unwrap();
    let mut fast_seen = 0;
    for step in [700, 700, 700, 700, 700] {
        eng.append(&store, chunk(&all, fed, step)).unwrap();
        fed += step;
        let outcome = eng.recluster(&store).unwrap();
        let expected = batch(chunk(&all, 0, fed), &params);
        assert_identical(&format!("n={fed}"), &outcome.result, &expected);
        if outcome.path == ReclusterPath::Fast {
            fast_seen += 1;
        }
    }
    assert!(
        fast_seen >= 1,
        "append-only stream with stable cores never finalized from maintained state: {:?}",
        eng.stats()
    );
    let s = eng.stats();
    assert!(
        s.cached_levels > 0,
        "support cache never answered a whole level: {s:?}"
    );
}

#[test]
fn lru_eviction_reload_stays_identical() {
    // Budget far below the combined working set of two tenants: blocks
    // spill through the segmented codec and reload on demand.
    let params = P3cParams::default();
    let store = Arc::new(DatasetStore::with_budget(120_000));
    let service: ClusterService<IncrementalLight> = ClusterService::new(Arc::clone(&store), None);
    let data_a = generate(&spec(3000, 8, 3, 1));
    let data_b = generate(&spec(3000, 8, 3, 2));
    let all_a = data_a.dataset;
    let all_b = data_b.dataset;
    service
        .create("a", IncrementalLight::new("a", params.clone()))
        .unwrap();
    service
        .create("b", IncrementalLight::new("b", params.clone()))
        .unwrap();
    let mut fed = 0;
    for step in [1000, 1000, 1000] {
        service.append("a", chunk(&all_a, fed, step)).unwrap();
        service.append("b", chunk(&all_b, fed, step)).unwrap();
        fed += step;
        // Alternating tenants under a tight budget: each recluster
        // evicts the other tenant's blocks and reloads its own.
        let out_a = service.recluster("a").unwrap();
        let out_b = service.recluster("b").unwrap();
        assert_identical(
            &format!("tenant a n={fed}"),
            &out_a.result,
            &batch(chunk(&all_a, 0, fed), &params),
        );
        assert_identical(
            &format!("tenant b n={fed}"),
            &out_b.result,
            &batch(chunk(&all_b, 0, fed), &params),
        );
    }
    let stats = store.stats();
    assert!(stats.evictions > 0, "budget never evicted: {stats:?}");
    assert!(stats.spills > 0, "nothing spilled: {stats:?}");
    assert!(
        stats.spill_loads > 0,
        "spilled blocks never reloaded: {stats:?}"
    );
    let m = service.metrics();
    assert_eq!(m.appends, 6);
    assert_eq!(m.reclusters, 6);
}

#[test]
fn concurrent_tenants_cluster_independently() {
    let params = P3cParams::default();
    let service: Arc<ClusterService<IncrementalLight>> = Arc::new(ClusterService::new(
        Arc::new(DatasetStore::new()),
        Some(1 << 26),
    ));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let service = Arc::clone(&service);
        let params = params.clone();
        handles.push(std::thread::spawn(move || {
            let name = format!("tenant-{t}");
            let data = generate(&spec(2400, 6, 2, 100 + t));
            let all = data.dataset;
            service
                .create(&name, IncrementalLight::new(&name, params.clone()))
                .unwrap();
            let mut fed = 0;
            for step in [800, 800, 800] {
                service.append(&name, chunk(&all, fed, step)).unwrap();
                fed += step;
                let outcome = service.recluster(&name).unwrap();
                let expected = batch(chunk(&all, 0, fed), &params);
                assert_identical(&format!("{name} n={fed}"), &outcome.result, &expected);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(service.metrics().reclusters, 9);
    assert_eq!(service.names().len(), 3);
}

#[test]
fn retract_then_append_recovers_fast_path_eventually() {
    // After a retract forces a full rebuild, subsequent append-only
    // reclusters may re-arm the fast path once the state is rebuilt.
    let params = P3cParams::default();
    let data = generate(&spec(5000, 8, 3, 9));
    let all = data.dataset;
    let store = DatasetStore::new();
    let mut eng = IncrementalLight::new("t", params.clone());
    let a = eng.append(&store, chunk(&all, 0, 1000)).unwrap();
    eng.append(&store, chunk(&all, 1000, 1500)).unwrap();
    eng.recluster(&store).unwrap();
    assert!(eng.retract(&store, a).unwrap());
    let outcome = eng.recluster(&store).unwrap();
    assert_eq!(outcome.path, ReclusterPath::Full, "retract dirties lineage");
    // The cumulative stream is now rows 1000..2500; extend it and keep
    // checking identity on the shifted stream.
    let mut live: Vec<(usize, usize)> = vec![(1000, 1500)];
    let mut fed = 2500;
    for step in [800, 800] {
        eng.append(&store, chunk(&all, fed, step)).unwrap();
        live.push((fed, step));
        fed += step;
        let outcome = eng.recluster(&store).unwrap();
        let blocks: Vec<RowBlock> = live.iter().map(|&(s, l)| chunk(&all, s, l)).collect();
        let refs: Vec<&RowBlock> = blocks.iter().collect();
        let expected = batch(RowBlock::concat(&refs), &params);
        assert_identical(&format!("post-retract n={fed}"), &outcome.result, &expected);
    }
}
