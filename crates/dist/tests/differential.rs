//! Cross-driver differential suite: the in-memory and dataflow drivers
//! of the multi-round greedy and of GreeDi must select **bitwise
//! identical** subsets — same ids, same order, same objective-value bits,
//! same round statistics — on proptest-generated datasets (clustered,
//! degenerate/duplicate, adversarially partitioned, `k` near 0 and near
//! `n`), at 1, 2, and 8 pool threads.
//!
//! Kernel dispatch: nothing here calls the SIMD kernels directly, but CI
//! runs this suite under `SUBMOD_KERNELS=scalar` as well as the default
//! dispatch (the workspace test jobs), so the equality also holds with
//! the portable kernels forced.

use proptest::prelude::*;
use submod_core::{GraphBuilder, NodeId, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{MemoryBudget, Pipeline};
use submod_dist::{
    distributed_greedy, distributed_greedy_dataflow, greedi, greedi_dataflow, DistGreedyConfig,
    DistGreedyReport, PartitionStyle,
};
use submod_exec::with_threads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// A clustered instance: `clusters` tight groups with strong
/// intra-cluster similarities, weak ring links between clusters, and
/// per-cluster utility bands.
fn clustered_instance(
    clusters: usize,
    per_cluster: usize,
    seed: u64,
) -> (SimilarityGraph, PairwiseObjective) {
    let n = clusters * per_cluster;
    let mut b = GraphBuilder::new(n);
    let mut state = seed ^ 0x005E_EDC1u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    for c in 0..clusters {
        let base = (c * per_cluster) as u64;
        for i in 0..per_cluster as u64 {
            for j in i + 1..per_cluster as u64 {
                if next() % 3 != 0 {
                    let s = 0.5 + (next() % 400) as f32 / 1000.0;
                    b.add_undirected(base + i, base + j, s).expect("edge");
                }
            }
        }
        // A weak link to the next cluster.
        let other = (((c + 1) % clusters) * per_cluster) as u64;
        if other != base {
            b.add_undirected(base, other, 0.05).expect("bridge");
        }
    }
    let graph = b.build();
    let utilities: Vec<f32> = (0..n)
        .map(|i| {
            let cluster_band = (i / per_cluster) as f32 * 0.1;
            0.2 + cluster_band + (next() % 500) as f32 / 1000.0
        })
        .collect();
    (graph, PairwiseObjective::from_alpha(0.8, utilities).expect("objective"))
}

/// A degenerate instance: heavy duplication — every point appears as a
/// clone group with identical utility and identical neighborhoods, so
/// ties are everywhere and only the deterministic id tie-break decides.
fn degenerate_instance(groups: usize, clones: usize) -> (SimilarityGraph, PairwiseObjective) {
    let n = groups * clones;
    let mut b = GraphBuilder::new(n);
    for g in 0..groups {
        let base = (g * clones) as u64;
        // Clones of a group are mutually near-identical.
        for i in 0..clones as u64 {
            for j in i + 1..clones as u64 {
                b.add_undirected(base + i, base + j, 0.75).expect("edge");
            }
        }
        // Every clone links identically to the next group's clones.
        let other = (((g + 1) % groups) * clones) as u64;
        if other != base {
            for i in 0..clones as u64 {
                for j in 0..clones as u64 {
                    b.add_undirected(base + i, other + j, 0.25).expect("edge");
                }
            }
        }
    }
    let graph = b.build();
    // Identical utilities within a group (and across half the groups).
    let utilities: Vec<f32> = (0..n).map(|i| 0.4 + ((i / clones) % 2) as f32 * 0.3).collect();
    (graph, PairwiseObjective::from_alpha(0.7, utilities).expect("objective"))
}

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

/// Everything observable about a run, bit-exact: selected ids in order,
/// the objective value's bits, and the per-round statistics.
type Fingerprint = (Vec<u64>, u64, Vec<(usize, usize, usize, usize)>);

fn fingerprint(report: &DistGreedyReport) -> Fingerprint {
    (
        report.selection.selected().iter().map(|v| v.raw()).collect(),
        report.selection.objective_value().to_bits(),
        report
            .rounds
            .iter()
            .map(|r| (r.input_size, r.target, r.partitions, r.output_size))
            .collect(),
    )
}

/// Runs both drivers at every thread count and asserts one bit-exact
/// outcome, returning it.
fn assert_drivers_identical(
    graph: &SimilarityGraph,
    objective: &PairwiseObjective,
    ground: &[NodeId],
    k: usize,
    config: &DistGreedyConfig,
    workers: usize,
) -> Fingerprint {
    let mut outcomes = Vec::new();
    for &threads in &THREAD_COUNTS {
        let (mem, df) = with_threads(threads, || {
            let mem = distributed_greedy(graph, objective, ground, k, config).expect("in-memory");
            let pipeline = Pipeline::new(workers).expect("pipeline");
            let df = distributed_greedy_dataflow(&pipeline, graph, objective, ground, k, config)
                .expect("dataflow");
            (mem, df)
        });
        assert_eq!(
            fingerprint(&mem),
            fingerprint(&df),
            "drivers diverged at {threads} threads (machines {}, rounds {}, k {k})",
            config.machines(),
            config.rounds()
        );
        outcomes.push(fingerprint(&mem));
    }
    assert_eq!(outcomes[0], outcomes[1], "thread-count variance (1 vs 2)");
    assert_eq!(outcomes[0], outcomes[2], "thread-count variance (1 vs 8)");
    outcomes.pop().expect("three outcomes")
}

#[test]
fn degenerate_duplicate_points_tie_break_identically() {
    // All-equal gains everywhere: only the shared id tie-break decides,
    // so any divergence between the argmax order and the queue order
    // shows up immediately.
    let (graph, objective) = degenerate_instance(6, 5);
    let n = graph.num_nodes();
    for (machines, rounds) in [(1usize, 1usize), (3, 2), (5, 4)] {
        let config = DistGreedyConfig::new(machines, rounds).unwrap().seed(13);
        assert_drivers_identical(&graph, &objective, &ground(n), n / 3, &config, 3);
    }
}

#[test]
fn k_near_zero_and_near_n_are_identical() {
    let (graph, objective) = clustered_instance(4, 8, 21);
    let n = graph.num_nodes();
    for k in [0usize, 1, 2, n - 2, n - 1, n] {
        let config = DistGreedyConfig::new(4, 3).unwrap().seed(2).adaptive(true);
        let out = assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 4);
        assert_eq!(out.0.len(), k, "selection size at k = {k}");
    }
}

#[test]
fn adversarial_partitions_are_identical() {
    // The §6.4 worst case: the whole reference solution forced onto
    // machine 0 in round 1, on both drivers.
    let (graph, objective) = clustered_instance(3, 10, 5);
    let n = graph.num_nodes();
    let reference = submod_core::greedy_select(&graph, &objective, 6).unwrap();
    let config = DistGreedyConfig::new(5, 4)
        .unwrap()
        .seed(3)
        .adversarial_first_round(reference.selected().to_vec());
    assert_drivers_identical(&graph, &objective, &ground(n), 6, &config, 3);
}

#[test]
fn memory_pressure_does_not_change_the_selection() {
    // A crushing 256-byte worker budget forces the engine-resident pool
    // to spill; the selection must not move by a bit.
    let (graph, objective) = clustered_instance(6, 12, 9);
    let n = graph.num_nodes();
    let config = DistGreedyConfig::new(4, 3).unwrap().seed(11);
    let mem = distributed_greedy(&graph, &objective, &ground(n), 10, &config).unwrap();
    let pipeline =
        Pipeline::builder().workers(4).memory_budget(MemoryBudget::bytes(256)).build().unwrap();
    let df = distributed_greedy_dataflow(&pipeline, &graph, &objective, &ground(n), 10, &config)
        .unwrap();
    assert_eq!(fingerprint(&mem), fingerprint(&df));
    assert!(pipeline.metrics().bytes_spilled > 0, "the budget must have forced spills");
}

#[test]
fn batched_winner_passes_are_identical_at_every_batch_size() {
    // The multi-winner engine passes must select the identical subset at
    // every batch size as at the default batch and as the in-memory
    // driver, at every thread count.
    let (graph, objective) = clustered_instance(4, 8, 33);
    let n = graph.num_nodes();
    let default_config = DistGreedyConfig::new(3, 2).unwrap().seed(19).adaptive(true);
    let default_batch =
        assert_drivers_identical(&graph, &objective, &ground(n), n / 4, &default_config, 3);
    for batch in [1usize, 2, 3, 8, 64] {
        let config = default_config.clone().winner_batch(batch);
        let batched = assert_drivers_identical(&graph, &objective, &ground(n), n / 4, &config, 3);
        assert_eq!(batched, default_batch, "winner_batch {batch} changed the outcome");
    }
}

#[test]
fn batched_winner_invalidation_falls_back_identically() {
    // Forced invalidation: the degenerate clone groups have 0.75-weight
    // intra-group edges and identical utilities, so the moment a clone is
    // popped every other candidate in its group drops far below the batch
    // threshold τ. With small batches nearly every replay certifies one
    // pop and invalidates the rest, exercising the fallback passes — and
    // the selection still must not move by a bit.
    let (graph, objective) = degenerate_instance(5, 6);
    let n = graph.num_nodes();
    let default_config = DistGreedyConfig::new(2, 2).unwrap().seed(7);
    let default_batch =
        assert_drivers_identical(&graph, &objective, &ground(n), n / 2, &default_config, 3);
    for batch in [1usize, 2, 4, 16] {
        let config = default_config.clone().winner_batch(batch);
        let batched = assert_drivers_identical(&graph, &objective, &ground(n), n / 2, &config, 3);
        assert_eq!(batched, default_batch, "winner_batch {batch} changed the outcome");
    }
}

#[test]
fn greedi_drivers_are_identical_across_threads() {
    let (graph, objective) = clustered_instance(4, 9, 17);
    for style in [PartitionStyle::Arbitrary, PartitionStyle::Random] {
        let mut outcomes = Vec::new();
        for &threads in &THREAD_COUNTS {
            let (mem, df) = with_threads(threads, || {
                let mem = greedi(&graph, &objective, 7, 4, style, 3).expect("in-memory");
                let pipeline = Pipeline::new(3).expect("pipeline");
                let df = greedi_dataflow(&pipeline, &graph, &objective, 7, 4, style, 3)
                    .expect("dataflow");
                (mem, df)
            });
            let fp = |r: &submod_dist::GreediReport| {
                (
                    r.selection.selected().iter().map(|v| v.raw()).collect::<Vec<_>>(),
                    r.selection.objective_value().to_bits(),
                    r.merge.union_size,
                )
            };
            assert_eq!(fp(&mem), fp(&df), "{style:?} diverged at {threads} threads");
            outcomes.push(fp(&mem));
        }
        assert_eq!(outcomes[0], outcomes[1], "{style:?} thread variance");
        assert_eq!(outcomes[0], outcomes[2], "{style:?} thread variance");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clustered datasets, random shapes: both drivers, every thread
    /// count, one bit-exact outcome.
    #[test]
    fn clustered_instances_are_identical(
        clusters in 2usize..5,
        per_cluster in 4usize..9,
        seed in 0u64..200,
        machines in 1usize..6,
        rounds in 1usize..4,
        adaptive in any::<bool>(),
    ) {
        let (graph, objective) = clustered_instance(clusters, per_cluster, seed);
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let config = DistGreedyConfig::new(machines, rounds)
            .expect("config")
            .seed(seed)
            .adaptive(adaptive);
        assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 3);
    }

    /// Degenerate shapes: duplicate-heavy clone groups with random clone
    /// widths — the tie-break stress test, under random configurations.
    #[test]
    fn degenerate_instances_are_identical(
        groups in 2usize..6,
        clones in 2usize..6,
        machines in 1usize..5,
        rounds in 1usize..4,
        seed in 0u64..200,
    ) {
        let (graph, objective) = degenerate_instance(groups, clones);
        let n = graph.num_nodes();
        let k = (n / 3).max(1);
        let config = DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        assert_drivers_identical(&graph, &objective, &ground(n), k, &config, 3);
    }

    /// Batched-winner passes under random shapes, batch sizes, and
    /// configurations: bit-exact against the default-batch dataflow
    /// driver and the in-memory driver at every thread count.
    #[test]
    fn batched_instances_are_identical(
        clusters in 2usize..5,
        per_cluster in 4usize..8,
        seed in 0u64..200,
        machines in 1usize..5,
        rounds in 1usize..4,
        batch in 1usize..24,
    ) {
        let (graph, objective) = clustered_instance(clusters, per_cluster, seed);
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let default_config =
            DistGreedyConfig::new(machines, rounds).expect("config").seed(seed);
        let default_batch =
            assert_drivers_identical(&graph, &objective, &ground(n), k, &default_config, 3);
        let batched_config = default_config.winner_batch(batch);
        let batched =
            assert_drivers_identical(&graph, &objective, &ground(n), k, &batched_config, 3);
        prop_assert_eq!(batched, default_batch);
    }

    /// GreeDi under random shapes and both partition styles.
    #[test]
    fn greedi_instances_are_identical(
        clusters in 2usize..4,
        per_cluster in 4usize..8,
        machines in 1usize..5,
        seed in 0u64..200,
        random_style in any::<bool>(),
    ) {
        let (graph, objective) = clustered_instance(clusters, per_cluster, seed);
        let n = graph.num_nodes();
        let k = (n / 4).max(1);
        let style =
            if random_style { PartitionStyle::Random } else { PartitionStyle::Arbitrary };
        let mem = greedi(&graph, &objective, k, machines, style, seed).expect("in-memory");
        let pipeline = Pipeline::new(3).expect("pipeline");
        let df = greedi_dataflow(&pipeline, &graph, &objective, k, machines, style, seed)
            .expect("dataflow");
        prop_assert_eq!(mem.selection.selected(), df.selection.selected());
        prop_assert_eq!(
            mem.selection.objective_value().to_bits(),
            df.selection.objective_value().to_bits()
        );
        prop_assert_eq!(mem.merge, df.merge);
    }
}
