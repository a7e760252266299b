//! The three workloads: how each builds its inputs (set-up), what its
//! timed job calls, and how a job's output is checked.
//!
//! Every workload uses a CIFAR-100-like dataset (64-d, 100 classes,
//! α = 0.9, k = n/10) and the paper's distributed configuration of
//! 8 machines × 4 rounds with adaptive partitioning. Inputs are built
//! directly from `ClusteredDataset::generate`, `CoarseClassifier::fit` and
//! `margin_utilities`; nothing goes through `build_instance` or the k-NN
//! graph cache, so set-up time never depends on cache state.

use crate::Error;
use std::path::{Path, PathBuf};
use submod_core::{greedy_select, NodeId, PairwiseObjective, Selection, SimilarityGraph};
use submod_data::{margin_utilities, ClusteredDataset, CoarseClassifier, DatasetConfig};
use submod_dataflow::{MemoryBudget, Pipeline, PipelineMetrics};
use submod_dist::{
    bound_dataflow, bound_in_memory, complete_selection, distributed_greedy,
    distributed_greedy_dataflow_journaled, distributed_greedy_dataflow_with_stats, BoundingConfig,
    BoundingOutcome, DistGreedyConfig, SamplingStrategy,
};
use submod_knn::{build_knn_graph, build_knn_graph_store, Embeddings, KnnBackend};

/// Seed of the bounding sampler and of the greedy partitioner. Fixed:
/// `--seed` varies the dataset, not the algorithm.
const ALGO_SEED: u64 = 17;
/// Per-worker memory budget of the larger-than-memory workload.
const LTM_BUDGET_BYTES: u64 = 8 * 1024;
/// Slack over the budget a worker buffer may show before it spills: the
/// engine checks the budget after appending a record, so a buffer can
/// exceed it by at most one record (the repository's own
/// larger-than-memory tests allow the same 4 KiB).
const BUDGET_SLACK_BYTES: u64 = 4096;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 50 k points: k-NN build, in-memory bounding, distributed greedy.
    Pipeline50k,
    /// 50 k points: batched dataflow greedy on a graph built in set-up.
    Dataflow50k,
    /// 10 k points: mapped store, dataflow bounding and journaled
    /// lockstep dataflow greedy under an 8 KiB per-worker budget.
    Ltm10k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Pipeline50k, Workload::Dataflow50k, Workload::Ltm10k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline50k => "pipeline-50k",
            Workload::Dataflow50k => "dataflow-50k",
            Workload::Ltm10k => "ltm-10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of the `submod_exec` pool for this workload's runs.
    ///
    /// `pipeline-50k` runs on `nproc` threads: its k-NN build is
    /// compute-bound and enters a pool region per query block, so it is
    /// where the `exec` layer (region entries, parks, steals) is
    /// measured. The two pass-heavy dataflow workloads leave one core to
    /// the host: on a 2-vCPU VM a pool on both vCPUs parks and wakes a
    /// vCPU in every one of their thousands of engine passes, the
    /// hypervisor bills the wake-ups as steal time, and their job times
    /// doubled and spread by up to 0.66 of the median from run to run.
    /// At one thread the pool runs every region inline.
    pub fn pool_threads(self, nproc: usize) -> usize {
        match self {
            Workload::Pipeline50k => nproc.max(1),
            Workload::Dataflow50k | Workload::Ltm10k => nproc.saturating_sub(1).max(1),
        }
    }

    fn points_per_class(self) -> usize {
        match self {
            Workload::Pipeline50k | Workload::Dataflow50k => 500,
            Workload::Ltm10k => 100,
        }
    }
}

fn dataset_config(workload: Workload, seed: u64) -> DatasetConfig {
    DatasetConfig::cifar100_like()
        .with_points_per_class(workload.points_per_class())
        .with_seed(seed)
}

fn greedy_config(workload: Workload) -> Result<DistGreedyConfig, Error> {
    let config = DistGreedyConfig::new(8, 4)?.seed(ALGO_SEED).adaptive(true);
    Ok(match workload {
        Workload::Dataflow50k => config.winner_batch(64),
        Workload::Pipeline50k | Workload::Ltm10k => config,
    })
}

fn bounding_config() -> Result<BoundingConfig, Error> {
    Ok(BoundingConfig::approximate(0.3, SamplingStrategy::Uniform, ALGO_SEED)?)
}

/// The inputs a workload's job treats as given.
pub struct Inputs {
    workload: Workload,
    config: DatasetConfig,
    embeddings: Embeddings,
    objective: PairwiseObjective,
    /// The graph the job selects on, when set-up builds it (owned for
    /// `dataflow-50k`, mapped from the store for `ltm-10k`).
    graph: Option<SimilarityGraph>,
    /// The on-disk CSR store `ltm-10k` reopens in every job.
    store: Option<PathBuf>,
    k: usize,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        // Unlinking is safe while the graph still maps the file: the
        // mapping keeps the inode alive until it is dropped.
        if let Some(store) = &self.store {
            let _ = std::fs::remove_file(store);
        }
    }
}

impl Inputs {
    pub fn n(&self) -> usize {
        self.objective.num_nodes()
    }

    pub fn dim(&self) -> usize {
        self.embeddings.dim()
    }
}

/// Builds a workload's inputs. `dir` is the process's scratch directory.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, Error> {
    let config = dataset_config(workload, seed);
    let dataset = {
        let _span = submod_obs::span("bench.generate");
        ClusteredDataset::generate(
            config.num_classes(),
            config.points_per_class(),
            config.dim(),
            config.cluster_std(),
            config.seed(),
        )?
    };
    let utilities = {
        let _span = submod_obs::span("bench.utilities");
        let classifier = CoarseClassifier::fit(&dataset, 0.10, 0.05, 0.5, config.seed() ^ 0xA11CE)?;
        margin_utilities(&classifier, dataset.embeddings())?
    };
    let objective = PairwiseObjective::from_alpha(0.9, utilities)?;
    let embeddings = dataset.embeddings().clone();
    drop(dataset);
    let k = embeddings.len() / 10;
    let backend = KnnBackend::auto(embeddings.len());
    let (graph, store) = match workload {
        Workload::Pipeline50k => (None, None),
        Workload::Dataflow50k => {
            let _span = submod_obs::span("bench.build_knn_graph");
            (Some(build_knn_graph(&embeddings, config.knn_k(), &backend, config.seed())?), None)
        }
        Workload::Ltm10k => {
            // The previous set-up's `Inputs` were dropped, and their store
            // unlinked, before this one runs: the write never truncates a
            // file that is still mapped.
            let path = dir.join("graph.csr");
            let _span = submod_obs::span("bench.build_knn_graph_store");
            let graph =
                build_knn_graph_store(&embeddings, config.knn_k(), &backend, config.seed(), &path)?;
            (Some(graph), Some(path))
        }
    };
    Ok(Inputs { workload, config, embeddings, objective, graph, store, k })
}

/// What every job of a run is checked against, computed once per run
/// outside the timed region.
pub struct Reference {
    /// f(S) of centralized `greedy_select` on the job's graph.
    central_value: f64,
    /// In-memory `distributed_greedy` on the same ground set and config
    /// (dataflow workloads: their selections must be bitwise equal).
    distributed: Option<Selection>,
    /// `bound_in_memory` on the same graph (`ltm-10k`: `bound_dataflow`
    /// must agree).
    bounding: Option<BoundingOutcome>,
    /// The first job's selection: every later job must repeat it (for
    /// `pipeline-50k` this also shows each job rebuilt the graph the
    /// reference was computed on).
    first: Option<Selection>,
}

/// Builds the reference for `graph` (the set-up graph, or for
/// `pipeline-50k` the graph the first job built).
pub fn reference(inputs: &Inputs, graph: &SimilarityGraph) -> Result<Reference, Error> {
    let central_value = greedy_select(graph, &inputs.objective, inputs.k)?.objective_value();
    let (distributed, bounding) = match inputs.workload {
        Workload::Pipeline50k => (None, None),
        Workload::Dataflow50k | Workload::Ltm10k => {
            let ground = ground(inputs.n());
            let config = greedy_config(inputs.workload)?;
            let report = distributed_greedy(graph, &inputs.objective, &ground, inputs.k, &config)?;
            let bounding = if inputs.workload == Workload::Ltm10k {
                Some(bound_in_memory(graph, &inputs.objective, inputs.k, &bounding_config()?)?)
            } else {
                None
            };
            (Some(report.selection), bounding)
        }
    };
    Ok(Reference { central_value, distributed, bounding, first: None })
}

fn ground(n: usize) -> Vec<NodeId> {
    (0..n).map(NodeId::from_index).collect()
}

/// A job's output, kept for the checks that run after the timer stops.
pub struct JobOutput {
    pub selection: Selection,
    pub bounding: Option<BoundingOutcome>,
    pub pipeline: Option<PipelineMetrics>,
    /// The graph the job built (`pipeline-50k` only).
    pub graph: Option<SimilarityGraph>,
    /// The graph the job selected on was memory-mapped (`ltm-10k`).
    pub mapped: bool,
}

/// The timed job: from inputs in memory to a k-subset.
pub fn job(inputs: &Inputs, dir: &Path) -> Result<JobOutput, Error> {
    let k = inputs.k;
    let objective = &inputs.objective;
    match inputs.workload {
        Workload::Pipeline50k => {
            let config = &inputs.config;
            let graph = {
                let _span = submod_obs::span("bench.build_knn_graph");
                let backend = KnnBackend::auto(inputs.n());
                build_knn_graph(&inputs.embeddings, config.knn_k(), &backend, config.seed())?
            };
            // `select_subset` with bounding is exactly these two calls;
            // they are made separately so each layer is timed on its own.
            let bounding = {
                let _span = submod_obs::span("bench.bound_in_memory");
                bound_in_memory(&graph, objective, k, &bounding_config()?)?
            };
            let outcome = {
                let _span = submod_obs::span("bench.complete_selection");
                let greedy = greedy_config(inputs.workload)?;
                complete_selection(
                    &graph,
                    objective,
                    k,
                    Some(bounding.clone()),
                    &greedy,
                    ALGO_SEED,
                )?
            };
            Ok(JobOutput {
                selection: outcome.selection,
                bounding: Some(bounding),
                pipeline: None,
                graph: Some(graph),
                mapped: false,
            })
        }
        Workload::Dataflow50k => {
            let graph = inputs.graph.as_ref().expect("dataflow-50k builds its graph in set-up");
            // `Pipeline::new(8)`, with its spill directory kept inside the
            // benchmark's scratch directory.
            let pipeline = Pipeline::builder().workers(8).spill_dir(dir).build()?;
            let (report, _stats) = {
                let _span = submod_obs::span("bench.greedy_dataflow");
                distributed_greedy_dataflow_with_stats(
                    &pipeline,
                    graph,
                    objective,
                    &ground(inputs.n()),
                    k,
                    &greedy_config(inputs.workload)?,
                )?
            };
            Ok(JobOutput {
                selection: report.selection,
                bounding: None,
                pipeline: Some(pipeline.metrics()),
                graph: None,
                mapped: false,
            })
        }
        Workload::Ltm10k => {
            let store = inputs.store.as_ref().expect("ltm-10k writes its store in set-up");
            let graph = {
                let _span = submod_obs::span("bench.open_store");
                SimilarityGraph::open_store(store)?
            };
            let pipeline = Pipeline::builder()
                .workers(8)
                .memory_budget(MemoryBudget::bytes(LTM_BUDGET_BYTES))
                .spill_dir(dir)
                .build()?;
            let bounding = {
                let _span = submod_obs::span("bench.bound_dataflow");
                bound_dataflow(&pipeline, &graph, objective, k, &bounding_config()?)?
            };
            let journal = dir.join("run.wal");
            let result = {
                let _span = submod_obs::span("bench.greedy_dataflow_journaled");
                distributed_greedy_dataflow_journaled(
                    &pipeline,
                    &graph,
                    objective,
                    &ground(inputs.n()),
                    k,
                    &greedy_config(inputs.workload)?,
                    &journal,
                )
            };
            let _ = std::fs::remove_file(&journal);
            let (report, _stats) = result?;
            Ok(JobOutput {
                selection: report.selection,
                bounding: Some(bounding),
                pipeline: Some(pipeline.metrics()),
                graph: None,
                mapped: graph.is_mapped(),
            })
        }
    }
}

/// The graph a job's selection is scored on.
pub fn job_graph<'a>(inputs: &'a Inputs, out: &'a JobOutput) -> &'a SimilarityGraph {
    out.graph.as_ref().or(inputs.graph.as_ref()).expect("every workload has a graph")
}

/// Checks one job's output; returns the list of failed checks (empty
/// when the job is correct). The first checked job becomes the run's
/// reproducibility reference.
pub fn check(
    inputs: &Inputs,
    reference: &mut Reference,
    out: &JobOutput,
    retries: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let graph = job_graph(inputs, out);
    let n = inputs.n();
    let selected = out.selection.selected();

    if selected.len() != inputs.k {
        failures.push(format!("selected {} points, expected k = {}", selected.len(), inputs.k));
    }
    let mut seen = vec![false; n];
    for v in selected {
        match seen.get_mut(v.index()) {
            Some(flag) if !*flag => *flag = true,
            Some(_) => failures.push(format!("point {} selected twice", v.index())),
            None => failures.push(format!("point {} out of range (n = {n})", v.index())),
        }
    }
    if failures.is_empty() {
        let value = inputs.objective.evaluate(graph, selected);
        if value.to_bits() != out.selection.objective_value().to_bits() {
            failures.push(format!(
                "reported value {} differs from PairwiseObjective::evaluate {value}",
                out.selection.objective_value()
            ));
        }
    }
    if let Some(distributed) = &reference.distributed {
        if !same_selection(distributed, &out.selection) {
            failures.push("dataflow selection differs from in-memory distributed_greedy".into());
        }
    }
    if let (Some(expected), Some(bounding)) = (&reference.bounding, &out.bounding) {
        if expected != bounding {
            failures.push("bound_dataflow outcome differs from bound_in_memory".into());
        }
    }
    if inputs.workload == Workload::Ltm10k {
        let metrics = out.pipeline.unwrap_or_default();
        if metrics.spill_files == 0 {
            failures.push("the 8 KiB budget forced no spills".into());
        }
        if metrics.peak_worker_bytes > LTM_BUDGET_BYTES + BUDGET_SLACK_BYTES {
            failures.push(format!(
                "worker peak {} B exceeds the {LTM_BUDGET_BYTES} B budget",
                metrics.peak_worker_bytes
            ));
        }
        if !out.mapped {
            failures.push("the store did not open memory-mapped".into());
        }
    }
    if retries != 0 {
        failures.push(format!("{retries} transient-fault retries"));
    }
    match &reference.first {
        Some(first) if !same_selection(first, &out.selection) => {
            failures.push("selection differs from the run's first job".into())
        }
        Some(_) => {}
        None => reference.first = Some(out.selection.clone()),
    }
    failures
}

fn same_selection(a: &Selection, b: &Selection) -> bool {
    a.selected() == b.selected() && a.objective_value().to_bits() == b.objective_value().to_bits()
}

/// f(S) / f(centralized greedy) for one job.
pub fn quality_ratio(reference: &Reference, out: &JobOutput) -> f64 {
    out.selection.objective_value() / reference.central_value
}
