//! The shared per-machine greedy execution backend (paper §4.4 made
//! engine-resident, the greedy counterpart of bounding's `PassBackend`).
//!
//! Partition assignment is a deterministic keyed transform
//! ([`MachineKeying`]): the machine of a node depends only on the keying
//! parameters and the node id, never on sharding, scheduling, or a
//! driver-side permutation. Every machine then runs the centralized
//! priority-queue greedy of `submod_core` over its partition: pop the
//! best remaining candidate, and its still-unselected same-machine
//! neighbors lose `(β/α)·s(winner, ·)` priority (Algorithm 2's
//! decrease). Machines never interact within a phase, so a phase's
//! outcome is each machine's pop sequence, reassembled **step-major**:
//! step `t` holds the `t`-th pop of every machine, ascending by machine.
//!
//! Everything backend-specific hides behind [`MachineGreedyBackend`]:
//!
//! - [`InMemoryGreedyBackend`] keys the pool into per-machine
//!   [`AddressablePq`]s on the driver and runs each machine to its quota
//!   — the `O(pool)`-per-phase baseline and the differential suites'
//!   oracle.
//! - [`DataflowGreedyBackend`] keeps the scored pool inside the engine as
//!   a `(machine, (node, priority))` collection. Each engine pass
//!   collects the rows at or above a threshold τ (the batch's `B`-th
//!   largest priority), certifies pops on the driver while their
//!   corrected priority stays ≥ τ, and applies the certified batch back
//!   to the table in one pass — the driver never sees the scored pool.
//!
//! Both backends run the same arithmetic in the same order — priorities
//! seed from the utility, every decrease is the single subtraction
//! `p − (β/α)·s(winner, v)` (the graph stores each edge once per
//! direction, deduplicated), and ties resolve by the shared
//! [`submod_dataflow::argmax_prefers`] order, which is also the
//! addressable queue's pop order — so the drivers select **bitwise
//! identical** subsets at every batch size.

use crate::DistError;
use std::collections::BTreeMap;
use std::sync::Arc;
use submod_core::{AddressablePq, NodeId, NodeSet, PairwiseObjective, SimilarityGraph};
use submod_dataflow::{PCollection, Pipeline};

/// Deterministic machine assignment — the keyed transform both drivers
/// share.
#[derive(Clone, Debug)]
pub(crate) enum MachineKeying {
    /// splitmix64 of `(seed, node)` modulo the machine count.
    Hash {
        /// Mixer seed (varies per round so draws are uncorrelated).
        seed: u64,
        /// Machine count the hash is reduced into.
        machines: u64,
    },
    /// [`MachineKeying::Hash`] with a forced set pinned to machine 0 —
    /// the §6.4 adversarial first round.
    HashForced {
        /// Mixer seed for the unforced nodes.
        seed: u64,
        /// Machine count the hash is reduced into.
        machines: u64,
        /// Nodes concentrated on machine 0.
        forced: Arc<NodeSet>,
    },
    /// Contiguous id chunks of `chunk` nodes — GreeDi's "arbitrary"
    /// partitions.
    Contiguous {
        /// Nodes per machine.
        chunk: u64,
    },
}

impl MachineKeying {
    /// The machine that owns node `v`.
    #[inline]
    pub(crate) fn machine_of(&self, v: u64) -> u64 {
        match self {
            MachineKeying::Hash { seed, machines } => {
                crate::mix::mix_seed_node(*seed, v) % *machines
            }
            MachineKeying::HashForced { seed, machines, forced } => {
                if forced.contains(NodeId::new(v)) {
                    0
                } else {
                    crate::mix::mix_seed_node(*seed, v) % *machines
                }
            }
            MachineKeying::Contiguous { chunk } => v / *chunk,
        }
    }
}

/// A per-machine greedy execution backend: everything that differs
/// between the in-memory reference and the dataflow engine. The round
/// loop, Δ-schedule bookkeeping, and winner accounting downstream are
/// shared, which is what guarantees identical outcomes.
pub(crate) trait MachineGreedyBackend {
    /// Nodes currently in the pool.
    fn pool_len(&self) -> usize;

    /// Keys the current pool into `machines` partitions and seeds every
    /// candidate's priority with its utility. Returns the driver bytes
    /// the keying materialized (the in-memory baseline pays `O(pool)`
    /// here; the engine-resident backend pays nothing).
    fn begin_phase(&mut self, keying: MachineKeying, machines: usize) -> Result<u64, DistError>;

    /// Runs the phase: every machine pops up to `quota` winners from its
    /// partition, each pop discounting its same-machine neighbors, and
    /// the pop sequences come back step-major ([`PhaseOutcome`]).
    fn run_phase(&mut self, n: usize, quota: usize) -> Result<PhaseOutcome, DistError>;

    /// Ends the phase, restricting the pool to `survivors`.
    fn end_phase(&mut self, survivors: &NodeSet) -> Result<(), DistError>;

    /// Replaces the pool wholesale — the journal-resume entry point. The
    /// ids arrive in the journal's pop order; the backend canonicalizes
    /// (sorts and deduplicates) so the restored pool is exactly the pool
    /// an uninterrupted run would carry into the next round.
    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError>;

    /// Broadcast bytes shipped to workers so far (0 for the in-memory
    /// reference).
    fn bytes_broadcast(&self) -> u64;
}

/// The winners of one phase in selection order (step-major, ascending by
/// machine within a step) plus the step accounting.
pub(crate) struct PhaseOutcome {
    /// Winners in selection order. With one machine this is exactly the
    /// centralized Algorithm-2 pop order.
    pub selected: Vec<NodeId>,
    /// The same winners as a membership set.
    pub members: NodeSet,
    /// Pop depth of the phase: the longest machine pop sequence.
    pub steps: usize,
    /// Largest single-step winner count: the machines that pop at all,
    /// since every one of them takes part in step 0.
    pub peak_step_winners: usize,
    /// Driver bytes collected across the phase.
    pub driver_bytes: u64,
}

impl PhaseOutcome {
    /// Reassembles per-machine pop sequences (ascending by machine)
    /// step-major: step `t` collects the `t`-th pop of every machine that
    /// has one, in machine order.
    fn step_major<'s>(
        n: usize,
        sequences: impl Iterator<Item = &'s Vec<u64>> + Clone,
        driver_bytes: u64,
    ) -> PhaseOutcome {
        let mut outcome = PhaseOutcome {
            selected: Vec::new(),
            members: NodeSet::new(n),
            steps: 0,
            peak_step_winners: 0,
            driver_bytes,
        };
        let longest = sequences.clone().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            let mut step_winners = 0usize;
            for pops in sequences.clone() {
                if let Some(&node) = pops.get(step) {
                    outcome.selected.push(NodeId::new(node));
                    outcome.members.insert(NodeId::new(node));
                    step_winners += 1;
                }
            }
            outcome.steps += 1;
            outcome.peak_step_winners = outcome.peak_step_winners.max(step_winners);
        }
        outcome
    }
}

/// Sorted, deduplicated raw ids — the canonical pool representation both
/// backends start from, so their candidate sets match element for
/// element.
fn canonical_pool(ground: &[NodeId]) -> Vec<u64> {
    let mut pool: Vec<u64> = ground.iter().map(|v| v.raw()).collect();
    pool.sort_unstable();
    pool.dedup();
    pool
}

/// The in-memory reference: buckets and per-machine priority queues live
/// on the driver (`O(pool)` per phase — the baseline the engine-resident
/// driver is measured against). Buckets are ascending by id, so the
/// queue's smaller-local-index tie-break is the smaller-node-id
/// tie-break of the dataflow replay's `argmax_prefers` order.
pub(crate) struct InMemoryGreedyBackend<'a> {
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    pool: Vec<u64>,
    buckets: Vec<Vec<u64>>,
    queues: Vec<AddressablePq>,
}

impl<'a> InMemoryGreedyBackend<'a> {
    pub(crate) fn new(
        graph: &'a SimilarityGraph,
        objective: &'a PairwiseObjective,
        ground: &[NodeId],
    ) -> Self {
        InMemoryGreedyBackend {
            graph,
            objective,
            pool: canonical_pool(ground),
            buckets: Vec::new(),
            queues: Vec::new(),
        }
    }
}

impl MachineGreedyBackend for InMemoryGreedyBackend<'_> {
    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn begin_phase(&mut self, keying: MachineKeying, machines: usize) -> Result<u64, DistError> {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); machines];
        for &v in &self.pool {
            buckets[keying.machine_of(v) as usize].push(v);
        }
        let objective = self.objective;
        self.queues = buckets
            .iter()
            .map(|bucket| {
                AddressablePq::with_priorities(
                    bucket.iter().map(|&v| objective.utility(NodeId::new(v))).collect(),
                )
            })
            .collect();
        self.buckets = buckets;
        // Buckets (8 B/node) plus queue state (8 B priority + two 4 B
        // heap slots per node) — the O(pool) driver materialization.
        Ok((self.pool.len() * (size_of::<u64>() + size_of::<f64>() + 2 * size_of::<u32>())) as u64)
    }

    fn run_phase(&mut self, n: usize, quota: usize) -> Result<PhaseOutcome, DistError> {
        // Machines never interact within a phase (disjoint buckets and
        // queues, decreases never cross a machine), so each machine runs
        // its whole pop/decrease sequence independently: one
        // coarse-grained `parallel_map` region per phase, reassembled
        // step-major in machine order.
        let ratio = self.objective.ratio();
        let graph = self.graph;
        let machines: Vec<(&Vec<u64>, &mut AddressablePq)> =
            self.buckets.iter().zip(self.queues.iter_mut()).collect();
        let sequences: Vec<Vec<u64>> = submod_exec::parallel_map(machines, |(bucket, queue)| {
            let mut sequence = Vec::with_capacity(quota.min(bucket.len()));
            for _ in 0..quota {
                let Some((local, _priority)) = queue.pop_max() else { break };
                let winner = bucket[local as usize];
                sequence.push(winner);
                for (x, s) in graph.edges(NodeId::new(winner)) {
                    if let Ok(l) = bucket.binary_search(&x.raw()) {
                        if queue.contains(l as u32) {
                            queue.decrease_by(l as u32, ratio * f64::from(s));
                        }
                    }
                }
            }
            sequence
        });
        // One `(machine, node, priority)` winner row per pop.
        let winners: usize = sequences.iter().map(Vec::len).sum();
        let driver_bytes = (winners * size_of::<(u64, u64, f64)>()) as u64;
        Ok(PhaseOutcome::step_major(n, sequences.iter(), driver_bytes))
    }

    fn end_phase(&mut self, survivors: &NodeSet) -> Result<(), DistError> {
        self.pool.retain(|&v| survivors.contains(NodeId::new(v)));
        self.buckets.clear();
        self.queues.clear();
        Ok(())
    }

    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError> {
        let mut ids = pool.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.pool = ids;
        self.buckets.clear();
        self.queues.clear();
        Ok(())
    }

    fn bytes_broadcast(&self) -> u64 {
        0
    }
}

/// The engine-resident driver: the scored pool is born, lives, and dies
/// inside the dataflow engine as a `(machine, (node, priority))`
/// collection. Each engine pass collects the rows at or above the
/// threshold τ of its batch, certifies up to `winner_batch` pops on the
/// driver, and applies them back to the table shard-locally with the
/// winners broadcast as a side-input — the driver holds the collected
/// rows of one pass, never `O(partition)`.
pub(crate) struct DataflowGreedyBackend<'a> {
    pipeline: &'a Pipeline,
    graph: &'a SimilarityGraph,
    objective: &'a PairwiseObjective,
    pool: PCollection<u64>,
    /// Driver-side pool length (maintained across phases so the round
    /// loop never counts the engine-resident collection).
    pool_len: usize,
    table: Option<PCollection<ScoredRow>>,
    broadcast_base: u64,
    /// τ rank per engine pass (≥ 1): each pass collects the rows at or
    /// above the `winner_batch`-th largest priority.
    winner_batch: usize,
}

/// One scored-pool row: `(machine, (node, priority))`.
type ScoredRow = (u64, (u64, f64));

/// One batch's decrease wave, as shipped to workers: one entry per
/// `(machine, node)` row the batch touches, sorted by that key and, within
/// a key, in pop order. `None` removes the row (the key is a popped
/// winner); `Some(d)` subtracts the discount `d = (β/α)·s(winner, node)`.
type DiscountTable = Vec<((u64, u64), Option<f64>)>;

/// Builds the discount table of `winners` (in pop order): each winner's
/// removal plus one discount per adjacent node, keyed by the winner's
/// machine. A stable sort keeps each key's entries in pop order, so a row
/// applies exactly the subtraction sequence of per-pop updates. Owning
/// the table is what makes the update `'static` (and hence fusable) — the
/// graph itself never crosses into the closure.
fn discount_table(graph: &SimilarityGraph, ratio: f64, winners: &[(u64, u64)]) -> DiscountTable {
    let mut table: DiscountTable = Vec::new();
    for &(machine, winner) in winners {
        table.push(((machine, winner), None));
        table.extend(
            graph
                .edges(NodeId::new(winner))
                .map(|(x, s)| ((machine, x.raw()), Some(ratio * f64::from(s)))),
        );
    }
    table.sort_by_key(|&(key, _)| key);
    table
}

impl<'a> DataflowGreedyBackend<'a> {
    pub(crate) fn new(
        pipeline: &'a Pipeline,
        graph: &'a SimilarityGraph,
        objective: &'a PairwiseObjective,
        ground: &[NodeId],
        winner_batch: usize,
    ) -> Self {
        let ids = canonical_pool(ground);
        let pool_len = ids.len();
        let pool = pipeline.from_vec(ids);
        let broadcast_base = pipeline.metrics().bytes_broadcast;
        DataflowGreedyBackend {
            pipeline,
            graph,
            objective,
            pool,
            pool_len,
            table: None,
            broadcast_base,
            winner_batch,
        }
    }

    /// Applies one group of winners (in pop order) to the engine-resident
    /// table: every winner leaves its machine's pool, and each surviving
    /// same-machine candidate receives the winners' discounts **in pop
    /// order** — the same subtraction sequence, in the same order, as a
    /// per-pop queue update, so intermediate priorities stay bit-identical.
    /// Each row costs one binary search into the batch's discount table.
    fn apply_winners(
        &self,
        table: &PCollection<ScoredRow>,
        winners: &[(u64, u64)],
    ) -> Result<PCollection<ScoredRow>, DistError> {
        // Meter what a real deployment would broadcast: the winner rows.
        let _metered = self.pipeline.broadcast(winners.to_vec());
        let discounts = discount_table(self.graph, self.objective.ratio(), winners);
        let table = table.flat_map(move |(machine, (v, p))| {
            let key = (machine, v);
            let first = discounts.partition_point(|&(k, _)| k < key);
            let mut p = p;
            for &(_, discount) in discounts[first..].iter().take_while(|&&(k, _)| k == key) {
                p -= discount?; // `None`: popped, the winner leaves the pool
            }
            Some((machine, (v, p)))
        })?;
        Ok(table)
    }
}

impl MachineGreedyBackend for DataflowGreedyBackend<'_> {
    fn pool_len(&self) -> usize {
        self.pool_len
    }

    fn begin_phase(&mut self, keying: MachineKeying, _machines: usize) -> Result<u64, DistError> {
        let objective = self.objective;
        // Eager map: the phase-persistent table is materialized up front
        // anyway, and `objective` stays borrowed on the driver.
        let table = self
            .pool
            .map_eager(move |v| (keying.machine_of(v), (v, objective.utility(NodeId::new(v)))))?;
        self.table = Some(table);
        Ok(0)
    }

    fn run_phase(&mut self, n: usize, quota: usize) -> Result<PhaseOutcome, DistError> {
        let mut table = self.table.clone().expect("run_phase called outside a phase");
        let ratio = self.objective.ratio();
        // Per-machine pop sequences (machine id → winners in pop order),
        // reassembled step-major at the end, exactly like the in-memory
        // path.
        let mut sequences: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut done: Vec<u64> = Vec::new(); // machines at quota, sorted
        let mut driver_bytes = 0u64;
        if quota > 0 {
            loop {
                let remaining = table.count()?;
                if remaining == 0 {
                    break;
                }
                // τ = the batch_k-th largest priority across all live
                // machines: every row ≥ τ reaches the driver, everything
                // below τ stays engine-resident and can only decrease.
                let batch_k = (self.winner_batch as u64).min(remaining);
                let (tau, rows) = table.kth_largest_rows(batch_k, |&(_, (_, p))| p)?;
                let mut candidates: Vec<(u64, u64, f64)> =
                    rows.into_iter().map(|(m, (v, p))| (m, v, p)).collect();
                driver_bytes += (candidates.len() * size_of::<(u64, u64, f64)>()) as u64;
                // When the whole table came back, the replay is complete:
                // no engine-side rows exist to invalidate a pop.
                let complete = candidates.len() as u64 == remaining;
                candidates.sort_unstable_by_key(|&(m, v, _)| (m, v));
                // Driver replay, machine by machine: pop the best
                // remaining candidate in the shared argmax order; a pop is
                // certified while its corrected priority stays ≥ τ (every
                // uncollected row started < τ and only decreases), and the
                // first pop of a machine is always certified. Discounts
                // apply sequentially in pop order — the same subtraction
                // sequence the engine-side update then replays.
                let mut batch_winners: Vec<(u64, u64)> = Vec::new();
                let mut newly_done: Vec<u64> = Vec::new();
                let mut slot = 0usize;
                while slot < candidates.len() {
                    let machine = candidates[slot].0;
                    let end = candidates[slot..]
                        .iter()
                        .position(|&(m, _, _)| m != machine)
                        .map_or(candidates.len(), |i| slot + i);
                    let mut local: Vec<(u64, f64)> =
                        candidates[slot..end].iter().map(|&(_, v, p)| (v, p)).collect();
                    slot = end;
                    let pops = sequences.entry(machine).or_default();
                    while pops.len() < quota && !local.is_empty() {
                        let mut best = 0usize;
                        for i in 1..local.len() {
                            if submod_dataflow::argmax_prefers(local[best], local[i]) {
                                best = i;
                            }
                        }
                        let (winner, priority) = local.swap_remove(best);
                        if !complete && priority < tau {
                            break; // invalidated: an engine-side row may now lead
                        }
                        pops.push(winner);
                        batch_winners.push((machine, winner));
                        for entry in &mut local {
                            if let Some(s) =
                                self.graph.edge_weight(NodeId::new(winner), NodeId::new(entry.0))
                            {
                                entry.1 -= ratio * f64::from(s);
                            }
                        }
                    }
                    if pops.len() == quota {
                        newly_done.push(machine);
                    }
                }
                if batch_winners.is_empty() {
                    // Unreachable for NaN-free priorities: at least one
                    // row is ≥ τ, its machine is below quota (machines at
                    // quota left the table), and a machine's first pop in
                    // a batch takes no discount. Fail rather than spin.
                    return Err(DistError::PhaseStalled { remaining });
                }
                // One engine pass applies the whole batch: winners leave,
                // survivors take the discounts in pop order
                // (`batch_winners` is built machine-ascending with pops in
                // order, matching the replay's subtraction sequence).
                table = self.apply_winners(&table, &batch_winners)?;
                if !newly_done.is_empty() {
                    // Drop rows of machines that hit quota so they stop
                    // competing for τ. The machine list is broadcast-sized.
                    done.extend(newly_done);
                    done.sort_unstable();
                    let gone = done.clone();
                    table = table.filter(move |&(m, _)| gone.binary_search(&m).is_err())?;
                }
                self.table = Some(table.clone());
            }
        }
        Ok(PhaseOutcome::step_major(n, sequences.values(), driver_bytes))
    }

    fn end_phase(&mut self, survivors: &NodeSet) -> Result<(), DistError> {
        let keep =
            self.pipeline.broadcast_words(survivors.words().to_vec(), self.graph.num_nodes());
        self.pool = self.pool.filter(move |&v| keep.contains(v))?;
        self.pool_len = self.pool.count()? as usize;
        self.table = None;
        Ok(())
    }

    fn restore_pool(&mut self, pool: &[u64]) -> Result<(), DistError> {
        let mut ids = pool.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.pool_len = ids.len();
        self.pool = self.pipeline.from_vec(ids);
        self.table = None;
        Ok(())
    }

    fn bytes_broadcast(&self) -> u64 {
        self.pipeline.metrics().bytes_broadcast - self.broadcast_base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use submod_core::{greedy_select_with, GraphBuilder, GreedyOptions};

    fn instance(n: usize) -> (SimilarityGraph, PairwiseObjective) {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u64 {
            b.add_undirected(v, (v + 1) % n as u64, 0.4).unwrap();
            b.add_undirected(v, (v + 5) % n as u64, 0.2).unwrap();
        }
        let graph = b.build();
        let utilities: Vec<f32> = (0..n).map(|i| 0.2 + ((i * 7) % 31) as f32 / 31.0).collect();
        (graph, PairwiseObjective::from_alpha(0.85, utilities).unwrap())
    }

    fn ground(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn keying_is_deterministic_and_in_range() {
        let forced = Arc::new(NodeSet::from_members(10, [NodeId::new(7)]));
        let keyings = [
            MachineKeying::Hash { seed: 3, machines: 4 },
            MachineKeying::HashForced { seed: 3, machines: 4, forced },
            MachineKeying::Contiguous { chunk: 3 },
        ];
        for keying in &keyings {
            for v in 0..10u64 {
                let m = keying.machine_of(v);
                assert_eq!(m, keying.machine_of(v));
                assert!(m < 4, "machine {m} out of range for node {v}");
            }
        }
        // The forced node lands on machine 0 regardless of its hash.
        assert_eq!(keyings[1].machine_of(7), 0);
        assert_eq!(keyings[2].machine_of(5), 1);
    }

    #[test]
    fn in_memory_phase_is_each_machines_local_greedy() {
        // The oracle's own oracle: the phase is the centralized
        // Algorithm-2 greedy on each machine's induced partition,
        // interleaved step-major, and the dataflow backend at the default
        // batch reproduces it.
        let (graph, objective) = instance(30);
        let ground = ground(30);
        let keying = || MachineKeying::Hash { seed: 7, machines: 4 };
        let options = GreedyOptions::new().allow_negative_gains(true);
        for quota in [0usize, 1, 3, 8, 50] {
            let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground);
            mem.begin_phase(keying(), 4).unwrap();
            let oracle = mem.run_phase(30, quota).unwrap();
            // Each machine's centralized greedy, then the step-major
            // interleaving: step `t` is every machine's `t`-th pop.
            let per_machine: Vec<Vec<NodeId>> = (0..4)
                .map(|machine| {
                    let bucket: Vec<NodeId> = ground
                        .iter()
                        .copied()
                        .filter(|v| keying().machine_of(v.raw()) == machine)
                        .collect();
                    let utilities = bucket.iter().map(|&v| objective.utility(v) as f32).collect();
                    let local_objective =
                        PairwiseObjective::new(objective.alpha(), objective.beta(), utilities)
                            .unwrap();
                    let budget = quota.min(bucket.len());
                    let local_graph = graph.induced_subgraph(&bucket);
                    greedy_select_with(&local_graph, &local_objective, budget, &options)
                        .unwrap()
                        .selected()
                        .iter()
                        .map(|l| bucket[l.index()])
                        .collect()
                })
                .collect();
            let longest = per_machine.iter().map(Vec::len).max().unwrap_or(0);
            let expected: Vec<NodeId> = (0..longest)
                .flat_map(|t| per_machine.iter().filter_map(move |pops| pops.get(t).copied()))
                .collect();
            assert_eq!(oracle.selected, expected, "quota {quota}");
            assert_eq!(oracle.steps, longest, "quota {quota}");
            let first_step = per_machine.iter().filter(|pops| !pops.is_empty()).count();
            assert_eq!(oracle.peak_step_winners, first_step, "quota {quota}");
            assert_eq!(oracle.driver_bytes, 24 * oracle.selected.len() as u64);
            let pipeline = Pipeline::new(3).unwrap();
            let mut df = DataflowGreedyBackend::new(
                &pipeline,
                &graph,
                &objective,
                &ground,
                crate::config::DEFAULT_WINNER_BATCH,
            );
            df.begin_phase(keying(), 4).unwrap();
            let via_df = df.run_phase(30, quota).unwrap();
            assert_eq!(via_df.selected, oracle.selected, "quota {quota}");
            assert_eq!(via_df.steps, oracle.steps);
            assert_eq!(via_df.peak_step_winners, oracle.peak_step_winners);
        }
    }

    #[test]
    fn batched_phase_matches_the_in_memory_oracle_exactly() {
        let (graph, objective) = instance(30);
        let ground = ground(30);
        let keying = || MachineKeying::Hash { seed: 7, machines: 4 };
        for (batch, quota) in [(1usize, 3usize), (2, 8), (3, 0), (8, 8), (64, 50)] {
            let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground);
            mem.begin_phase(keying(), 4).unwrap();
            let oracle = mem.run_phase(30, quota).unwrap();
            let pipeline = Pipeline::new(3).unwrap();
            let mut batched =
                DataflowGreedyBackend::new(&pipeline, &graph, &objective, &ground, batch);
            batched.begin_phase(keying(), 4).unwrap();
            let via_batch = batched.run_phase(30, quota).unwrap();
            assert_eq!(via_batch.selected, oracle.selected, "batch {batch} quota {quota}");
            assert_eq!(via_batch.steps, oracle.steps, "batch {batch} quota {quota}");
            assert_eq!(via_batch.peak_step_winners, oracle.peak_step_winners);
        }
    }

    #[test]
    fn phase_exhausts_small_buckets() {
        let (graph, objective) = instance(9);
        let ground = ground(9);
        let mut mem = InMemoryGreedyBackend::new(&graph, &objective, &ground);
        mem.begin_phase(MachineKeying::Contiguous { chunk: 3 }, 3).unwrap();
        let outcome = mem.run_phase(9, 100).unwrap();
        // Quota far above the bucket size: every machine empties after 3
        // steps and the phase stops.
        assert_eq!(outcome.steps, 3);
        assert_eq!(outcome.selected.len(), 9);
        assert_eq!(outcome.members.len(), 9);
    }
}
