//! The distributed collection abstraction.

use crate::codec::Record;
use crate::pipeline::{Ctx, Shard, ShardSink};
use crate::DataflowError;
use std::sync::{Arc, Mutex};

/// The emit callback a fused pass pushes records into.
type Emit<'a, T> = &'a mut dyn FnMut(T) -> Result<(), DataflowError>;

/// Executes one deferred per-shard pass: streams the source shard through
/// the composed operator chain into `emit`, returning how many records
/// entered the chain.
type RunFn<T> = Arc<dyn Fn(Emit<'_, T>) -> Result<u64, DataflowError> + Send + Sync>;

/// A fused unit's lifecycle. The chain closure owns its upstream (the
/// source shard or the parent unit), so it is dropped the moment the
/// unit executes: an executed unit holds only its own output shards,
/// and every earlier generation it was derived from becomes free once
/// nothing else references it.
#[derive(Clone)]
enum UnitState<T: Record> {
    /// Not yet executed: the composed chain.
    Pending(RunFn<T>),
    /// Executed: the chain's output.
    Done(Vec<Shard<T>>),
}

/// A deferred per-shard operator chain: the composition of every
/// `map`/`filter`/`flat_map` applied since the last materialized shard,
/// executed as **one pass** when the collection hits a barrier
/// (collect/count/aggregate/shuffle). The result is kept so chains that
/// build on an already-executed collection (the greedy engine re-derives
/// its pool table every step) never re-run upstream stages.
pub(crate) struct FusedUnit<T: Record> {
    ctx: Arc<Ctx>,
    /// Number of chained operators, recorded in the
    /// `dataflow.fused_stage_ops` histogram at execution.
    ops: u32,
    state: Mutex<UnitState<T>>,
}

impl<T: Record> FusedUnit<T> {
    fn pending(ctx: Arc<Ctx>, ops: u32, run: RunFn<T>) -> Self {
        FusedUnit { ctx, ops, state: Mutex::new(UnitState::Pending(run)) }
    }

    /// Streams the unit's records into `emit` without materializing them
    /// (used when a further operator fuses on top). Reads the output when
    /// the unit already executed; otherwise runs the chain directly —
    /// no metrics or spans, those belong to [`FusedUnit::execute`].
    fn stream(&self, emit: Emit<'_, T>) -> Result<u64, DataflowError> {
        // Clone out of the lock: a pending chain runs without holding it.
        let state = self.state.lock().expect("fused state").clone();
        match state {
            UnitState::Pending(run) => run(emit),
            UnitState::Done(shards) => {
                let mut entered = 0u64;
                for shard in &shards {
                    shard.for_each(|record| {
                        entered += 1;
                        emit(record)
                    })?;
                }
                Ok(entered)
            }
        }
    }

    /// Executes the chain into budget-checked shards (spilling like any
    /// transform output) and replaces the chain with them. One obs span +
    /// one `stages_fused` tick per actual execution.
    fn execute(&self) -> Result<Vec<Shard<T>>, DataflowError> {
        let mut state = self.state.lock().expect("fused state");
        let run = match &*state {
            UnitState::Pending(run) => Arc::clone(run),
            UnitState::Done(shards) => return Ok(shards.clone()),
        };
        let _span = submod_obs::span_full("dataflow.fused_stage");
        let mut sink = ShardSink::new(&self.ctx);
        let entered = run(&mut |record| sink.push(record))?;
        let shards = sink.finish()?;
        self.ctx.metrics.record_processed(entered);
        self.ctx.metrics.record_fused_stage(u64::from(self.ops));
        *state = UnitState::Done(shards.clone());
        Ok(shards)
    }
}

impl<T: Record> std::fmt::Debug for FusedUnit<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedUnit").field("ops", &self.ops).finish_non_exhaustive()
    }
}

/// One slice of a collection: a materialized shard or a pending fused
/// chain over one.
#[derive(Clone, Debug)]
pub(crate) enum Segment<T: Record> {
    Ready(Shard<T>),
    Fused(Arc<FusedUnit<T>>),
}

/// An immutable, sharded, possibly disk-resident collection of records —
/// the engine's analogue of Beam's `PCollection` (§5 of the paper:
/// *"A PCollection represents an immutable, conceptually infinitely-sized
/// set of elements. The set does not need to fit into DRAM."*).
///
/// Collections are cheap to clone (shards are shared). Chained per-shard
/// transforms defer into a single pass per shard executed at the next
/// barrier, so records cross the codec/spill boundary once per *stage*
/// instead of once per *operator*. Any worker whose output buffer would
/// exceed the pipeline's [`crate::MemoryBudget`] spills it to disk.
///
/// ```
/// use submod_dataflow::Pipeline;
///
/// # fn main() -> Result<(), submod_dataflow::DataflowError> {
/// let p = Pipeline::new(2)?;
/// let pc = p.from_vec(vec![1u64, 2, 3, 4]);
/// let odd_squares = pc.filter(|x| x % 2 == 1)?.map(|x| x * x)?;
/// let mut out = odd_squares.collect()?;
/// out.sort_unstable();
/// assert_eq!(out, vec![1, 9]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PCollection<T: Record> {
    ctx: Arc<Ctx>,
    segments: Vec<Segment<T>>,
}

impl<T: Record> PCollection<T> {
    pub(crate) fn from_parts(ctx: Arc<Ctx>, shards: Vec<Shard<T>>) -> Self {
        PCollection { ctx, segments: shards.into_iter().map(Segment::Ready).collect() }
    }

    pub(crate) fn ctx(&self) -> &Arc<Ctx> {
        &self.ctx
    }

    /// Number of shards backing the collection.
    pub fn num_shards(&self) -> usize {
        self.segments.len()
    }

    /// Materialized shards, executing (and caching) any pending fused
    /// chains — the barrier primitive every consuming operation goes
    /// through. Fused segments execute in parallel.
    pub(crate) fn ready_shards(&self) -> Result<Vec<Shard<T>>, DataflowError> {
        if self.segments.iter().all(|s| matches!(s, Segment::Ready(_))) {
            return Ok(self
                .segments
                .iter()
                .map(|s| match s {
                    Segment::Ready(shard) => shard.clone(),
                    Segment::Fused(_) => unreachable!("checked all-ready"),
                })
                .collect());
        }
        let groups: Vec<Vec<Shard<T>>> = submod_exec::parallel_map_result(
            self.segments.iter().collect(),
            |segment| match segment {
                Segment::Ready(shard) => Ok(vec![shard.clone()]),
                Segment::Fused(unit) => unit.execute(),
            },
        )?;
        Ok(groups.into_iter().flatten().collect())
    }

    /// Forces any pending fused chains to execute, returning a collection
    /// of materialized shards. A no-op (cheap shard clones) when nothing
    /// is pending.
    ///
    /// # Errors
    ///
    /// Returns an error if executing a fused chain or spilling fails.
    pub fn materialize(&self) -> Result<PCollection<T>, DataflowError> {
        Ok(PCollection {
            ctx: self.ctx.clone(),
            segments: self.ready_shards()?.into_iter().map(Segment::Ready).collect(),
        })
    }

    /// Counts records; a barrier (executes pending fused chains), after
    /// which the count reads from shard metadata.
    ///
    /// # Errors
    ///
    /// Returns an error if executing a fused chain or spilling fails.
    pub fn count(&self) -> Result<u64, DataflowError> {
        Ok(self.ready_shards()?.iter().map(|s| s.len() as u64).sum())
    }

    /// Materializes every record into one vector.
    ///
    /// Intended for tests and *small* results (e.g. per-round statistics);
    /// defeats the larger-than-memory design if called on big collections.
    ///
    /// # Errors
    ///
    /// Returns an error if a spilled shard cannot be read.
    pub fn collect(&self) -> Result<Vec<T>, DataflowError> {
        let shards = self.ready_shards()?;
        let mut out = Vec::with_capacity(shards.iter().map(Shard::len).sum());
        for shard in &shards {
            shard.for_each(|r| {
                out.push(r);
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// Applies `f` to every record, producing a new collection. The work
    /// defers into the shard's operator chain; the closure must therefore
    /// own its captures (`'static`) — use [`PCollection::map_eager`] for
    /// borrow-capturing closures.
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn map<U, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        Ok(self.compose(move |record, emit: Emit<'_, U>| emit(f(record))))
    }

    /// Eager, non-deferring `map`: executes immediately via a full
    /// per-shard pass, so `f` may borrow from the caller's stack. Used
    /// where the mapped table is materialized right away anyway (e.g. the
    /// greedy engine's phase-persistent pool table).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn map_eager<U, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T) -> U + Send + Sync,
    {
        self.transform_shards("map", |record, sink| sink.push(f(record)))
    }

    /// Keeps the records for which `predicate` returns `true`.
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn filter<F>(&self, predicate: F) -> Result<PCollection<T>, DataflowError>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        Ok(self.compose(
            move |record, emit: Emit<'_, T>| {
                if predicate(&record) {
                    emit(record)
                } else {
                    Ok(())
                }
            },
        ))
    }

    /// Applies `f` to every record and flattens the results — the engine's
    /// `ParDo`. This is how the bounding pipeline fans out neighbor lists
    /// into `(neighbor, node, similarity)` triples (§5).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn flat_map<U, I, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        Ok(self.compose(move |record, emit: Emit<'_, U>| {
            for out in f(record) {
                emit(out)?;
            }
            Ok(())
        }))
    }

    /// Eager, non-deferring `flat_map`: executes immediately via a full
    /// per-shard pass, so `f` may borrow from the caller's stack (the
    /// scoring pipeline fans out borrowed adjacency lists this way).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling a shard fails.
    pub fn flat_map_eager<U, I, F>(&self, f: F) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync,
    {
        self.transform_shards("flat_map", |record, sink| {
            for out in f(record) {
                sink.push(out)?;
            }
            Ok(())
        })
    }

    /// Concatenates two collections of the same pipeline without moving
    /// data (§4.4: *"A union can be implemented without materializing all
    /// data in memory"*). Pending fused chains on either side carry over
    /// untouched — a union never re-encodes or re-executes its inputs.
    ///
    /// # Errors
    ///
    /// Returns an error if the collections belong to different pipelines.
    pub fn union(&self, other: &PCollection<T>) -> Result<PCollection<T>, DataflowError> {
        if !Arc::ptr_eq(&self.ctx, &other.ctx) {
            return Err(DataflowError::invalid(
                "cannot union collections from different pipelines",
            ));
        }
        let mut segments = self.segments.clone();
        segments.extend(other.segments.iter().cloned());
        Ok(PCollection { ctx: self.ctx.clone(), segments })
    }

    /// Re-shards the collection into one shard per worker, balancing record
    /// counts (useful after heavy filtering).
    ///
    /// # Errors
    ///
    /// Returns an error if reading or spilling fails.
    pub fn rebalance(&self) -> Result<PCollection<T>, DataflowError> {
        let all = self.collect()?;
        let shard_count = self.ctx.workers.max(1);
        let chunk = all.len().div_ceil(shard_count).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut rest = all;
        while !rest.is_empty() {
            let tail = rest.split_off(chunk.min(rest.len()));
            shards.push(Segment::Ready(Shard::InMemory(Arc::new(rest))));
            rest = tail;
        }
        Ok(PCollection { ctx: self.ctx.clone(), segments: shards })
    }

    /// Defers `body` onto every segment's operator chain: each output
    /// segment is a [`FusedUnit`] that will stream its source through the
    /// composed chain in one pass at the next barrier.
    fn compose<U, B>(&self, body: B) -> PCollection<U>
    where
        U: Record,
        B: Fn(T, Emit<'_, U>) -> Result<(), DataflowError> + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let segments = self
            .segments
            .iter()
            .map(|segment| {
                let body = Arc::clone(&body);
                let unit = match segment {
                    Segment::Ready(shard) => {
                        let shard = shard.clone();
                        FusedUnit::pending(
                            self.ctx.clone(),
                            1,
                            Arc::new(move |emit| {
                                let mut entered = 0u64;
                                shard.for_each(|record| {
                                    entered += 1;
                                    body(record, &mut *emit)
                                })?;
                                Ok(entered)
                            }),
                        )
                    }
                    Segment::Fused(prev) => {
                        let prev = Arc::clone(prev);
                        FusedUnit::pending(
                            self.ctx.clone(),
                            prev.ops.saturating_add(1),
                            Arc::new(move |emit| {
                                prev.stream(&mut |record| body(record, &mut *emit))
                            }),
                        )
                    }
                };
                Segment::Fused(Arc::new(unit))
            })
            .collect();
        PCollection { ctx: self.ctx.clone(), segments }
    }

    /// Shared eager shard-parallel transform driver. `op` names the
    /// transform in per-op registry counters (`dataflow.op.<op>.records`),
    /// flushed once per shard. A barrier: pending fused chains execute
    /// first.
    fn transform_shards<U, F>(
        &self,
        op: &'static str,
        body: F,
    ) -> Result<PCollection<U>, DataflowError>
    where
        U: Record,
        F: Fn(T, &mut ShardSink<'_, U>) -> Result<(), DataflowError> + Send + Sync,
    {
        let _span = submod_obs::span_full(match op {
            "map" => "dataflow.map",
            _ => "dataflow.flat_map",
        });
        let op_records = submod_obs::counter(&format!("dataflow.op.{op}.records"));
        let ctx = &self.ctx;
        let shards = self.ready_shards()?;
        let shard_groups: Vec<Vec<Shard<U>>> = submod_exec::parallel_map_result(shards, |shard| {
            let mut sink = ShardSink::new(ctx);
            let mut processed = 0u64;
            shard.for_each(|record| {
                processed += 1;
                body(record, &mut sink)
            })?;
            ctx.metrics.record_processed(processed);
            op_records.add(processed);
            sink.finish()
        })?;
        Ok(PCollection::from_parts(self.ctx.clone(), shard_groups.into_iter().flatten().collect()))
    }
}

#[cfg(test)]
mod tests {
    use crate::pipeline::Shard;
    use crate::{MemoryBudget, Pipeline};
    use std::sync::Arc;

    fn pipeline() -> Pipeline {
        Pipeline::new(3).unwrap()
    }

    #[test]
    fn map_transforms_all_records() {
        let p = pipeline();
        let pc = p.from_vec((0u64..100).collect());
        let mut out = pc.map(|x| x + 1).unwrap().collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (1u64..=100).collect::<Vec<_>>());
    }

    #[test]
    fn filter_keeps_matching() {
        let p = pipeline();
        let pc = p.from_vec((0u64..100).collect());
        assert_eq!(pc.filter(|x| x % 10 == 0).unwrap().count().unwrap(), 10);
    }

    #[test]
    fn flat_map_expands_and_contracts() {
        let p = pipeline();
        let pc = p.from_vec(vec![1u64, 2, 3]);
        let expanded = pc.flat_map(|x| (0..x).map(move |i| (x, i)).collect::<Vec<_>>()).unwrap();
        assert_eq!(expanded.count().unwrap(), 6);
        let none = pc.flat_map(|_| Vec::<u64>::new()).unwrap();
        assert_eq!(none.count().unwrap(), 0);
    }

    #[test]
    fn union_concatenates() {
        let p = pipeline();
        let a = p.from_vec(vec![1u64, 2]);
        let b = p.from_vec(vec![3u64]);
        let u = a.union(&b).unwrap();
        let mut out = u.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn union_across_pipelines_is_an_error() {
        let p1 = pipeline();
        let p2 = pipeline();
        let a = p1.from_vec(vec![1u64]);
        let b = p2.from_vec(vec![2u64]);
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn spilled_transforms_roundtrip() {
        let p =
            Pipeline::builder().workers(2).memory_budget(MemoryBudget::bytes(128)).build().unwrap();
        let pc = p.from_vec((0u64..5000).collect());
        let mapped = pc.map(|x| x * 3).unwrap();
        let mut out = mapped.collect().unwrap();
        assert!(p.metrics().bytes_spilled > 0, "expected spills under 128-byte budget");
        out.sort_unstable();
        assert_eq!(out.len(), 5000);
        assert_eq!(out[4999], 4999 * 3);
        // A second pass over spilled shards also works.
        assert_eq!(mapped.filter(|x| x % 2 == 0).unwrap().count().unwrap(), 2500);
    }

    #[test]
    fn rebalance_evens_shards() {
        let p = pipeline();
        let pc = p.from_shards(vec![(0u64..97).collect(), vec![], vec![97, 98]]);
        let balanced = pc.rebalance().unwrap();
        assert_eq!(balanced.count().unwrap(), 99);
        assert_eq!(balanced.num_shards(), 3);
    }

    #[test]
    fn records_processed_metric_accumulates_eagerly() {
        let p = pipeline();
        let pc = p.from_vec((0u64..50).collect());
        pc.map_eager(|x| x).unwrap();
        pc.flat_map_eager(Some).unwrap();
        assert_eq!(p.metrics().records_processed, 100);
    }

    #[test]
    fn fused_chain_runs_once_per_shard_at_the_barrier() {
        let p = pipeline();
        let pc = p.from_vec((0u64..100).collect());
        let chained = pc.map(|x| x + 1).unwrap().filter(|x| x % 2 == 0).unwrap().map(|x| x * 10);
        let chained = chained.unwrap();
        // Nothing ran yet: no records processed before the barrier.
        assert_eq!(p.metrics().records_processed, 0);
        assert_eq!(p.metrics().stages_fused, 0);
        let mut out = chained.collect().unwrap();
        out.sort_unstable();
        assert_eq!(out, (1u64..=100).filter(|x| x % 2 == 0).map(|x| x * 10).collect::<Vec<_>>());
        let m = p.metrics();
        // One fused stage per shard, and the 100 inputs entered exactly
        // one pass (not one per operator).
        assert_eq!(m.stages_fused, 3);
        assert_eq!(m.records_processed, 100);
    }

    #[test]
    fn fused_results_are_cached_across_barriers() {
        let p = Pipeline::new(2).unwrap();
        let pc = p.from_vec((0u64..40).collect());
        let mapped = pc.map(|x| x + 1).unwrap();
        assert_eq!(mapped.count().unwrap(), 40);
        let stages_after_first = p.metrics().stages_fused;
        // Re-consuming the same collection reads the cache.
        assert_eq!(mapped.count().unwrap(), 40);
        assert_eq!(mapped.collect().unwrap().len(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first);
        // Chaining on top of the cached result streams from the cache.
        assert_eq!(mapped.map(|x| x * 2).unwrap().count().unwrap(), 40);
        assert_eq!(p.metrics().stages_fused, stages_after_first + 2);
    }

    #[test]
    fn executed_generations_release_their_upstream() {
        let p = Pipeline::builder().workers(2).build().unwrap();
        let gen0 = p.from_vec((0u64..64).collect()).map(|x| x + 1).unwrap().materialize().unwrap();
        let weak = match gen0.ready_shards().unwrap().into_iter().next() {
            Some(Shard::InMemory(rows)) => Arc::downgrade(&rows),
            other => panic!("expected a resident generation-0 shard, got {other:?}"),
        };
        // Each generation fuses onto the previous one and executes, the
        // way the greedy engine re-derives its pool table every pass.
        let mut newest = gen0;
        for _ in 0..4 {
            newest = newest.map(|x| x * 2).unwrap();
            assert_eq!(newest.count().unwrap(), 64);
        }
        assert!(weak.upgrade().is_none(), "generation 0 is still reachable from the newest");
        let sum: u64 = newest.collect().unwrap().iter().sum();
        assert_eq!(sum, (1u64..=64).sum::<u64>() * 16);
    }

    #[test]
    fn fused_chain_agrees_with_eager_chain() {
        let p = pipeline();
        let pc = p.from_vec((0u64..500).collect());
        let fused = pc
            .map(|x| x * 7)
            .unwrap()
            .filter(|x| x % 3 != 0)
            .unwrap()
            .flat_map(|x| vec![x, x + 1])
            .unwrap()
            .collect()
            .unwrap();
        let eager = pc
            .map_eager(|x| x * 7)
            .unwrap()
            .flat_map_eager(|x| (x % 3 != 0).then_some(x))
            .unwrap()
            .flat_map_eager(|x| vec![x, x + 1])
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(fused, eager);
    }
}
