//! Property-based tests for the dataflow engine: codec roundtrips and
//! transform correctness against in-memory references, with and without
//! memory pressure.

use proptest::prelude::*;
use std::collections::HashMap;
use submod_dataflow::{Either2, Either3, MemoryBudget, PCollection, Pipeline, Record};

/// Applies a random operator chain (maps, filters, flat_maps — all
/// deferrable) to a collection; the same chain must produce bitwise
/// identical results whether the stages fuse or run eagerly.
fn apply_chain(source: &PCollection<u64>, ops: &[u32]) -> PCollection<u64> {
    let mut current = source.clone();
    for (i, &op) in ops.iter().enumerate() {
        let salt = i as u64;
        current = match op % 4 {
            0 => current.map(move |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ salt).unwrap(),
            1 => current.filter(move |&x| x % 3 != salt % 3).unwrap(),
            2 => current
                .flat_map(move |x| if x % 5 == 0 { vec![x, x ^ 0xABCD] } else { vec![x] })
                .unwrap(),
            _ => current.map(move |x| x ^ (0x5A5A + salt)).unwrap(),
        };
    }
    current
}

/// [`apply_chain`] run operator by operator: every step materializes at
/// once through `map_eager` / `flat_map_eager` (the filter as a
/// `flat_map_eager` returning an `Option`), so nothing fuses.
fn apply_eager_chain(source: &PCollection<u64>, ops: &[u32]) -> PCollection<u64> {
    let mut current = source.clone();
    for (i, &op) in ops.iter().enumerate() {
        let salt = i as u64;
        current = match op % 4 {
            0 => current.map_eager(|x| x.wrapping_mul(0x9E37_79B9).rotate_left(7) ^ salt).unwrap(),
            1 => current.flat_map_eager(|x| (x % 3 != salt % 3).then_some(x)).unwrap(),
            2 => current
                .flat_map_eager(|x| if x % 5 == 0 { vec![x, x ^ 0xABCD] } else { vec![x] })
                .unwrap(),
            _ => current.map_eager(|x| x ^ (0x5A5A + salt)).unwrap(),
        };
    }
    current
}

/// Keys every value by its index, routed through a map so the rows land in
/// budget-checked sinks (a raw `from_vec` shard is exempt from the budget).
fn keyed(pipeline: &Pipeline, values: &[f64]) -> PCollection<(u64, f64)> {
    pipeline
        .from_vec(values.iter().copied().enumerate().map(|(i, x)| (i as u64, x)).collect())
        .map(|row| row)
        .unwrap()
}

/// `kth_largest_rows` must return the τ of `map → kth_largest` and the
/// rows of `filter(score ≥ τ) → collect`, bit for bit and in order.
fn rows_match_map_kth_filter(rows: &PCollection<(u64, f64)>, k: u64) -> Result<(), TestCaseError> {
    let (tau, got) = rows.kth_largest_rows(k, |&(_, x)| x).unwrap();
    let expected_tau = rows.map(|(_, x)| x).unwrap().kth_largest(k).unwrap();
    prop_assert_eq!(tau.to_bits(), expected_tau.to_bits(), "k = {}", k);
    let expected = rows.filter(move |&(_, x)| x >= expected_tau).unwrap().collect().unwrap();
    let bits = |rows: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
        rows.into_iter().map(|(i, x)| (i, x.to_bits())).collect()
    };
    prop_assert_eq!(bits(got), bits(expected), "k = {}", k);
    Ok(())
}

fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(value: &T) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    let mut slice = buf.as_slice();
    let decoded = T::decode(&mut slice).expect("decode");
    prop_assert_eq!(&decoded, value);
    prop_assert!(slice.is_empty(), "left {} bytes", slice.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn codec_roundtrips_primitives(
        a in any::<u64>(), b in any::<i64>(), c in any::<f32>(), d in any::<bool>(),
    ) {
        prop_assume!(!c.is_nan());
        roundtrip(&a)?;
        roundtrip(&b)?;
        roundtrip(&c)?;
        roundtrip(&d)?;
        roundtrip(&(a, b, c, d))?;
    }

    #[test]
    fn codec_roundtrips_containers(
        v in proptest::collection::vec((any::<u64>(), 0.0f32..1.0), 0..50),
        s in "[a-zA-Z0-9 ]{0,40}",
        o in proptest::option::of(any::<u32>()),
    ) {
        roundtrip(&v)?;
        roundtrip(&s)?;
        roundtrip(&o)?;
        roundtrip(&(s.clone(), v.clone()))?;
    }

    #[test]
    fn codec_roundtrips_eithers(x in any::<u64>(), y in 0.0f64..1.0) {
        roundtrip(&Either2::<u64, f64>::Left(x))?;
        roundtrip(&Either2::<u64, f64>::Right(y))?;
        roundtrip(&Either3::<u64, f64, bool>::First(x))?;
        roundtrip(&Either3::<u64, f64, bool>::Second(y))?;
        roundtrip(&Either3::<u64, f64, bool>::Third(true))?;
    }

    /// Concatenated encodings decode back record by record — the framing
    /// the shuffle relies on.
    #[test]
    fn codec_sequences_decode_in_order(records in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..40)) {
        let mut buf = Vec::new();
        for r in &records {
            r.encode(&mut buf);
        }
        let mut slice = buf.as_slice();
        for r in &records {
            let decoded = <(u64, u32)>::decode(&mut slice).expect("decode");
            prop_assert_eq!(&decoded, r);
        }
        prop_assert!(slice.is_empty());
    }

    /// map/filter/count agree with the iterator reference for any input
    /// and any worker count.
    #[test]
    fn transforms_match_iterator_reference(
        data in proptest::collection::vec(any::<u64>(), 0..500),
        workers in 1usize..8,
    ) {
        let pipeline = Pipeline::new(workers).unwrap();
        let pc = pipeline.from_vec(data.clone());
        let mapped: Vec<u64> = {
            let mut v = pc.map(|x| x ^ 0xFF).unwrap().collect().unwrap();
            v.sort_unstable();
            v
        };
        let mut expected: Vec<u64> = data.iter().map(|x| x ^ 0xFF).collect();
        expected.sort_unstable();
        prop_assert_eq!(mapped, expected);

        let kept = pc.filter(|x| x % 3 == 0).unwrap().count().unwrap();
        prop_assert_eq!(kept, data.iter().filter(|x| **x % 3 == 0).count() as u64);
    }

    /// group_by_key equals the HashMap reference for arbitrary data, with
    /// and without a crushing memory budget.
    #[test]
    fn group_by_key_matches_reference(
        data in proptest::collection::vec((0u64..40, any::<u32>()), 0..400),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(512));
        }
        let pipeline = builder.build().unwrap();
        let grouped = pipeline.from_vec(data.clone()).group_by_key().unwrap();
        let ours: HashMap<u64, Vec<u32>> = grouped
            .collect()
            .unwrap()
            .into_iter()
            .map(|(k, mut v)| { v.sort_unstable(); (k, v) })
            .collect();
        let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
        for (k, v) in data {
            reference.entry(k).or_default().push(v);
        }
        for v in reference.values_mut() {
            v.sort_unstable();
        }
        prop_assert_eq!(ours, reference);
    }

    /// kth_largest equals the sort-based reference for every valid k.
    #[test]
    fn kth_largest_matches_sort(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let pipeline = Pipeline::new(3).unwrap();
        let pc = pipeline.from_vec(values.clone());
        let rows = keyed(&pipeline, &values);
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in [1usize, sorted.len() / 2 + 1, sorted.len()] {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got, sorted[k - 1], "k = {}", k);
            rows_match_map_kth_filter(&rows, k as u64)?;
        }
    }

    /// Adversarial kth_largest: values drawn from a tiny pool so the
    /// collection is saturated with duplicates (ties are where a
    /// bisection can come off the rails), checked at **every** index —
    /// both ends included — against the in-memory sort, across worker
    /// counts and under a spilling budget.
    #[test]
    fn kth_largest_with_heavy_duplicates_matches_sort(
        picks in proptest::collection::vec(0usize..4, 1..120),
        pool in proptest::collection::vec(-1e3f64..1e3, 4..5),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let values: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(128));
        }
        let pipeline = builder.build().unwrap();
        // Route through a map so the records land in budget-checked sinks.
        let pc = pipeline.from_vec(values.clone()).map(|x| x).unwrap();
        let rows = keyed(&pipeline, &values);
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in 1..=sorted.len() {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got.to_bits(), sorted[k - 1].to_bits(), "k = {}", k);
        }
        // Four distinct values: τ always sits in a heavy tie.
        for k in [1, sorted.len() / 2 + 1, sorted.len()] {
            rows_match_map_kth_filter(&rows, k as u64)?;
        }
    }

    /// All-equal collections: every order statistic is that value, bit
    /// for bit.
    #[test]
    fn kth_largest_all_equal(value in -1e9f64..1e9, len in 1usize..60) {
        let pipeline = Pipeline::new(4).unwrap();
        let pc = pipeline.from_vec(vec![value; len]);
        let rows = keyed(&pipeline, &vec![value; len]);
        for k in [1, len.div_ceil(2), len] {
            prop_assert_eq!(pc.kth_largest(k as u64).unwrap().to_bits(), value.to_bits());
            rows_match_map_kth_filter(&rows, k as u64)?;
            // Every row ties at τ, so every row comes back.
            prop_assert_eq!(rows.kth_largest_rows(k as u64, |&(_, x)| x).unwrap().1.len(), len);
        }
    }

    /// aggregate_per_key(sum) equals the HashMap reference under any
    /// sharding and budget.
    #[test]
    fn aggregate_per_key_matches_reference(
        data in proptest::collection::vec((0u64..25, 0u64..1000), 0..300),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let mut builder = Pipeline::builder().workers(workers);
        if tiny_budget {
            builder = builder.memory_budget(MemoryBudget::bytes(256));
        }
        let pipeline = builder.build().unwrap();
        let mut ours: Vec<(u64, u64)> = pipeline
            .from_vec(data.clone())
            .aggregate_per_key(0u64, |a, v| a + v, |a, b| a + b)
            .unwrap()
            .collect()
            .unwrap();
        ours.sort_unstable();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (k, v) in data {
            *reference.entry(k).or_default() += v;
        }
        let mut expected: Vec<(u64, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    /// The seeded samples are pure functions of (seed, key): identical at
    /// any worker count, and Bernoulli membership matches the coin.
    #[test]
    fn samples_are_shard_invariant(
        data in proptest::collection::vec(any::<u64>(), 1..200),
        seed in any::<u64>(),
        p in 0.0f64..=1.0,
        capacity in 1usize..50,
    ) {
        let mut dedup = data;
        dedup.sort_unstable();
        dedup.dedup();
        let mut bernoulli_runs = Vec::new();
        let mut reservoir_runs = Vec::new();
        for workers in [1usize, 4] {
            let pipeline = Pipeline::new(workers).unwrap();
            let pc = pipeline.from_vec(dedup.clone());
            let mut b = pc.sample_bernoulli(seed, |&x| x, move |_| p).unwrap().collect().unwrap();
            b.sort_unstable();
            bernoulli_runs.push(b);
            reservoir_runs.push(
                pc.sample_reservoir(seed, |&x| x, capacity).unwrap().collect().unwrap(),
            );
        }
        prop_assert_eq!(&bernoulli_runs[0], &bernoulli_runs[1]);
        prop_assert_eq!(&reservoir_runs[0], &reservoir_runs[1]);
        prop_assert_eq!(reservoir_runs[0].len(), capacity.min(dedup.len()));
        for x in &bernoulli_runs[0] {
            prop_assert!(submod_dataflow::sample_coin(seed, *x) < p);
        }
    }

    /// reduce_per_key(sum) equals aggregate-by-hand.
    #[test]
    fn reduce_per_key_sums_correctly(data in proptest::collection::vec((0u64..20, 0u64..1000), 0..300)) {
        let pipeline = Pipeline::new(4).unwrap();
        let reduced = pipeline.from_vec(data.clone()).reduce_per_key(|a, b| a + b).unwrap();
        let mut ours: Vec<(u64, u64)> = reduced.collect().unwrap();
        ours.sort_unstable();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (k, v) in data {
            *reference.entry(k).or_default() += v;
        }
        let mut expected: Vec<(u64, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    /// Extreme-value order statistics (negative zero, subnormals, the
    /// f64 extremes) come back bit for bit at every index.
    #[test]
    fn kth_largest_extreme_values_match_sort(workers in 1usize..6) {
        let values =
            vec![-0.0f64, 0.0, f64::MIN_POSITIVE / 2.0, f64::MAX, f64::MIN, 1.0, -1.0, 0.0];
        let pipeline = Pipeline::new(workers).unwrap();
        let pc = pipeline.from_vec(values.clone());
        let rows = keyed(&pipeline, &values);
        let mut sorted = values;
        sorted.sort_by(|a, b| b.total_cmp(a));
        for k in 1..=sorted.len() {
            let got = pc.kth_largest(k as u64).unwrap();
            prop_assert_eq!(got.to_bits(), sorted[k - 1].to_bits(), "k = {}", k);
            rows_match_map_kth_filter(&rows, k as u64)?;
        }
    }

    /// Operator fusion is invisible: any random deferrable chain yields
    /// bitwise identical collections fused and run operator by operator,
    /// under any worker count and with or without a spilling budget.
    #[test]
    fn fused_and_eager_chains_agree_on_random_chains(
        data in proptest::collection::vec(any::<u64>(), 0..300),
        ops in proptest::collection::vec(0u32..4, 1..8),
        workers in 1usize..6,
        tiny_budget in any::<bool>(),
    ) {
        let build = || {
            let mut b = Pipeline::builder().workers(workers);
            if tiny_budget {
                b = b.memory_budget(MemoryBudget::bytes(256));
            }
            b.build().unwrap()
        };
        let fused_pipeline = build();
        let eager_pipeline = build();
        let fused = apply_chain(&fused_pipeline.from_vec(data.clone()), &ops);
        let eager = apply_eager_chain(&eager_pipeline.from_vec(data.clone()), &ops);
        prop_assert_eq!(fused.collect().unwrap(), eager.collect().unwrap());
        if !data.is_empty() {
            prop_assert!(fused_pipeline.metrics().stages_fused > 0, "chain did not fuse");
        }
        prop_assert_eq!(eager_pipeline.metrics().stages_fused, 0u64);
    }

    /// Fused chains feed shuffles with the exact same contents the eager
    /// path produces: group_by_key downstream of a random chain matches
    /// group for group, value order included.
    #[test]
    fn fusion_preserves_shuffle_contents(
        data in proptest::collection::vec(any::<u64>(), 0..250),
        ops in proptest::collection::vec(0u32..4, 1..6),
        workers in 1usize..5,
    ) {
        let mut grouped_runs = Vec::new();
        for chain in [apply_chain, apply_eager_chain] {
            let pipeline = Pipeline::new(workers).unwrap();
            let chained = chain(&pipeline.from_vec(data.clone()), &ops);
            let mut groups = chained
                .map(|x| (x % 8, x))
                .unwrap()
                .group_by_key()
                .unwrap()
                .collect()
                .unwrap();
            groups.sort_by_key(|&(k, _)| k);
            grouped_runs.push(groups);
        }
        prop_assert_eq!(&grouped_runs[0], &grouped_runs[1]);
    }

    /// co_group_2 is a full outer join: every key from either side appears
    /// exactly once with all its values.
    #[test]
    fn co_group_2_is_full_outer_join(
        left in proptest::collection::vec((0u64..15, any::<u32>()), 0..150),
        right in proptest::collection::vec((0u64..15, any::<bool>()), 0..150),
    ) {
        let pipeline = Pipeline::new(3).unwrap();
        let joined = pipeline
            .from_vec(left.clone())
            .co_group_2(&pipeline.from_vec(right.clone()))
            .unwrap();
        let out = joined.collect().unwrap();
        let mut keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut expected_keys: Vec<u64> =
            left.iter().map(|(k, _)| *k).chain(right.iter().map(|(k, _)| *k)).collect();
        expected_keys.sort_unstable();
        expected_keys.dedup();
        prop_assert_eq!(keys, expected_keys);
        for (k, (ls, rs)) in out {
            prop_assert_eq!(ls.len(), left.iter().filter(|(lk, _)| *lk == k).count());
            prop_assert_eq!(rs.len(), right.iter().filter(|(rk, _)| *rk == k).count());
        }
    }
}
