//! Per-layer metrics of one traced phase (a set-up or a job), read from
//! the `submod_obs` registry snapshot and the span stream the phase left.

use std::collections::BTreeMap;
use submod_obs::{MetricsSnapshot, SpanEvent};

/// Spans whose self time is reported: the benchmark's own spans around
/// each public call, then the program's spans nested under them.
pub const SELF_TIME_SPANS: [&str; 14] = [
    "bench.generate",
    "bench.utilities",
    "bench.build_knn_graph",
    "bench.build_knn_graph_store",
    "bench.open_store",
    "bench.bound_in_memory",
    "bench.bound_dataflow",
    "bench.complete_selection",
    "bench.greedy_dataflow",
    "bench.greedy_dataflow_journaled",
    "knn.search_block",
    "dataflow.aggregate_per_key",
    "dataflow.kth_largest",
    "dataflow.fused_stage",
];

/// Benchmark spans around a greedy call; engine passes are counted
/// beneath them.
const GREEDY_SPANS: [&str; 3] =
    ["bench.complete_selection", "bench.greedy_dataflow", "bench.greedy_dataflow_journaled"];

/// Per-layer metrics other than self times, with their units, in report
/// order.
pub const METRICS: [(&str, &str); 34] = [
    ("data.generate_s", "s"),
    ("data.utilities_s", "s"),
    ("knn.build_s", "s"),
    ("knn.queries", "count"),
    ("knn.candidates_per_query", "ratio"),
    ("kernels.candidates", "count"),
    ("kernels.bytes_computed", "bytes"),
    ("store.write_s", "s"),
    ("store.open_s", "s"),
    ("store.mapped_kib", "KiB"),
    ("dist.bound_s", "s"),
    ("dist.bound_passes", "count"),
    ("dist.bound_decided_fraction", "ratio"),
    ("dist.greedy_s", "s"),
    ("dist.greedy_steps", "count"),
    ("dist.engine_passes", "count"),
    ("dist.pops_per_pass", "ratio"),
    ("dist.rows_per_pop", "ratio"),
    ("dist.driver_peak_kib", "KiB"),
    ("dataflow.records_processed", "count"),
    ("dataflow.records_per_pass", "ratio"),
    ("dataflow.stages_fused", "count"),
    ("dataflow.broadcast_kib", "KiB"),
    ("dataflow.records_shuffled", "count"),
    ("dataflow.spill_written_mib", "MiB"),
    ("dataflow.spill_read_mib", "MiB"),
    ("dataflow.spill_files", "count"),
    ("dataflow.worker_peak_kib", "KiB"),
    ("exec.region_entries", "count"),
    ("exec.region_entry_s", "s"),
    ("exec.parks", "count"),
    ("exec.steals", "count"),
    ("journal.syncs", "count"),
    ("journal.bytes_written", "bytes"),
];

/// Metrics a set-up phase owns on every workload.
const SETUP_METRICS: [&str; 3] = ["data.generate_s", "data.utilities_s", "store.write_s"];
/// Metrics owned by the phase that builds the k-NN graph.
const KNN_METRICS: [&str; 5] = [
    "knn.build_s",
    "knn.queries",
    "knn.candidates_per_query",
    "kernels.candidates",
    "kernels.bytes_computed",
];

/// What one traced phase observed beyond the registry and the spans.
#[derive(Clone, Copy, Default)]
pub struct PhaseFacts {
    /// Embedding dimension (kernel bytes are candidates × dim × 4).
    pub dim: usize,
    /// Fraction of the ground set bounding decided, if bounding ran.
    pub decided_fraction: f64,
    /// Largest worker buffer of the phase's pipeline, in bytes.
    pub worker_peak_bytes: u64,
}

/// The per-layer metrics of one traced phase, keyed by metric name
/// (self times as `<span>.self_s`).
pub fn phase_metrics(
    snap: &MetricsSnapshot,
    spans: &[SpanEvent],
    facts: PhaseFacts,
) -> BTreeMap<String, f64> {
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0) as f64;
    let inclusive = inclusive_seconds(spans);
    let incl = |name: &str| inclusive.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let queries = counter("knn.search.queries");
    let candidates =
        counter("kernels.gather_top_k.candidates") + counter("kernels.batch_top_k.row_scans");
    let passes = engine_passes(spans) as f64;
    let records = counter("dataflow.records_processed");
    let pops = counter("greedy.winners_collected");
    let driver_peak = (gauge("bounding.peak_pass_bytes") + gauge("bounding.peak_state_bytes"))
        .max(gauge("greedy.peak_round_bytes") + gauge("greedy.peak_state_bytes"));
    const KIB: f64 = 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;

    let mut out = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };
    put("data.generate_s", incl("bench.generate"));
    put("data.utilities_s", incl("bench.utilities"));
    put("knn.build_s", incl("knn.build"));
    put("knn.queries", queries);
    put("knn.candidates_per_query", ratio(candidates, queries));
    put("kernels.candidates", candidates);
    put("kernels.bytes_computed", candidates * facts.dim as f64 * 4.0);
    put("store.write_s", incl("store.write"));
    put("store.open_s", incl("bench.open_store"));
    put("store.mapped_kib", counter("store.mapped_bytes") / KIB);
    put("dist.bound_s", incl("bench.bound_in_memory") + incl("bench.bound_dataflow"));
    put("dist.bound_passes", counter("bounding.passes"));
    put("dist.bound_decided_fraction", facts.decided_fraction);
    put("dist.greedy_s", GREEDY_SPANS.iter().map(|s| incl(s)).sum());
    put("dist.greedy_steps", counter("greedy.steps"));
    put("dist.engine_passes", passes);
    put("dist.pops_per_pass", ratio(pops, passes));
    put("dist.rows_per_pop", ratio(records, pops));
    put("dist.driver_peak_kib", driver_peak / KIB);
    put("dataflow.records_processed", records);
    put("dataflow.records_per_pass", ratio(records, passes));
    put("dataflow.stages_fused", counter("dataflow.stages_fused"));
    put("dataflow.broadcast_kib", counter("dataflow.broadcast.bytes") / KIB);
    put("dataflow.records_shuffled", counter("dataflow.records_shuffled"));
    put("dataflow.spill_written_mib", counter("dataflow.spill.bytes_written") / MIB);
    put("dataflow.spill_read_mib", counter("dataflow.spill.bytes_read") / MIB);
    put("dataflow.spill_files", counter("dataflow.spill.files"));
    put("dataflow.worker_peak_kib", facts.worker_peak_bytes as f64 / KIB);
    put("exec.region_entries", counter("exec.region_entries"));
    put("exec.region_entry_s", counter("exec.region_entry_nanos") / 1e9);
    put("exec.parks", counter("exec.parks"));
    put("exec.steals", counter("exec.steals"));
    put("journal.syncs", counter("journal.syncs"));
    put("journal.bytes_written", counter("journal.bytes_written"));
    for (name, secs) in self_seconds(spans) {
        if SELF_TIME_SPANS.contains(&name) {
            out.insert(format!("{name}.self_s"), secs);
        }
    }
    for name in SELF_TIME_SPANS {
        out.entry(format!("{name}.self_s")).or_insert(0.0);
    }
    out
}

/// Merges the median set-up metrics and the median job metrics into the
/// reported per-layer metrics: each metric comes from the phase where its
/// layer does the work, and self times add up over both phases.
pub fn merge_phases(
    setup: &BTreeMap<String, f64>,
    job: &BTreeMap<String, f64>,
    knn_in_job: bool,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for name in setup.keys().chain(job.keys()) {
        let setup_value = setup.get(name).copied().unwrap_or(0.0);
        let job_value = job.get(name).copied().unwrap_or(0.0);
        let value = if name.ends_with(".self_s") {
            setup_value + job_value
        } else if SETUP_METRICS.contains(&name.as_str()) {
            setup_value
        } else if KNN_METRICS.contains(&name.as_str()) {
            if knn_in_job {
                job_value
            } else {
                setup_value
            }
        } else {
            job_value
        };
        out.insert(name.clone(), value);
    }
    out
}

/// Total inclusive duration per span name, in seconds.
fn inclusive_seconds(spans: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for e in spans {
        *out.entry(e.name).or_insert(0.0) += e.dur_us as f64 / 1e6;
    }
    out
}

/// Total self time per span name, in seconds: each span's duration minus
/// the part of its interval that its children cover (children may run
/// concurrently on pool workers, so their intervals are merged first).
fn self_seconds(spans: &[SpanEvent]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in spans {
        if e.parent != 0 {
            children.entry(e.parent).or_default().push((e.start_us, e.start_us + e.dur_us));
        }
    }
    let mut out = BTreeMap::new();
    for e in spans {
        let (start, end) = (e.start_us, e.start_us + e.dur_us);
        let mut covered = 0u64;
        if let Some(intervals) = children.get_mut(&e.id) {
            intervals.sort_unstable();
            let mut current: Option<(u64, u64)> = None;
            for &(s, t) in intervals.iter() {
                let (s, t) = (s.clamp(start, end), t.clamp(start, end));
                current = match current {
                    Some((cs, ct)) if s <= ct => Some((cs, ct.max(t))),
                    Some((cs, ct)) => {
                        covered += ct - cs;
                        Some((s, t))
                    }
                    None => Some((s, t)),
                };
            }
            if let Some((cs, ct)) = current {
                covered += ct - cs;
            }
        }
        *out.entry(e.name).or_insert(0.0) += (e.dur_us - covered.min(e.dur_us)) as f64 / 1e6;
    }
    out
}

/// Engine passes of the greedy phase: driver round trips into the
/// dataflow engine (`aggregate_per_key` and `kth_largest` calls) beneath
/// a benchmark greedy span.
fn engine_passes(spans: &[SpanEvent]) -> u64 {
    let by_id: BTreeMap<u64, &SpanEvent> = spans.iter().map(|e| (e.id, e)).collect();
    spans
        .iter()
        .filter(|e| matches!(e.name, "dataflow.aggregate_per_key" | "dataflow.kth_largest"))
        .filter(|e| under_greedy(e, &by_id))
        .count() as u64
}

/// Whether `e` is, or nests beneath, a benchmark greedy span.
fn under_greedy<'a>(mut e: &'a SpanEvent, by_id: &BTreeMap<u64, &'a SpanEvent>) -> bool {
    loop {
        if GREEDY_SPANS.contains(&e.name) {
            return true;
        }
        match by_id.get(&e.parent) {
            Some(parent) => e = parent,
            None => return false,
        }
    }
}
