//! Compares two Criterion JSON-lines baseline files (the
//! `CRITERION_OUTPUT_JSON` format: one `{"group":…,"id":…,"mean_ns":…}`
//! object per line) and fails loudly on mean-time regressions.
//!
//! ```text
//! cargo run -p submod-bench --bin bench-diff -- BASELINE CURRENT [--tolerance 0.20]
//! cargo run -p submod-bench --bin bench-diff -- FILE --trace-overhead [--tolerance 0.03]
//! ```
//!
//! Exit status 1 when any benchmark present in both files got slower by
//! more than the tolerance (default +20 %). Entries that exist in only
//! one file are listed but never fail the diff (benches come and go
//! across PRs).
//!
//! `--trace-overhead` is the observability gate: instead of diffing two
//! files, it compares `obs_overhead/selection_spans` and
//! `obs_overhead/selection_full` against `obs_overhead/selection_off`
//! *within one file* (all three run in one process on one runner, see
//! `benches/obs_overhead.rs`) and fails when either tracing mode costs
//! more than the tolerance over the off path.
//!
//! `--journal-overhead` is the crash-safety gate: it compares
//! `journal_overhead/selection_journaled` against
//! `journal_overhead/selection_plain` *within one file* (both run in one
//! process on one runner, see `benches/journal_overhead.rs`) and fails
//! when write-ahead journaling costs more than the tolerance (default
//! +5 %) over the plain selection:
//!
//! ```text
//! cargo run -p submod-bench --bin bench-diff -- FILE --journal-overhead [--tolerance 0.05]
//! ```
//!
//! `--dataflow-ratio` is the executor-overhead gate: within each file it
//! computes the same-runner dataflow/in_memory mean-time ratios of the
//! `bounding_executor_2k` and `greedy_executor_2k` groups (ratios are
//! runner-independent, unlike raw nanoseconds), and with two files fails
//! when any current ratio exceeds its baseline ratio by more than the
//! tolerance. With one file it just reports the ratios:
//!
//! ```text
//! cargo run -p submod-bench --bin bench-diff -- FILE --dataflow-ratio
//! cargo run -p submod-bench --bin bench-diff -- BASELINE CURRENT --dataflow-ratio [--tolerance 0.20]
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed baseline entry, keyed by `group/id`.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    mean_ns: f64,
}

/// Pulls the string value of `"key":"…"` out of a flat JSON object line,
/// honoring the `\"` / `\\` escapes criterion's JSON writer emits.
fn json_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
}

/// Pulls the numeric value of `"key":N` out of a flat JSON object line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_baselines(content: &str) -> BTreeMap<String, Entry> {
    let mut out = BTreeMap::new();
    for line in content.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (Some(group), Some(id), Some(mean_ns)) =
            (json_str(line, "group"), json_str(line, "id"), json_num(line, "mean_ns"))
        else {
            eprintln!("warning: skipping unparsable baseline line: {line}");
            continue;
        };
        // Last write wins: CRITERION_OUTPUT_JSON appends, so a re-run
        // file legitimately contains repeated keys.
        out.insert(format!("{group}/{id}"), Entry { mean_ns });
    }
    out
}

/// The `--trace-overhead` gate: `spans`/`full` vs `off` within one run.
/// Returns `None` (exit 2) when the obs_overhead entries are missing.
fn trace_overhead_gate(entries: &BTreeMap<String, Entry>, tolerance: f64) -> Option<bool> {
    let get = |mode: &str| {
        let key = format!("obs_overhead/selection_{mode}");
        let entry = entries.get(&key);
        if entry.is_none() {
            eprintln!("error: `{key}` not found — run `cargo bench -p submod-bench` with CRITERION_OUTPUT_JSON set");
        }
        entry
    };
    let off = get("off")?;
    let mut ok = true;
    println!(
        "{:<45} {:>12} {:>12} {:>9}  verdict (tolerance +{:.1} % over off)",
        "trace mode",
        "off ns",
        "mode ns",
        "ratio",
        tolerance * 100.0
    );
    for mode in ["spans", "full"] {
        let entry = get(mode)?;
        let ratio = entry.mean_ns / off.mean_ns;
        let verdict = if ratio > 1.0 + tolerance { "REGRESSION" } else { "ok" };
        ok &= ratio <= 1.0 + tolerance;
        println!(
            "{:<45} {:>12.0} {:>12.0} {ratio:>8.3}x  {verdict}",
            format!("obs_overhead/selection_{mode}"),
            off.mean_ns,
            entry.mean_ns
        );
    }
    Some(ok)
}

/// The `--journal-overhead` gate: the journaled selection vs the plain
/// one within one run. Returns `None` (exit 2) when the
/// journal_overhead entries are missing.
fn journal_overhead_gate(entries: &BTreeMap<String, Entry>, tolerance: f64) -> Option<bool> {
    let get = |variant: &str| {
        let key = format!("journal_overhead/selection_{variant}");
        let entry = entries.get(&key);
        if entry.is_none() {
            eprintln!("error: `{key}` not found — run `cargo bench -p submod-bench` with CRITERION_OUTPUT_JSON set");
        }
        entry
    };
    let plain = get("plain")?;
    let journaled = get("journaled")?;
    let ratio = journaled.mean_ns / plain.mean_ns;
    let ok = ratio <= 1.0 + tolerance;
    println!(
        "{:<45} {:>12} {:>12} {:>9}  verdict (tolerance +{:.1} % over plain)",
        "journal mode",
        "plain ns",
        "journaled ns",
        "ratio",
        tolerance * 100.0
    );
    println!(
        "{:<45} {:>12.0} {:>12.0} {ratio:>8.3}x  {}",
        "journal_overhead/selection_journaled",
        plain.mean_ns,
        journaled.mean_ns,
        if ok { "ok" } else { "REGRESSION" }
    );
    Some(ok)
}

/// The same-runner executor pairs whose dataflow/in_memory ratio the
/// `--dataflow-ratio` gate tracks.
const RATIO_PAIRS: [(&str, &str); 2] =
    [("bounding_executor_2k", "dataflow_4workers"), ("greedy_executor_2k", "dataflow")];

/// Computes the dataflow/in_memory mean-time ratio for every tracked
/// pair. Returns `None` (exit 2) when any entry is missing.
fn dataflow_ratios(entries: &BTreeMap<String, Entry>) -> Option<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for (group, id) in RATIO_PAIRS {
        let get = |id: &str| {
            let key = format!("{group}/{id}");
            let entry = entries.get(&key);
            if entry.is_none() {
                eprintln!("error: `{key}` not found — run `cargo bench -p submod-bench` with CRITERION_OUTPUT_JSON set");
            }
            entry
        };
        let reference = get("in_memory")?;
        let dataflow = get(id)?;
        out.push((format!("{group}/{id}"), dataflow.mean_ns / reference.mean_ns));
    }
    Some(out)
}

/// The `--dataflow-ratio` gate: every current same-runner ratio must stay
/// within `tolerance` of its baseline ratio. Returns `None` (exit 2)
/// when entries are missing from the *current* file; pairs absent from
/// the baseline (benches that did not exist on the previous commit) are
/// reported as new and never fail the gate.
fn dataflow_ratio_gate(
    baseline: &BTreeMap<String, Entry>,
    current: &BTreeMap<String, Entry>,
    tolerance: f64,
) -> Option<bool> {
    let cur = dataflow_ratios(current)?;
    let mut ok = true;
    println!(
        "{:<45} {:>12} {:>12} {:>9}  verdict (tolerance +{:.0} % over baseline ratio)",
        "executor pair",
        "base ratio",
        "cur ratio",
        "drift",
        tolerance * 100.0
    );
    for (name, cur_ratio) in &cur {
        let (group, id) = name.split_once('/').expect("pair names are group/id");
        let base_ratio = match (
            baseline.get(&format!("{group}/in_memory")),
            baseline.get(&format!("{group}/{id}")),
        ) {
            (Some(reference), Some(dataflow)) => dataflow.mean_ns / reference.mean_ns,
            _ => {
                println!("{name:<45} {:>12} {cur_ratio:>11.2}x {:>9}  new", "-", "-");
                continue;
            }
        };
        let drift = cur_ratio / base_ratio;
        let verdict = if drift > 1.0 + tolerance { "REGRESSION" } else { "ok" };
        ok &= drift <= 1.0 + tolerance;
        println!("{name:<45} {base_ratio:>11.2}x {cur_ratio:>11.2}x {drift:>8.3}x  {verdict}");
    }
    Some(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut tolerance = None;
    let mut trace_overhead = false;
    let mut journal_overhead = false;
    let mut dataflow_ratio = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--tolerance" {
            i += 1;
            tolerance = match args.get(i).and_then(|s| s.parse().ok()) {
                Some(t) => Some(t),
                None => {
                    eprintln!("error: --tolerance expects a number");
                    return ExitCode::from(2);
                }
            };
        } else if args[i] == "--trace-overhead" {
            trace_overhead = true;
        } else if args[i] == "--journal-overhead" {
            journal_overhead = true;
        } else if args[i] == "--dataflow-ratio" {
            dataflow_ratio = true;
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };

    if trace_overhead {
        if positional.len() != 1 {
            eprintln!("usage: bench-diff FILE --trace-overhead [--tolerance 0.03]");
            return ExitCode::from(2);
        }
        let tolerance = tolerance.unwrap_or(0.03);
        return match trace_overhead_gate(&parse_baselines(&read(&positional[0])), tolerance) {
            Some(true) => {
                println!("\ntracing overhead within +{:.1} % of off", tolerance * 100.0);
                ExitCode::SUCCESS
            }
            Some(false) => {
                eprintln!("\nFAILED: tracing overhead beyond +{:.1} %", tolerance * 100.0);
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }

    if journal_overhead {
        if positional.len() != 1 {
            eprintln!("usage: bench-diff FILE --journal-overhead [--tolerance 0.05]");
            return ExitCode::from(2);
        }
        let tolerance = tolerance.unwrap_or(0.05);
        return match journal_overhead_gate(&parse_baselines(&read(&positional[0])), tolerance) {
            Some(true) => {
                println!("\njournaling overhead within +{:.1} % of plain", tolerance * 100.0);
                ExitCode::SUCCESS
            }
            Some(false) => {
                eprintln!("\nFAILED: journaling overhead beyond +{:.1} %", tolerance * 100.0);
                ExitCode::FAILURE
            }
            None => ExitCode::from(2),
        };
    }

    if dataflow_ratio {
        let tolerance = tolerance.unwrap_or(0.20);
        return match positional.as_slice() {
            [file] => match dataflow_ratios(&parse_baselines(&read(file))) {
                Some(ratios) => {
                    println!("{:<45} {:>12}", "executor pair", "ratio");
                    for (name, ratio) in &ratios {
                        println!("{name:<45} {ratio:>11.2}x");
                    }
                    ExitCode::SUCCESS
                }
                None => ExitCode::from(2),
            },
            [baseline, current] => {
                let baseline = parse_baselines(&read(baseline));
                let current = parse_baselines(&read(current));
                match dataflow_ratio_gate(&baseline, &current, tolerance) {
                    Some(true) => {
                        println!(
                            "\ndataflow/in_memory ratios within +{:.0} % of baseline",
                            tolerance * 100.0
                        );
                        ExitCode::SUCCESS
                    }
                    Some(false) => {
                        eprintln!(
                            "\nFAILED: dataflow/in_memory ratio regressed beyond +{:.0} %",
                            tolerance * 100.0
                        );
                        ExitCode::FAILURE
                    }
                    None => ExitCode::from(2),
                }
            }
            _ => {
                eprintln!(
                    "usage: bench-diff [BASELINE] CURRENT --dataflow-ratio [--tolerance 0.20]"
                );
                ExitCode::from(2)
            }
        };
    }

    if positional.len() != 2 {
        eprintln!("usage: bench-diff BASELINE CURRENT [--tolerance 0.20]");
        return ExitCode::from(2);
    }
    let tolerance = tolerance.unwrap_or(0.20);
    let baseline = parse_baselines(&read(&positional[0]));
    let current = parse_baselines(&read(&positional[1]));

    let mut regressions = Vec::new();
    println!(
        "{:<45} {:>12} {:>12} {:>9}  verdict (tolerance +{:.0} %)",
        "benchmark",
        "baseline ns",
        "current ns",
        "ratio",
        tolerance * 100.0
    );
    for (key, base) in &baseline {
        let Some(cur) = current.get(key) else {
            println!("{key:<45} {:>12.0} {:>12} {:>9}  removed", base.mean_ns, "-", "-");
            continue;
        };
        let ratio = cur.mean_ns / base.mean_ns;
        let verdict = if ratio > 1.0 + tolerance {
            regressions.push((key.clone(), ratio));
            "REGRESSION"
        } else if ratio < 1.0 - tolerance {
            "improved"
        } else {
            "ok"
        };
        println!("{key:<45} {:>12.0} {:>12.0} {ratio:>8.2}x  {verdict}", base.mean_ns, cur.mean_ns);
    }
    for key in current.keys().filter(|k| !baseline.contains_key(*k)) {
        println!("{key:<45} {:>12} {:>12.0} {:>9}  new", "-", current[key].mean_ns, "-");
    }

    if regressions.is_empty() {
        println!("\nno regressions beyond +{:.0} %", tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nFAILED: {} benchmark(s) regressed beyond +{:.0} %:",
            regressions.len(),
            tolerance * 100.0
        );
        for (key, ratio) in &regressions {
            eprintln!("  {key}: {ratio:.2}x the baseline mean");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINES: &str = r#"
{"group":"g","id":"fast","mean_ns":1000,"min_ns":900,"max_ns":1100,"samples":10}
{"group":"g","id":"slow","mean_ns":5000,"min_ns":4000,"max_ns":6000,"samples":10}
"#;

    #[test]
    fn parses_json_lines() {
        let map = parse_baselines(LINES);
        assert_eq!(map.len(), 2);
        assert_eq!(map["g/fast"].mean_ns, 1000.0);
        assert_eq!(map["g/slow"].mean_ns, 5000.0);
    }

    #[test]
    fn last_write_wins_on_repeated_keys() {
        let twice = format!(
            "{LINES}\n{}",
            r#"{"group":"g","id":"fast","mean_ns":1500,"min_ns":1,"max_ns":2,"samples":10}"#
        );
        assert_eq!(parse_baselines(&twice)["g/fast"].mean_ns, 1500.0);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let map = parse_baselines("not json\n{\"group\":\"g\"}\n");
        assert!(map.is_empty());
    }

    #[test]
    fn field_extractors() {
        let line = r#"{"group":"a_b","id":"x","mean_ns":12345.5,"samples":3}"#;
        assert_eq!(json_str(line, "group").as_deref(), Some("a_b"));
        assert_eq!(json_str(line, "id").as_deref(), Some("x"));
        assert_eq!(json_num(line, "mean_ns"), Some(12345.5));
        assert_eq!(json_num(line, "samples"), Some(3.0));
        assert_eq!(json_num(line, "missing"), None);
    }

    fn overhead_entries(off: f64, spans: f64, full: f64) -> BTreeMap<String, Entry> {
        [("off", off), ("spans", spans), ("full", full)]
            .into_iter()
            .map(|(mode, mean_ns)| (format!("obs_overhead/selection_{mode}"), Entry { mean_ns }))
            .collect()
    }

    #[test]
    fn trace_overhead_gate_passes_within_tolerance() {
        let entries = overhead_entries(1000.0, 1005.0, 1020.0);
        assert_eq!(trace_overhead_gate(&entries, 0.03), Some(true));
    }

    #[test]
    fn trace_overhead_gate_fails_beyond_tolerance() {
        let entries = overhead_entries(1000.0, 1005.0, 1100.0);
        assert_eq!(trace_overhead_gate(&entries, 0.03), Some(false));
    }

    #[test]
    fn trace_overhead_gate_requires_all_modes() {
        let mut entries = overhead_entries(1000.0, 1005.0, 1010.0);
        entries.remove("obs_overhead/selection_full");
        assert_eq!(trace_overhead_gate(&entries, 0.03), None);
        assert_eq!(trace_overhead_gate(&BTreeMap::new(), 0.03), None);
    }

    fn journal_entries(plain: f64, journaled: f64) -> BTreeMap<String, Entry> {
        [("plain", plain), ("journaled", journaled)]
            .into_iter()
            .map(|(variant, mean_ns)| {
                (format!("journal_overhead/selection_{variant}"), Entry { mean_ns })
            })
            .collect()
    }

    #[test]
    fn journal_overhead_gate_passes_within_tolerance() {
        let entries = journal_entries(1000.0, 1040.0);
        assert_eq!(journal_overhead_gate(&entries, 0.05), Some(true));
    }

    #[test]
    fn journal_overhead_gate_fails_beyond_tolerance() {
        let entries = journal_entries(1000.0, 1100.0);
        assert_eq!(journal_overhead_gate(&entries, 0.05), Some(false));
    }

    #[test]
    fn journal_overhead_gate_requires_both_entries() {
        let mut entries = journal_entries(1000.0, 1010.0);
        entries.remove("journal_overhead/selection_journaled");
        assert_eq!(journal_overhead_gate(&entries, 0.05), None);
        assert_eq!(journal_overhead_gate(&BTreeMap::new(), 0.05), None);
    }

    fn executor_entries(pairs: &[(&str, f64)]) -> BTreeMap<String, Entry> {
        pairs.iter().map(|&(key, mean_ns)| (key.to_string(), Entry { mean_ns })).collect()
    }

    fn full_executor_entries(bounding: f64, greedy: f64) -> BTreeMap<String, Entry> {
        executor_entries(&[
            ("bounding_executor_2k/in_memory", 1000.0),
            ("bounding_executor_2k/dataflow_4workers", 1000.0 * bounding),
            ("greedy_executor_2k/in_memory", 2000.0),
            ("greedy_executor_2k/dataflow", 2000.0 * greedy),
        ])
    }

    #[test]
    fn dataflow_ratios_are_same_runner_quotients() {
        let ratios = dataflow_ratios(&full_executor_entries(2.5, 3.0)).unwrap();
        assert_eq!(ratios.len(), 2);
        assert!((ratios[0].1 - 2.5).abs() < 1e-12, "bounding ratio {}", ratios[0].1);
        assert!((ratios[1].1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dataflow_ratio_gate_passes_within_tolerance() {
        let baseline = full_executor_entries(2.5, 3.0);
        // Raw times may shift runner to runner; only the ratios count.
        let current = full_executor_entries(2.6, 3.3);
        assert_eq!(dataflow_ratio_gate(&baseline, &current, 0.20), Some(true));
    }

    #[test]
    fn dataflow_ratio_gate_fails_on_ratio_regression() {
        let baseline = full_executor_entries(2.5, 3.0);
        let current = full_executor_entries(2.5, 4.4);
        assert_eq!(dataflow_ratio_gate(&baseline, &current, 0.20), Some(false));
    }

    #[test]
    fn dataflow_ratio_gate_requires_all_current_entries() {
        let baseline = full_executor_entries(2.5, 3.0);
        let mut current = full_executor_entries(2.5, 3.0);
        current.remove("greedy_executor_2k/dataflow");
        assert_eq!(dataflow_ratio_gate(&baseline, &current, 0.20), None);
        assert_eq!(dataflow_ratios(&BTreeMap::new()), None);
    }

    #[test]
    fn dataflow_ratio_gate_passes_pairs_missing_from_the_baseline() {
        // The previous commit may predate a bench group; new pairs are
        // reported but never gated.
        let mut baseline = full_executor_entries(2.5, 3.0);
        baseline.remove("greedy_executor_2k/in_memory");
        baseline.remove("greedy_executor_2k/dataflow");
        let current = full_executor_entries(2.5, 9.0);
        assert_eq!(dataflow_ratio_gate(&baseline, &current, 0.20), Some(true));
    }

    /// Keys with the escapes criterion's `json_escape` writes must parse
    /// back to the original text, not truncate at the first quote.
    #[test]
    fn escaped_keys_roundtrip() {
        let line = r#"{"group":"g \"q\" \\ tail","id":"x","mean_ns":10,"samples":1}"#;
        assert_eq!(json_str(line, "group").as_deref(), Some(r#"g "q" \ tail"#));
        let map = parse_baselines(line);
        assert_eq!(map[r#"g "q" \ tail/x"#].mean_ns, 10.0);
    }
}
