//! The metrics a run reports, by name and unit, and how each is reduced
//! from the rounds of a run. BENCHMARK.json lists the same names.

use crate::stats::{median, percentile, shifted_geomean};
use crate::workloads::{Layers, Run};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("verdict_wall_s", "s"),
    ("verdict_sgm_ms", "ms"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: per round, then the
/// median over rounds. Metrics of a layer a workload does not reach read 0
/// (the service's counters on an in-process workload, the root-trail probe
/// on serve-mixed). The flag marks work that must repeat exactly in every
/// round and run. Cache hits and coalesced requests depend on how the two
/// clients' identical hits interleave, and a cached body carries the
/// timings of the analysis that filled it, so its size differs by a few
/// bytes from run to run: those do not.
pub const PER_LAYER: [(&str, &str, bool); 36] = [
    ("lang.compile_us", "us", false),
    ("taint.analyze_us", "us", false),
    ("automata.root_dfa_us", "us", false),
    ("absint.root_product_us", "us", false),
    ("bounds.root_eval_s", "s", false),
    ("bounds.root_lp_calls", "count", true),
    ("bounds.root_fixpoint_passes", "count", true),
    ("domains.lp_calls", "count", true),
    ("domains.overflow_events", "count", true),
    ("absint.fixpoint_passes", "count", true),
    ("absint.seeded_passes", "count", true),
    ("absint.unseeded_passes", "count", true),
    ("absint.trails_evaluated", "count", true),
    ("absint.seeded_trail_ratio", "ratio", true),
    ("automata.macro_states", "count", true),
    ("automata.prunes", "count", true),
    ("automata.prune_ratio", "ratio", true),
    ("core.analyses", "count", true),
    ("core.analyze_s", "s", false),
    ("core.safety_s", "s", false),
    ("core.attack_s", "s", false),
    ("core.trails", "count", true),
    ("core.refinement_steps", "count", true),
    ("core.degradations", "count", true),
    ("interp.witnesses", "count", true),
    ("interp.witness_ms", "ms", false),
    ("serve.requests", "count", true),
    ("serve.cache_hits", "count", false),
    ("serve.cache_misses", "count", true),
    ("serve.hit_ratio", "ratio", false),
    ("serve.analyses_run", "count", true),
    ("serve.coalesced", "count", false),
    ("serve.busy_rejections", "count", true),
    ("serve.miss_analysis_ms_p50", "ms", false),
    ("serve.hit_body_bytes_p50", "bytes", false),
    ("ir.json_parse_us_p50", "us", false),
];

/// Shift of `verdict_sgm_ms`: analyses and requests far below 10ms count
/// as about 10ms, so fast paths neither dominate nor vanish.
const SGM_SHIFT_MS: f64 = 10.0;

/// A reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Each input's label, its best time to verdict over the run in ms, and
/// how often it occurs per round. Interference from other tenants of a
/// shared machine only ever adds time, so the best of an input's
/// repetitions is the estimate of its cost that they disturb least.
pub fn best_times(run: &Run) -> Vec<(&str, f64, usize)> {
    let mut best = vec![f64::INFINITY; run.inputs.len()];
    let mut count = vec![0usize; run.inputs.len()];
    for &(input, secs) in &run.ops {
        best[input] = best[input].min(secs * 1e3);
        count[input] += 1;
    }
    let rounds = run.rounds.len().max(1);
    run.inputs
        .iter()
        .zip(best.into_iter().zip(count))
        .filter(|&(_, (_, n))| n > 0)
        .map(|(label, (ms, n))| (label.as_str(), ms, n / rounds))
        .collect()
}

/// The end-to-end metrics of a run (reported from untraced runs only):
/// over one round's inputs, each at its best time to verdict, the total,
/// the shifted geometric mean, the median and the 95th percentile (an
/// input that occurs k times per round counts k times).
pub fn end_to_end(run: &Run, peak_rss_mb: f64) -> Vec<Metric> {
    let best = best_times(run);
    let per_round: Vec<f64> =
        best.iter().flat_map(|&(_, ms, n)| std::iter::repeat_n(ms, n)).collect();
    let values = [
        per_round.iter().sum::<f64>() / 1e3,
        shifted_geomean(&per_round, SGM_SHIFT_MS),
        percentile(&per_round, 50.0),
        percentile(&per_round, 95.0),
        median(&run.setup_s),
        peak_rss_mb,
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let per_round: Vec<f64> =
                run.rounds.iter().map(|r| r.get(name).copied().unwrap_or(0.0)).collect();
            (name, median(&per_round), unit)
        })
        .collect()
}

/// The exact per-layer values of the first round, and the names of those
/// some later round did not repeat.
pub fn counters(run: &Run) -> (BTreeMap<&'static str, f64>, Vec<&'static str>) {
    let exact = |r: &Layers| -> BTreeMap<&'static str, f64> {
        PER_LAYER
            .iter()
            .filter(|&&(name, _, exact)| exact && r.contains_key(name))
            .map(|&(name, ..)| (name, r[name]))
            .collect()
    };
    let first = run.rounds.first().map(exact).unwrap_or_default();
    let mut differ: Vec<&'static str> = Vec::new();
    for round in run.rounds.iter().skip(1) {
        for (name, value) in exact(round) {
            if first.get(name) != Some(&value) && !differ.contains(&name) {
                differ.push(name);
            }
        }
    }
    (first, differ)
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where procfs
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_ir::json::Json;

    #[test]
    fn end_to_end_metrics_weigh_each_input_at_its_best() {
        // Two rounds; input 0 occurs three times per round, input 1 once.
        let mut ops = vec![(0, 0.004), (0, 0.002), (0, 0.003), (1, 0.050)];
        ops.extend([(0, 0.001), (0, 0.009), (0, 0.005), (1, 0.030)]);
        let run = Run {
            setup_s: vec![0.3, 0.1, 0.2],
            failures: Vec::new(),
            inputs: vec!["hit".to_string(), "miss".to_string()],
            ops,
            rounds: vec![Layers::new(), Layers::new()],
        };
        assert_eq!(best_times(&run), vec![("hit", 1.0, 3), ("miss", 30.0, 1)]);
        let m = end_to_end(&run, 7.0);
        // One round at best: 3 x 1ms + 30ms.
        assert!((m[0].1 - 0.033).abs() < 1e-12);
        assert_eq!((m[2].1, m[3].1), (1.0, 30.0));
        assert_eq!((m[4].1, m[5].1), (0.2, 7.0));
    }

    /// BENCHMARK.json at the repository root must declare exactly the
    /// metrics this binary emits, with the same units.
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |n: &str, u: &str| (n.to_string(), u.to_string());
        let end_to_end: Vec<_> = END_TO_END.iter().map(|&(n, u)| owned(n, u)).collect();
        let per_layer: Vec<_> = PER_LAYER.iter().map(|&(n, u, _)| owned(n, u)).collect();
        assert_eq!(declared("end_to_end"), end_to_end);
        assert_eq!(declared("per_layer"), per_layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
