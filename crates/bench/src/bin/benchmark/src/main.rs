//! `benchmark`: the repository benchmark of the Blazer verifier and its
//! analysis service. README.md describes the workloads, the metrics and
//! how the layers move them.
//!
//! ```console
//! $ benchmark --workload safety-proofs --seed 1 --seconds 25 --trace 0
//! $ benchmark --seed 1                       # every workload, one process each
//! $ benchmark --seed 1 --trace 1             # plus the traced split and its overhead
//! $ benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A single-workload run prints a human summary on stderr and two JSON
//! lines on stdout: the run record (workload, seed, `nproc`, build
//! profile, wall time, metrics, exact counters), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. `--out FILE` appends
//! the run record to FILE for `compare`.

mod compare;
mod report;
mod stats;
mod trace;
mod workloads;

use blazer_ir::json::Json;
use report::Metric;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{Settings, Workload, ALL};

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-dir DIR] [--out FILE]
       benchmark compare PARENT.jsonl CHANGE.jsonl [--bounds BENCHMARK.json]
workloads: safety-proofs attack-synthesis observer-sweep serve-mixed
           (default: every workload, each in its own process)";

/// Measured seconds per run when `--seconds` is absent (BENCHMARK.json's
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 25.0;

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: PathBuf::from("target/benchmark-trace"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--trace-dir" => o.trace_dir = PathBuf::from(value()?),
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Refuses environments that would measure something else: the libraries
/// still read `BLAZER_*` variables (thread width, seeding, automata engine,
/// fault injection), and debug builds re-run every seeded fixpoint.
fn check_hygiene() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("BLAZER_"))
        .collect();
    if !set.is_empty() {
        return Err(format!("refusing to run with {} set", set.join(", ")));
    }
    if cfg!(debug_assertions) {
        return Err("refusing a debug build; build with --release".to_string());
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse_options(&args) {
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                2
            }
            Ok(o) => match check_hygiene() {
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    2
                }
                Ok(()) => match o.workload {
                    Some(w) => run_one(w, &o),
                    None => run_all(&o),
                },
            },
        }
    };
    std::process::exit(code);
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]))
    }))
}

fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process.
fn run_one(w: Workload, o: &Options) -> i32 {
    let mut tracer = Tracer::new(o.trace);
    let started = Instant::now();
    let settings = Settings { seed: o.seed, seconds: o.seconds };
    let run = match workloads::run(w, &settings, &mut tracer) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", w.name());
            return 2;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let end_to_end = report::end_to_end(&run, report::peak_rss_mb());
    let layers = if o.trace { report::per_layer(&run) } else { Vec::new() };
    // The result line carries the end-to-end metrics untraced and the
    // per-layer ones traced; the run record always has both it measured.
    let metrics = if o.trace { &layers } else { &end_to_end };
    let (counters, differ) = report::counters(&run);
    let failed = run.failures.len();

    eprintln!(
        "{}: {} rounds, {} operations, {failed} failed, {wall_s:.1}s (seed {}, trace {})",
        w.name(),
        run.rounds.len(),
        run.ops.len(),
        o.seed,
        u8::from(o.trace)
    );
    for why in run.failures.iter().take(10) {
        eprintln!("  FAILED {why}");
    }
    if !differ.is_empty() {
        eprintln!("  counters differ between rounds: {}", differ.join(", "));
    }
    for (name, value, unit) in metrics {
        eprintln!("  {name:<30} {value:>14.4} {unit}");
    }
    if o.trace {
        let path = o.trace_dir.join(format!("{}-seed{}.jsonl", w.name(), o.seed));
        let spans = tracer.len();
        let written = std::fs::create_dir_all(&o.trace_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("  {spans} spans written to {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return 2;
            }
        }
    }

    let record = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(o.seed)),
        ("trace", Json::Bool(o.trace)),
        ("nproc", Json::from(nproc())),
        ("profile", Json::from("release")),
        ("seconds", Json::Num(o.seconds)),
        ("wall_s", Json::Num(wall_s)),
        ("rounds", Json::from(run.rounds.len())),
        ("attempted", Json::from(run.ops.len())),
        ("failed", Json::from(failed)),
        ("failures", Json::arr(run.failures.iter().take(10).map(String::as_str))),
        ("metrics", Json::obj(end_to_end.iter().map(|&(n, v, _)| (n, Json::Num(v))))),
        ("layers", Json::obj(layers.iter().map(|&(n, v, _)| (n, Json::Num(v))))),
        ("counters", Json::obj(counters.iter().map(|(&n, &v)| (n, Json::Num(v))))),
        ("counters_differ", Json::arr(differ.iter().copied())),
        ("setup_reps_s", Json::arr(run.setup_s.iter().map(|&s| Json::Num(s)))),
        (
            "best_ms",
            Json::obj(report::best_times(&run).into_iter().map(|(l, ms, _)| (l, Json::Num(ms)))),
        ),
    ]);
    println!("{record}");
    if let Some(out) = &o.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {}: {e}", out.display());
            return 2;
        }
    }
    println!("{}", result_line(run.ops.len(), failed, metrics));
    i32::from(failed > 0)
}

/// One child run's two stdout lines.
struct ChildRun {
    record: Json,
    result: Json,
}

impl ChildRun {
    /// An end-to-end (`metrics`) or per-layer (`layers`) value.
    fn value(&self, group: &str, name: &str) -> Option<f64> {
        self.record.get(group)?.get(name)?.as_f64()
    }
}

fn spawn_child(w: Workload, o: &Options, trace: bool) -> Result<(ChildRun, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&o.trace_dir);
    if let Some(out) = &o.out {
        cmd.arg("--out").arg(out);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let mut parse = || lines.next().and_then(|l| Json::parse(l).ok());
    match (parse(), parse()) {
        (Some(result), Some(record)) => Ok((ChildRun { record, result }, output.status.success())),
        _ => Err(format!("{} exited with {} and no result", w.name(), output.status)),
    }
}

/// Runs every workload, each in its own child process so peak RSS and
/// allocator state are per workload; with `--trace 1` each workload runs
/// untraced and then traced, and the tracing overhead is reported.
fn run_all(o: &Options) -> i32 {
    let mut code = 0;
    let mut runs: Vec<(Workload, ChildRun, Option<ChildRun>)> = Vec::new();
    for w in ALL {
        let mut child = |trace| match spawn_child(w, o, trace) {
            Ok((run, ok)) => {
                code = code.max(i32::from(!ok));
                Some(run)
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                code = 2;
                None
            }
        };
        let Some(plain) = child(false) else { continue };
        let traced = if o.trace { child(true) } else { None };
        runs.push((w, plain, traced));
    }

    println!("\nend-to-end (seed {}, {}s per workload, nproc {})", o.seed, o.seconds, nproc());
    print!("{:<16}", "metric");
    for (w, ..) in &runs {
        print!(" {:>17}", w.name());
    }
    println!();
    for (name, unit) in report::END_TO_END {
        print!("{name:<16}");
        for (_, plain, _) in &runs {
            print!(" {:>14.4} {unit:<2}", plain.value("metrics", name).unwrap_or(f64::NAN));
        }
        println!();
    }
    if o.trace {
        println!("\nper-layer (traced runs; medians over rounds)");
        for (name, unit, _) in report::PER_LAYER {
            print!("{name:<30}");
            for (_, _, traced) in &runs {
                let v = traced.as_ref().and_then(|t| t.value("layers", name));
                let v = v.unwrap_or(f64::NAN);
                print!(" {v:>14.4}");
            }
            println!(" {unit}");
        }
        println!();
        for (w, plain, traced) in &runs {
            let Some(traced) = traced else { continue };
            let untraced = plain.value("metrics", "verdict_wall_s").unwrap_or(f64::NAN);
            let spans = traced.value("metrics", "verdict_wall_s").unwrap_or(f64::NAN);
            let same = shared_counters_agree(&plain.record, &traced.record);
            println!(
                "{:<17} tracing overhead {:+.1}% (verdict_wall_s {spans:.3}s traced vs \
                 {untraced:.3}s untraced); counters traced == untraced: {}",
                w.name(),
                (spans / untraced - 1.0) * 100.0,
                if same { "yes" } else { "NO" }
            );
            if !same {
                code = code.max(1);
            }
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (w, plain, _) in &runs {
        attempted += plain.result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += plain.result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(pairs)) = plain.result.get("metrics") {
            metrics.extend(pairs.iter().map(|(k, v)| (format!("{}.{k}", w.name()), v.clone())));
        }
    }
    let complete = runs.len() == ALL.len();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0 && complete)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    code
}

/// Whether the exact counters both runs recorded agree (the traced run
/// records more of them: the root-trail probe's).
fn shared_counters_agree(a: &Json, b: &Json) -> bool {
    let counters = |r: &Json| -> BTreeMap<String, f64> {
        match r.get("counters") {
            Some(Json::Obj(pairs)) => {
                pairs.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
            }
            _ => BTreeMap::new(),
        }
    };
    let (a, b) = (counters(a), counters(b));
    a.iter().all(|(k, v)| b.get(k).is_none_or(|w| w == v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Run, Settings};

    /// One round is enough: `seconds` is below any round's length.
    const ONE_ROUND: Settings = Settings { seed: 3, seconds: 1e-3 };

    fn assert_reports_every_metric(run: &Run) {
        assert_eq!(run.failures, Vec::<String>::new());
        assert_eq!(run.rounds.len(), 1);
        let e2e = report::end_to_end(run, report::peak_rss_mb());
        let names: Vec<&str> = e2e.iter().map(|m| m.0).collect();
        assert_eq!(names, report::END_TO_END.map(|(n, _)| n));
        for (name, value, _) in &e2e {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        let layers = report::per_layer(run);
        let names: Vec<&str> = layers.iter().map(|m| m.0).collect();
        assert_eq!(names, report::PER_LAYER.map(|(n, ..)| n));
    }

    #[test]
    fn in_process_path_checks_verdicts_and_emits_every_metric() {
        for trace in [false, true] {
            let mut tracer = Tracer::new(trace);
            let rows = ["notaint_unsafe", "straightline_safe"];
            let run = workloads::run_decide(&rows, &["unit", "cache"], &ONE_ROUND, &mut tracer)
                .expect("in-process workload runs");
            assert_eq!(run.ops.len(), 4);
            assert_reports_every_metric(&run);
            let (counters, differ) = report::counters(&run);
            assert!(differ.is_empty());
            // notaint_unsafe is an attack under both observers, each
            // confirmed by a witness pair.
            assert_eq!(counters["interp.witnesses"], 2.0);
            let spans = tracer.to_jsonl();
            for name in ["core.analyze", "interp.concretize", "taint", "automata", "bounds"] {
                assert_eq!(spans.contains(&format!("\"name\": \"{name}\"")), trace, "{name}");
            }
            assert_eq!(counters.contains_key("bounds.root_lp_calls"), trace);
        }
    }

    #[test]
    fn service_path_checks_verdicts_and_emits_every_metric() {
        let mut tracer = Tracer::new(true);
        let run =
            workloads::run_serve(&["nosecret_safe", "notaint_unsafe"], &ONE_ROUND, &mut tracer)
                .expect("service workload runs");
        // Two clients, each asking for both rows nine times as hits and
        // once as a miss.
        assert_eq!(run.ops.len(), 40);
        assert_reports_every_metric(&run);
        let (counters, _) = report::counters(&run);
        assert_eq!(counters["serve.requests"], 40.0);
        assert_eq!(counters["serve.analyses_run"], 4.0);
        assert_eq!(counters["serve.cache_misses"], 4.0);
        assert_eq!(tracer.len(), 41, "one span per request plus the workload span");
    }

    #[test]
    fn options_parse_and_reject_bad_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload serve-mixed --seed 7 --seconds 2 --trace 1"))
            .expect("valid options");
        assert_eq!(o.workload, Some(Workload::ServeMixed));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 2.0, true));
        for bad in ["--trace 2", "--seconds 0", "--workload nope", "--seed", "--frobnicate"] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
