//! The `blazer` command-line tool: analyze a surface-language file for
//! timing channels — directly, as a service, or against a service.
//!
//! ```console
//! $ blazer program.blz check            # analyze function `check`
//! $ blazer --observer stac program.blz check
//! $ blazer --domain zone program.blz check
//! $ blazer --cost-model cache program.blz check
//! $ blazer --timeout 10 --max-lp-calls 100000 program.blz check
//! $ blazer --threads 4 program.blz check
//! $ blazer --json program.blz check     # machine-readable outcome
//! $ blazer --concretize program.blz check
//! $ blazer serve --addr 127.0.0.1:8645 --cache-file verdicts.jsonl
//! $ blazer route --addr 127.0.0.1:8650 --backend 127.0.0.1:8645 --backend 127.0.0.1:8646
//! $ blazer client --addr 127.0.0.1:8645 program.blz check
//! $ blazer client --health
//! $ blazer bench-serve --threads 1 --threads 4 --mix 100 --mix 90 --out BENCH_serve.json
//! ```
//!
//! Trail evaluation is parallel by default (machine parallelism); pin the
//! width with `--threads N` or the `BLAZER_THREADS` environment variable
//! (`--threads 1` is strictly sequential). Verdicts are identical at every
//! width. `BLAZER_FAULT` (for example `panic:1` or `deadline:0`) arms the
//! budget's fault injection for a direct analysis. These two variables are
//! read here, into the analysis `Config`; the analysis library reads none,
//! and `serve` analyzes each request from its body alone. The analysis
//! flags are parsed once, into the same `AnalyzeRequest` the service
//! receives, and the direct analysis builds its `Config` through
//! `AnalyzeRequest::to_config`, as `serve` does.
//!
//! Exit codes: 0 = safe, 1 = attack found, 2 = unknown (including budget
//! exhaustion or an internal crash), 3 = usage, I/O, or compile error.
//! `client` maps server responses onto the same codes.

use blazer::core::{concretize_outcome, Blazer, Config, DomainKind, FaultSpec, Verdict};
use blazer::ir::json::Json;
use blazer::route::{RouteOptions, Router};
use blazer::serve::{api::AnalyzeRequest, bench, client, report, ServeOptions, Server};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Usage, I/O, and compile errors.
const EXIT_USAGE: u8 = 3;
/// Inconclusive analysis (budget exhaustion, give-up, crash).
const EXIT_UNKNOWN: u8 = 2;

struct Options {
    file: String,
    function: Option<String>,
    config: Config,
    concretize: bool,
    json: bool,
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut req = AnalyzeRequest::new(String::new());
    let mut threads: Option<usize> = None;
    let mut concretize = false;
    let mut json = false;
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--threads expects a positive integer")?;
                threads = Some(n);
            }
            "--concretize" => concretize = true,
            "--json" => json = true,
            "--help" | "-h" => {
                return Err("usage: blazer [--observer stac|degree] [--domain D] \
                            [--cost-model unit|weighted|cache] \
                            [--timeout SECS] [--max-lp-calls N] [--threads N] \
                            [--no-attack] [--concretize] [--json] <file> [function]\n\
                            \x20      blazer serve [--addr A] [--workers N] [--queue N] \
                            [--timeout SECS] [--cache-file PATH] [--analysis-threads N] \
                            [--max-requests-per-connection N] [--admin-token TOKEN]\n\
                            \x20      blazer route --backend HOST:PORT [--backend ...] \
                            [--addr A] [--workers N] [--queue N] [--health-interval SECS] \
                            [--health-timeout SECS] [--eject-after N] [--reinstate-after N] \
                            [--retry-base-ms N] [--retry-cap-ms N]\n\
                            \x20      blazer client [--addr A] (--health | --stats | \
                            <file> [function]) [--json] [analysis options]\n\
                            \x20      blazer client --session <file...>   one keep-alive \
                            connection, one request per file\n\
                            \x20      blazer client --batch <file...>     one POST, one \
                            JSON array of results\n\
                            \x20      blazer bench-serve [--threads N]... [--mix PCT]... \
                            [--duration-s S] [--hit-keys N] [--out PATH]   measure serve \
                            throughput over hit/miss mixes"
                    .to_string())
            }
            other => {
                if !apply_analysis_flag(&mut req, other, &mut args)? {
                    positional.push(a);
                }
            }
        }
    }
    let mut positional = positional.into_iter();
    let file = positional.next().ok_or("missing input file (try --help)")?;
    // The edge of the program: the environment is resolved into the
    // Config here, and nowhere below.
    let threads = threads
        .or_else(|| std::env::var("BLAZER_THREADS").ok()?.trim().parse().ok().filter(|n| *n > 0))
        .unwrap_or_else(|| Config::default().effective_threads());
    let mut config = req.to_config(None, threads);
    if let Some(spec) = std::env::var("BLAZER_FAULT").ok().filter(|s| !s.trim().is_empty()) {
        config.budget = config.budget.with_fault(FaultSpec::parse(&spec));
    }
    Ok(Options { file, function: positional.next(), config, concretize, json })
}

/// Applies one analysis flag, taking its value from `rest`, to `req`: the
/// one parser behind both the direct analysis and `client`. Returns
/// `Ok(false)` for a positional argument; any other `--` argument is an
/// unknown flag.
fn apply_analysis_flag(
    req: &mut AnalyzeRequest,
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Result<bool, String> {
    match arg {
        "--observer" => match rest.next().as_deref() {
            Some(o @ ("stac" | "degree")) => req.observer = o.to_string(),
            other => return Err(format!("--observer expects stac|degree, got {other:?}")),
        },
        "--domain" => req.domain = parse_domain(rest.next().as_deref())?,
        "--cost-model" => req.cost_model = parse_cost_model(rest.next().as_deref())?,
        "--timeout" => {
            req.timeout_s = Some(parse_timeout(rest.next().as_deref())?.as_secs_f64());
        }
        "--max-lp-calls" => {
            let n = rest
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or("--max-lp-calls expects a non-negative integer")?;
            req.max_lp_calls = Some(n);
        }
        "--no-attack" => req.no_attack = true,
        flag if flag.starts_with("--") => return Err(format!("unknown flag {flag} (try --help)")),
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_domain(arg: Option<&str>) -> Result<DomainKind, String> {
    match arg {
        Some("interval") => Ok(DomainKind::Interval),
        Some("zone") => Ok(DomainKind::Zone),
        Some("octagon") => Ok(DomainKind::Octagon),
        Some("polyhedra") => Ok(DomainKind::Polyhedra),
        other => Err(format!("--domain expects interval|zone|octagon|polyhedra, got {other:?}")),
    }
}

fn parse_cost_model(arg: Option<&str>) -> Result<blazer::ir::cost::CostModel, String> {
    match arg {
        Some(name) => name
            .parse()
            .map_err(|_| format!("--cost-model expects unit|weighted|cache, got {name:?}")),
        None => Err("--cost-model expects unit|weighted|cache".to_string()),
    }
}

fn parse_timeout(arg: Option<&str>) -> Result<Duration, String> {
    arg.and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .map(Duration::from_secs_f64)
        .ok_or_else(|| "--timeout expects a positive number of seconds".to_string())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            args.remove(0);
            serve_main(args)
        }
        Some("route") => {
            args.remove(0);
            route_main(args)
        }
        Some("client") => {
            args.remove(0);
            client_main(args)
        }
        Some("bench-serve") => {
            args.remove(0);
            bench_serve_main(args)
        }
        _ => analyze_main(args),
    }
}

// ---------------------------------------------------------------- analyze

fn analyze_main(args: Vec<String>) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let started = Instant::now();
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let program = match blazer::lang::compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}:{e}", opts.file);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let function = match &opts.function {
        Some(f) => f.clone(),
        None => match program.functions().next() {
            Some(f) => f.name().to_string(),
            None => {
                eprintln!("{}: no functions", opts.file);
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    // Isolate the analysis: a crash (e.g. an injected fault) is reported as
    // an inconclusive run, not a process abort.
    let analyzed = std::panic::catch_unwind({
        let program = program.clone();
        let config = opts.config.clone();
        let function = function.clone();
        move || Blazer::new(config).analyze(&program, &function)
    });
    let outcome = match analyzed {
        Ok(Ok(o)) => o,
        Ok(Err(e)) => {
            eprintln!("analysis error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            eprintln!("{function}: analysis crashed: {msg}");
            return ExitCode::from(EXIT_UNKNOWN);
        }
    };
    if opts.json {
        print!(
            "{}",
            report::outcome_json(&program, &outcome, started.elapsed().as_secs_f64()).pretty()
        );
        return verdict_exit(&outcome.verdict);
    }
    println!(
        "{function}: {} ({} basic blocks, safety {:.2}s{})",
        outcome.verdict,
        outcome.n_blocks,
        outcome.safety_time.as_secs_f64(),
        outcome
            .attack_time
            .map(|d| format!(", attack search {:.2}s", d.as_secs_f64()))
            .unwrap_or_default()
    );
    // A proven-safe partition is pinned to 0 bits without measuring any
    // trails, so it has no breakdown to print.
    let l = &outcome.leakage;
    let detail = if l.feasible_leaves == 0 {
        String::new()
    } else {
        format!(
            " ({} distinguishable classes over {} feasible trails, {} wide{})",
            l.classes,
            l.feasible_leaves,
            l.wide_leaves,
            l.max_gap.map(|g| format!(", max gap {g:.1}")).unwrap_or_default(),
        )
    };
    println!("leakage: {:.2} bits{detail}", l.bits);
    if !outcome.degradations.is_empty() {
        println!("degradations:");
        for d in &outcome.degradations {
            println!("  {d}");
        }
    }
    let report = &outcome.budget_report;
    if report.exhausted.is_some() || !report.degradations.is_empty() {
        println!(
            "budget: {} LP calls, {} fixpoint passes, {} refinement steps, \
             {} overflow events, {:.2}s elapsed",
            report.lp_calls,
            report.fixpoint_passes,
            report.refinement_steps,
            report.overflow_events,
            report.elapsed.as_secs_f64()
        );
        for note in &report.degradations {
            println!("  note: {note}");
        }
    }
    println!("{}", outcome.render_tree(&program));
    if let Verdict::Attack(spec) = &outcome.verdict {
        println!("{spec}");
        if opts.concretize {
            match concretize_outcome(&program, &outcome, 500) {
                Some((a, b)) => {
                    println!("witness inputs (equal lows, differing cost):");
                    println!("  run A: {a:?}");
                    println!("  run B: {b:?}");
                }
                None => println!("no concrete witness found within the attempt budget"),
            }
        }
    }
    verdict_exit(&outcome.verdict)
}

fn verdict_exit(verdict: &Verdict) -> ExitCode {
    match verdict {
        Verdict::Safe => ExitCode::SUCCESS,
        Verdict::Attack(_) => ExitCode::from(1),
        Verdict::Unknown(_) => ExitCode::from(EXIT_UNKNOWN),
    }
}

// ------------------------------------------------------------------ serve

fn serve_main(args: Vec<String>) -> ExitCode {
    let mut opts = ServeOptions::default();
    let mut args = args.into_iter();
    let parsed = loop {
        let Some(a) = args.next() else { break Ok(()) };
        let result = match a.as_str() {
            "--addr" => args.next().map(|v| opts.addr = v).ok_or("--addr expects HOST:PORT"),
            "--workers" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.workers = Some(n))
                .ok_or("--workers expects a positive integer"),
            "--queue" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.queue_depth = n)
                .ok_or("--queue expects a positive integer"),
            "--timeout" => match parse_timeout(args.next().as_deref()) {
                Ok(d) => {
                    opts.max_timeout = Some(d);
                    Ok(())
                }
                Err(_) => Err("--timeout expects a positive number of seconds"),
            },
            "--cache-file" => args
                .next()
                .map(|v| opts.cache_file = Some(v.into()))
                .ok_or("--cache-file expects a path"),
            "--analysis-threads" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.analysis_threads = n)
                .ok_or("--analysis-threads expects a positive integer"),
            "--max-requests-per-connection" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.max_requests_per_connection = n)
                .ok_or("--max-requests-per-connection expects a positive integer"),
            "--admin-token" => args
                .next()
                .filter(|t| !t.is_empty())
                .map(|t| opts.admin_token = Some(t))
                .ok_or("--admin-token expects a non-empty token"),
            other => break Err(format!("serve: unknown flag {other} (try --help)")),
        };
        if let Err(e) = result {
            break Err(e.to_string());
        }
    };
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::from(EXIT_USAGE);
    }
    let server = match Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!("blazer-serve listening on {}", server.addr());
    // Returns only after a graceful drain (an authorized POST /shutdown):
    // queued jobs finished, verdict cache flushed.
    server.wait();
    println!("blazer-serve drained; exiting");
    ExitCode::SUCCESS
}

// ------------------------------------------------------------------ route

fn route_main(args: Vec<String>) -> ExitCode {
    let mut opts = RouteOptions::default();
    let mut args = args.into_iter();
    let parsed = loop {
        let Some(a) = args.next() else { break Ok(()) };
        let result = match a.as_str() {
            "--addr" => args.next().map(|v| opts.addr = v).ok_or("--addr expects HOST:PORT"),
            "--backend" | "--backends" => match args.next() {
                Some(list) => {
                    // --backend may repeat, and each value may be a
                    // comma-separated list.
                    opts.backends.extend(
                        list.split(',').map(str::trim).filter(|b| !b.is_empty()).map(String::from),
                    );
                    Ok(())
                }
                None => Err("--backend expects HOST:PORT"),
            },
            "--workers" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.workers = Some(n))
                .ok_or("--workers expects a positive integer"),
            "--queue" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.queue_depth = n)
                .ok_or("--queue expects a positive integer"),
            "--health-interval" => match parse_timeout(args.next().as_deref()) {
                Ok(d) => {
                    opts.health.interval = d;
                    Ok(())
                }
                Err(_) => Err("--health-interval expects a positive number of seconds"),
            },
            "--health-timeout" => match parse_timeout(args.next().as_deref()) {
                Ok(d) => {
                    opts.health.timeout = d;
                    Ok(())
                }
                Err(_) => Err("--health-timeout expects a positive number of seconds"),
            },
            "--eject-after" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.health.eject_after = n)
                .ok_or("--eject-after expects a positive integer"),
            "--reinstate-after" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.health.reinstate_after = n)
                .ok_or("--reinstate-after expects a positive integer"),
            "--retry-base-ms" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.retry.base = Duration::from_millis(n))
                .ok_or("--retry-base-ms expects a positive integer"),
            "--retry-cap-ms" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.retry.cap = Duration::from_millis(n))
                .ok_or("--retry-cap-ms expects a positive integer"),
            "--max-requests-per-connection" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.max_requests_per_connection = n)
                .ok_or("--max-requests-per-connection expects a positive integer"),
            other => break Err(format!("route: unknown flag {other} (try --help)")),
        };
        if let Err(e) = result {
            break Err(e.to_string());
        }
    };
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::from(EXIT_USAGE);
    }
    let router = match Router::start(opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("route: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!(
        "blazer-route listening on {} over {} backends",
        router.addr(),
        router.health().snapshot().len()
    );
    router.wait();
    ExitCode::SUCCESS
}

// ------------------------------------------------------------ bench-serve

/// `blazer bench-serve`: the serve-throughput benchmark behind
/// `BENCH_serve.json`. Boots a fresh in-process server per `(threads,
/// mix)` configuration, prints one summary line per run, and writes the
/// JSON report to `--out` (or stdout).
fn bench_serve_main(args: Vec<String>) -> ExitCode {
    let mut threads: Vec<usize> = Vec::new();
    let mut mixes: Vec<u8> = Vec::new();
    let mut opts = bench::BenchOptions::default();
    let mut out: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let parsed: Result<(), String> = match a.as_str() {
            "--threads" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| threads.push(n))
                .ok_or("--threads expects a positive integer".into()),
            "--mix" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n <= 100)
                .map(|n| mixes.push(n))
                .ok_or("--mix expects a hit percentage in 0..=100".into()),
            "--duration-s" => parse_timeout(args.next().as_deref()).map(|d| opts.duration = d),
            "--hit-keys" => args
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|n| *n > 0)
                .map(|n| opts.hit_keys = n)
                .ok_or("--hit-keys expects a positive integer".into()),
            "--out" => args.next().map(|v| out = Some(v)).ok_or("--out expects a path".into()),
            other => Err(format!("bench-serve: unknown flag {other} (try --help)")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    // Repeatable flags override the default sweep only when given.
    if !threads.is_empty() {
        opts.threads = threads;
    }
    if !mixes.is_empty() {
        opts.hit_percents = mixes;
    }
    let doc = match bench::run(&opts, |line| eprintln!("{line}")) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench-serve: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let rendered = doc.pretty();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("bench-serve: {path}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
            eprintln!("bench-serve: wrote {path}");
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

// ----------------------------------------------------------------- client

fn client_main(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:8645".to_string();
    let mut mode_health = false;
    let mut mode_stats = false;
    let mut mode_batch = false;
    let mut mode_session = false;
    let mut json = false;
    let mut req = AnalyzeRequest::new(String::new());
    let mut positional = Vec::new();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let parsed: Result<(), String> = match a.as_str() {
            "--addr" => args.next().map(|v| addr = v).ok_or("--addr expects HOST:PORT".into()),
            "--health" => {
                mode_health = true;
                Ok(())
            }
            "--stats" => {
                mode_stats = true;
                Ok(())
            }
            "--batch" => {
                mode_batch = true;
                Ok(())
            }
            "--session" => {
                mode_session = true;
                Ok(())
            }
            "--json" => {
                json = true;
                Ok(())
            }
            other => apply_analysis_flag(&mut req, other, &mut args).map(|flag| {
                if !flag {
                    positional.push(other.to_string());
                }
            }),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    if mode_health || mode_stats {
        let sent = if mode_health { client::health(&addr) } else { client::stats(&addr) };
        return match sent {
            Ok((200, doc)) => {
                print!("{}", doc.pretty());
                ExitCode::SUCCESS
            }
            Ok((status, doc)) => {
                eprintln!("server answered {status}: {doc}");
                ExitCode::from(EXIT_UNKNOWN)
            }
            Err(e) => {
                eprintln!("client: {addr}: {e}");
                ExitCode::from(EXIT_USAGE)
            }
        };
    }
    if mode_batch || mode_session {
        return multi_file_main(&addr, &positional, &req, json, mode_batch);
    }
    let mut positional = positional.into_iter();
    let Some(file) = positional.next() else {
        eprintln!("client: missing input file (or --health/--stats; try --help)");
        return ExitCode::from(EXIT_USAGE);
    };
    req.source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{file}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    req.function = positional.next();
    let (status, doc) = match client::analyze(&addr, &req) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("client: {addr}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if json {
        print!("{}", doc.pretty());
    } else {
        print_analysis("", status, &doc);
    }
    ExitCode::from(outcome_code(status, &doc))
}

/// The human-readable one-line (plus trail tree) rendering of one analyze
/// response, to stdout for successes and stderr for failures. `label`
/// prefixes the line (the source file in multi-file modes).
fn print_analysis(label: &str, status: u16, doc: &Json) {
    if status == 200 {
        println!(
            "{label}{}: {}{} ({} basic blocks, {}s on the server, key {})",
            doc.get("function").and_then(Json::as_str).unwrap_or("?"),
            doc.get("verdict").and_then(Json::as_str).unwrap_or("?"),
            if doc.get("cached").and_then(Json::as_bool) == Some(true) { " [cached]" } else { "" },
            doc.get("n_blocks").and_then(Json::as_u64).unwrap_or(0),
            doc.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
            doc.get("key").and_then(Json::as_str).unwrap_or("?"),
        );
        if let Some(bits) = doc.get("leakage_bits").and_then(Json::as_f64) {
            println!("{label}leakage: {bits:.2} bits");
        }
        if let Some(tree) = doc.get("tree").and_then(Json::as_str) {
            println!("{tree}");
        }
    } else {
        eprintln!(
            "{label}server answered {status}: {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("(no error message)")
        );
    }
}

/// The local exit code one analyze response maps to.
fn outcome_code(status: u16, doc: &Json) -> u8 {
    match (status, doc.get("verdict").and_then(Json::as_str)) {
        (200, Some("safe")) => 0,
        (200, Some("attack")) => 1,
        (400, _) => EXIT_USAGE,
        _ => EXIT_UNKNOWN,
    }
}

/// `client --batch`/`--session`: every positional is a file; each is
/// analyzed with the shared per-request options (`function` defaults to
/// each file's first function). `--batch` submits one JSON array in one
/// POST; `--session` sends one request per file over a single keep-alive
/// connection. Exit code: the most severe per-file code.
fn multi_file_main(
    addr: &str,
    files: &[String],
    options: &AnalyzeRequest,
    json: bool,
    batch: bool,
) -> ExitCode {
    if files.is_empty() {
        eprintln!("client: --batch/--session expect at least one file");
        return ExitCode::from(EXIT_USAGE);
    }
    let mut requests = Vec::with_capacity(files.len());
    for file in files {
        let mut req = options.clone();
        req.source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        requests.push(req);
    }
    let mut worst = 0u8;
    if batch {
        let (status, doc) = match client::analyze_batch(addr, &requests) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("client: {addr}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        if status != 200 {
            eprintln!(
                "server answered {status}: {}",
                doc.get("error").and_then(Json::as_str).unwrap_or("(no error message)")
            );
            return ExitCode::from(EXIT_UNKNOWN);
        }
        if json {
            print!("{}", doc.pretty());
        }
        let Some(items) = doc.as_arr() else {
            eprintln!("client: batch response is not an array");
            return ExitCode::from(EXIT_UNKNOWN);
        };
        for (file, item) in files.iter().zip(items) {
            let status = item.get("status").and_then(Json::as_u64).unwrap_or(500) as u16;
            if !json {
                print_analysis(&format!("{file} -> "), status, item);
            }
            worst = worst.max(outcome_code(status, item));
        }
    } else {
        let mut session = match client::Session::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("client: {addr}: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        for (file, req) in files.iter().zip(&requests) {
            let (status, doc) = match session.analyze(req) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("client: {addr}: {file}: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            if json {
                print!("{}", doc.pretty());
            } else {
                print_analysis(&format!("{file} -> "), status, &doc);
            }
            worst = worst.max(outcome_code(status, &doc));
        }
    }
    ExitCode::from(worst)
}
