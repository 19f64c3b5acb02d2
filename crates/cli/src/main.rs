//! Batch verification driver for the Path Invariants reproduction.
//!
//! Runs corpus programs and/or `.pinv` source files through the configured
//! verification engines (CEGAR with either refiner, bounded model checking,
//! PDR-lite, or the whole portfolio) in parallel, printing a summary table
//! and optionally writing a JSON report (or a golden snapshot for the
//! regression test).  Portfolio runs cross-check verdicts between engines
//! and fail on any disagreement.

use pathinv_cli::differential::DifferentialReport;
use pathinv_cli::flags::{usage_error, Flags};
use pathinv_cli::trajectory::{trajectory_from_cached, BLESS_POINT};
use pathinv_cli::{
    corpus_programs, load_pinv_file, make_tasks, run_batch, write_output, EngineChoice,
    RefinerChoice,
};
use std::process::ExitCode;

const USAGE: &str = "\
pathinv-cli — batch verification over the Path Invariants corpus

USAGE:
    pathinv-cli [OPTIONS] [FILE.pinv ...]
    pathinv-cli trajectory --history [DIR]
    pathinv-cli fuzz [FUZZ OPTIONS]
    pathinv-cli serve [SERVE OPTIONS]
    pathinv-cli serve-smoke [SMOKE OPTIONS]
    pathinv-cli chaos-smoke [CHAOS OPTIONS]

ARGS:
    FILE.pinv ...          front-end source files to verify alongside/instead
                           of the corpus

SUBCOMMANDS:
    trajectory --history   aggregate every committed BENCH_*.json trajectory
                           point (in DIR, default the current directory) into
                           one per-PR summary table
    fuzz                   generate a seeded differential-fuzzing campaign and
                           cross-check every program three ways (engine vs
                           engine, verifier vs concrete interpreter, cached vs
                           uncached); exits 1 on any disagreement
    serve                  run the verification service daemon: line-delimited
                           JSON jobs on a Unix socket (or stdin), fault-isolated
                           workers, per-job deadlines, a crash-safe persistent
                           verdict cache, and graceful SIGTERM/shutdown drain
                           (see DESIGN.md section 14 for the protocol)
    serve-smoke            spawn a real serve daemon and drive the end-to-end
                           robustness scenario against it: cold + warm corpus
                           passes with parity checks, injected malformed and
                           panicking jobs, SIGTERM drain, and a warm restart
                           from the surviving cache journal; exits 1 on any
                           contract violation
    chaos-smoke            spawn a real serve daemon under --isolate process
                           with seeded fault injection (--chaos) and hammer it
                           with hostile probes (aborting, panicking, hogging,
                           spinning engines, malformed lines); hard-fails if
                           the daemon dies, any submission is dropped or
                           duplicated, any verdict diverges from the
                           fresh-process reference, or the drain is unclean

SERVE OPTIONS:
    --socket <PATH>        listen on a Unix socket instead of stdin/stdout
    --cache <PATH>         persist the verdict cache journal at PATH (default:
                           in-memory only)
    --workers <N>          worker threads executing jobs (default: 2)
    --queue <N>            admission-queue capacity; beyond it submissions are
                           rejected with status \"overloaded\" (default: 64)
    --timeout-ms <N>       default per-job deadline for jobs that do not carry
                           their own timeout_ms
    --drain-grace-ms <N>   how long a shutdown drain waits for in-flight jobs
                           before cancelling them (default: 5000)
    --isolate <MODE>       thread (default) runs jobs on worker threads with
                           catch_unwind isolation; process re-execs each job
                           as a child of this binary, hard-killed on deadline,
                           so aborts/stack overflow/OOM become error tasks
                           instead of daemon death
    --retries <N>          re-run a faulted job up to N times with bounded
                           exponential backoff + jitter before reporting the
                           error (default: 1)
    --retry-backoff-ms <N> base backoff delay between retries (default: 50)
    --breaker-threshold <N> consecutive faults that trip an engine's circuit
                           breaker; while open, submissions for that engine
                           fast-fail with status \"quarantined\"; 0 disables
                           (default: 5)
    --breaker-cooldown-ms <N> how long a tripped breaker stays open before a
                           half-open probe is admitted (default: 10000)
    --cache-compact-bytes <N> journal size that triggers a crash-safe
                           compaction rewrite (default: 1048576)
    --chaos seed=<N>       seeded fault injection for chaos testing: random
                           worker exits plus failed/torn/slow cache writes,
                           all derived from the seed

SMOKE OPTIONS:
    --json <PATH>          write the warm-vs-cold benchmark artifact (`-` =
                           stdout)
    --workers <N>          worker threads for the spawned daemon (default: 4)
    --quiet                suppress per-phase progress

CHAOS OPTIONS:
    --seed <N>             seed for the probe deck and the daemon's fault
                           schedule (default: 42); a failing run replays
                           exactly under the same seed
    --json <PATH>          write the availability artifact (`-` = stdout)
    --workers <N>          worker threads for the spawned daemon (default: 2)
    --quiet                suppress per-phase progress

FUZZ OPTIONS:
    --seed <N>             campaign seed (default: 0)
    --count <N>            certified programs to generate (default: 200)
    --jobs <N>             worker threads (default: available parallelism);
                           never affects the report, only wall-clock
    --json <PATH>          write the deterministic JSON report (`-` = stdout)
    --reproducers <DIR>    write each shrunk finding as a .pinv reproducer
    --cache-sample <N>     programs also checked cached-vs-uncached (default: 10)
    --shrink-budget <N>    candidate scenarios tested per finding (default: 48)
    --timeout-ms <N>       per-engine-run deadline; an expired run reports the
                           no-opinion `cancelled` and is never a finding
    --certify              audit every engine certificate with the independent
                           checker; a conclusive verdict without a valid
                           certificate is a finding
    --quiet                suppress the campaign summary

OPTIONS:
    --all                  verify every program in pathinv_ir::corpus
    --engine <WHICH>       cegar | bmc | pdr | portfolio (default: cegar);
                           portfolio runs every engine per program across the
                           worker pool, reports the combined verdict, and
                           exits 1 on any cross-engine verdict disagreement
    --race                 race the four portfolio lanes per program instead
                           of running them all to completion: the first
                           conclusive verdict cancels the other lanes
                           cooperatively; reports the winner and every
                           lane's time-to-first-verdict, and exits 1 if two
                           conclusive lanes ever disagree
    --refiner <WHICH>      path-invariants | path-predicates | both
                           (default: both; applies to cegar tasks)
    --max-refinements <N>  override the refinement bound for cegar tasks
    --beam-workers <N>     worker threads for the invariant-synthesis beam
                           on cegar tasks (default: 1); results are
                           byte-identical at any count, only wall-clock
                           changes
    --jobs <N>             worker threads (default: available parallelism)
    --timeout-ms <N>       per-task wall-clock deadline, enforced by the
                           watchdog through each task's cancellation token;
                           an expired task reports the honest `cancelled`
                           verdict instead of running forever
    --certify              audit every verdict's certificate with the
                           independent pathinv-check crate: conclusive
                           verdicts must carry a certificate the checker
                           validates (inconclusive ones pass vacuously);
                           exits 1 on any rejected or missing certificate
    --json <PATH>          write the full JSON report to PATH (`-` = stdout)
    --golden <PATH>        write the deterministic golden snapshot to PATH
    --no-cache             disable the incremental solver caches on cegar
                           tasks (same verdicts, more solver calls)
    --bless                regenerate every committed golden snapshot
                           (tests/golden/corpus.json, tests/golden/bench.json)
                           and write the trajectory point (including its race,
                           serve, supervision, and certificate-audit sections)
                           to the uncommitted bench-point.json, leaving the
                           committed BENCH_pr*.json baselines untouched; run
                           from the repository root
    --quiet                suppress the summary table
    --help                 show this help

EXIT STATUS:
    0  all tasks completed (verdicts may be safe/unsafe/unknown)
    1  at least one task errored, an input file failed to load, a
       portfolio/race run found a cross-engine verdict disagreement, or a
       --certify audit rejected a certificate
    2  usage error
";

#[derive(Default)]
struct Options {
    all: bool,
    files: Vec<String>,
    engines: EngineChoice,
    choice: RefinerChoice,
    max_refinements: Option<usize>,
    beam_workers: Option<usize>,
    race: bool,
    certify: bool,
    timeout_ms: Option<u64>,
    jobs: usize,
    json_path: Option<String>,
    golden_path: Option<String>,
    no_cache: bool,
    bless: bool,
    quiet: bool,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options { jobs: default_jobs(), ..Options::default() };
    let mut engine_set = false;
    let mut refiner_set = false;
    Flags::each(args, |arg, flags| {
        match arg {
            "--all" => opts.all = true,
            "--quiet" => opts.quiet = true,
            "--engine" => {
                opts.engines = match flags.value(arg)?.as_str() {
                    "cegar" => EngineChoice::Cegar,
                    "bmc" => EngineChoice::Bmc,
                    "pdr" => EngineChoice::Pdr,
                    "portfolio" => EngineChoice::Portfolio,
                    other => return Err(format!("unknown engine `{other}`")),
                };
                engine_set = true;
            }
            "--refiner" => {
                opts.choice = match flags.value(arg)?.as_str() {
                    "path-invariants" => RefinerChoice::PathInvariants,
                    "path-predicates" => RefinerChoice::PathPredicates,
                    "both" => RefinerChoice::Both,
                    other => return Err(format!("unknown refiner `{other}`")),
                };
                refiner_set = true;
            }
            "--max-refinements" => opts.max_refinements = Some(flags.num(arg)?),
            "--beam-workers" => opts.beam_workers = Some(flags.positive(arg)?),
            "--race" => opts.race = true,
            "--certify" => opts.certify = true,
            "--timeout-ms" => opts.timeout_ms = Some(flags.positive(arg)?),
            "--jobs" => opts.jobs = flags.positive(arg)?,
            "--json" => opts.json_path = Some(flags.value(arg)?),
            "--golden" => opts.golden_path = Some(flags.value(arg)?),
            "--no-cache" => opts.no_cache = true,
            "--bless" => opts.bless = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => opts.files.push(file.to_string()),
        }
        Ok(())
    })?;
    if matches!(opts.engines, EngineChoice::Bmc | EngineChoice::Pdr) {
        // Refiner-related flags would be silently meaningless without CEGAR
        // tasks; reject them instead of ignoring them.
        if opts.max_refinements.is_some() {
            return Err("--max-refinements only applies to cegar tasks".to_string());
        }
        if refiner_set {
            return Err("--refiner only applies to cegar tasks".to_string());
        }
        if opts.beam_workers.is_some() {
            return Err("--beam-workers only applies to cegar tasks".to_string());
        }
    }
    if opts.race {
        // A race always runs the whole default-configured portfolio; flags
        // that would reshape the lanes are rejected, not silently ignored.
        let conflicting = engine_set
            || refiner_set
            || opts.max_refinements.is_some()
            || opts.beam_workers.is_some()
            || opts.no_cache
            || opts.golden_path.is_some()
            || opts.bless;
        if conflicting {
            return Err("--race runs the default engine portfolio per program; it only combines \
                        with --all, .pinv files, --jobs, --json, --certify, --timeout-ms, and \
                        --quiet"
                .to_string());
        }
    }
    if !opts.all && opts.files.is_empty() && !opts.bless {
        return Err("nothing to do: pass --all, --bless, and/or .pinv files".to_string());
    }
    if opts.bless {
        let conflicting = opts.all
            || !opts.files.is_empty()
            || opts.no_cache
            || opts.timeout_ms.is_some()
            || opts.max_refinements.is_some()
            || opts.choice != RefinerChoice::Both
            || engine_set
            || opts.json_path.is_some()
            || opts.golden_path.is_some();
        if conflicting {
            return Err("--bless runs the full corpus under a fixed configuration (the whole \
                        engine portfolio, plus the cached + uncached cegar trajectory); it only \
                        combines with --jobs and --quiet"
                .to_string());
        }
    }
    Ok(opts)
}

/// Regenerates every committed golden snapshot and writes the trajectory
/// point to [`BLESS_POINT`], never over a committed `BENCH_prN.json`
/// baseline.  Paths are relative to the current directory, which must be
/// the repository root.
fn bless(jobs: usize) -> ExitCode {
    const CORPUS_GOLDEN: &str = "tests/golden/corpus.json";
    const BENCH_GOLDEN: &str = "tests/golden/bench.json";
    if !std::path::Path::new("tests/golden").is_dir() {
        eprintln!("error: tests/golden/ not found; run --bless from the repository root");
        return ExitCode::FAILURE;
    }
    eprintln!("blessing: verifying the corpus with the whole engine portfolio (certified)...");
    let mut portfolio_tasks =
        make_tasks(corpus_programs(), EngineChoice::Portfolio, RefinerChoice::Both, None);
    for t in &mut portfolio_tasks {
        t.certify = true;
    }
    let portfolio = run_batch(portfolio_tasks, jobs);
    let portfolio_errors = portfolio.tasks.iter().filter(|t| t.verdict == "error").count();
    if portfolio_errors > 0 {
        eprintln!("error: {portfolio_errors} task(s) errored; refusing to bless broken goldens");
        return ExitCode::FAILURE;
    }
    // Blessing pins certificate digests into the goldens; every conclusive
    // verdict must carry a certificate the independent checker accepts.
    let cert_failures: Vec<String> = portfolio
        .tasks
        .iter()
        .filter(|t| matches!(t.cert_verdict.as_str(), "invalid" | "missing" | "unsupported"))
        .map(|t| {
            format!(
                "{}/{}: {} verdict has certificate audit {}: {}",
                t.program_name, t.engine, t.verdict, t.cert_verdict, t.cert_reason
            )
        })
        .collect();
    if !cert_failures.is_empty() {
        eprintln!(
            "error: certificate audit failed; refusing to bless:\n  {}",
            cert_failures.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let diff = DifferentialReport::from_batch(&portfolio);
    let disagreements = diff.disagreements();
    if !disagreements.is_empty() {
        eprintln!(
            "error: cross-engine verdict disagreements; refusing to bless:\n  {}",
            disagreements.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    eprint!("{}", diff.render_summary());
    // The portfolio already contains the cached CEGAR corpus run; reuse its
    // cegar subset as the trajectory's cached side (the counters are
    // deterministic, so this is identical to a fresh run) and only the
    // uncached baseline is verified again.  The subset's wall clock is the
    // serial-equivalent sum of its task times.
    let cegar_tasks: Vec<_> =
        portfolio.tasks.iter().filter(|t| t.engine == "cegar").cloned().collect();
    let cached = pathinv_cli::BatchReport {
        jobs: portfolio.jobs,
        wall_ms_total: cegar_tasks.iter().map(|t| t.wall_ms).sum(),
        tasks: cegar_tasks,
    };
    eprintln!("blessing: verifying the corpus again (uncached cegar baseline)...");
    let mut trajectory = trajectory_from_cached(cached, jobs);
    eprintln!("blessing: racing the portfolio over the corpus (4 lanes per program)...");
    let race = pathinv_cli::race::run_race(corpus_programs(), jobs.min(4), false, None);
    let race_mismatches = race.mismatches();
    if !race_mismatches.is_empty() {
        eprintln!(
            "error: racing lanes disagree; refusing to bless:\n  {}",
            race_mismatches.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let race_vs_portfolio = race.mismatches_against_portfolio(&diff);
    if !race_vs_portfolio.is_empty() {
        eprintln!(
            "error: racing verdicts contradict the portfolio; refusing to bless:\n  {}",
            race_vs_portfolio.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    trajectory.race = Some(race);
    eprintln!("blessing: daemon warm-vs-cold pass over the source corpus...");
    let serve = pathinv_cli::serve::bench_serve(jobs.min(4));
    if !serve.parity_failures.is_empty() {
        eprintln!(
            "error: daemon warm pass contradicts the cold pass; refusing to bless:\n  {}",
            serve.parity_failures.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    if serve.warm_hits < serve.programs as u64 {
        eprintln!(
            "error: daemon warm pass hit the persistent cache only {} of {} times; \
             refusing to bless",
            serve.warm_hits, serve.programs
        );
        return ExitCode::FAILURE;
    }
    trajectory.serve = Some(serve);
    eprintln!("blessing: supervision pass (process-isolation overhead + seeded chaos)...");
    let mut supervision = pathinv_cli::serve::bench_supervision(jobs.min(4));
    let chaos_opts =
        pathinv_cli::chaos::ChaosOptions { seed: 42, json_path: None, workers: 2, verbose: false };
    match pathinv_cli::chaos::run_chaos(&chaos_opts) {
        Ok(stats) => {
            supervision.chaos_submitted = stats.submitted;
            supervision.chaos_answered = stats.answered;
            supervision.chaos_quarantined = stats.quarantined;
            supervision.availability = stats.availability();
        }
        Err(msg) => {
            eprintln!("error: chaos pass failed; refusing to bless: {msg}");
            return ExitCode::FAILURE;
        }
    }
    trajectory.supervision = Some(supervision);
    let errors = trajectory
        .cached
        .tasks
        .iter()
        .chain(trajectory.uncached.tasks.iter())
        .filter(|t| t.verdict == "error")
        .count();
    if errors > 0 {
        eprintln!("error: {errors} task(s) errored; refusing to bless broken goldens");
        return ExitCode::FAILURE;
    }
    let parity = trajectory.parity_failures();
    if !parity.is_empty() {
        eprintln!(
            "error: cached and uncached runs disagree on observable outcomes:\n  {}",
            parity.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let writes = [
        (CORPUS_GOLDEN, portfolio.to_golden_json().pretty()),
        (BENCH_GOLDEN, trajectory.to_golden_json().pretty()),
        (BLESS_POINT, trajectory.to_json().pretty()),
    ];
    for (path, text) in writes {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("blessed {path}");
    }
    eprintln!(
        "solver calls: {} cached vs {} uncached ({:.1}% saved)",
        trajectory.cached.totals().solver_calls,
        trajectory.uncached.totals().solver_calls,
        trajectory.solver_call_reduction() * 100.0
    );
    let valid = trajectory.cached.tasks.iter().filter(|t| t.cert_verdict == "valid").count();
    let vacuous = trajectory.cached.tasks.iter().filter(|t| t.cert_verdict == "vacuous").count();
    let check_ms: f64 = trajectory.cached.tasks.iter().map(|t| t.cert_check_ms).sum();
    eprintln!(
        "certificates (cegar subset): {valid} validated, {vacuous} vacuous, \
         checker time {check_ms:.1} ms"
    );
    ExitCode::SUCCESS
}

/// The `--race` path: race the portfolio lanes per program, print the race
/// table, and hard-fail on any conclusive-lane disagreement or lane error.
fn race_main(
    programs: Vec<(String, pathinv_ir::Program)>,
    opts: &Options,
    load_failures: usize,
) -> ExitCode {
    let report = pathinv_cli::race::run_race(programs, opts.jobs, opts.certify, opts.timeout_ms);
    if !opts.quiet {
        print!("{}", report.render_table());
    }
    if let Some(path) = &opts.json_path {
        if let Err(msg) = write_output(path, &report.to_json().pretty()) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    let mismatches = report.mismatches();
    for m in &mismatches {
        eprintln!("error: race verdict mismatch: {m}");
    }
    let errors = report.errors();
    for e in &errors {
        eprintln!("error: {e}");
    }
    let cert_failures = if opts.certify { report.certificate_failures() } else { Vec::new() };
    for c in &cert_failures {
        eprintln!("error: {c}");
    }
    if mismatches.is_empty() && errors.is_empty() && cert_failures.is_empty() && load_failures == 0
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `trajectory --history` subcommand: render every committed
/// `BENCH_*.json` point in the given directory as one table.
fn trajectory_history(args: &[String]) -> ExitCode {
    let mut dir = None;
    let mut history = false;
    let parsed = Flags::each(args, |arg, _| {
        match arg {
            "--history" => history = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown trajectory option `{other}`"));
            }
            path if dir.replace(path).is_some() => {
                return Err("trajectory takes at most one directory".to_string());
            }
            _ => {}
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(&msg, USAGE);
    }
    if !history {
        return usage_error("the trajectory subcommand requires --history", USAGE);
    }
    let dir = std::path::PathBuf::from(dir.unwrap_or("."));
    match pathinv_cli::trajectory::collect_history(&dir) {
        Ok(points) if points.is_empty() => {
            eprintln!("error: no BENCH_*.json trajectory points found in {}", dir.display());
            ExitCode::FAILURE
        }
        Ok(points) => {
            print!("{}", pathinv_cli::trajectory::render_history(&points));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `fuzz` subcommand: seeded generation plus three-way differential
/// cross-checking; exits 1 on any finding.
fn fuzz_main(args: &[String]) -> ExitCode {
    let mut opts = pathinv_cli::fuzz::FuzzOptions { jobs: default_jobs(), ..Default::default() };
    let mut json_path = None;
    let mut reproducer_dir: Option<String> = None;
    let mut quiet = false;
    let parsed = Flags::each(args, |arg, flags| {
        match arg {
            "--seed" => opts.seed = flags.num(arg)?,
            "--count" => opts.count = flags.num(arg)?,
            "--jobs" => opts.jobs = flags.positive(arg)?,
            "--cache-sample" => opts.cache_sample = flags.num(arg)?,
            "--shrink-budget" => opts.shrink_budget = flags.num(arg)?,
            "--timeout-ms" => opts.timeout_ms = Some(flags.positive(arg)?),
            "--json" => json_path = Some(flags.value(arg)?),
            "--reproducers" => reproducer_dir = Some(flags.value(arg)?),
            "--certify" => opts.certify = true,
            "--quiet" => quiet = true,
            other => return Err(format!("unknown fuzz option `{other}`")),
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(&msg, USAGE);
    }
    let report = pathinv_cli::fuzz::run_fuzz(&opts);
    if !quiet {
        print!("{}", report.render_summary());
    }
    if let Some(path) = &json_path {
        if let Err(msg) = write_output(path, &report.to_json().pretty()) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &reproducer_dir {
        if !report.findings.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            for f in &report.findings {
                if f.source.is_empty() {
                    continue;
                }
                let path = format!("{dir}/{}", f.reproducer_name());
                if let Err(e) = std::fs::write(&path, &f.source) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("reproducer written: {path}");
            }
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `serve` subcommand: parse the daemon flags and run until drained.
fn serve_main(args: &[String]) -> ExitCode {
    use pathinv_cli::serve::{ChaosConfig, IsolationMode, ServeConfig};
    let mut config = ServeConfig::default();
    let parsed = Flags::each(args, |arg, flags| {
        match arg {
            "--socket" => config.socket = Some(flags.value(arg)?.into()),
            "--cache" => config.cache_path = Some(flags.value(arg)?.into()),
            "--workers" => config.workers = flags.positive(arg)?,
            "--queue" => config.queue_capacity = flags.positive(arg)?,
            "--timeout-ms" => config.default_timeout_ms = Some(flags.positive(arg)?),
            "--drain-grace-ms" => config.drain_grace_ms = flags.num(arg)?,
            "--isolate" => {
                config.isolation = match flags.value(arg)?.as_str() {
                    "thread" => IsolationMode::Thread,
                    "process" => IsolationMode::Process,
                    other => return Err(format!("unknown --isolate mode `{other}`")),
                }
            }
            "--retries" => config.max_retries = flags.num(arg)?,
            "--retry-backoff-ms" => config.retry_backoff_ms = flags.positive(arg)?,
            "--breaker-threshold" => config.breaker_threshold = flags.num(arg)?,
            "--breaker-cooldown-ms" => config.breaker_cooldown_ms = flags.positive(arg)?,
            "--cache-compact-bytes" => config.cache_compact_bytes = Some(flags.positive(arg)?),
            "--chaos" => {
                let v = flags.value(arg)?;
                let seed = v
                    .strip_prefix("seed=")
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad --chaos `{v}` (expected seed=<N>)"))?;
                config.chaos = Some(ChaosConfig::from_seed(seed));
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(&msg, USAGE);
    }
    match pathinv_cli::serve::run_serve(&config) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve-smoke` subcommand: the end-to-end daemon robustness scenario.
fn serve_smoke_main(args: &[String]) -> ExitCode {
    let mut opts = pathinv_cli::smoke::SmokeOptions::default();
    let parsed = Flags::each(args, |arg, flags| {
        match arg {
            "--json" => opts.json_path = Some(flags.value(arg)?),
            "--workers" => opts.workers = flags.positive(arg)?,
            "--quiet" => opts.verbose = false,
            other => return Err(format!("unknown serve-smoke option `{other}`")),
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(&msg, USAGE);
    }
    match pathinv_cli::smoke::run_serve_smoke(&opts) {
        Ok(()) => {
            eprintln!("serve-smoke: all contracts held");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: serve-smoke failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `chaos-smoke` subcommand: the seeded fault-injection scenario.
fn chaos_smoke_main(args: &[String]) -> ExitCode {
    let mut opts = pathinv_cli::chaos::ChaosOptions::default();
    let parsed = Flags::each(args, |arg, flags| {
        match arg {
            "--seed" => opts.seed = flags.num(arg)?,
            "--json" => opts.json_path = Some(flags.value(arg)?),
            "--workers" => opts.workers = flags.positive(arg)?,
            "--quiet" => opts.verbose = false,
            other => return Err(format!("unknown chaos-smoke option `{other}`")),
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        return usage_error(&msg, USAGE);
    }
    match pathinv_cli::chaos::run_chaos(&opts) {
        Ok(stats) => {
            eprintln!(
                "chaos-smoke: all contracts held ({}/{} answered, availability {:.4})",
                stats.answered,
                stats.submitted,
                stats.availability()
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: chaos-smoke failed: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        // The hidden process-isolation entrypoint: one job over pipes.
        // Dispatched before anything else so a supervised child can never
        // fall into the interactive argument parser.
        Some("run-one-job") => {
            return ExitCode::from(pathinv_cli::isolate::run_one_job_main() as u8);
        }
        Some("trajectory") => return trajectory_history(rest),
        Some("fuzz") => return fuzz_main(rest),
        Some("serve") => return serve_main(rest),
        Some("serve-smoke") => return serve_smoke_main(rest),
        Some("chaos-smoke") => return chaos_smoke_main(rest),
        _ => {}
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            return usage_error(&msg, USAGE);
        }
    };

    if opts.bless {
        return bless(opts.jobs);
    }

    let mut programs = Vec::new();
    let mut load_failures = 0usize;
    if opts.all {
        programs.extend(corpus_programs());
    }
    for file in &opts.files {
        match load_pinv_file(file) {
            Ok(named) => programs.push(named),
            Err(msg) => {
                eprintln!("error: {msg}");
                load_failures += 1;
            }
        }
    }
    if programs.is_empty() {
        eprintln!("error: no programs to verify");
        return ExitCode::FAILURE;
    }

    if opts.race {
        return race_main(programs, &opts, load_failures);
    }

    let mut tasks = make_tasks(programs, opts.engines, opts.choice, opts.max_refinements);
    if opts.certify {
        for t in &mut tasks {
            t.certify = true;
        }
    }
    if opts.timeout_ms.is_some() {
        for t in &mut tasks {
            t.timeout_ms = opts.timeout_ms;
        }
    }
    if opts.no_cache {
        for t in &mut tasks {
            t.disable_cegar_caching();
        }
    }
    if let Some(workers) = opts.beam_workers {
        for t in &mut tasks {
            t.set_beam_workers(workers);
        }
    }
    let report = run_batch(tasks, opts.jobs);
    let differential = opts.engines.is_portfolio().then(|| DifferentialReport::from_batch(&report));

    if !opts.quiet {
        print!("{}", report.render_table());
        if let Some(diff) = &differential {
            print!("{}", diff.render_summary());
        }
    }
    if let Some(path) = &opts.json_path {
        let mut doc = report.to_json();
        if let (Some(diff), pathinv_cli::json::Json::Object(fields)) = (&differential, &mut doc) {
            fields.push(("differential".to_string(), diff.to_json()));
        }
        if let Err(msg) = write_output(path, &doc.pretty()) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.golden_path {
        if let Err(msg) = write_output(path, &report.to_golden_json().pretty()) {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let errors = report.tasks.iter().filter(|t| t.verdict == "error").count();
    let disagreements = differential.as_ref().map(|d| d.disagreements().len()).unwrap_or(0);
    if disagreements > 0 {
        eprintln!("error: {disagreements} cross-engine verdict disagreement(s)");
    }
    let mut cert_failures = 0usize;
    if opts.certify {
        for t in &report.tasks {
            if matches!(t.cert_verdict.as_str(), "invalid" | "missing" | "unsupported") {
                eprintln!(
                    "error: {}/{}: {} verdict has certificate audit {}: {}",
                    t.program_name, t.engine, t.verdict, t.cert_verdict, t.cert_reason
                );
                cert_failures += 1;
            }
        }
        if !opts.quiet {
            let valid = report.tasks.iter().filter(|t| t.cert_verdict == "valid").count();
            let vacuous = report.tasks.iter().filter(|t| t.cert_verdict == "vacuous").count();
            let check_ms: f64 = report.tasks.iter().map(|t| t.cert_check_ms).sum();
            println!(
                "certificates: {valid} validated, {vacuous} vacuous, {cert_failures} failed, \
                 checker time {check_ms:.1} ms"
            );
        }
    }
    if errors > 0 || load_failures > 0 || disagreements > 0 || cert_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
