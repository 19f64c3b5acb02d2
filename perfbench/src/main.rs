//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-corpus|serve-stream>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  See
//! `README.md` beside this crate for the workloads and every metric.
//!
//! `perfbench serve --socket PATH --cache PATH --workers N` runs the
//! verification daemon (`pathinv_cli::serve::run_serve`, the function
//! behind `pathinv-cli serve`); the serve-stream workload spawns it.

mod answers;
mod batch;
mod inputs;
mod probes;
mod report;
mod serve;

use batch::{LayerTotals, Pass};
use report::{median, Metrics, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["paper-corpus", "serve-stream"].contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be paper-corpus or serve-stream, not `{}`",
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Worker threads (and serve connections): two, or fewer on a smaller box.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Runs `build` at least `reps` times and for at least `min_s` seconds,
/// adding each wall time in seconds to `samples`; returns the last result.
fn timed_setup<T>(
    reps: usize,
    min_s: f64,
    samples: &mut Vec<f64>,
    mut build: impl FnMut() -> T,
) -> T {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let rep = Instant::now();
        let built = build();
        samples.push(rep.elapsed().as_secs_f64());
        done += 1;
        if done >= reps && start.elapsed().as_secs_f64() >= min_s {
            return built;
        }
    }
}

/// Parse time of `sources`, in milliseconds (median over a fifth of a
/// second, at least five repeats).
fn parse_ms(sources: &[&str]) -> f64 {
    let mut samples = Vec::new();
    timed_setup(5, 0.2, &mut samples, || {
        for src in sources {
            std::hint::black_box(pathinv_ir::parse_program(src).ok());
        }
    });
    median(&samples) * 1e3
}

/// How long each set-up sample lasts (at least one build): set-up is
/// sampled before the first pass and again after every pass, so its median
/// spans the same stretch of the run as the passes.
const SETUP_SAMPLE_S: f64 = 0.02;

/// Adds the audit probe (`probes::audit_probe`) to the checker times.
fn add_audit_probe(layers: &mut LayerTotals) -> Vec<String> {
    let (probe, problems) = probes::audit_probe(&pathinv_cli::corpus_programs());
    layers.probe_audit_ms = probe.inductive_ms + probe.bounded_ms + probe.trace_ms;
    layers.inductive_ms += probe.inductive_ms;
    layers.bounded_ms += probe.bounded_ms;
    layers.trace_ms += probe.trace_ms;
    problems
}

fn run_batch(args: &Args) -> Result<Outcome, String> {
    let workers = workers();
    // Set-up: building the inputs (the corpus with its known answers).
    let mut setup = Vec::new();
    let inputs = timed_setup(5, SETUP_SAMPLE_S, &mut setup, inputs::corpus)?;

    // Measure: whole passes while the time lasts.  The first pass is a
    // warm-up, checked but not timed; at least two timed untraced passes
    // follow, and with tracing at least one traced pass, alternating with
    // untraced ones.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(batch::run_pass(&inputs, workers, traced));
        timed_setup(1, SETUP_SAMPLE_S, &mut setup, inputs::corpus)?;
        let last = passes.last().map_or(0.0, |p| p.wall_s);
        let untraced = passes.iter().filter(|p| !p.traced).count();
        let traced_done = !args.trace || passes.iter().any(|p| p.traced);
        if start.elapsed().as_secs_f64() + last > args.seconds && untraced >= 3 && traced_done {
            break;
        }
    }

    let mut problems = Vec::new();
    let mut failed = 0u64;
    for pass in &passes {
        let failures = pass.failures(&inputs);
        failed += failures.len() as u64;
        if problems.is_empty() {
            problems = failures;
        }
    }
    // Determinism: every pass repeats the verdicts, certificate digests
    // and counters of the first; traced passes also repeat each other's
    // thread-local counter deltas.  Drift is reported, not failed: the
    // verdicts it concerns are checked above.
    let mut drifts = 0;
    for (traced, label) in [(false, "untraced passes"), (true, "traced passes")] {
        let runs: Vec<_> =
            passes.iter().filter(|p| p.traced == traced).map(Pass::records).collect();
        drifts += report::report_drift(label, &runs, |i| inputs[i].name.clone());
    }
    let attempted: u64 = passes.iter().map(|p| p.tasks.len() as u64).sum();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).skip(1).collect();
    println!("per-lane table (first timed pass, {} programs):", inputs.len());
    print!("{}", untraced[0].lane_table());
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "passes: {} ({} traced, 1 warm-up) on {workers} workers, wall s [{}]; failed_ratio {}",
        passes.len(),
        passes.len() - untraced.len() - 1,
        walls.join(" "),
        report::ratio(failed as f64, attempted as f64)
    );

    let mut metrics = Metrics::default();
    if !args.trace {
        batch::end_to_end(&untraced, median(&setup), inputs.len(), &mut metrics);
        return Ok(Outcome { attempted, failed, problems, metrics });
    }
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let sources: Vec<String> =
        pathinv_cli::corpus_sources().into_iter().map(|(_, src)| src).collect();
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    metrics.push("ir.parse_ms", parse_ms(&sources), "ms");
    let (fixtures, fixtures_ms) = probes::paper_fixtures();
    metrics.push("bench.generate_ms", fixtures_ms, "ms");
    let mut layers = batch::per_layer(traced[0], workers, &mut metrics);
    problems.extend(add_audit_probe(&mut layers));
    layers.push(&mut metrics);
    problems.extend(probes::paper_probes(&fixtures, &mut metrics));
    serve::serve_probe(workers, &mut metrics)?;
    let walls = |ps: &[&Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    metrics.push("harness.trace_overhead_ms", (walls(&traced) - walls(&untraced)) * 1e3, "ms");
    metrics.push("harness.drift_records", drifts as f64, "count");
    Ok(Outcome { attempted, failed, problems, metrics })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve::daemon_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve-stream" => serve::run(&args),
        _ => run_batch(&args),
    };
    match result {
        Ok(outcome) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            for m in &outcome.metrics.0 {
                println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for p in &outcome.problems {
                println!("problem: {p}");
            }
            println!("{}", outcome.json_line());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
