//! The served workload: a closed loop of connections to a spawned
//! verification daemon over its line protocol.

use crate::batch::{LayerTotals, LANES};
use crate::report::{
    median, peak_rss_mb, quantile, ratio, report_drift, Metrics, Outcome, Records,
};
use pathinv_report::json::{self, Json};
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `perfbench serve --socket PATH --cache PATH --workers N`: the daemon,
/// run through the same library entry point as `pathinv-cli serve`.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let mut config = pathinv_cli::serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("error: {flag} needs a value");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--socket" => config.socket = Some(value.into()),
            "--cache" => config.cache_path = Some(value.into()),
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("error: bad --workers `{value}`");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown serve option `{other}`");
                return ExitCode::from(2);
            }
        }
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

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let dir = PathBuf::from(format!(".bench_build/perfbench-work/{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One protocol connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn connect(socket: &PathBuf) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone: {e}"))?);
        Ok(Client { writer: stream, reader })
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("cannot send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("the daemon closed the connection".to_string()),
            Ok(_) => json::parse(&reply).map_err(|e| format!("bad reply `{reply}`: {e}")),
            Err(e) => Err(format!("cannot read a reply: {e}")),
        }
    }
}

/// A spawned daemon with a fresh journal; shut down and reaped on drop.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Spawn until the first `pong`, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    pub fn spawn(dir: &WorkDir, tag: usize, workers: usize) -> Result<Daemon, String> {
        let socket = dir.0.join(format!("d{tag}.sock"));
        let journal = dir.0.join(format!("d{tag}.journal"));
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let start = Instant::now();
        let child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache")
            .arg(&journal)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut daemon = Daemon { child, socket, ready_s: 0.0 };
        loop {
            if let Ok(mut c) = Client::connect(&daemon.socket) {
                if c.call("{\"op\":\"ping\"}")?.get("status").and_then(Json::as_str) == Some("pong")
                {
                    break;
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("the daemon did not answer a ping within 30 s".to_string());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        daemon.ready_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Median round trip of `n` pings, in milliseconds.
    fn ping_ms(&self, n: usize) -> Result<f64, String> {
        let mut c = self.client()?;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            c.call("{\"op\":\"ping\"}")?;
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&samples))
    }

    fn stats(&self) -> Result<Json, String> {
        self.client()?.call("{\"op\":\"stats\"}")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.writer.write_all(b"{\"op\":\"shutdown\"}\n");
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One verify request of the plan: a source and a lane.
#[derive(Clone, Copy)]
struct Item {
    source: usize,
    lane: usize,
}

/// The request line for `item`.
fn request_line(sources: &[(String, String, bool)], item: Item, id: usize) -> String {
    let (engine, refiner) = match item.lane {
        0 => ("cegar", "path-invariants"),
        1 => ("cegar", "path-predicates"),
        2 => ("bmc", "-"),
        _ => ("pdr", "-"),
    };
    let mut fields = vec![
        ("op", Json::Str("verify".to_string())),
        ("id", Json::Int(id as i64)),
        ("program", Json::Str(sources[item.source].1.clone())),
        ("engine", Json::Str(engine.to_string())),
        ("name", Json::Str(sources[item.source].0.clone())),
    ];
    if item.lane < 2 {
        fields.push(("refiner", Json::Str(refiner.to_string())));
    }
    Json::object(fields).compact()
}

/// How many new requests separate a request from its resubmission: close
/// enough that a long job is still running when its copy arrives (so the
/// daemon's handling of in-flight duplicates shows), far enough that a
/// short one has finished (so the copy is a cache hit).
const RESUBMIT_AFTER: usize = 8;

/// The request stream of one round: every (source, lane) pair exactly
/// twice.  The corpus pairs come first, in (source, lane) order, so the
/// corpus's few long jobs start while many short ones remain and overlap
/// the same way whichever the seed; the generated pairs follow in a seeded
/// order.  Each pair is resubmitted after [`RESUBMIT_AFTER`] further new
/// pairs.  Half the requests are resubmissions, whichever the seed.
fn plan(corpus: usize, sources: usize, seed: u64) -> Vec<Item> {
    let mut rng = TestRng::from_seed(seed);
    let pairs = |range: std::ops::Range<usize>| {
        range.flat_map(|source| (0..LANES.len()).map(move |lane| Item { source, lane }))
    };
    let mut fresh: Vec<Item> = pairs(0..corpus).collect();
    let mut generated: Vec<Item> = pairs(corpus..sources).collect();
    shuffle(&mut rng, &mut generated);
    fresh.extend(generated);
    let mut stream = Vec::with_capacity(2 * fresh.len());
    for (k, &item) in fresh.iter().enumerate() {
        stream.push(item);
        if let Some(earlier) = k.checked_sub(RESUBMIT_AFTER) {
            stream.push(fresh[earlier]);
        }
    }
    stream.extend(&fresh[fresh.len().saturating_sub(RESUBMIT_AFTER)..]);
    stream
}

/// Fisher–Yates shuffle of `items`.
fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u128 + 1) as usize);
    }
}

/// The value at `path` inside `json`.
fn at<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, key| j.get(key))
}

/// One response, as the client saw it.
struct Response {
    item: Item,
    latency_ms: f64,
    status: String,
    cached: bool,
    task: Json,
}

impl Response {
    /// Sends `item` on `client` and times the reply.
    fn request(
        client: &mut Client,
        sources: &[(String, String, bool)],
        item: Item,
        id: usize,
    ) -> Result<Response, String> {
        let line = request_line(sources, item, id);
        let sent = Instant::now();
        let reply = client.call(&line)?;
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        Ok(Response {
            item,
            latency_ms,
            status: reply.get("status").and_then(Json::as_str).unwrap_or("").to_string(),
            cached: reply.get("cached") == Some(&Json::Bool(true)),
            task: reply.get("task").cloned().unwrap_or(Json::Null),
        })
    }

    fn task_str(&self, key: &str) -> &str {
        self.task.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn task_int(&self, key: &str) -> u64 {
        self.task.get(key).and_then(Json::as_int).map_or(0, |v| v.max(0) as u64)
    }

    fn task_ms(&self, path: &[&str]) -> f64 {
        match at(&self.task, path) {
            Some(Json::Float(f)) => *f,
            Some(Json::Int(i)) => *i as f64,
            _ => 0.0,
        }
    }

    fn conclusive(&self) -> bool {
        matches!(self.task_str("verdict"), "safe" | "unsafe")
    }

    /// The deterministic fields of the task record.
    fn record(&self) -> String {
        let mut parts =
            vec![self.task_str("verdict").to_string(), self.task_str("cert_digest").to_string()];
        for key in [
            "refinements",
            "predicates",
            "art_nodes",
            "solver_calls",
            "simplex_calls",
            "simplex_warm_checks",
            "interpolant_calls",
            "smt_queries",
            "query_cache_hits",
            "post_queries",
            "post_cache_hits",
            "engine_depth",
            "engine_nodes",
            "engine_lemmas",
            "synth_systems_solved",
            "synth_branches_explored",
            "synth_branches_pruned",
            "synth_cores_learned",
            "synth_memo_hits",
        ] {
            parts.push(self.task_int(key).to_string());
        }
        parts.join(" ")
    }
}

/// One round: a fresh daemon and journal, the whole plan through the
/// closed loop.
struct Round {
    ready_s: f64,
    wall_s: f64,
    responses: Vec<Response>,
    peak_rss_mb: f64,
    ping_ms: f64,
    stats: Json,
}

impl Round {
    /// The first response with `cached:false` of each (source, lane) pair.
    fn first_cold(&self) -> Vec<&Response> {
        let mut seen = std::collections::BTreeSet::new();
        self.responses
            .iter()
            .filter(|r| !r.cached && seen.insert((r.item.source, r.item.lane)))
            .collect()
    }
}

fn run_round(
    dir: &WorkDir,
    tag: usize,
    sources: &[(String, String, bool)],
    plan: &[Item],
    workers: usize,
    traced: bool,
) -> Result<Round, String> {
    let daemon = Daemon::spawn(dir, tag, workers)?;
    let mut clients: Vec<Client> =
        (0..workers).map(|_| daemon.client()).collect::<Result<_, _>>()?;
    let next = AtomicUsize::new(0);
    let responses = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now();
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, responses) = (&next, &responses);
                scope.spawn(move || -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&item) = plan.get(i) else {
                            return Ok(());
                        };
                        let response = Response::request(client, sources, item, i)?;
                        responses
                            .lock()
                            .expect("a client panicked holding the responses")
                            .push(response);
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                h.join().unwrap_or_else(|_| Err("a client thread panicked".to_string())).err()
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(e) = errors.first() {
        return Err(e.clone());
    }
    let ping_ms = if traced { daemon.ping_ms(50)? } else { 0.0 };
    let stats = daemon.stats()?;
    Ok(Round {
        ready_s: daemon.ready_s,
        wall_s,
        responses: responses.into_inner().expect("a client panicked holding the responses"),
        peak_rss_mb: daemon.peak_rss_mb(),
        ping_ms,
        stats,
    })
}

/// Failures of one round, and the deterministic record of every pair (from
/// its first response).
fn check_round(
    sources: &[(String, String, bool)],
    round: &Round,
    problems: &mut Vec<String>,
) -> (u64, Records) {
    let mut failed = 0;
    let mut records = Records::new();
    for r in &round.responses {
        let (name, _, safe) = &sources[r.item.source];
        let lane = LANES[r.item.lane];
        let mut fail = |why: String| {
            failed += 1;
            problems.push(format!("{name} {lane}: {why}"));
        };
        if r.status != "done" {
            fail(format!("status {}", r.status));
            continue;
        }
        let verdict = r.task_str("verdict");
        if verdict == "error" || verdict == "cancelled" {
            fail(format!("verdict {verdict} ({})", r.task_str("detail")));
        }
        if r.conclusive() && (verdict == "safe") != *safe {
            fail(format!("verdict {verdict} contradicts the known answer"));
        }
        if r.conclusive() && r.task_str("cert_kind").is_empty() {
            fail(format!("{verdict} without a certificate"));
        }
        records.entry((r.item.source, r.item.lane)).or_insert_with(|| r.record());
    }
    (failed, records)
}

pub fn run(args: &crate::Args) -> Result<Outcome, String> {
    let workers = crate::workers();
    let dir = WorkDir::create()?;
    // Set-up, part one: generating, certifying and collecting the sources;
    // sampled before the first round and again after every round.
    let build = || -> Result<_, String> {
        let mut sources = crate::inputs::corpus_sources()?;
        let corpus = sources.len();
        for input in crate::inputs::generated(args.seed, crate::inputs::serve_stratum)? {
            sources.push((input.name, input.source.unwrap_or_default(), input.safe));
        }
        Ok((sources, corpus))
    };
    let mut builds = Vec::new();
    let (sources, corpus) = crate::timed_setup(1, crate::SETUP_SAMPLE_S, &mut builds, build)?;
    let plan = plan(corpus, sources.len(), args.seed);

    // Rounds until the time is up (at least two; with tracing, traced and
    // untraced rounds alternate).
    let start = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    loop {
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push((run_round(&dir, rounds.len(), &sources, &plan, workers, traced)?, traced));
        crate::timed_setup(1, crate::SETUP_SAMPLE_S, &mut builds, build)?;
        let last = rounds.last().map_or(0.0, |(r, _)| r.ready_s + r.wall_s);
        let traced_done = !args.trace || rounds.iter().any(|(_, t)| *t);
        if start.elapsed().as_secs_f64() + last > args.seconds && rounds.len() >= 2 && traced_done {
            break;
        }
    }

    let mut problems = Vec::new();
    let mut failed = 0;
    let mut runs = Vec::new();
    for (round, _) in &rounds {
        let (f, records) = check_round(&sources, round, &mut problems);
        failed += f;
        runs.push(records);
    }
    problems.truncate(20);
    // Each round is a fresh daemon; drift between rounds is reported.
    let drifts = report_drift("rounds", &runs, |i| sources[i].0.clone());
    let attempted = rounds.iter().map(|(r, _)| r.responses.len() as u64).sum();
    let readies: Vec<f64> = rounds.iter().map(|(r, _)| r.ready_s).collect();
    let build_s = median(&builds);
    let setup_s = build_s + median(&readies);
    let walls: Vec<String> = rounds.iter().map(|(r, _)| format!("{:.3}", r.wall_s)).collect();
    let rss: Vec<String> = rounds.iter().map(|(r, _)| format!("{:.1}", r.peak_rss_mb)).collect();
    println!(
        "rounds: {} of {} requests ({} sources x {} lanes), {workers} connections to {workers} \
         workers; wall s [{}]; daemon peak MiB [{}]",
        rounds.len(),
        plan.len(),
        sources.len(),
        LANES.len(),
        walls.join(" "),
        rss.join(" ")
    );

    let mut metrics = Metrics::default();
    let untraced: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    if !args.trace {
        end_to_end(&untraced, setup_s, &mut metrics);
    } else {
        let traced = rounds.iter().find(|(_, t)| *t).map(|(r, _)| r).expect("a traced round");
        let srcs: Vec<&str> = sources.iter().map(|(_, s, _)| s.as_str()).collect();
        metrics.push("ir.parse_ms", crate::parse_ms(&srcs), "ms");
        let (fixtures, fixtures_ms) = crate::probes::paper_fixtures();
        metrics.push("bench.generate_ms", build_s * 1e3 + fixtures_ms, "ms");
        let mut layers = layer_totals(traced, workers, &mut metrics);
        problems.extend(crate::add_audit_probe(&mut layers));
        layers.push(&mut metrics);
        problems.extend(crate::probes::paper_probes(&fixtures, &mut metrics));
        serve_layers(&traced.responses, traced.ping_ms, &traced.stats, &mut metrics);
        let walls = |rs: &[&Round]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let traced_rounds: Vec<&Round> =
            rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
        metrics.push(
            "harness.trace_overhead_ms",
            (walls(&traced_rounds) - walls(&untraced)) * 1e3,
            "ms",
        );
        metrics.push("harness.drift_records", drifts as f64, "count");
    }
    Ok(Outcome { attempted, failed, problems, metrics })
}

fn end_to_end(rounds: &[&Round], setup_s: f64, metrics: &mut Metrics) {
    let all = || rounds.iter().flat_map(|r| r.responses.iter());
    // Cold latencies count each pair once per round: a later cold copy is
    // an in-flight duplicate (`cli.serve.dup_misses`), and how many of
    // those a round has depends on timing and on the seeded order; with
    // them in, the cold tail moved by a third between seeds.
    let cold: Vec<&Response> = rounds.iter().flat_map(|r| r.first_cold()).collect();
    let warm: Vec<f64> = all().filter(|r| r.cached).map(|r| r.latency_ms).collect();
    let engine_ms: Vec<f64> = cold.iter().map(|r| r.task_ms(&["wall_ms"])).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|r| r.latency_ms).collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let batch_s = median(&walls);
    let done = all().filter(|r| r.status == "done").count();
    let decided = all().filter(|r| r.status == "done" && r.conclusive()).count();
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    metrics.push("setup_s", setup_s, "s");
    metrics.push("batch_s", batch_s, "s");
    metrics.push("task_p50_ms", quantile(&engine_ms, 0.5), "ms");
    metrics.push("task_p95_ms", quantile(&engine_ms, 0.95), "ms");
    metrics.push("decided_ratio", ratio(decided as f64, done as f64), "ratio");
    metrics.push("peak_rss_mb", median(&rss), "MiB");
    metrics.push("req_per_s", ratio(rounds[0].responses.len() as f64, batch_s), "1/s");
    metrics.push("cold_p50_ms", quantile(&cold_ms, 0.5), "ms");
    metrics.push("cold_p95_ms", quantile(&cold_ms, 0.95), "ms");
    metrics.push("warm_p50_ms", quantile(&warm, 0.5), "ms");
}

/// Engine-layer sums over the first cold response of every pair (the
/// daemon's own counters, read from its task records).
fn layer_totals(round: &Round, workers: usize, metrics: &mut Metrics) -> LayerTotals {
    let mut seen = std::collections::BTreeSet::new();
    let mut lane_ms = [0.0; 4];
    let mut l = LayerTotals::default();
    let mut conclusive_by_source: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for r in round.responses.iter().filter(|r| !r.cached && r.status == "done") {
        l.busy_ms += r.task_ms(&["wall_ms"]);
        if !seen.insert((r.item.source, r.item.lane)) {
            continue;
        }
        lane_ms[r.item.lane] += r.task_ms(&["wall_ms"]);
        l.reach_ms += r.task_ms(&["phases", "reach_ms"]);
        l.cex_ms += r.task_ms(&["phases", "cex_ms"]);
        l.refine_ms += r.task_ms(&["phases", "refine_ms"]);
        l.refinements += r.task_int("refinements");
        l.art_nodes += r.task_int("art_nodes");
        l.post_queries += r.task_int("post_queries");
        l.post_hits += r.task_int("post_cache_hits");
        l.queries += r.task_int("smt_queries");
        l.query_hits += r.task_int("query_cache_hits");
        match r.item.lane {
            2 => l.bmc_depth += r.task_int("engine_depth"),
            3 => {
                l.pdr_obligations += r.task_int("engine_nodes");
                l.pdr_lemmas += r.task_int("engine_lemmas");
            }
            _ => {}
        }
        l.smt.sat_checks += r.task_int("solver_calls");
        l.smt.simplex_calls += r.task_int("simplex_calls");
        l.smt.simplex_warm_checks += r.task_int("simplex_warm_checks");
        l.smt.interpolant_calls += r.task_int("interpolant_calls");
        l.synth.systems_solved += r.task_int("synth_systems_solved");
        l.synth.branches_explored += r.task_int("synth_branches_explored");
        l.synth.branches_pruned += r.task_int("synth_branches_pruned");
        l.synth.cores_learned += r.task_int("synth_cores_learned");
        l.synth.memo_hits += r.task_int("synth_memo_hits");
        l.lanes_run += 1;
        if r.conclusive() {
            l.conclusive += 1;
            conclusive_by_source.entry(r.item.source).or_default().push(r.item.lane);
        }
    }
    for lanes in conclusive_by_source.values() {
        if let [only] = lanes.as_slice() {
            l.unique[*only] += 1;
        }
    }
    for (lane, name) in LANES.iter().enumerate() {
        metrics.push(format!("core.{name}_ms"), lane_ms[lane], "ms");
    }
    l.idle_ratio = 1.0 - ratio(l.busy_ms, workers as f64 * round.wall_s * 1e3);
    l
}

/// The `cli.serve.*` metrics of one daemon session.
fn serve_layers(responses: &[Response], ping_ms: f64, stats: &Json, metrics: &mut Metrics) {
    let overhead: Vec<f64> = responses
        .iter()
        .filter(|r| !r.cached && r.status == "done")
        .map(|r| r.latency_ms - r.task_ms(&["wall_ms"]))
        .collect();
    let int = |path: &[&str]| at(stats, path).and_then(Json::as_int).unwrap_or(0) as f64;
    let (hits, misses, entries) =
        (int(&["cache_hits"]), int(&["cache_misses"]), int(&["cache_size"]));
    metrics.push("cli.serve.overhead_ms", median(&overhead), "ms");
    metrics.push("cli.serve.ping_ms", ping_ms, "ms");
    metrics.push("cli.serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    metrics.push("cli.serve.dup_misses", misses - entries, "count");
    metrics.push("cli.serve.journal_bytes", int(&["cache", "journal_bytes"]), "bytes");
    metrics.push("cli.serve.compactions", int(&["cache", "compactions"]), "count");
}

/// The `cli.serve.*` metrics for a batch workload, which has no daemon of
/// its own: a short session of pings and the serve corpus, submitted cold
/// on the two quick lanes (cegar/path-predicates and pdr) and then
/// resubmitted warm.
pub fn serve_probe(workers: usize, metrics: &mut Metrics) -> Result<(), String> {
    let dir = WorkDir::create()?;
    let sources = crate::inputs::corpus_sources()?;
    let daemon = Daemon::spawn(&dir, 0, workers)?;
    let mut client = daemon.client()?;
    let mut responses = Vec::new();
    for pass in 0..2 {
        for source in 0..sources.len() {
            for lane in [1, 3] {
                responses.push(Response::request(
                    &mut client,
                    &sources,
                    Item { source, lane },
                    pass,
                )?);
            }
        }
    }
    serve_layers(&responses, daemon.ping_ms(50)?, &daemon.stats()?, metrics);
    Ok(())
}
