//! `pathinv-cli chaos-smoke` — the seeded chaos harness for the service.
//!
//! Spawns the *real* `pathinv-cli serve` binary with `--isolate process`
//! and `--chaos seed=N` (worker exits, torn/failed/slow cache writes) and
//! hammers it with a seed-shuffled mix of honest corpus jobs and hostile
//! probes — aborting engines, panicking engines, memory hogs, spinners,
//! and malformed protocol lines.  The run then asserts the supervision
//! contract from the outside:
//!
//! 1. **The daemon never dies.**  Worker crashes, aborted children, and
//!    injected cache faults must all be absorbed; the daemon process is
//!    still alive after the whole workload.
//! 2. **Every submission is answered exactly once.**  Each carried `id`
//!    gets exactly one response (`done`, `overloaded`, or `quarantined`) —
//!    zero dropped, zero duplicated.
//! 3. **No wrong verdicts.**  Every corpus job answered `done` must match
//!    the reference verdict and certificate digest computed in fresh
//!    `run-one-job` child processes before the daemon was spawned — chaos
//!    may cost availability, never correctness.
//! 4. **The breaker quarantines.**  A sequential wave of aborting jobs
//!    must trip the abort-shim circuit breaker into `quarantined`
//!    fast-fails within a bounded number of consecutive faults.
//! 5. **Clean drain.**  The protocol `shutdown` is acknowledged and the
//!    daemon exits 0.
//! 6. **Warm restart.**  A fresh, chaos-free daemon over the surviving
//!    (possibly torn) journal still serves only reference verdicts.
//!
//! Every random choice — the probe deck, the shuffle, the daemon's fault
//! schedule — derives from the one `--seed`, so a failing run replays
//! exactly.  With `--json`, an availability artifact (jobs answered / jobs
//! submitted, quarantine counts) is written for the trajectory record.

use crate::harness::{temp_path, verify_request, Client, Daemon};
use crate::isolate::{run_job_in_child, ChildRun};
use crate::json::Json;
use crate::{write_output, SCHEMA_VERSION};
use pathinv_core::CancellationToken;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Options for one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Seed for the probe deck, the shuffle, and the daemon's fault
    /// schedule.
    pub seed: u64,
    /// Where to write the availability artifact (`-` = stdout).
    pub json_path: Option<String>,
    /// Worker threads for the spawned daemon.
    pub workers: usize,
    /// Print per-phase progress.
    pub verbose: bool,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions { seed: 42, json_path: None, workers: 2, verbose: true }
    }
}

/// What the chaos pass observed; [`run_chaos`] returns it so `--bless` can
/// fold availability into the bench point's `supervision` section.
#[derive(Clone, Copy, Debug)]
pub struct ChaosStats {
    /// Verify submissions carrying an id.
    pub submitted: u64,
    /// Submissions answered exactly once (`done`/`overloaded`/`quarantined`).
    pub answered: u64,
    /// Submissions fast-failed by an open circuit breaker.
    pub quarantined: u64,
    /// Submissions rejected by admission control.
    pub overloaded: u64,
    /// Answered jobs whose task verdict was `error` (absorbed faults).
    pub faulted: u64,
}

impl ChaosStats {
    /// `answered / submitted`, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.answered as f64 / self.submitted as f64
    }
}

/// A deterministic splitmix-fed LCG; all harness randomness flows from it.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One line of the workload deck.
enum Probe {
    /// An honest corpus job: `(id, program name, source)`.
    Corpus(i64, String, String),
    /// A hostile job: `(id, engine, source, timeout_ms)`.
    Hostile(i64, &'static str, String, Option<u64>),
    /// A malformed protocol line (no id, must yield one protocol error).
    Malformed(&'static str),
}

/// The reference: verdict and certificate digest per corpus program under
/// the daemon's default engine, each computed in a fresh `run-one-job`
/// child — the exact path a `--isolate process` daemon worker takes —
/// before any daemon (or any chaos) exists.  A fresh process per job
/// keeps the reference independent of whatever incremental-cache state
/// the *calling* process has accumulated; `--bless` invokes the chaos
/// pass after several full corpus passes, and a warm cache can steer
/// CEGAR to a different (equally valid) invariant with a different
/// certificate digest.
fn reference_verdicts(
    corpus: &[(String, String)],
) -> Result<BTreeMap<String, (String, String)>, String> {
    let engine = crate::serve::engine_spec_named("cegar", None)?;
    let token = CancellationToken::new();
    let mut reference = BTreeMap::new();
    for (name, source) in corpus {
        match run_job_in_child(name, source, &engine, &token) {
            ChildRun::Done { task, verdict, .. } => {
                let digest =
                    task.get("cert_digest").and_then(Json::as_str).unwrap_or_default().to_string();
                reference.insert(name.clone(), (verdict, digest));
            }
            ChildRun::Killed => return Err(format!("reference run of {name} was killed")),
            ChildRun::Crashed { detail } => {
                return Err(format!("reference run of {name} crashed: {detail}"));
            }
        }
    }
    Ok(reference)
}

/// Builds the seed-shuffled workload deck: every corpus program once, plus
/// a batch of hostile probes, plus malformed lines.
fn build_deck(corpus: &[(String, String)], rng: &mut Rng) -> Vec<Probe> {
    // A two-variable program makes `flaky-shim` fault deterministically.
    const TWO_VAR: &str = "proc f(x: int, y: int) { x = 1; assert(x == 1); }";
    let mut deck = Vec::new();
    let mut id = 0;
    for (name, source) in corpus {
        deck.push(Probe::Corpus(id, name.clone(), source.clone()));
        id += 1;
    }
    let sample = corpus[0].1.clone();
    for _ in 0..12 {
        let probe = match rng.below(5) {
            0 => Probe::Hostile(id, "abort-shim", sample.clone(), None),
            1 => Probe::Hostile(id, "panic-shim", sample.clone(), None),
            2 => Probe::Hostile(id, "memhog-shim", sample.clone(), Some(400)),
            3 => Probe::Hostile(id, "spin-shim", sample.clone(), Some(250)),
            _ => Probe::Hostile(id, "flaky-shim", TWO_VAR.to_string(), None),
        };
        deck.push(probe);
        id += 1;
    }
    deck.push(Probe::Malformed("this is not json {"));
    deck.push(Probe::Malformed("{\"op\":\"verify\",\"id\":null}"));
    // Fisher–Yates off the same seed stream.
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
    deck
}

/// Runs the whole chaos scenario; returns the availability numbers.
///
/// # Errors
///
/// Returns a human-readable message on the first contract violation (a
/// dead daemon, a dropped or duplicated response, a wrong verdict, an
/// unclean drain); the caller exits 1.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosStats, String> {
    let corpus = crate::corpus_sources();
    let say = |msg: &str| {
        if opts.verbose {
            eprintln!("chaos-smoke: {msg}");
        }
    };

    say(&format!("computing reference verdicts for {} programs", corpus.len()));
    let reference = reference_verdicts(&corpus)?;

    let socket = temp_path("sock");
    let cache = temp_path("cache.journal");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let (cache_arg, workers) = (cache.display().to_string(), opts.workers.to_string());
    let chaos_flag = format!("seed={}", opts.seed);
    say(&format!("spawning daemon (seed {}, {} workers, process isolation)", opts.seed, workers));
    let mut daemon = Daemon::spawn(
        &exe,
        &socket,
        &[
            "--cache",
            &cache_arg,
            "--workers",
            &workers,
            "--isolate",
            "process",
            "--chaos",
            &chaos_flag,
            "--retries",
            "1",
            "--retry-backoff-ms",
            "20",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown-ms",
            "400",
        ],
    )?;

    let mut rng = Rng::new(opts.seed);
    let deck = build_deck(&corpus, &mut rng);
    let mut client = Client::connect(&socket)?;
    let mut expected_ids = Vec::new();
    let mut malformed = 0u64;
    for probe in &deck {
        match probe {
            Probe::Corpus(id, name, source) => {
                expected_ids.push(*id);
                client.send(&verify_request(*id, name, source, &[]))?;
            }
            Probe::Hostile(id, engine, source, timeout_ms) => {
                expected_ids.push(*id);
                let mut extra = vec![("engine", Json::Str(engine.to_string()))];
                extra.extend(timeout_ms.map(|ms| ("timeout_ms", Json::Int(ms as i64))));
                client.send(&verify_request(*id, &format!("probe-{id}"), source, &extra))?;
            }
            Probe::Malformed(line) => {
                malformed += 1;
                client.send(line)?;
            }
        }
    }
    say(&format!("submitted {} jobs + {malformed} malformed lines", expected_ids.len()));

    // Collect until every id answered and every malformed line rejected.
    let mut responses: BTreeMap<i64, Json> = BTreeMap::new();
    let mut protocol_errors = 0u64;
    let deadline = Instant::now() + Duration::from_secs(240);
    while responses.len() < expected_ids.len() || protocol_errors < malformed {
        if Instant::now() > deadline {
            return Err(format!(
                "timed out: {} of {} jobs answered, {protocol_errors} of {malformed} malformed \
                 lines rejected",
                responses.len(),
                expected_ids.len()
            ));
        }
        let response = client.recv()?;
        match response.get("id").and_then(Json::as_int) {
            Some(id) => {
                if responses.insert(id, response).is_some() {
                    return Err(format!("id {id} answered more than once"));
                }
            }
            None => {
                if response.get("status").and_then(Json::as_str) != Some("error") {
                    return Err(format!("unexpected id-less response: {response:?}"));
                }
                protocol_errors += 1;
            }
        }
    }

    // 1. The daemon is still alive after the whole workload.
    if let Ok(status) = daemon.wait_exit(Duration::ZERO) {
        return Err(format!("the daemon died under chaos: {status:?}"));
    }

    // 2 + 3. Exactly-once accounting and verdict correctness.
    let mut stats = ChaosStats {
        submitted: expected_ids.len() as u64,
        answered: 0,
        quarantined: 0,
        overloaded: 0,
        faulted: 0,
    };
    let id_of = |probe: &Probe| match probe {
        Probe::Corpus(id, _, _) | Probe::Hostile(id, _, _, _) => Some(*id),
        Probe::Malformed(_) => None,
    };
    for probe in &deck {
        let Some(id) = id_of(probe) else { continue };
        let response = responses.get(&id).ok_or_else(|| format!("id {id} was never answered"))?;
        let status = response.get("status").and_then(Json::as_str).unwrap_or("?");
        match status {
            "done" => {}
            "quarantined" => {
                stats.answered += 1;
                stats.quarantined += 1;
                continue;
            }
            "overloaded" => {
                stats.answered += 1;
                stats.overloaded += 1;
                continue;
            }
            other => return Err(format!("id {id}: unexpected status `{other}`")),
        }
        stats.answered += 1;
        let task = response.get("task").ok_or_else(|| format!("id {id}: done without task"))?;
        let verdict = task.get("verdict").and_then(Json::as_str).unwrap_or("?");
        if verdict == "error" {
            stats.faulted += 1;
        }
        if let Probe::Corpus(_, name, _) = probe {
            let (ref_verdict, ref_digest) =
                reference.get(name).ok_or_else(|| format!("no reference for {name}"))?;
            let digest = task.get("cert_digest").and_then(Json::as_str).unwrap_or_default();
            if verdict != ref_verdict || digest != ref_digest {
                return Err(format!(
                    "WRONG VERDICT under chaos: {name} answered {verdict}/{digest}, reference \
                     {ref_verdict}/{ref_digest}"
                ));
            }
        }
    }
    say(&format!(
        "all {} jobs answered exactly once ({} quarantined, {} overloaded, {} faults absorbed); \
         verdict parity OK",
        stats.answered, stats.quarantined, stats.overloaded, stats.faulted
    ));

    // Breaker wave: the batched deck is admitted before any breaker can
    // trip, so drive abort-shim *sequentially* until its circuit opens —
    // a `quarantined` fast-fail must arrive within a bounded number of
    // consecutive faults, whatever breaker state the deck left behind.
    let mut wave_quarantined = 0u64;
    let abort_shim = [("engine", Json::Str("abort-shim".to_string()))];
    for wave in 0..8i64 {
        let id = 1_000 + wave;
        stats.submitted += 1;
        client.send(&verify_request(
            id,
            &format!("breaker-wave-{wave}"),
            &corpus[0].1,
            &abort_shim,
        ))?;
        let response = client.recv()?;
        if response.get("id").and_then(Json::as_int) != Some(id) {
            return Err(format!("breaker wave: response for the wrong id: {response:?}"));
        }
        stats.answered += 1;
        match response.get("status").and_then(Json::as_str) {
            Some("done") => {}
            Some("quarantined") => {
                stats.quarantined += 1;
                wave_quarantined += 1;
                if wave_quarantined >= 2 {
                    break;
                }
            }
            other => return Err(format!("breaker wave: unexpected status {other:?}")),
        }
    }
    if wave_quarantined == 0 {
        return Err("the abort-shim breaker never quarantined under sequential faults".to_string());
    }
    say(&format!("breaker wave: abort-shim quarantined after repeated faults ({wave_quarantined} fast-fails)"));

    // Supervision visibility: the extended stats must be served under load.
    client.send("{\"op\":\"stats\",\"id\":999999}")?;
    let daemon_stats = client.recv()?;
    if daemon_stats.get("status").and_then(Json::as_str) != Some("stats") {
        return Err(format!("expected a stats response, got {daemon_stats:?}"));
    }
    let respawned = daemon_stats
        .get("workers_respawned")
        .and_then(Json::as_int)
        .ok_or("stats response is missing workers_respawned")?;
    say(&format!("daemon stats: {respawned} workers respawned under chaos"));

    // 4. Clean protocol drain.
    client.send("{\"op\":\"shutdown\"}")?;
    let ack = client.recv()?;
    if ack.get("status").and_then(Json::as_str) != Some("shutdown") {
        return Err(format!("expected a shutdown acknowledgement, got {ack:?}"));
    }
    drop(client);
    let exit = daemon.wait_exit(Duration::from_secs(60))?;
    if exit.code() != Some(0) {
        return Err(format!("chaos drain must exit 0, got {exit:?}"));
    }
    say("drain: acknowledged, exit 0");

    // 5. Warm restart, chaos off, over the (possibly torn) journal.
    let socket2 = temp_path("sock2");
    let daemon2 = Daemon::spawn(&exe, &socket2, &["--cache", &cache_arg, "--workers", &workers])?;
    let mut client2 = Client::connect(&socket2)?;
    for (i, (name, source)) in corpus.iter().enumerate() {
        client2.send(&verify_request(i as i64, name, source, &[]))?;
    }
    let mut seen = 0;
    while seen < corpus.len() {
        let response = client2.recv()?;
        if response.get("status").and_then(Json::as_str) != Some("done") {
            return Err(format!("restart pass: unexpected response {response:?}"));
        }
        let task = response.get("task").ok_or("restart pass: done without task")?;
        let name = task.get("program").and_then(Json::as_str).unwrap_or_default();
        let verdict = task.get("verdict").and_then(Json::as_str).unwrap_or("?");
        let digest = task.get("cert_digest").and_then(Json::as_str).unwrap_or_default();
        let (ref_verdict, ref_digest) =
            reference.get(name).ok_or_else(|| format!("restart pass: no reference for {name}"))?;
        if verdict != ref_verdict || digest != ref_digest {
            return Err(format!(
                "restart pass: {name} answered {verdict}/{digest}, reference \
                 {ref_verdict}/{ref_digest}"
            ));
        }
        seen += 1;
    }
    drop(daemon2);
    say(&format!("warm restart over the surviving journal: all {seen} verdicts match"));

    if let Some(path) = &opts.json_path {
        let report = Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("mode", Json::Str("chaos-smoke".to_string())),
            ("seed", Json::Int(opts.seed as i64)),
            ("submitted", Json::Int(stats.submitted as i64)),
            ("answered", Json::Int(stats.answered as i64)),
            ("quarantined", Json::Int(stats.quarantined as i64)),
            ("overloaded", Json::Int(stats.overloaded as i64)),
            ("faults_absorbed", Json::Int(stats.faulted as i64)),
            ("workers_respawned", Json::Int(respawned)),
            ("availability", Json::Float((stats.availability() * 1e4).round() / 1e4)),
        ]);
        write_output(path, &report.pretty())?;
        say(&format!("availability artifact written to {path}"));
    }

    std::fs::remove_file(&cache).ok();
    Ok(stats)
}
