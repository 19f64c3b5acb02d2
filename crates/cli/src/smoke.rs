//! `pathinv-cli serve-smoke` — the end-to-end service smoke harness.
//!
//! Spawns the *real* `pathinv-cli serve` binary on a Unix socket and drives
//! the whole robustness story from the outside, exactly as the `serve-smoke`
//! CI job does:
//!
//! 1. **Cold pass** — submits the 16-program source corpus
//!    ([`crate::corpus_sources`]) and requires every response uncached, with
//!    a malformed protocol line and a panicking (`panic-shim`) job injected
//!    mid-stream to prove one hostile client request cannot derail the rest.
//! 2. **Warm pass** — resubmits the corpus on a new connection and requires
//!    every verdict served from the persistent cache (`cached: true`) with
//!    byte-identical verdict and certificate digest.
//! 3. **SIGTERM drain** — terminates the daemon and requires a clean exit 0.
//! 4. **Warm restart** — starts a *fresh* daemon over the same journal and
//!    requires the cache to have survived the restart, then shuts it down
//!    over the protocol and checks the drain acknowledgement.
//!
//! Any deviation is a hard error (exit 1).  With `--json`, a small benchmark
//! artifact records the warm-vs-cold throughput for the trajectory record.
//!
//! This is the *gentle* end-to-end harness: every injected fault here is one
//! the in-thread isolation mode can absorb.  Its hostile sibling is
//! [`crate::chaos`] (`pathinv-cli chaos-smoke`), which spawns the daemon
//! under `--isolate process` with a seeded `--chaos` fault schedule and adds
//! aborting/memory-hogging engines, breaker quarantine, and torn cache
//! writes to the story.

use crate::harness::{temp_path, verify_request, Client, Daemon};
use crate::json::Json;
use crate::{write_output, SCHEMA_VERSION};
use std::time::{Duration, Instant};

/// Options for one smoke run.
#[derive(Clone, Debug)]
pub struct SmokeOptions {
    /// Where to write the benchmark artifact (`-` = stdout).
    pub json_path: Option<String>,
    /// Worker threads for the spawned daemon.
    pub workers: usize,
    /// Print per-phase progress.
    pub verbose: bool,
}

impl Default for SmokeOptions {
    fn default() -> SmokeOptions {
        SmokeOptions { json_path: None, workers: 4, verbose: true }
    }
}

/// One corpus submission pass; returns `(wall_ms, tasks by program name)`.
fn run_pass(
    client: &mut Client,
    corpus: &[(String, String)],
    expect_cached: bool,
    label: &str,
) -> Result<(f64, Vec<(String, Json)>), String> {
    let start = Instant::now();
    for (i, (name, source)) in corpus.iter().enumerate() {
        client.send(&verify_request(i as i64, name, source, &[]))?;
    }
    let (done, other) = client.recv_done(corpus.len())?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    if !other.is_empty() {
        return Err(format!("{label}: unexpected non-result responses: {other:?}"));
    }
    let mut tasks = Vec::with_capacity(done.len());
    for response in &done {
        let cached = response.get("cached") == Some(&Json::Bool(true));
        let task = response.get("task").ok_or_else(|| format!("{label}: result without task"))?;
        let name = task
            .get("program")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: task without program name"))?;
        if cached != expect_cached {
            return Err(format!(
                "{label}: {name} came back cached={cached}, expected cached={expect_cached}"
            ));
        }
        tasks.push((name.to_string(), task.clone()));
    }
    tasks.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((wall_ms, tasks))
}

/// Verdict-parity hard check between two passes: verdict and certificate
/// digest must be byte-identical per program.
fn check_parity(cold: &[(String, Json)], warm: &[(String, Json)], label: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for ((name_a, task_a), (name_b, task_b)) in cold.iter().zip(warm) {
        if name_a != name_b {
            failures.push(format!("{label}: program sets differ: {name_a} vs {name_b}"));
            continue;
        }
        for field in ["verdict", "cert_digest", "cert_kind"] {
            let a = task_a.get(field).and_then(Json::as_str).unwrap_or_default();
            let b = task_b.get(field).and_then(Json::as_str).unwrap_or_default();
            if a != b {
                failures.push(format!("{label}: {name_a}.{field}: `{a}` vs `{b}`"));
            }
        }
    }
    failures
}

/// Runs the whole smoke scenario.
///
/// # Errors
///
/// Returns a human-readable message on the first contract violation; the
/// caller exits 1.
pub fn run_serve_smoke(opts: &SmokeOptions) -> Result<(), String> {
    let corpus = crate::corpus_sources();
    let socket = temp_path("sock");
    let cache = temp_path("cache.journal");
    let say = |msg: &str| {
        if opts.verbose {
            eprintln!("serve-smoke: {msg}");
        }
    };

    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let (cache_arg, workers) = (cache.display().to_string(), opts.workers.to_string());
    let serve_args = ["--cache", &cache_arg, "--workers", &workers];

    say(&format!("spawning daemon ({workers} workers, cache {cache_arg})"));
    let mut daemon = Daemon::spawn(&exe, &socket, &serve_args)?;
    let mut client = Client::connect(&socket)?;

    // --- Cold pass, with hostile requests injected mid-stream. -----------
    say(&format!("cold pass: {} programs", corpus.len()));
    let (mid, rest) = corpus.split_at(corpus.len() / 2);
    let cold_start = Instant::now();
    for (i, (name, source)) in mid.iter().enumerate() {
        client.send(&verify_request(i as i64, name, source, &[]))?;
    }
    // A malformed line mid-stream must produce exactly one error response...
    client.send("this is not json {")?;
    // ...and a panicking engine job must come back as an errored *task*.
    // Its id is a string, because the protocol echoes any JSON id.
    client.send(
        &Json::object(vec![
            ("op", Json::Str("verify".to_string())),
            ("id", Json::Str("panic-probe".to_string())),
            ("name", Json::Str("panic-probe".to_string())),
            ("program", Json::Str(corpus[0].1.clone())),
            ("engine", Json::Str("panic-shim".to_string())),
        ])
        .compact(),
    )?;
    for (i, (name, source)) in rest.iter().enumerate() {
        client.send(&verify_request((mid.len() + i) as i64, name, source, &[]))?;
    }
    let (done, other) = client.recv_done(corpus.len() + 1)?;
    let cold_ms = cold_start.elapsed().as_secs_f64() * 1e3;
    let malformed_errors =
        other.iter().filter(|r| r.get("status").and_then(Json::as_str) == Some("error")).count();
    if malformed_errors != 1 {
        return Err(format!(
            "cold pass: expected exactly 1 protocol error for the malformed line, got \
             {malformed_errors} ({other:?})"
        ));
    }
    let mut cold_tasks = Vec::new();
    let mut panic_ok = false;
    for response in &done {
        let task = response.get("task").ok_or("cold pass: result without task")?;
        let name = task.get("program").and_then(Json::as_str).unwrap_or_default().to_string();
        if name == "panic-probe" {
            let verdict = task.get("verdict").and_then(Json::as_str).unwrap_or_default();
            let detail = task.get("detail").and_then(Json::as_str).unwrap_or_default();
            if verdict != "error" || !detail.contains("panicked") {
                return Err(format!(
                    "panic-shim job must yield an errored task, got {verdict}: {detail}"
                ));
            }
            panic_ok = true;
            continue;
        }
        if response.get("cached") == Some(&Json::Bool(true)) {
            return Err(format!("cold pass: {name} unexpectedly served from cache"));
        }
        cold_tasks.push((name, task.clone()));
    }
    if !panic_ok {
        return Err("cold pass: the panic-shim probe never came back".to_string());
    }
    cold_tasks.sort_by(|a, b| a.0.cmp(&b.0));
    say(&format!("cold pass done in {cold_ms:.0} ms; panic + malformed probes absorbed"));

    // --- Warm pass on a fresh connection. ---------------------------------
    let mut client2 = Client::connect(&socket)?;
    let (warm_ms, warm_tasks) = run_pass(&mut client2, &corpus, true, "warm pass")?;
    let parity = check_parity(&cold_tasks, &warm_tasks, "warm parity");
    if !parity.is_empty() {
        return Err(format!("verdict parity violated:\n  {}", parity.join("\n  ")));
    }
    say(&format!("warm pass done in {warm_ms:.0} ms, all {} hits, parity OK", corpus.len()));

    // --- Clean SIGTERM drain. ---------------------------------------------
    daemon.sigterm()?;
    let exit = daemon.wait_exit(Duration::from_secs(30))?;
    if exit.code() != Some(0) {
        return Err(format!("SIGTERM drain must exit 0, got {exit:?}"));
    }
    say("SIGTERM drain: exit 0");

    // --- Warm restart over the surviving journal. -------------------------
    let socket2 = temp_path("sock2");
    let mut daemon2 = Daemon::spawn(&exe, &socket2, &serve_args)?;
    let mut client3 = Client::connect(&socket2)?;
    let (restart_ms, restart_tasks) = run_pass(&mut client3, &corpus, true, "restart pass")?;
    let parity = check_parity(&cold_tasks, &restart_tasks, "restart parity");
    if !parity.is_empty() {
        return Err(format!("restart parity violated:\n  {}", parity.join("\n  ")));
    }
    say(&format!("restart pass done in {restart_ms:.0} ms from the recovered journal"));

    // --- Protocol shutdown with drain acknowledgement. --------------------
    client3.send("{\"op\":\"shutdown\"}")?;
    let ack = client3.recv()?;
    if ack.get("status").and_then(Json::as_str) != Some("shutdown") {
        return Err(format!("expected a shutdown acknowledgement, got {ack:?}"));
    }
    drop(client3);
    // The Drop impl would kill -9; reap the clean exit explicitly.
    let exit = daemon2.wait_exit(Duration::from_secs(30))?;
    if exit.code() != Some(0) {
        return Err(format!("protocol shutdown must exit 0, got {exit:?}"));
    }
    say("protocol shutdown: acknowledged, exit 0");

    if let Some(path) = &opts.json_path {
        let report = Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("mode", Json::Str("serve-smoke".to_string())),
            ("programs", Json::Int(corpus.len() as i64)),
            ("cold_ms", Json::Float(round1(cold_ms))),
            ("warm_ms", Json::Float(round1(warm_ms))),
            ("warm_restart_ms", Json::Float(round1(restart_ms))),
            ("warm_speedup", Json::Float(round1(cold_ms / warm_ms.max(0.001)))),
            ("parity_ok", Json::Bool(true)),
        ]);
        write_output(path, &report.pretty())?;
        say(&format!("benchmark artifact written to {path}"));
    }

    std::fs::remove_file(&cache).ok();
    Ok(())
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}
