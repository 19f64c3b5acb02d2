//! Fault-injection integration tests for the service daemon, driving the
//! *real* `pathinv-cli` binary over its Unix socket and stdin front ends:
//! panicking jobs, overdue jobs, malformed protocol lines, corrupted cache
//! journals, warm restarts, and mid-job SIGTERM drains.  Each scenario
//! asserts the robustness contract of DESIGN.md §14 from the outside — the
//! daemon must never die, never hang, and never serve a wrong verdict.

use pathinv_cli::harness::{temp_path, verify_request, Client, Daemon};
use pathinv_cli::json::{self, Json};
use pathinv_cli::{run_batch, BatchTask, TaskEngine};
use pathinv_core::FaultShim;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_pathinv-cli");
const SAFE_SRC: &str = "proc ok(x: int) { x = 1; assert(x == 1); }";
const BUG_SRC: &str = "proc bug(x: int) { x = 1; assert(x == 2); }";

/// The `engine` field routing a request to fault-injection shim `name`.
fn engine(name: &str) -> (&'static str, Json) {
    ("engine", Json::Str(name.to_string()))
}

fn task_field<'j>(response: &'j Json, key: &str) -> &'j str {
    response.get("task").and_then(|t| t.get(key)).and_then(Json::as_str).unwrap_or_default()
}

/// A panicking engine job yields an errored *task* — and the daemon keeps
/// serving correct verdicts on the same connection afterwards.
#[test]
fn panicking_job_is_isolated_and_the_daemon_keeps_serving() {
    let socket = temp_path("panic.sock");
    let _daemon = Daemon::spawn(CLI, &socket, &[]).expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    client.send(&verify_request(1, "boom", SAFE_SRC, &[engine("panic-shim")])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("done"), "{r:?}");
    assert_eq!(task_field(&r, "verdict"), "error", "{r:?}");
    assert!(task_field(&r, "detail").contains("panicked"), "{r:?}");

    client.send(&verify_request(2, "after", BUG_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "unsafe", "daemon must survive the panic: {r:?}");
}

/// An overdue job (the divergent spin shim under a 300 ms deadline) comes
/// back `cancelled` well before twice its deadline.
#[test]
fn overdue_job_cancels_within_twice_its_deadline() {
    let socket = temp_path("deadline.sock");
    let _daemon = Daemon::spawn(CLI, &socket, &[]).expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    let start = Instant::now();
    let spin = [engine("spin-shim"), ("timeout_ms", Json::Int(300))];
    client.send(&verify_request(1, "spin", SAFE_SRC, &spin)).expect("send");
    let r = client.recv().expect("recv");
    let elapsed = start.elapsed();
    assert_eq!(task_field(&r, "verdict"), "cancelled", "{r:?}");
    assert!(task_field(&r, "detail").contains("deadline of 300 ms"), "{r:?}");
    assert!(elapsed < Duration::from_millis(2500), "cancel took {elapsed:?}, deadline was 300 ms");
}

/// Malformed protocol lines produce one `error` response each; the stream —
/// and the daemon — keep going.
#[test]
fn malformed_lines_error_and_the_stream_continues() {
    let socket = temp_path("malformed.sock");
    let _daemon = Daemon::spawn(CLI, &socket, &[]).expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    for hostile in ["not json at all", "{\"op\":\"no-such-op\"}", "{\"op\":\"verify\"}", "[1,2]"] {
        client.send(hostile).expect("send");
        let r = client.recv().expect("recv");
        assert_eq!(r.get("status").and_then(Json::as_str), Some("error"), "{hostile} -> {r:?}");
    }
    client.send("{\"op\":\"ping\"}").expect("send");
    assert_eq!(client.recv().expect("recv").get("status").and_then(Json::as_str), Some("pong"));
}

/// A corrupted journal tail is truncated on recovery: the intact prefix
/// still serves cache hits, the corrupted-away entries are recomputed, and
/// every verdict stays correct.  The daemon must not crash, hang, or serve
/// garbage off a half-written record — the crash-recovery contract.
#[test]
fn corrupted_journal_recovers_and_verdicts_stay_correct() {
    let socket = temp_path("corrupt.sock");
    let cache = temp_path("corrupt.journal");
    let cache_arg = cache.display().to_string();
    {
        let mut daemon =
            Daemon::spawn(CLI, &socket, &["--cache", &cache_arg]).expect("daemon must spawn");
        let mut client = Client::connect(&socket).expect("connect");
        client.send(&verify_request(1, "first", SAFE_SRC, &[])).expect("send");
        let r = client.recv().expect("recv");
        assert_eq!(task_field(&r, "verdict"), "safe", "{r:?}");
        client.send(&verify_request(2, "second", BUG_SRC, &[])).expect("send");
        let r = client.recv().expect("recv");
        assert_eq!(task_field(&r, "verdict"), "unsafe", "{r:?}");
        client.send("{\"op\":\"shutdown\"}").expect("send");
        let ack = client.recv().expect("recv");
        assert_eq!(ack.get("status").and_then(Json::as_str), Some("shutdown"), "{ack:?}");
        let exit = daemon.wait_exit(Duration::from_secs(30)).expect("daemon exits");
        assert_eq!(exit.code(), Some(0));
    }

    // Flip one byte inside the *last* record's checksum, simulating a torn
    // write; the first record must survive recovery.
    let mut journal = std::fs::read(&cache).expect("journal exists");
    let last_line_start =
        journal[..journal.len() - 1].iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    journal[last_line_start] = journal[last_line_start].wrapping_add(1);
    std::fs::write(&cache, &journal).expect("journal rewritten");

    let socket2 = temp_path("corrupt2.sock");
    let _daemon =
        Daemon::spawn(CLI, &socket2, &["--cache", &cache_arg]).expect("daemon must spawn");
    let mut client = Client::connect(&socket2).expect("connect");
    client.send(&verify_request(3, "first", SAFE_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "safe", "{r:?}");
    assert_eq!(r.get("cached"), Some(&Json::Bool(true)), "intact prefix must hit: {r:?}");
    client.send(&verify_request(4, "second", BUG_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "unsafe", "recomputed verdict must be right: {r:?}");
    assert_eq!(r.get("cached"), Some(&Json::Bool(false)), "corrupted entry must recompute: {r:?}");
    std::fs::remove_file(&cache).ok();
}

/// SIGTERM mid-job: the in-flight divergent job is cancelled with an honest
/// result line, the connection drains, and the daemon exits 0.
#[test]
fn sigterm_mid_job_drains_with_exit_zero() {
    let socket = temp_path("sigterm.sock");
    let mut daemon = Daemon::spawn(CLI, &socket, &[]).expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    client
        .send(&verify_request(1, "spin-forever", SAFE_SRC, &[engine("spin-shim")]))
        .expect("send");
    // Give the worker a moment to pick the job up, then terminate mid-job.
    std::thread::sleep(Duration::from_millis(300));
    daemon.sigterm().expect("SIGTERM");
    let responses = client.recv_until_eof().expect("recv until EOF");
    let cancelled = responses.iter().any(|r| task_field(r, "verdict") == "cancelled");
    assert!(cancelled, "the in-flight job must get an honest cancelled line: {responses:?}");
    let exit = daemon.wait_exit(Duration::from_secs(30)).expect("daemon exits");
    assert_eq!(exit.code(), Some(0), "SIGTERM drain must exit 0, got {exit:?}");
}

/// The stdin front end round-trips the same protocol and EOF drains: pipe a
/// ping, a verify, and a shutdown through the binary and check the stream.
#[test]
fn stdin_mode_round_trips_and_protocol_shutdown_acks() {
    let input = format!(
        "{}\n{}\n{}\n",
        "{\"op\":\"ping\"}",
        verify_request(1, "via-stdin", BUG_SRC, &[]),
        "{\"op\":\"shutdown\"}"
    );
    let mut child = Command::new(CLI)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon must spawn");
    child.stdin.take().expect("stdin").write_all(input.as_bytes()).expect("write stdin");
    let out = child.wait_with_output().expect("daemon exits");
    assert_eq!(out.status.code(), Some(0), "stdin mode must exit 0");
    let lines: Vec<Json> = String::from_utf8(out.stdout)
        .expect("stdout is UTF-8")
        .lines()
        .map(|l| json::parse(l).expect(l))
        .collect();
    let status_of = |i: usize| lines[i].get("status").and_then(Json::as_str).unwrap_or_default();
    assert_eq!(lines.len(), 3, "{lines:?}");
    assert_eq!(status_of(0), "pong");
    assert_eq!(status_of(1), "done");
    assert_eq!(task_field(&lines[1], "verdict"), "unsafe");
    assert_eq!(status_of(2), "shutdown");
}

/// Batch-side panic isolation: a panicking engine task in a batch reports
/// `error` without taking down the other tasks in the same run.
#[test]
fn batch_panicking_task_errors_without_killing_the_batch() {
    let program = pathinv_ir::parse_program(SAFE_SRC).expect("program parses");
    let tasks = vec![
        BatchTask {
            program_name: "boom".to_string(),
            engine: TaskEngine::Fault(FaultShim::Panic),
            program: program.clone(),
            certify: false,
            timeout_ms: None,
        },
        BatchTask {
            program_name: "fine".to_string(),
            engine: TaskEngine::Cegar(pathinv_core::CegarConfig::path_invariants()),
            program,
            certify: false,
            timeout_ms: None,
        },
    ];
    let report = run_batch(tasks, 2);
    assert_eq!(report.tasks.len(), 2);
    let boom = report.tasks.iter().find(|t| t.program_name == "boom").expect("boom task");
    assert_eq!(boom.verdict, "error", "{}", boom.detail);
    assert!(boom.detail.contains("panicked"), "{}", boom.detail);
    let fine = report.tasks.iter().find(|t| t.program_name == "fine").expect("fine task");
    assert_eq!(fine.verdict, "safe", "{}", fine.detail);
}

/// Batch-side `--timeout-ms`: an overdue task reports the honest
/// `cancelled` verdict; a generous deadline changes nothing.
#[test]
fn batch_timeout_cancels_overdue_tasks_and_spares_quick_ones() {
    let program = pathinv_ir::parse_program(SAFE_SRC).expect("program parses");
    let tasks = vec![
        BatchTask {
            program_name: "spin".to_string(),
            engine: TaskEngine::Fault(FaultShim::Spin),
            program: program.clone(),
            certify: false,
            timeout_ms: Some(200),
        },
        BatchTask {
            program_name: "quick".to_string(),
            engine: TaskEngine::Cegar(pathinv_core::CegarConfig::path_invariants()),
            program,
            certify: false,
            timeout_ms: Some(60_000),
        },
    ];
    let start = Instant::now();
    let report = run_batch(tasks, 2);
    assert!(start.elapsed() < Duration::from_secs(30), "the spin task must not hang the batch");
    let spin = report.tasks.iter().find(|t| t.program_name == "spin").expect("spin task");
    assert_eq!(spin.verdict, "cancelled", "{}", spin.detail);
    let quick = report.tasks.iter().find(|t| t.program_name == "quick").expect("quick task");
    assert_eq!(quick.verdict, "safe", "{}", quick.detail);
}

/// Flag validation: bad `--timeout-ms` values and bad `serve` flags are
/// usage errors (exit 2), never a silent default.
#[test]
fn cli_flag_validation_exits_two() {
    for (args, first_line) in [
        (&["--timeout-ms", "0", "x.pinv"][..], "error: --timeout-ms must be at least 1"),
        (&["--timeout-ms", "nope", "x.pinv"], "error: bad --timeout-ms `nope`"),
        (&["serve", "--bogus"], "error: unknown serve option `--bogus`"),
        (&["serve", "--workers", "0"], "error: --workers must be at least 1"),
    ] {
        let out = Command::new(CLI).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next().unwrap_or_default(), first_line, "{args:?}");
    }
}

/// Acceptance criterion (a): an *aborting* engine under `--isolate process`
/// yields an `error` task line — thread-level catch_unwind could never
/// absorb an abort — and the daemon keeps serving correct verdicts.
#[test]
fn aborting_engine_under_process_isolation_is_contained() {
    let socket = temp_path("abort.sock");
    let _daemon = Daemon::spawn(CLI, &socket, &["--isolate", "process", "--retries", "0"])
        .expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    client.send(&verify_request(1, "hard-crash", SAFE_SRC, &[engine("abort-shim")])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("done"), "{r:?}");
    assert_eq!(task_field(&r, "verdict"), "error", "{r:?}");
    assert!(
        task_field(&r, "detail").contains("signal"),
        "the abort must be reported as a child death, got: {r:?}"
    );
    // The daemon — not just the worker — survived: a normal job still runs,
    // in its own child process, and reports the right verdict.
    client.send(&verify_request(2, "after", BUG_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "unsafe", "daemon must survive the abort: {r:?}");
    client.send(&verify_request(3, "after-safe", SAFE_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "safe", "{r:?}");
}

/// Acceptance criterion (b): repeated faults trip the engine's circuit
/// breaker (status `quarantined` while open, other engines unaffected), and
/// after the cooldown a half-open probe is admitted and recovers the
/// engine — all through the real binary.
#[test]
fn breaker_quarantines_a_faulting_engine_and_recovers_after_cooldown() {
    const TWO_VAR: &str = "proc f(x: int, y: int) { x = 1; assert(x == 1); }";
    const ONE_VAR: &str = "proc f(x: int) { x = 1; assert(x == 1); }";
    let socket = temp_path("breaker.sock");
    let _daemon = Daemon::spawn(
        CLI,
        &socket,
        &["--retries", "0", "--breaker-threshold", "2", "--breaker-cooldown-ms", "600"],
    )
    .expect("daemon must spawn");
    let mut client = Client::connect(&socket).expect("connect");
    let flaky = [engine("flaky-shim")];
    // flaky-shim faults deterministically on two-variable programs: two
    // consecutive faults trip the breaker.
    for id in 1..=2 {
        client.send(&verify_request(id, "fault", TWO_VAR, &flaky)).expect("send");
        let r = client.recv().expect("recv");
        assert_eq!(task_field(&r, "verdict"), "error", "{r:?}");
    }
    // Open: even a would-succeed submission is fast-failed.
    client.send(&verify_request(3, "quarantine-probe", ONE_VAR, &flaky)).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("quarantined"), "{r:?}");
    assert_eq!(r.get("engine").and_then(Json::as_str), Some("flaky-shim"), "{r:?}");
    assert!(r.get("retry_after_ms").and_then(Json::as_int).is_some(), "{r:?}");
    // Other engines are not quarantined by flaky-shim's breaker.
    client.send(&verify_request(4, "bystander", BUG_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(task_field(&r, "verdict"), "unsafe", "{r:?}");
    // After the cooldown the half-open probe is admitted; its success
    // closes the breaker and the engine serves normally again.
    std::thread::sleep(Duration::from_millis(800));
    client.send(&verify_request(5, "recovery-probe", ONE_VAR, &flaky)).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("done"), "{r:?}");
    assert_eq!(task_field(&r, "verdict"), "unknown", "{r:?}");
    client.send(&verify_request(6, "recovered", ONE_VAR, &flaky)).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("status").and_then(Json::as_str), Some("done"), "closed again: {r:?}");
}

/// Acceptance criterion (c): a journal full of superseded records is
/// compacted by the daemon (tiny `--cache-compact-bytes`), the daemon is
/// then killed with SIGKILL — no drain, no fsync courtesy — and a fresh
/// daemon over the compacted journal serves byte-identical warm verdicts.
#[test]
fn compacted_journal_survives_a_sigkill_crash_with_identical_warm_verdicts() {
    let socket = temp_path("compact.sock");
    let cache = temp_path("compact.journal");
    let cache_arg = cache.display().to_string();
    // Phase 1: capture the cold verdicts through a daemon, clean shutdown.
    let (cold_safe, cold_bug);
    {
        let mut daemon =
            Daemon::spawn(CLI, &socket, &["--cache", &cache_arg]).expect("daemon must spawn");
        let mut client = Client::connect(&socket).expect("connect");
        client.send(&verify_request(1, "first", SAFE_SRC, &[])).expect("send");
        let r = client.recv().expect("recv");
        cold_safe =
            (task_field(&r, "verdict").to_string(), task_field(&r, "cert_digest").to_string());
        client.send(&verify_request(2, "second", BUG_SRC, &[])).expect("send");
        let r = client.recv().expect("recv");
        cold_bug =
            (task_field(&r, "verdict").to_string(), task_field(&r, "cert_digest").to_string());
        client.send("{\"op\":\"shutdown\"}").expect("send");
        client.recv().expect("recv");
        let exit = daemon.wait_exit(Duration::from_secs(30)).expect("daemon exits");
        assert_eq!(exit.code(), Some(0));
    }
    // Bloat the journal with superseded records so the daemon's next insert
    // crosses both compaction triggers (size + half-dead).
    {
        let mut bloat = pathinv_cli::cache::VerdictCache::open(&cache);
        assert!(bloat.warnings.is_empty(), "{:?}", bloat.warnings);
        for i in 0..30 {
            bloat.insert(
                "dummy-superseded-key",
                Json::object(vec![
                    ("engine", Json::Str("cegar".to_string())),
                    ("verdict", Json::Str("unknown".to_string())),
                    ("iteration", Json::Int(i)),
                ]),
            );
        }
    }
    let bloated_lines = std::fs::read_to_string(&cache).expect("journal exists").lines().count();
    assert!(bloated_lines > 30, "the bloat must be on disk ({bloated_lines} lines)");
    // Phase 2: a daemon with a tiny compaction threshold; its first
    // cacheable insert compacts the journal.  Then SIGKILL — a real crash.
    let socket2 = temp_path("compact2.sock");
    {
        let daemon =
            Daemon::spawn(CLI, &socket2, &["--cache", &cache_arg, "--cache-compact-bytes", "64"])
                .expect("daemon must spawn");
        let mut client = Client::connect(&socket2).expect("connect");
        client
            .send(&verify_request(3, "third", "proc third(x: int) { x = 3; assert(x == 3); }", &[]))
            .expect("send");
        let r = client.recv().expect("recv");
        assert_eq!(r.get("status").and_then(Json::as_str), Some("done"), "{r:?}");
        drop(daemon); // the Drop impl sends SIGKILL
    }
    let compacted_lines = std::fs::read_to_string(&cache).expect("journal exists").lines().count();
    assert!(
        compacted_lines <= 6,
        "compaction must have rewritten the journal to live records only \
         ({bloated_lines} lines before, {compacted_lines} after)"
    );
    // Phase 3: a fresh daemon over the crashed-but-compacted journal must
    // serve the original verdicts warm and byte-identical.
    let socket3 = temp_path("compact3.sock");
    let _daemon =
        Daemon::spawn(CLI, &socket3, &["--cache", &cache_arg]).expect("daemon must spawn");
    let mut client = Client::connect(&socket3).expect("connect");
    client.send(&verify_request(4, "first", SAFE_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("cached"), Some(&Json::Bool(true)), "must replay warm: {r:?}");
    assert_eq!(
        (task_field(&r, "verdict").to_string(), task_field(&r, "cert_digest").to_string()),
        cold_safe,
        "{r:?}"
    );
    client.send(&verify_request(5, "second", BUG_SRC, &[])).expect("send");
    let r = client.recv().expect("recv");
    assert_eq!(r.get("cached"), Some(&Json::Bool(true)), "must replay warm: {r:?}");
    assert_eq!(
        (task_field(&r, "verdict").to_string(), task_field(&r, "cert_digest").to_string()),
        cold_bug,
        "{r:?}"
    );
    std::fs::remove_file(&cache).ok();
}

/// Satellite: many simultaneous connections past `--queue` each get exactly
/// one response — the excess `overloaded`, the admitted ones eventually
/// `done` — with zero dropped and zero duplicated replies.
#[test]
fn concurrent_clients_past_queue_capacity_each_get_exactly_one_response() {
    let socket = temp_path("overload.sock");
    let _daemon = Daemon::spawn(CLI, &socket, &["--workers", "1", "--queue", "2"])
        .expect("daemon must spawn");
    // Occupy the single worker so the queue is what the flood fights over.
    let mut occupier = Client::connect(&socket).expect("connect");
    let spin = [engine("spin-shim"), ("timeout_ms", Json::Int(800))];
    occupier.send(&verify_request(100, "occupier", SAFE_SRC, &spin)).expect("send");
    std::thread::sleep(Duration::from_millis(300));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let spin = [engine("spin-shim"), ("timeout_ms", Json::Int(500))];
                let request = verify_request(i, &format!("flood-{i}"), SAFE_SRC, &spin);
                client.send(&request).expect("send");
                let r = client.recv().expect("recv");
                // Exactly one response per client: after it, the connection
                // must stay silent (a duplicate would land here).
                let extras = client.recv_until_eof().expect("recv until EOF");
                (i, r, extras)
            })
        })
        .collect();
    let mut statuses = std::collections::HashMap::new();
    for handle in handles {
        let (i, r, extras) = handle.join().expect("client thread");
        assert_eq!(r.get("id").and_then(Json::as_int), Some(i), "response routed to wrong id");
        let status = r.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
        assert!(matches!(status.as_str(), "done" | "overloaded"), "{r:?}");
        assert!(extras.is_empty(), "client {i} got duplicated responses: {extras:?}");
        *statuses.entry(status).or_insert(0usize) += 1;
    }
    let overloaded = statuses.get("overloaded").copied().unwrap_or(0);
    let done = statuses.get("done").copied().unwrap_or(0);
    assert_eq!(overloaded + done, 10, "zero dropped responses: {statuses:?}");
    assert!(overloaded >= 7, "1 worker + queue 2 can admit at most 3 of 10 floods: {statuses:?}");
    // The occupier's job still completes honestly.
    let r = occupier.recv().expect("recv");
    assert_eq!(r.get("id").and_then(Json::as_int), Some(100), "{r:?}");
    assert_eq!(task_field(&r, "verdict"), "cancelled", "{r:?}");
}

/// A batch with a generous `--timeout-ms` through the real binary produces
/// the same exit code and verdicts as an undeadlined run.
#[test]
fn batch_timeout_flag_preserves_verdicts_through_the_binary() {
    let dir = std::env::temp_dir().join("pathinv-serve-cli-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quick.pinv");
    std::fs::write(&path, SAFE_SRC).unwrap();
    let code = Command::new(CLI)
        .args(["--quiet", "--timeout-ms", "60000", path.to_str().unwrap()])
        .output()
        .expect("binary runs")
        .status
        .code()
        .expect("binary exits");
    assert_eq!(code, 0);
}

/// Both end-to-end smoke scenarios hold their contracts through the real
/// binary: the in-thread `serve-smoke` and the seeded `chaos-smoke`.
#[test]
fn smoke_harnesses_hold_their_contracts() {
    for args in [
        &["serve-smoke", "--quiet", "--workers", "2"][..],
        &["chaos-smoke", "--seed", "42", "--quiet"],
    ] {
        let out = Command::new(CLI).args(args).output().expect("pathinv-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}
