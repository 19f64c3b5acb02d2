//! The deterministic benchmark-trajectory experiment (`bench`): verifies
//! the full corpus under both refiners, cached and uncached, and emits a
//! trajectory point.
//!
//! This is the CI entry point of the perf trajectory: the `bench-smoke` job
//! runs it with `--bench-json bench-point.json` (an uncommitted artifact, so
//! the committed point stays the baseline), `--check tests/golden/bench.json`
//! (fails the build when the report schema or any deterministic field —
//! verdict, refinement count, solver-call and cache counters — drifts from
//! the committed golden) and `--compare-previous BENCH_pr12.json` (fails on
//! any per-task regression of a counter the `pathinv-core` counter table
//! marks [`GATED`] — `solver_calls`, `simplex_calls`, the refine-phase cold
//! simplex calls `phases.refine_simplex_calls`, and the synthesis frontier
//! `synth_branches_explored` — against the latest committed trajectory
//! point; wall-clock stays informational, and counters the previous point's
//! schema predates are not gated).  Local regeneration after an intentional
//! change is `cargo run --release -p pathinv-cli -- --bless`, which rewrites
//! the goldens but writes its point to the uncommitted `bench-point.json`,
//! so blessing never moves the gate's baseline; a change that means to move
//! it commits that file as the next `BENCH_prN.json` and points the CI job
//! at it.

use crate::json::{self, Json};
use crate::trajectory::{run_trajectory, TrajectoryReport};
use pathinv_core::{Counter, CounterGroup, COUNTERS, GATED};

/// Configuration of one `bench` experiment run.
#[derive(Clone, Debug, Default)]
pub struct BenchConfig {
    /// Worker threads (defaults to available parallelism).
    pub jobs: Option<usize>,
    /// Where to write the full trajectory report (`bench-point.json` in CI).
    pub bench_json: Option<String>,
    /// Where to write the deterministic golden projection.
    pub bench_golden: Option<String>,
    /// A committed golden to diff the run against; any drift is an error.
    pub check: Option<String>,
    /// A committed *previous* trajectory point (`BENCH_pr12.json`); any
    /// per-task regression of a [`GATED`] counter against it is an error.
    pub compare_previous: Option<String>,
}

/// Runs the trajectory experiment, writes the requested artifacts, and
/// diffs against the committed golden when asked.
///
/// # Errors
///
/// Returns a human-readable message when a task errors, a file cannot be
/// written, the golden cannot be read, or the run drifts from the golden.
pub fn run_bench(config: &BenchConfig) -> Result<TrajectoryReport, String> {
    let jobs = config
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    println!("verifying the corpus twice on {jobs} worker(s): cached, then uncached baseline");
    let trajectory = run_trajectory(jobs);
    print!("{}", trajectory.cached.render_table());
    let errors = trajectory
        .cached
        .tasks
        .iter()
        .chain(trajectory.uncached.tasks.iter())
        .filter(|t| t.verdict == "error")
        .count();
    if errors > 0 {
        return Err(format!("{errors} task(s) errored; the trajectory point is not valid"));
    }
    let parity = trajectory.parity_failures();
    if !parity.is_empty() {
        return Err(format!(
            "cached and uncached runs disagree on observable outcomes:\n  {}",
            parity.join("\n  ")
        ));
    }
    let totals = trajectory.cached.totals();
    println!(
        "solver calls: {} cached vs {} uncached baseline ({:.1}% saved; \
         query hit rate {:.1}%, post-memo hit rate {:.1}%)",
        totals.solver_calls,
        trajectory.uncached.totals().solver_calls,
        trajectory.solver_call_reduction() * 100.0,
        totals.query_hit_rate() * 100.0,
        totals.post_hit_rate() * 100.0,
    );
    println!(
        "simplex: {} cold solves + {} warm incremental re-checks (cached run)",
        totals.simplex_calls, totals.simplex_warm_checks,
    );
    if let Some(path) = &config.bench_json {
        std::fs::write(path, trajectory.to_json().pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &config.bench_golden {
        std::fs::write(path, trajectory.to_golden_json().pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &config.check {
        let golden = load_golden(path)?;
        let failures = trajectory.check_against_golden(&golden);
        if !failures.is_empty() {
            return Err(format!(
                "bench trajectory drifted from {path}:\n  {}\n\nIf the change is intentional, \
                 regenerate the goldens with\n  cargo run --release -p pathinv-cli -- --bless",
                failures.join("\n  ")
            ));
        }
        println!("no drift against {path}");
    }
    if let Some(path) = &config.compare_previous {
        let previous = load_golden(path)?;
        let regressions = counter_regressions(&previous, &trajectory.to_json());
        if !regressions.is_empty() {
            return Err(format!(
                "per-task counter regression against the previous trajectory point {path}:\n  {}",
                regressions.join("\n  ")
            ));
        }
        let gated: Vec<&str> = gated_counters().map(|c| c.name).collect();
        println!(
            "no per-task regression of the gated counters ({}) against {path}",
            gated.join(", ")
        );
    }
    Ok(trajectory)
}

/// Compares two full trajectory documents task by task (matched on
/// `(program, refiner)`) and reports every *increase* of a [`GATED`]
/// counter — `solver_calls`, `simplex_calls`, the refine-phase cold simplex
/// calls (`phases.refine_simplex_calls`), or the synthesis frontier size
/// (`synth_branches_explored`) — in `current` over `previous`, plus any
/// task the current run no longer produces.  New tasks (absent from the
/// previous point), wall-clock changes, and counters the previous point's
/// schema does not carry are not regressions.
///
/// Tasks whose verdict *improved* — `unknown` previously, concluded
/// (`safe`/`unsafe`) now — are exempt from counter gating: a task that
/// used to give up and now finishes legitimately does more solver work,
/// and counting that as a regression would forbid exactly the improvement
/// the trajectory exists to measure.  (Verdict *regressions* are caught by
/// the golden corpus snapshot, not this gate.)
///
/// Similarly, across the bench-schema v4 boundary (the point where
/// counterexamples are certified integral before a task concludes
/// `unsafe`), tasks that are `unsafe` in *both* points are exempt: the
/// certification's solver calls are a class of work the pre-v4 baseline
/// never performed, so a pre-v4 point has no like-for-like counter to
/// regress against on exactly those tasks.  Once both points are v4+, the
/// exemption disappears and `unsafe` tasks gate again.
pub fn counter_regressions(previous: &Json, current: &Json) -> Vec<String> {
    /// Reads a counter from a task object: a top-level field, or one nested
    /// under `phases`.
    fn lookup(task: &Json, counter: &Counter) -> Option<i64> {
        let holder = if counter.group == CounterGroup::Phase { task.get("phases")? } else { task };
        holder.get(counter.name)?.as_int()
    }
    let tasks = |doc: &Json| -> Vec<Json> {
        doc.get("tasks").and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let key = |t: &Json| {
        (
            t.get("program").and_then(Json::as_str).unwrap_or("?").to_string(),
            t.get("refiner").and_then(Json::as_str).unwrap_or("?").to_string(),
        )
    };
    let bench_schema =
        |doc: &Json| -> i64 { doc.get("bench_schema_version").and_then(Json::as_int).unwrap_or(0) };
    let crosses_certification_boundary = bench_schema(previous) < 4 && bench_schema(current) >= 4;
    let current_tasks = tasks(current);
    let mut out = Vec::new();
    for prev in tasks(previous) {
        let k = key(&prev);
        let Some(cur) = current_tasks.iter().find(|t| key(t) == k) else {
            out.push(format!("{k:?}: in the previous trajectory point but not produced"));
            continue;
        };
        let verdict = |t: &Json| t.get("verdict").and_then(Json::as_str).unwrap_or("?").to_string();
        let (was_verdict, now_verdict) = (verdict(&prev), verdict(cur));
        if was_verdict == "unknown" && matches!(now_verdict.as_str(), "safe" | "unsafe") {
            // The task used to give up and now concludes: extra solver work
            // is the price of the better verdict, not a regression.
            continue;
        }
        if crosses_certification_boundary && was_verdict == "unsafe" && now_verdict == "unsafe" {
            // The previous point predates integral counterexample
            // certification, whose solver calls land exactly on tasks that
            // conclude `unsafe`; there is no like-for-like baseline.
            continue;
        }
        for counter in gated_counters() {
            // A counter the previous point's schema predates cannot have a
            // baseline to regress against; skip it rather than treating the
            // missing value as zero.
            let Some(was) = lookup(&prev, counter) else { continue };
            let now = lookup(cur, counter).unwrap_or(0);
            if now > was {
                out.push(format!("{k:?}: {} regressed {was} -> {now}", counter.name));
            }
        }
    }
    out
}

/// Reads and parses a committed golden document.
///
/// # Errors
///
/// Returns a readable message when the file is missing or malformed.
pub fn load_golden(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// The counters the `--compare-previous` gate checks, in table order.
fn gated_counters() -> impl Iterator<Item = &'static Counter> {
    COUNTERS.iter().filter(|c| c.has(GATED))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error paths of golden loading produce readable messages, not
    /// panics.  (The full-corpus happy path is exercised by CI's
    /// bench-smoke job; running it here would double the suite wall clock.)
    #[test]
    fn missing_and_malformed_goldens_are_errors_not_panics() {
        let dir = std::env::temp_dir().join("pathinv-bench-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{ not json").unwrap();
        for path in ["/nonexistent/golden.json", bad.to_str().unwrap()] {
            let err = load_golden(path).unwrap_err();
            assert!(err.contains(path), "{err}");
        }
        let good = dir.join("good.json");
        std::fs::write(&good, "{\"bench_schema_version\": 1}").unwrap();
        let doc = load_golden(good.to_str().unwrap()).unwrap();
        assert_eq!(doc.get("bench_schema_version").and_then(Json::as_int), Some(1));
    }

    /// The previous-point comparison flags exactly the per-task increases of
    /// the gated counters, tolerates improvements, new tasks, and counters
    /// the previous schema predates, and reports tasks that vanished.
    #[test]
    fn counter_regression_gate_flags_increases_only() {
        let previous = json::parse(
            r#"{"tasks": [
                {"program": "A", "refiner": "path-invariants",
                 "solver_calls": 100, "simplex_calls": 500, "wall_ms": 10.0,
                 "synth_branches_explored": 40,
                 "phases": {"refine_simplex_calls": 7}},
                {"program": "B", "refiner": "path-predicates",
                 "solver_calls": 50, "simplex_calls": 80, "wall_ms": 5.0},
                {"program": "GONE", "refiner": "path-invariants",
                 "solver_calls": 1, "simplex_calls": 1, "wall_ms": 1.0},
                {"program": "IMPROVED", "refiner": "path-invariants",
                 "verdict": "unknown", "solver_calls": 10, "simplex_calls": 10}
            ]}"#,
        )
        .unwrap();
        let current = json::parse(
            r#"{"tasks": [
                {"program": "A", "refiner": "path-invariants",
                 "solver_calls": 90, "simplex_calls": 501, "wall_ms": 99.0,
                 "synth_branches_explored": 41,
                 "phases": {"refine_simplex_calls": 3}},
                {"program": "B", "refiner": "path-predicates",
                 "solver_calls": 50, "simplex_calls": 40, "wall_ms": 50.0,
                 "synth_branches_explored": 9999,
                 "phases": {"refine_simplex_calls": 9999}},
                {"program": "NEW", "refiner": "path-invariants",
                 "solver_calls": 9999, "simplex_calls": 9999, "wall_ms": 1.0},
                {"program": "IMPROVED", "refiner": "path-invariants",
                 "verdict": "safe", "solver_calls": 500, "simplex_calls": 500}
            ]}"#,
        )
        .unwrap();
        let regressions = counter_regressions(&previous, &current);
        assert_eq!(regressions.len(), 3, "{regressions:?}");
        assert!(
            regressions.iter().any(|r| r.contains('A') && r.contains("simplex_calls")),
            "{regressions:?}"
        );
        // The frontier counter regressed on A (40 -> 41) and is gated; on B
        // the previous point predates the counter, so 9999 is not gated.
        assert!(
            regressions.iter().any(|r| r.contains('A') && r.contains("synth_branches_explored")),
            "{regressions:?}"
        );
        assert!(
            !regressions.iter().any(|r| r.contains('B')),
            "counters absent from the previous schema must not gate: {regressions:?}"
        );
        assert!(regressions.iter().any(|r| r.contains("GONE")), "{regressions:?}");
        // A task that used to be unknown and now concludes is exempt, even
        // though every gated counter grew.
        assert!(
            !regressions.iter().any(|r| r.contains("IMPROVED")),
            "verdict improvements must not gate: {regressions:?}"
        );
        // Identical documents never regress (wall-clock is informational).
        assert!(counter_regressions(&previous, &previous).is_empty());
    }

    /// Across the bench-schema v4 boundary (integral counterexample
    /// certification), `unsafe` tasks are exempt from counter gating; once
    /// both points are v4, the exemption disappears, and it never covers
    /// non-`unsafe` tasks.
    #[test]
    fn certification_boundary_exempts_unsafe_tasks_once() {
        let pre_v4 = json::parse(
            r#"{"bench_schema_version": 3, "tasks": [
                {"program": "BUG", "refiner": "path-invariants",
                 "verdict": "unsafe", "solver_calls": 25, "simplex_calls": 32},
                {"program": "OK", "refiner": "path-invariants",
                 "verdict": "safe", "solver_calls": 10, "simplex_calls": 10}
            ]}"#,
        )
        .unwrap();
        let v4 = json::parse(
            r#"{"bench_schema_version": 4, "tasks": [
                {"program": "BUG", "refiner": "path-invariants",
                 "verdict": "unsafe", "solver_calls": 26, "simplex_calls": 35},
                {"program": "OK", "refiner": "path-invariants",
                 "verdict": "safe", "solver_calls": 11, "simplex_calls": 10}
            ]}"#,
        )
        .unwrap();
        let regressions = counter_regressions(&pre_v4, &v4);
        assert!(
            !regressions.iter().any(|r| r.contains("BUG")),
            "certification cost on unsafe tasks must not gate across the boundary: {regressions:?}"
        );
        assert!(
            regressions.iter().any(|r| r.contains("OK") && r.contains("solver_calls")),
            "safe tasks still gate across the boundary: {regressions:?}"
        );
        // v4 vs v4: the exemption is spent, unsafe tasks gate normally.
        let v4_worse = json::parse(
            r#"{"bench_schema_version": 4, "tasks": [
                {"program": "BUG", "refiner": "path-invariants",
                 "verdict": "unsafe", "solver_calls": 27, "simplex_calls": 35}
            ]}"#,
        )
        .unwrap();
        let later = counter_regressions(&v4, &v4_worse);
        assert!(later.iter().any(|r| r.contains("BUG") && r.contains("solver_calls")), "{later:?}");
    }
}
