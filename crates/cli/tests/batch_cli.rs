//! Integration tests for the batch harness: `.pinv` file loading and
//! end-to-end verification of the committed sample programs across worker
//! threads.

use pathinv_cli::{load_pinv_file, make_tasks, run_batch, EngineChoice, RefinerChoice};
use std::process::Command;

fn program_path(name: &str) -> String {
    format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the real `pathinv-cli` binary and returns its exit code.
fn run_cli(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_pathinv-cli"))
        .args(args)
        .output()
        .expect("pathinv-cli binary must run")
        .status
        .code()
        .expect("pathinv-cli must exit normally")
}

fn temp_pinv(name: &str, src: &str) -> String {
    let dir = std::env::temp_dir().join("pathinv-cli-exit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path.to_str().unwrap().to_string()
}

/// Exit-code contract: a task that *errors* (here: nonlinear arithmetic the
/// solver rejects) must fail the run, even though the harness completes and
/// reports it.
#[test]
fn errored_tasks_exit_nonzero() {
    let bad = temp_pinv("nonlinear.pinv", "proc nl(x: int) { assert(x * x >= 0); }");
    assert_eq!(run_cli(&["--quiet", &bad]), 1, "an errored task must exit 1");
}

/// Non-`safe` verdicts are results, not failures: an unsafe program exits 0.
#[test]
fn unsafe_verdicts_exit_zero() {
    let buggy = temp_pinv("buggy.pinv", "proc b(x: int) { x = 1; assert(x == 2); }");
    assert_eq!(run_cli(&["--quiet", &buggy]), 0, "a falsified program is a completed task");
}

/// A file that cannot be loaded fails the run even when every loadable task
/// succeeds.
#[test]
fn load_failures_exit_nonzero() {
    let ok = temp_pinv("fine.pinv", "proc ok(x: int) { x = 1; assert(x == 1); }");
    assert_eq!(run_cli(&["--quiet", &ok, "/nonexistent/nope.pinv"]), 1);
}

/// The parser contract, one row per subcommand: usage errors exit 2 and name
/// the offending flag on the first stderr line; `--help` exits 0.
#[test]
fn usage_errors_exit_two() {
    let table: &[(&[&str], i32, &str)] = &[
        (&["--refiner", "bogus"], 2, "error: unknown refiner `bogus`"),
        (&["--engine", "bogus"], 2, "error: unknown engine `bogus`"),
        (
            &["--engine", "bmc", "--max-refinements", "3", "x.pinv"],
            2,
            "error: --max-refinements only applies to cegar tasks",
        ),
        (
            &["--engine", "pdr", "--refiner", "both", "x.pinv"],
            2,
            "error: --refiner only applies to cegar tasks",
        ),
        (&[], 2, "error: nothing to do: pass --all, --bless, and/or .pinv files"),
        (&["fuzz", "--seed"], 2, "error: --seed requires a value"),
        (&["fuzz", "--jobs", "0"], 2, "error: --jobs must be at least 1"),
        (&["chaos-smoke", "--seed", "x"], 2, "error: bad --seed `x`"),
        (&["serve-smoke", "--workers", "0"], 2, "error: --workers must be at least 1"),
        (&["serve", "--queue", "0"], 2, "error: --queue must be at least 1"),
        (&["trajectory", "--bogus"], 2, "error: unknown trajectory option `--bogus`"),
        (&["--help"], 0, ""),
    ];
    for (args, code, first_line) in table {
        let out = Command::new(env!("CARGO_BIN_EXE_pathinv-cli"))
            .args(*args)
            .output()
            .expect("pathinv-cli binary must run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(*code), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().next().unwrap_or_default(), *first_line, "{args:?}");
    }
}

/// The experiments binary shares the flag reader: a zero or malformed
/// `--jobs` and an unknown flag are usage errors, not runs.
#[test]
fn experiments_usage_errors_exit_two() {
    for args in [&["--jobs", "0"][..], &["--jobs", "x"], &["--chck"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments binary must run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// The portfolio cross-checks engines end-to-end through the real binary:
/// agreeing engines exit 0 even when some report `unknown`.
#[test]
fn portfolio_agreement_exits_zero() {
    let safe = temp_pinv("pf_safe.pinv", "proc ok(x: int) { x = 1; assert(x == 1); }");
    let buggy = temp_pinv("pf_bug.pinv", "proc b(x: int) { x = 1; assert(x == 2); }");
    assert_eq!(run_cli(&["--quiet", "--engine", "portfolio", &safe, &buggy]), 0);
}

/// A single non-CEGAR engine is selectable on its own; a bounded `unknown`
/// is a completed task, not a failure.
#[test]
fn single_engine_selection_runs_bmc_alone() {
    let loopy = temp_pinv(
        "pf_loop.pinv",
        "proc l(n: int) {
            var i: int;
            assume(n >= 0);
            i = 0;
            while (i < n) { i = i + 1; }
            assert(i >= n);
        }",
    );
    assert_eq!(run_cli(&["--quiet", "--engine", "bmc", &loopy]), 0);
}

#[test]
fn missing_and_malformed_files_are_reported_not_panicked() {
    let err = load_pinv_file("/nonexistent/nope.pinv").unwrap_err();
    assert!(err.contains("nope.pinv"), "{err}");

    let dir = std::env::temp_dir().join("pathinv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.pinv");
    std::fs::write(&bad, "proc broken( { oops").unwrap();
    let err = load_pinv_file(bad.to_str().unwrap()).unwrap_err();
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn committed_sample_programs_verify_as_documented() {
    let programs = vec![
        load_pinv_file(&program_path("lockstep.pinv")).unwrap(),
        load_pinv_file(&program_path("array_reset_bug.pinv")).unwrap(),
    ];
    let report = run_batch(make_tasks(programs, EngineChoice::Cegar, RefinerChoice::Both, None), 4);
    assert_eq!(report.tasks.len(), 4);
    for t in &report.tasks {
        if t.program_name.ends_with("lockstep.pinv") {
            assert_eq!(t.verdict, "safe", "{}/{}: {}", t.program_name, t.refiner, t.detail);
        } else {
            assert_eq!(t.verdict, "unsafe", "{}/{}: {}", t.program_name, t.refiner, t.detail);
        }
    }
}

#[test]
fn triple_sum_needs_the_relational_path_invariant() {
    let programs = vec![load_pinv_file(&program_path("triple_sum.pinv")).unwrap()];
    let report = run_batch(
        make_tasks(programs, EngineChoice::Cegar, RefinerChoice::PathInvariants, None),
        1,
    );
    assert_eq!(report.tasks.len(), 1);
    assert_eq!(
        report.tasks[0].verdict, "safe",
        "triple_sum must be proved by path invariants: {}",
        report.tasks[0].detail
    );
    // The proof is found in a handful of refinements, not by unrolling.
    assert!(report.tasks[0].refinements <= 10, "{}", report.tasks[0].refinements);
}
