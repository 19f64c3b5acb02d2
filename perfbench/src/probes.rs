//! Layer probes: the harness's own timed calls into single layers on the
//! paper's four counterexamples, run once per traced run on every workload.

use crate::report::{median, Metrics};
use pathinv_check::{check_certificate, CheckLimits};
use pathinv_core::{
    path_program, run_job, BmcConfig, CancellationToken, EngineSpec, JobSpec, PathInvariantRefiner,
    PathPredicateRefiner, PdrConfig, Refiner,
};
use pathinv_ir::{path_formula, Path, Program};
use pathinv_smt::Solver;
use std::time::Instant;

/// Repetitions per probe; the median is reported.
const REPS: usize = 3;

/// Wall time of `f` in milliseconds, median of [`REPS`] runs.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The four paper counterexamples (FORWARD, INITCHECK, PARTITION through
/// each branch) and the time `pathinv_bench` took to build them.
pub fn paper_fixtures() -> (Vec<(Program, Path)>, f64) {
    let start = Instant::now();
    let fixtures = vec![
        pathinv_bench::forward_with_cex(),
        pathinv_bench::initcheck_with_cex(),
        pathinv_bench::partition_with_ge_cex(),
        pathinv_bench::partition_with_lt_cex(),
    ];
    (fixtures, start.elapsed().as_secs_f64() * 1e3)
}

/// Times path-program construction, path feasibility, interpolation, and
/// path-invariant refinement on the paper counterexamples, each repetition
/// on a fresh solver or refiner.  An error from
/// any layer is returned as a problem: every probe input is a spurious
/// counterexample the layers must handle.
pub fn paper_probes(fixtures: &[(Program, Path)], metrics: &mut Metrics) -> Vec<String> {
    let mut problems = Vec::new();
    let (mut path_program_ms, mut feasibility_ms, mut interpolate_ms, mut refine_ms) =
        (0.0, 0.0, 0.0, 0.0);
    for (program, path) in fixtures {
        let name = program.name();
        path_program_ms += time_ms(|| {
            if let Err(e) = path_program(program, path) {
                problems.push(format!("{name}: path program failed: {e}"));
            }
        });
        let formula = path_formula(program, path).conjunction();
        feasibility_ms += time_ms(|| match Solver::new().is_sat(&formula) {
            Ok(false) => {}
            Ok(true) => problems.push(format!("{name}: paper counterexample reads feasible")),
            Err(e) => problems.push(format!("{name}: feasibility check failed: {e}")),
        });
        interpolate_ms += time_ms(|| {
            if let Err(e) = PathPredicateRefiner::new().refine(program, path) {
                problems.push(format!("{name}: path-predicate refinement failed: {e}"));
            }
        });
        refine_ms += time_ms(|| {
            if let Err(e) = PathInvariantRefiner::new().refine(program, path) {
                problems.push(format!("{name}: path-invariant refinement failed: {e}"));
            }
        });
    }
    problems.dedup();
    metrics.push("core.paper_path_program_ms", path_program_ms, "ms");
    metrics.push("smt.paper_feasibility_ms", feasibility_ms, "ms");
    metrics.push("smt.paper_interpolate_ms", interpolate_ms, "ms");
    metrics.push("invgen.paper_refine_ms", refine_ms, "ms");
    problems
}

/// Audit time per certificate kind of the probe certificates.
#[derive(Default)]
pub struct AuditProbe {
    pub inductive_ms: f64,
    pub bounded_ms: f64,
    pub trace_ms: f64,
}

/// Audits one certificate of each kind — PDR's inductive invariant for
/// `suite/lockstep`, BMC's bounded unrolling for `pinv/half_integer_bug`,
/// BMC's trace for `pinv/array_reset_bug` — so every workload measures the
/// checker, including the served stream, whose daemon does not audit.
pub fn audit_probe(corpus: &[(String, Program)]) -> (AuditProbe, Vec<String>) {
    let mut probe = AuditProbe::default();
    let mut problems = Vec::new();
    let cases = [
        ("suite/lockstep", EngineSpec::Pdr(PdrConfig::default()), "inductive"),
        ("pinv/half_integer_bug", EngineSpec::Bmc(BmcConfig::default()), "bounded-unroll"),
        ("pinv/array_reset_bug", EngineSpec::Bmc(BmcConfig::default()), "trace"),
    ];
    for (name, engine, kind) in cases {
        let Some((_, program)) = corpus.iter().find(|(n, _)| n == name) else {
            problems.push(format!("audit probe: corpus lacks {name}"));
            continue;
        };
        let outcome = run_job(&JobSpec::new(engine), program, &CancellationToken::new());
        let Some(cert) = outcome.certificate.filter(|c| c.kind() == kind) else {
            problems.push(format!("audit probe: {name} yields no {kind} certificate"));
            continue;
        };
        let mut valid = true;
        let ms = time_ms(|| {
            valid &= check_certificate(program, &cert, &CheckLimits::default()).is_valid()
        });
        if !valid {
            problems.push(format!("audit probe: {name} {kind} certificate rejected"));
        }
        match kind {
            "inductive" => probe.inductive_ms = ms,
            "bounded-unroll" => probe.bounded_ms = ms,
            _ => probe.trace_ms = ms,
        }
    }
    (probe, problems)
}
