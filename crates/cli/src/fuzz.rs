//! Differential fuzzing harness: the `pathinv-cli fuzz` subcommand.
//!
//! Drives the seeded scenario generator
//! ([`pathinv_bench::generator`]) at scale and cross-checks every generated
//! program three ways:
//!
//! 1. **engine vs engine** — all four portfolio engines run on every
//!    program; a safe-vs-unsafe split is a hard failure;
//! 2. **verifier vs concrete interpreter** — engine verdicts are compared
//!    against the generator's oracle-certified expectation, and every
//!    engine counterexample is validated end-to-end: its path formula must
//!    be satisfiable *over the integers*, and the integral model must
//!    replay concretely into the error location under
//!    [`pathinv_ir::exec::replay`];
//! 3. **cached vs uncached** — a sample of programs re-runs the CEGAR
//!    engine with the incremental caches disabled and compares observable
//!    outcomes.
//!
//! Every disagreement is a [`Finding`].  Findings are shrunk with the
//! vendored proptest greedy minimizer: the scenario is shrunk while the
//! same finding kind still reproduces, and the minimized `.pinv` source is
//! written out as a reproducer.  The whole run is a pure function of
//! `(seed, count)` — worker threads only parallelize independent checks,
//! results are re-sorted by draw index, and the JSON report carries no
//! wall-clock times — so a campaign is byte-identical across `--jobs`
//! values, machines, and reruns.

use crate::json::Json;
use crate::{engine_label, TaskEngine, DEFAULT_BASELINE_REFINEMENTS};
use pathinv_bench::generator::{
    generate_campaign, realize, Expected, GeneratedProgram, Realized, Scenario,
};
use pathinv_check::{check_certificate, decode_model, Certificate, CheckLimits};
use pathinv_core::{BmcConfig, CegarConfig, PdrConfig, Verdict};
use pathinv_ir::exec::replay;
use pathinv_ir::{path_formula, Path, Program};
use pathinv_smt::{enforce_deadline, IntSatResult, Solver};
use proptest::shrink::minimize;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Node budget for the branch-and-bound integrality check run on every
/// engine counterexample.  Generated programs have short error paths over
/// few variables, so this is generous.
const INTEGRALITY_NODES: usize = 4096;

/// Options for one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// RNG seed; the campaign is a pure function of `(seed, count)`.
    pub seed: u64,
    /// Number of certified programs to generate and check.
    pub count: usize,
    /// Worker threads for the per-program checks (never affects output).
    pub jobs: usize,
    /// How many programs (from the front of the draw order) also get the
    /// cached-vs-uncached parity check.
    pub cache_sample: usize,
    /// Shrink budget: maximum candidate scenarios tested per finding.
    pub shrink_budget: usize,
    /// Audit every engine certificate with the independent checker: a
    /// conclusive verdict without a valid certificate becomes a finding.
    pub certify: bool,
    /// Per-engine-run wall-clock deadline (`--timeout-ms`), enforced by the
    /// watchdog through each run's [`CancellationToken`](pathinv_core::CancellationToken).  A run that
    /// exceeds it returns the honest `cancelled` — a no-opinion outcome that
    /// can never produce (or mask) a finding.
    pub timeout_ms: Option<u64>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            count: 200,
            jobs: 1,
            cache_sample: 10,
            shrink_budget: 48,
            certify: false,
            timeout_ms: None,
        }
    }
}

/// The classified disagreement kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// The generator contradicted itself (unparseable output or a
    /// constructed-safe scenario that is concretely unsafe).
    GeneratorDefect,
    /// An engine returned `Err` or panicked on a generated-valid program.
    EngineError,
    /// Two engines returned opposite definite verdicts (safe vs unsafe).
    EngineDisagreement,
    /// An engine reported unsafe on an oracle-certified safe program.
    ExpectedSafeViolated,
    /// An engine reported safe on a program with a replayable error trace.
    ExpectedUnsafeViolated,
    /// An engine counterexample whose path formula has no integral model.
    CexIntegrallyInfeasible,
    /// The integrality check on a counterexample ran out of budget.
    CexIntegralityUnknown,
    /// An integral counterexample model that does not replay concretely
    /// into the error location.
    CexReplayDiverged,
    /// A generator-constructed witness failed to replay (oracle defect).
    WitnessReplayFailed,
    /// Cached and uncached CEGAR runs disagree on the verdict.
    CacheParity,
    /// A conclusive verdict without a certificate (`--certify` only).
    CertificateMissing,
    /// A certificate the independent checker rejected, or one attached to
    /// an inconclusive verdict (`--certify` only).
    CertificateRejected,
}

impl FindingKind {
    /// The kebab-case report label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::GeneratorDefect => "generator-defect",
            FindingKind::EngineError => "engine-error",
            FindingKind::EngineDisagreement => "engine-disagreement",
            FindingKind::ExpectedSafeViolated => "expected-safe-violated",
            FindingKind::ExpectedUnsafeViolated => "expected-unsafe-violated",
            FindingKind::CexIntegrallyInfeasible => "cex-integrally-infeasible",
            FindingKind::CexIntegralityUnknown => "cex-integrality-unknown",
            FindingKind::CexReplayDiverged => "cex-replay-diverged",
            FindingKind::WitnessReplayFailed => "witness-replay-failed",
            FindingKind::CacheParity => "cache-parity",
            FindingKind::CertificateMissing => "certificate-missing",
            FindingKind::CertificateRejected => "certificate-rejected",
        }
    }
}

/// One cross-check disagreement.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Draw index of the program the finding was first observed on.
    pub index: usize,
    /// The disagreement class.
    pub kind: FindingKind,
    /// Name of the (possibly shrunk) program exhibiting the finding.
    pub program: String,
    /// Generator family label, or `"-"` for findings without a scenario.
    pub family: String,
    /// The engine label involved, or `"-"`.
    pub engine: String,
    /// Human-readable elaboration.
    pub detail: String,
    /// The scenario behind the program, when the finding is shrinkable.
    pub scenario: Option<Scenario>,
    /// `.pinv` source of the exhibiting program (shrunk when `shrunk`).
    pub source: String,
    /// Whether greedy shrinking ran to a fixed point on this finding.
    pub shrunk: bool,
}

/// The full campaign report.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// The requested program count.
    pub count: usize,
    /// Programs actually generated and checked.
    pub generated: usize,
    /// Oracle-certified safe programs among them.
    pub expected_safe: usize,
    /// Oracle-certified unsafe programs among them.
    pub expected_unsafe: usize,
    /// Scenarios skipped because the concrete oracle ran out of budget.
    pub discarded: usize,
    /// Engine runs performed (4 per program, plus cache-parity reruns).
    pub engine_runs: usize,
    /// Engine counterexamples validated through the integral replay chain.
    pub cexes_validated: usize,
    /// Programs that also ran the cached-vs-uncached parity check.
    pub cache_checked: usize,
    /// Engine certificates audited by the independent checker (`--certify`
    /// runs only; one audit per engine verdict, conclusive or not).
    pub certs_audited: usize,
    /// All disagreements, shrunk where possible, in deterministic order.
    pub findings: Vec<Finding>,
}

/// How one engine's verdict is summarized for cross-checking.
#[derive(Clone, Debug)]
enum EngineVerdict {
    Safe,
    Unsafe(Path),
    Unknown(#[allow(dead_code)] String),
    /// The run's `--timeout-ms` deadline expired.  Strictly no-opinion:
    /// never a finding, never evidence for or against any other verdict.
    Cancelled,
    Error(String),
}

impl EngineVerdict {
    fn word(&self) -> &'static str {
        match self {
            EngineVerdict::Safe => "safe",
            EngineVerdict::Unsafe(_) => "unsafe",
            EngineVerdict::Unknown(_) => "unknown",
            EngineVerdict::Cancelled => "cancelled",
            EngineVerdict::Error(_) => "error",
        }
    }
}

/// The fixed engine portfolio every generated program runs through.
fn portfolio() -> Vec<TaskEngine> {
    vec![
        TaskEngine::Cegar(CegarConfig::path_invariants()),
        TaskEngine::Cegar(CegarConfig::path_predicates(DEFAULT_BASELINE_REFINEMENTS)),
        TaskEngine::Bmc(BmcConfig::default()),
        TaskEngine::Pdr(PdrConfig::default()),
    ]
}

fn run_engine(
    engine: &TaskEngine,
    program: &Program,
    timeout_ms: Option<u64>,
) -> (EngineVerdict, Option<Certificate>) {
    let built = engine.build();
    let token = pathinv_core::CancellationToken::new();
    let _guard =
        timeout_ms.map(|ms| enforce_deadline(&token, std::time::Duration::from_millis(ms)));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        built.verify_with_cancel(program, &token)
    })) {
        Ok(Ok(result)) => {
            let verdict = match result.verdict {
                Verdict::Safe => EngineVerdict::Safe,
                Verdict::Unsafe { path } => EngineVerdict::Unsafe(path),
                Verdict::Unknown { reason } => EngineVerdict::Unknown(reason),
                // With a deadline configured this is the watchdog having
                // fired; without one no engine may return it, and it is
                // treated as an error so it can never masquerade as a real
                // verdict.
                Verdict::Cancelled if timeout_ms.is_some() => EngineVerdict::Cancelled,
                Verdict::Cancelled => EngineVerdict::Error("cancelled without a token".to_string()),
            };
            (verdict, result.certificate)
        }
        Ok(Err(e)) => (EngineVerdict::Error(e.to_string()), None),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            (EngineVerdict::Error(format!("panicked: {msg}")), None)
        }
    }
}

/// Validates one engine counterexample end-to-end: integral satisfiability
/// of the path formula, then concrete replay of the integral model.
fn validate_cex(p: &GeneratedProgram, label: &str, path: &Path, findings: &mut Vec<Finding>) {
    let pf = path_formula(&p.program, path);
    let solver = Solver::new();
    let model = match solver.check_integral(&pf.conjunction(), INTEGRALITY_NODES) {
        Ok(IntSatResult::Sat(model)) => model,
        Ok(IntSatResult::Unsat) => {
            findings.push(p.finding(
                FindingKind::CexIntegrallyInfeasible,
                label,
                format!(
                    "{label} reported a {}-step counterexample whose path formula has no \
                     integral model (rational-only feasibility)",
                    path.len()
                ),
            ));
            return;
        }
        Ok(IntSatResult::Unknown) => {
            findings.push(p.finding(
                FindingKind::CexIntegralityUnknown,
                label,
                format!(
                    "integrality check on the {}-step counterexample of {label} exhausted \
                     its {INTEGRALITY_NODES}-node budget",
                    path.len()
                ),
            ));
            return;
        }
        Err(e) => {
            findings.push(p.finding(
                FindingKind::CexIntegralityUnknown,
                label,
                format!("integrality check on the counterexample of {label} failed: {e}"),
            ));
            return;
        }
    };
    // Decode the model through the same SSA convention every engine's trace
    // certificate uses (inputs at version 0, havoc results at the version
    // each havoc transition bumps its variable to) — one decoder, shared
    // with `pathinv_check`, so fuzzing exercises the exact artifact the
    // certificate checker replays.
    let trace = decode_model(&p.program, path, &pf, &model);
    let outcome = replay(&p.program, &trace.steps, &trace.inputs, &trace.havocs);
    if !outcome.reaches_error() {
        findings.push(p.finding(
            FindingKind::CexReplayDiverged,
            label,
            format!(
                "the integral model of the {}-step counterexample of {label} does not \
                 replay concretely: {outcome:?}",
                path.len()
            ),
        ));
    }
}

/// Builds a [`Finding`] anchored to a generated program.
trait ProgramFinding {
    fn finding(&self, kind: FindingKind, engine: &str, detail: String) -> Finding;
}

impl ProgramFinding for GeneratedProgram {
    fn finding(&self, kind: FindingKind, engine: &str, detail: String) -> Finding {
        Finding {
            index: self.index,
            kind,
            program: self.name.clone(),
            family: self.scenario.family.label().to_string(),
            engine: engine.to_string(),
            detail,
            scenario: Some(self.scenario.clone()),
            source: self.source.clone(),
            shrunk: false,
        }
    }
}

/// Statistics from checking one program.
#[derive(Default)]
struct CheckCounts {
    engine_runs: usize,
    cexes_validated: usize,
    cache_checked: usize,
    certs_audited: usize,
}

/// Audits one engine's certificate against its verdict (`--certify` only):
/// a conclusive verdict must carry a certificate of matching polarity that
/// the independent checker validates; an inconclusive verdict must carry
/// none.
fn audit_engine_certificate(
    p: &GeneratedProgram,
    label: &str,
    verdict: &EngineVerdict,
    certificate: Option<&Certificate>,
    findings: &mut Vec<Finding>,
) {
    let conclusive = matches!(verdict, EngineVerdict::Safe | EngineVerdict::Unsafe(_));
    let Some(cert) = certificate else {
        if conclusive {
            findings.push(p.finding(
                FindingKind::CertificateMissing,
                label,
                format!("{label} concluded {} without emitting a certificate", verdict.word()),
            ));
        }
        return;
    };
    if !conclusive {
        findings.push(p.finding(
            FindingKind::CertificateRejected,
            label,
            format!(
                "{label} attached a {} certificate to a {} verdict",
                cert.kind(),
                verdict.word()
            ),
        ));
        return;
    }
    if cert.claims_safety() != matches!(verdict, EngineVerdict::Safe) {
        findings.push(p.finding(
            FindingKind::CertificateRejected,
            label,
            format!(
                "{label} attached a {} certificate to a {} verdict (polarity mismatch)",
                cert.kind(),
                verdict.word()
            ),
        ));
        return;
    }
    let outcome = check_certificate(&p.program, cert, &CheckLimits::default());
    if !outcome.is_valid() {
        findings.push(p.finding(
            FindingKind::CertificateRejected,
            label,
            format!(
                "the independent checker rejected the {} certificate of {label} ({}): {}",
                cert.kind(),
                outcome.name(),
                outcome.reason().unwrap_or_default()
            ),
        ));
    }
}

/// Runs the full three-way cross-check on one generated program.
fn check_program(
    p: &GeneratedProgram,
    check_cache: bool,
    certify: bool,
    timeout_ms: Option<u64>,
) -> (Vec<Finding>, CheckCounts) {
    let mut findings = Vec::new();
    let mut counts = CheckCounts::default();

    // A constructed witness that does not replay is an oracle defect worth
    // reporting before any engine runs.
    if let Expected::Unsafe(w) = &p.expected {
        let outcome = replay(&p.program, &w.steps, &w.inputs, &w.havocs);
        if !outcome.reaches_error() {
            findings.push(p.finding(
                FindingKind::WitnessReplayFailed,
                "-",
                format!("the generator's construction witness does not replay: {outcome:?}"),
            ));
        }
    }

    let engines = portfolio();
    let verdicts: Vec<(String, EngineVerdict, Option<Certificate>)> = engines
        .iter()
        .map(|e| {
            counts.engine_runs += 1;
            let (verdict, certificate) = run_engine(e, &p.program, timeout_ms);
            (engine_label(e.engine_name(), e.refiner_name()), verdict, certificate)
        })
        .collect();

    if certify {
        for (label, v, cert) in &verdicts {
            counts.certs_audited += 1;
            audit_engine_certificate(p, label, v, cert.as_ref(), &mut findings);
        }
    }

    for (label, v, _) in &verdicts {
        match v {
            EngineVerdict::Error(msg) => {
                findings.push(p.finding(
                    FindingKind::EngineError,
                    label,
                    format!("engine failed on a generated-valid program: {msg}"),
                ));
            }
            EngineVerdict::Unsafe(path) => {
                counts.cexes_validated += 1;
                validate_cex(p, label, path, &mut findings);
                if p.expected == Expected::Safe {
                    findings.push(p.finding(
                        FindingKind::ExpectedSafeViolated,
                        label,
                        format!(
                            "{label} reported unsafe on an oracle-certified safe program \
                             ({}-step counterexample claimed)",
                            path.len()
                        ),
                    ));
                }
            }
            EngineVerdict::Safe => {
                if let Expected::Unsafe(w) = &p.expected {
                    findings.push(p.finding(
                        FindingKind::ExpectedUnsafeViolated,
                        label,
                        format!(
                            "{label} reported safe but a concrete witness of {} steps \
                             replays into the error location",
                            w.steps.len()
                        ),
                    ));
                }
            }
            EngineVerdict::Unknown(_) | EngineVerdict::Cancelled => {}
        }
    }

    // Engine-vs-engine: any safe verdict alongside any unsafe verdict.
    let safe_engine = verdicts.iter().find(|(_, v, _)| matches!(v, EngineVerdict::Safe));
    let unsafe_engine = verdicts.iter().find(|(_, v, _)| matches!(v, EngineVerdict::Unsafe(_)));
    if let (Some((sl, _, _)), Some((ul, uv, _))) = (safe_engine, unsafe_engine) {
        findings.push(p.finding(
            FindingKind::EngineDisagreement,
            &format!("{sl} vs {ul}"),
            format!("{sl} proved the program safe while {ul} reported {}", uv.word()),
        ));
    }

    if check_cache {
        counts.cache_checked = 1;
        let mut uncached_config = CegarConfig::path_invariants();
        uncached_config.caching = false;
        counts.engine_runs += 1;
        let cached = &verdicts[0].1;
        let (uncached, _) = run_engine(&TaskEngine::Cegar(uncached_config), &p.program, timeout_ms);
        // A deadline firing on one side but not the other says nothing about
        // cache parity — cancelled is no-opinion on both sides.
        let either_cancelled = matches!(cached, EngineVerdict::Cancelled)
            || matches!(uncached, EngineVerdict::Cancelled);
        if !either_cancelled && cached.word() != uncached.word() {
            findings.push(p.finding(
                FindingKind::CacheParity,
                "cegar/path-invariants",
                format!(
                    "cached and uncached runs disagree: {} vs {}",
                    cached.word(),
                    uncached.word()
                ),
            ));
        }
    }

    (findings, counts)
}

/// Whether realizing `scenario` still reproduces a finding of `kind`.
fn still_fails(scenario: &Scenario, index: usize, kind: FindingKind, check_cache: bool) -> bool {
    match realize(scenario, index) {
        Realized::Kept(p) => {
            // Shrinking replays without a deadline: cancellation is timing-
            // dependent and never itself a finding, so reproduction must not
            // hinge on whether the watchdog happens to fire.
            let (findings, _) = check_program(&p, check_cache, certify_for(kind), None);
            findings.iter().any(|f| f.kind == kind)
        }
        Realized::Defect(_) => kind == FindingKind::GeneratorDefect,
        Realized::Discarded(_) => false,
    }
}

/// Whether reproducing a finding of `kind` requires the certificate audit.
fn certify_for(kind: FindingKind) -> bool {
    matches!(kind, FindingKind::CertificateMissing | FindingKind::CertificateRejected)
}

/// Shrinks each distinct `(kind, family, engine)` finding to a minimal
/// scenario; duplicates of an already-shrunk group are dropped.
fn shrink_findings(findings: Vec<Finding>, budget: usize) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let mut seen: Vec<(FindingKind, String, String)> = Vec::new();
    for finding in findings {
        let group = (finding.kind, finding.family.clone(), finding.engine.clone());
        if seen.contains(&group) {
            continue;
        }
        seen.push(group);
        let Some(scenario) = finding.scenario.clone() else {
            out.push(finding);
            continue;
        };
        let index = finding.index;
        let kind = finding.kind;
        let check_cache = kind == FindingKind::CacheParity;
        let (min, stats) = minimize(scenario, |s| still_fails(s, index, kind, check_cache), budget);
        let mut shrunk = finding;
        shrunk.shrunk = !stats.budget_exhausted;
        if let Realized::Kept(p) = realize(&min, index) {
            let (replayed, _) = check_program(&p, check_cache, certify_for(kind), None);
            let engine = shrunk.engine.clone();
            if let Some(f) = replayed
                .iter()
                .find(|f| f.kind == kind && f.engine == engine)
                .or_else(|| replayed.iter().find(|f| f.kind == kind))
            {
                shrunk = Finding { index, shrunk: shrunk.shrunk, ..f.clone() };
            }
        }
        shrunk.scenario = Some(min);
        out.push(shrunk);
    }
    out
}

/// Runs a full campaign: generate, cross-check in parallel, shrink.
///
/// Deterministic in `(seed, count, cache_sample, shrink_budget)`: `jobs`
/// only changes scheduling, never the report.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let campaign = generate_campaign(opts.seed, opts.count);
    let mut findings: Vec<Finding> = campaign
        .defects
        .iter()
        .map(|detail| Finding {
            index: 0,
            kind: FindingKind::GeneratorDefect,
            program: "-".to_string(),
            family: "-".to_string(),
            engine: "-".to_string(),
            detail: detail.clone(),
            scenario: None,
            source: String::new(),
            shrunk: false,
        })
        .collect();

    let expected_safe = campaign.programs.iter().filter(|p| p.expected == Expected::Safe).count();
    let mut report = FuzzReport {
        seed: opts.seed,
        count: opts.count,
        generated: campaign.programs.len(),
        expected_safe,
        expected_unsafe: campaign.programs.len() - expected_safe,
        discarded: campaign.discarded.len(),
        engine_runs: 0,
        cexes_validated: 0,
        cache_checked: 0,
        certs_audited: 0,
        findings: Vec::new(),
    };

    let cache_cutoff = opts.cache_sample.min(campaign.programs.len());
    let queue: Mutex<VecDeque<(usize, &GeneratedProgram)>> =
        Mutex::new(campaign.programs.iter().enumerate().collect());
    let results: Mutex<Vec<(usize, Vec<Finding>, CheckCounts)>> = Mutex::new(Vec::new());
    let jobs = opts.jobs.max(1).min(campaign.programs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let Some((pos, p)) = queue.lock().expect("fuzz queue poisoned").pop_front() else {
                    break;
                };
                let (found, counts) =
                    check_program(p, pos < cache_cutoff, opts.certify, opts.timeout_ms);
                results.lock().expect("fuzz sink poisoned").push((pos, found, counts));
            });
        }
    });
    let mut results = results.into_inner().expect("fuzz sink poisoned");
    results.sort_by_key(|(pos, _, _)| *pos);
    for (_, found, counts) in results {
        findings.extend(found);
        report.engine_runs += counts.engine_runs;
        report.cexes_validated += counts.cexes_validated;
        report.cache_checked += counts.cache_checked;
        report.certs_audited += counts.certs_audited;
    }
    findings.sort_by(|a, b| {
        (a.index, a.kind, a.engine.as_str()).cmp(&(b.index, b.kind, b.engine.as_str()))
    });
    report.findings = shrink_findings(findings, opts.shrink_budget);
    report
}

impl Finding {
    /// The JSON rendering of one finding (no wall times, fully
    /// deterministic).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("kind", Json::Str(self.kind.label().to_string())),
            ("program", Json::Str(self.program.clone())),
            ("family", Json::Str(self.family.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("shrunk", Json::Bool(self.shrunk)),
            ("source", Json::Str(self.source.clone())),
        ])
    }

    /// A stable file name for the reproducer of this finding.
    pub fn reproducer_name(&self) -> String {
        let engine: String =
            self.engine.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        format!("{}_{}_{engine}.pinv", self.kind.label().replace('-', "_"), self.family)
    }
}

impl FuzzReport {
    /// The deterministic JSON rendering of the whole campaign.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Int(crate::SCHEMA_VERSION)),
            ("seed", Json::Int(self.seed as i64)),
            ("count", Json::Int(self.count as i64)),
            ("generated", Json::Int(self.generated as i64)),
            ("expected_safe", Json::Int(self.expected_safe as i64)),
            ("expected_unsafe", Json::Int(self.expected_unsafe as i64)),
            ("discarded", Json::Int(self.discarded as i64)),
            ("engine_runs", Json::Int(self.engine_runs as i64)),
            ("cexes_validated", Json::Int(self.cexes_validated as i64)),
            ("cache_checked", Json::Int(self.cache_checked as i64)),
            ("certs_audited", Json::Int(self.certs_audited as i64)),
            ("findings", Json::Array(self.findings.iter().map(Finding::to_json).collect())),
        ])
    }

    /// A short human-readable summary.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "fuzz: seed {} generated {} programs ({} safe, {} unsafe, {} discarded); \
             {} engine runs, {} counterexamples validated, {} cache-parity checks, \
             {} certificates audited\n",
            self.seed,
            self.generated,
            self.expected_safe,
            self.expected_unsafe,
            self.discarded,
            self.engine_runs,
            self.cexes_validated,
            self.cache_checked,
            self.certs_audited,
        );
        if self.findings.is_empty() {
            out.push_str("fuzz: no disagreements\n");
        } else {
            out.push_str(&format!("fuzz: {} finding(s):\n", self.findings.len()));
            for f in &self.findings {
                out.push_str(&format!(
                    "  [{}] {} ({}, {}): {}\n",
                    f.kind.label(),
                    f.program,
                    f.family,
                    f.engine,
                    f.detail
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_kinds_have_distinct_labels() {
        let kinds = [
            FindingKind::GeneratorDefect,
            FindingKind::EngineError,
            FindingKind::EngineDisagreement,
            FindingKind::ExpectedSafeViolated,
            FindingKind::ExpectedUnsafeViolated,
            FindingKind::CexIntegrallyInfeasible,
            FindingKind::CexIntegralityUnknown,
            FindingKind::CexReplayDiverged,
            FindingKind::WitnessReplayFailed,
            FindingKind::CacheParity,
            FindingKind::CertificateMissing,
            FindingKind::CertificateRejected,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn small_campaign_is_deterministic_across_jobs() {
        let base = FuzzOptions { seed: 11, count: 8, cache_sample: 2, ..FuzzOptions::default() };
        let a = run_fuzz(&FuzzOptions { jobs: 1, ..base.clone() });
        let b = run_fuzz(&FuzzOptions { jobs: 3, ..base });
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn certified_campaign_audits_every_engine_verdict() {
        let opts = FuzzOptions {
            seed: 7,
            count: 6,
            cache_sample: 0,
            certify: true,
            ..FuzzOptions::default()
        };
        let report = run_fuzz(&opts);
        // One audit per portfolio engine per generated program.
        assert_eq!(report.certs_audited, report.generated * 4);
        let cert_findings: Vec<&Finding> =
            report.findings.iter().filter(|f| certify_for(f.kind)).collect();
        assert!(cert_findings.is_empty(), "{cert_findings:?}");
    }
}
