//! The batch workload (`paper-corpus`): every (program, lane) pair through
//! `pathinv_core::run_job` on a small worker pool, each conclusive verdict
//! audited by `pathinv_check::check_certificate`.

use crate::report::{median, quantile, ratio, Metrics, Records};
use pathinv_check::{check_certificate, CheckLimits};
use pathinv_core::{
    run_job, BmcConfig, CancellationToken, CegarConfig, EngineSpec, JobSpec, PdrConfig,
    VerifierStats,
};
use pathinv_invgen::{synth_stats_snapshot, SynthCounters};
use pathinv_ir::Program;
use pathinv_smt::{stats_snapshot, SmtStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The four portfolio lanes, as metric-name fragments.
pub const LANES: [&str; 4] = ["cegar_pi", "cegar_pp", "bmc", "pdr"];

/// The engine configuration of lane `lane`: the defaults
/// `pathinv-cli --engine portfolio` runs.
pub fn lane_spec(lane: usize) -> EngineSpec {
    match lane {
        0 => EngineSpec::Cegar(CegarConfig::path_invariants()),
        1 => EngineSpec::Cegar(CegarConfig::path_predicates(
            pathinv_cli::DEFAULT_BASELINE_REFINEMENTS,
        )),
        2 => EngineSpec::Bmc(BmcConfig::default()),
        _ => EngineSpec::Pdr(PdrConfig::default()),
    }
}

/// One program with its known answer.
pub struct Input {
    pub name: String,
    pub program: Program,
    pub safe: bool,
    /// The front-end source, for generated programs.
    pub source: Option<String>,
}

/// What the independent checker said about a task's certificate.
#[derive(Clone, Debug, PartialEq)]
pub enum Audit {
    /// The verdict is inconclusive: nothing to audit.
    Vacuous,
    Valid,
    /// Conclusive verdict without a certificate.
    Missing,
    /// Wrong polarity, invalid, or beyond the checker's budget.
    Rejected(String),
}

/// One (program, lane) run.
pub struct TaskResult {
    pub prog: usize,
    pub lane: usize,
    pub verdict: String,
    pub detail: String,
    pub cert_kind: &'static str,
    pub cert_digest: String,
    pub audit: Audit,
    pub lane_ms: f64,
    pub audit_ms: f64,
    pub refinements: usize,
    pub art_nodes: usize,
    pub stats: VerifierStats,
    /// Thread-local counter deltas around the lane (traced passes only).
    pub smt: Option<SmtStats>,
    pub synth: Option<SynthCounters>,
}

impl TaskResult {
    pub fn conclusive(&self) -> bool {
        self.verdict == "safe" || self.verdict == "unsafe"
    }

    pub fn total_ms(&self) -> f64 {
        self.lane_ms + self.audit_ms
    }

    /// Every deterministic field, rendered for the drift check.
    fn record(&self) -> String {
        let s = &self.stats;
        let mut out = format!("{} {}", self.verdict, self.cert_digest);
        for n in [
            self.refinements as u64,
            self.art_nodes as u64,
            s.solver_calls,
            s.simplex_calls,
            s.simplex_warm_checks,
            s.interpolant_calls,
            s.smt_queries,
            s.query_cache_hits,
            s.post_queries,
            s.post_cache_hits,
            s.reach_solver_calls,
            s.cex_solver_calls,
            s.refine_solver_calls,
            s.engine_depth,
            s.engine_nodes,
            s.engine_lemmas,
            s.synth_systems_solved,
            s.synth_branches_explored,
            s.synth_branches_pruned,
            s.synth_cores_learned,
            s.synth_memo_hits,
        ] {
            let _ = write!(out, " {n}");
        }
        if let (Some(m), Some(y)) = (&self.smt, &self.synth) {
            for n in [
                m.sat_checks,
                m.simplex_calls,
                m.simplex_warm_checks,
                m.interpolant_calls,
                y.systems_solved,
                y.branches_explored,
                y.branches_pruned,
                y.cores_learned,
                y.memo_hits,
            ] {
                let _ = write!(out, " {n}");
            }
        }
        out
    }
}

fn audit(program: &Program, verdict: &str, cert: Option<&pathinv_check::Certificate>) -> Audit {
    if verdict != "safe" && verdict != "unsafe" {
        return Audit::Vacuous;
    }
    let Some(cert) = cert else {
        return Audit::Missing;
    };
    if cert.claims_safety() != (verdict == "safe") {
        return Audit::Rejected(format!("{} certificate for a {verdict} verdict", cert.kind()));
    }
    match check_certificate(program, cert, &CheckLimits::default()) {
        pathinv_check::CertVerdict::Valid => Audit::Valid,
        other => {
            Audit::Rejected(format!("{}: {}", other.name(), other.reason().unwrap_or_default()))
        }
    }
}

fn run_task(inputs: &[Input], prog: usize, lane: usize, traced: bool) -> TaskResult {
    let input = &inputs[prog];
    let spec = JobSpec::new(lane_spec(lane));
    let before = traced.then(|| (stats_snapshot(), synth_stats_snapshot()));
    let start = Instant::now();
    let outcome = run_job(&spec, &input.program, &CancellationToken::new());
    let lane_ms = start.elapsed().as_secs_f64() * 1e3;
    let (smt, synth) = match before {
        Some((s, y)) => (Some(stats_snapshot().since(&s)), Some(synth_stats_snapshot().since(&y))),
        None => (None, None),
    };
    let start = Instant::now();
    let audit = audit(&input.program, &outcome.verdict, outcome.certificate.as_ref());
    let audit_ms = if audit == Audit::Vacuous { 0.0 } else { start.elapsed().as_secs_f64() * 1e3 };
    let (cert_kind, cert_digest) = match &outcome.certificate {
        Some(c) => (c.kind(), c.digest()),
        None => ("-", "-".to_string()),
    };
    TaskResult {
        prog,
        lane,
        verdict: outcome.verdict,
        detail: outcome.detail,
        cert_kind,
        cert_digest,
        audit,
        lane_ms,
        audit_ms,
        refinements: outcome.refinements,
        art_nodes: outcome.art_nodes,
        stats: outcome.stats,
        smt,
        synth,
    }
}

/// One pass over every (program, lane) pair.
pub struct Pass {
    pub wall_s: f64,
    /// Peak resident set of the process during the pass.
    pub peak_rss_mb: f64,
    pub traced: bool,
    /// Sorted by (program, lane).
    pub tasks: Vec<TaskResult>,
}

/// Runs every task once on `workers` threads, pulling from one shared
/// queue in (program, lane) order; each task runs wholly on one thread, so
/// the thread-local counter deltas belong to it alone.
pub fn run_pass(inputs: &[Input], workers: usize, traced: bool) -> Pass {
    let total = inputs.len() * LANES.len();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(total));
    // Restart the kernel's resident-set high-water mark for this pass.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let task = run_task(inputs, i / LANES.len(), i % LANES.len(), traced);
                results.lock().expect("a worker panicked while holding the results").push(task);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tasks = results.into_inner().expect("a worker panicked while holding the results");
    tasks.sort_by_key(|t| (t.prog, t.lane));
    Pass { wall_s, peak_rss_mb: crate::report::peak_rss_mb("self"), traced, tasks }
}

impl Pass {
    /// The failures of this pass, one line each: errored or cancelled
    /// tasks, conclusive verdicts contradicting the known answer, missing
    /// or rejected certificates, and programs whose lanes disagree.
    pub fn failures(&self, inputs: &[Input]) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tasks {
            let input = &inputs[t.prog];
            let lane = LANES[t.lane];
            if t.verdict == "error" || t.verdict == "cancelled" {
                out.push(format!("{} {lane}: {} ({})", input.name, t.verdict, t.detail));
            }
            if t.conclusive() && (t.verdict == "safe") != input.safe {
                let known = if input.safe { "safe" } else { "unsafe" };
                out.push(format!(
                    "{} {lane}: verdict {} but the program is {known}",
                    input.name, t.verdict
                ));
            }
            match &t.audit {
                Audit::Missing => {
                    out.push(format!("{} {lane}: {} without a certificate", input.name, t.verdict))
                }
                Audit::Rejected(why) => {
                    out.push(format!("{} {lane}: certificate rejected ({why})", input.name))
                }
                Audit::Vacuous | Audit::Valid => {}
            }
        }
        for (prog, lanes) in self.tasks.chunks(LANES.len()).enumerate() {
            let safe = lanes.iter().any(|t| t.verdict == "safe");
            let unsafe_ = lanes.iter().any(|t| t.verdict == "unsafe");
            if safe && unsafe_ {
                out.push(format!("{}: lanes disagree", inputs[prog].name));
            }
        }
        out
    }

    /// Every verdict, certificate digest and deterministic counter of the
    /// pass, by (program, lane).
    pub fn records(&self) -> Records {
        self.tasks.iter().map(|t| ((t.prog, t.lane), t.record())).collect()
    }

    /// Programs with at least one conclusive lane.
    pub fn decided(&self) -> usize {
        self.tasks.chunks(LANES.len()).filter(|l| l.iter().any(TaskResult::conclusive)).count()
    }

    /// Per lane: conclusive verdicts no other lane reached.
    pub fn unique(&self) -> [usize; 4] {
        let mut unique = [0; 4];
        for lanes in self.tasks.chunks(LANES.len()) {
            let conclusive: Vec<&TaskResult> = lanes.iter().filter(|t| t.conclusive()).collect();
            if let [only] = conclusive.as_slice() {
                unique[only.lane] += 1;
            }
        }
        unique
    }

    /// The per-lane table: conclusive and unique verdicts, time to verdict,
    /// and the lane's total time.
    pub fn lane_table(&self) -> String {
        let unique = self.unique();
        let mut out = format!(
            "{:<9} {:>6} {:>10} {:>7} {:>17} {:>13}\n",
            "lane", "tasks", "conclusive", "unique", "verdict p50 (ms)", "lane total (ms)"
        );
        for (lane, name) in LANES.iter().enumerate() {
            let tasks: Vec<&TaskResult> = self.tasks.iter().filter(|t| t.lane == lane).collect();
            let to_verdict: Vec<f64> =
                tasks.iter().filter(|t| t.conclusive()).map(|t| t.lane_ms).collect();
            let total: f64 = tasks.iter().map(|t| t.lane_ms).sum();
            let _ = writeln!(
                out,
                "{name:<9} {:>6} {:>10} {:>7} {:>17.3} {:>13.3}",
                tasks.len(),
                to_verdict.len(),
                unique[lane],
                median(&to_verdict),
                total
            );
        }
        out
    }
}

/// End-to-end metrics over the untraced passes.
pub fn end_to_end(passes: &[&Pass], setup_s: f64, inputs: usize, metrics: &mut Metrics) {
    let tasks = || passes.iter().flat_map(|p| p.tasks.iter());
    let all: Vec<f64> = tasks().map(TaskResult::total_ms).collect();
    let engine: Vec<f64> = tasks().map(|t| t.lane_ms).collect();
    let audits: Vec<f64> =
        tasks().filter(|t| t.audit != Audit::Vacuous).map(|t| t.audit_ms).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.peak_rss_mb).collect();
    let batch_s = median(&walls);
    metrics.push("setup_s", setup_s, "s");
    metrics.push("batch_s", batch_s, "s");
    metrics.push("task_p50_ms", quantile(&all, 0.5), "ms");
    metrics.push("task_p95_ms", quantile(&all, 0.95), "ms");
    metrics.push("decided_ratio", ratio(passes[0].decided() as f64, inputs as f64), "ratio");
    metrics.push("peak_rss_mb", median(&rss), "MiB");
    metrics.push("req_per_s", ratio(passes[0].tasks.len() as f64, batch_s), "1/s");
    metrics.push("cold_p50_ms", quantile(&engine, 0.5), "ms");
    metrics.push("cold_p95_ms", quantile(&engine, 0.95), "ms");
    metrics.push("warm_p50_ms", quantile(&audits, 0.5), "ms");
}

/// Per-layer metrics of one traced pass.
pub fn per_layer(pass: &Pass, workers: usize, metrics: &mut Metrics) -> LayerTotals {
    let mut lane_ms = [0.0; 4];
    let mut l = LayerTotals::default();
    for t in &pass.tasks {
        lane_ms[t.lane] += t.lane_ms;
        let s = &t.stats;
        l.reach_ms += s.reach_ms;
        l.cex_ms += s.cex_ms;
        l.refine_ms += s.refine_ms;
        l.refinements += t.refinements as u64;
        l.art_nodes += t.art_nodes as u64;
        l.post_queries += s.post_queries;
        l.post_hits += s.post_cache_hits;
        l.queries += s.smt_queries;
        l.query_hits += s.query_cache_hits;
        match t.lane {
            2 => l.bmc_depth += s.engine_depth,
            3 => {
                l.pdr_obligations += s.engine_nodes;
                l.pdr_lemmas += s.engine_lemmas;
            }
            _ => {}
        }
        if let (Some(m), Some(y)) = (&t.smt, &t.synth) {
            l.smt = l.smt.plus(m);
            l.synth.systems_solved += y.systems_solved;
            l.synth.branches_explored += y.branches_explored;
            l.synth.branches_pruned += y.branches_pruned;
            l.synth.cores_learned += y.cores_learned;
            l.synth.memo_hits += y.memo_hits;
        }
        if t.audit != Audit::Vacuous {
            l.audit_ms += t.audit_ms;
            l.proof_ms += t.lane_ms;
            match t.cert_kind {
                "inductive" => l.inductive_ms += t.audit_ms,
                "bounded-unroll" => l.bounded_ms += t.audit_ms,
                _ => l.trace_ms += t.audit_ms,
            }
        }
        if matches!(t.audit, Audit::Rejected(_) | Audit::Missing) {
            l.rejected += 1;
        }
        l.busy_ms += t.total_ms();
    }
    for (lane, name) in LANES.iter().enumerate() {
        metrics.push(format!("core.{name}_ms"), lane_ms[lane], "ms");
    }
    l.conclusive = pass.tasks.iter().filter(|t| t.conclusive()).count() as u64;
    l.lanes_run = pass.tasks.len() as u64;
    l.unique = pass.unique().map(|u| u as u64);
    l.idle_ratio = 1.0 - ratio(l.busy_ms, workers as f64 * pass.wall_s * 1e3);
    l
}

/// Layer sums shared by the batch and served workloads.
#[derive(Default)]
pub struct LayerTotals {
    pub reach_ms: f64,
    pub cex_ms: f64,
    pub refine_ms: f64,
    pub refinements: u64,
    pub art_nodes: u64,
    pub post_queries: u64,
    pub post_hits: u64,
    pub queries: u64,
    pub query_hits: u64,
    pub bmc_depth: u64,
    pub pdr_obligations: u64,
    pub pdr_lemmas: u64,
    pub conclusive: u64,
    pub lanes_run: u64,
    pub unique: [u64; 4],
    pub smt: SmtStats,
    pub synth: SynthCounters,
    /// Audit time of the workload's own certificates.
    pub audit_ms: f64,
    /// Audit time of the probe certificates (`probes::audit_probe`).
    pub probe_audit_ms: f64,
    pub proof_ms: f64,
    pub inductive_ms: f64,
    pub bounded_ms: f64,
    pub trace_ms: f64,
    pub rejected: u64,
    pub busy_ms: f64,
    pub idle_ratio: f64,
}

impl LayerTotals {
    /// Pushes the core, smt, invgen, check and cli.batch metrics.
    pub fn push(&self, metrics: &mut Metrics) {
        metrics.push("core.reach_ms", self.reach_ms, "ms");
        metrics.push("core.cex_ms", self.cex_ms, "ms");
        metrics.push("core.refine_ms", self.refine_ms, "ms");
        metrics.push("core.refinements", self.refinements as f64, "count");
        metrics.push("core.art_nodes", self.art_nodes as f64, "count");
        metrics.push(
            "core.post_hit_ratio",
            ratio(self.post_hits as f64, self.post_queries as f64),
            "ratio",
        );
        metrics.push(
            "core.query_hit_ratio",
            ratio(self.query_hits as f64, self.queries as f64),
            "ratio",
        );
        metrics.push("core.bmc_depth", self.bmc_depth as f64, "count");
        metrics.push("core.pdr_obligations", self.pdr_obligations as f64, "count");
        metrics.push("core.pdr_lemmas", self.pdr_lemmas as f64, "count");
        metrics.push(
            "core.lane_useful_ratio",
            ratio(self.conclusive as f64, self.lanes_run as f64),
            "ratio",
        );
        for (lane, name) in LANES.iter().enumerate() {
            metrics.push(format!("core.unique.{name}"), self.unique[lane] as f64, "count");
        }
        let m = &self.smt;
        metrics.push("smt.sat_checks", m.sat_checks as f64, "count");
        metrics.push("smt.simplex_cold", m.simplex_calls as f64, "count");
        metrics.push("smt.simplex_warm", m.simplex_warm_checks as f64, "count");
        metrics.push("smt.interpolants", m.interpolant_calls as f64, "count");
        metrics.push(
            "smt.warm_ratio",
            ratio(m.simplex_warm_checks as f64, (m.simplex_calls + m.simplex_warm_checks) as f64),
            "ratio",
        );
        metrics.push(
            "smt.cold_per_check",
            ratio(m.simplex_calls as f64, m.sat_checks as f64),
            "ratio",
        );
        let y = &self.synth;
        metrics.push("invgen.systems_solved", y.systems_solved as f64, "count");
        metrics.push("invgen.branches_explored", y.branches_explored as f64, "count");
        metrics.push("invgen.branches_pruned", y.branches_pruned as f64, "count");
        metrics.push(
            "invgen.prune_ratio",
            ratio(y.branches_pruned as f64, y.branches_explored as f64),
            "ratio",
        );
        metrics.push("invgen.cores_learned", y.cores_learned as f64, "count");
        metrics.push("invgen.memo_hits", y.memo_hits as f64, "count");
        metrics.push("check.audit_ms", self.audit_ms + self.probe_audit_ms, "ms");
        metrics.push("check.inductive_ms", self.inductive_ms, "ms");
        metrics.push("check.bounded_ms", self.bounded_ms, "ms");
        metrics.push("check.trace_ms", self.trace_ms, "ms");
        metrics.push("check.audit_per_proof", ratio(self.audit_ms, self.proof_ms), "ratio");
        metrics.push("check.rejected", self.rejected as f64, "count");
        metrics.push("cli.batch.idle_ratio", self.idle_ratio, "ratio");
    }
}
