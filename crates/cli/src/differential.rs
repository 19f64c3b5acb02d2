//! Differential corpus checking: cross-engine verdict agreement.
//!
//! A second (and third) verification engine is only worth its keep if it can
//! be *trusted* — and the cheapest trust argument is an oracle check: run
//! every engine over every corpus program and demand that no two engines
//! reach *contradictory* conclusions.  Under the soundness contract of
//! [`VerificationEngine`](pathinv_core::VerificationEngine) (DESIGN.md §8),
//! a `safe` verdict carries a proof and an `unsafe` verdict carries a
//! validated counterexample, so `safe` vs `unsafe` on the same program is
//! always a bug in one engine.  `unknown` is "no opinion" — a bounded BMC
//! run or a PDR frame-bound give-up never counts as a disagreement — and an
//! *errored* task is reported per program so that an engine that crashes on
//! exactly one corpus entry cannot hide behind the others' verdicts.
//!
//! [`DifferentialReport::from_batch`] groups a portfolio
//! [`BatchReport`] by program; the CLI hard-fails (nonzero exit) when
//! [`DifferentialReport::disagreements`] is non-empty, and the
//! `differential-smoke` CI job runs exactly that over the full corpus.

use crate::json::Json;
use crate::{engine_label, engine_rank, BatchReport};
use std::collections::BTreeMap;

/// One engine's verdict on one program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineVerdict {
    /// The engine name (`"cegar"`, `"bmc"`, `"pdr"`).
    pub engine: String,
    /// The refiner (CEGAR tasks) or [`NO_REFINER`](crate::NO_REFINER).
    pub refiner: String,
    /// `"safe"`, `"unsafe"`, `"unknown"`, or `"error"`.
    pub verdict: String,
}

impl EngineVerdict {
    /// The engine/refiner column label (`"cegar/path-invariants"`, `"bmc"`,
    /// ...), as [`engine_label`] spells it.
    pub fn label(&self) -> String {
        engine_label(&self.engine, &self.refiner)
    }
}

/// The cross-engine comparison for one program.
#[derive(Clone, Debug)]
pub struct ProgramDiff {
    /// Report name of the program.
    pub program: String,
    /// Every engine's verdict, in deterministic engine order.
    pub verdicts: Vec<EngineVerdict>,
    /// The portfolio verdict: the first conclusive (`safe`/`unsafe`) verdict
    /// in engine order, `"unknown"` when no engine concludes,
    /// `"disagreement"` when conclusive verdicts contradict each other.
    pub combined: String,
    /// Engines whose task errored on this program.
    pub errors: Vec<String>,
}

impl ProgramDiff {
    /// Whether conclusive verdicts contradict each other on this program.
    pub fn is_disagreement(&self) -> bool {
        self.combined == "disagreement"
    }
}

/// The differential section of a portfolio run.
#[derive(Clone, Debug)]
pub struct DifferentialReport {
    /// Per-program comparisons, in report order.
    pub programs: Vec<ProgramDiff>,
}

impl DifferentialReport {
    /// Groups a (portfolio) batch report by program — by name, not by
    /// adjacency, so even a hand-assembled report with interleaved task
    /// order cannot split a program into two groups and hide a conflict —
    /// and compares verdicts across engines.
    pub fn from_batch(report: &BatchReport) -> DifferentialReport {
        let mut by_program: BTreeMap<&str, ProgramDiff> = BTreeMap::new();
        for task in &report.tasks {
            let current =
                by_program.entry(task.program_name.as_str()).or_insert_with(|| ProgramDiff {
                    program: task.program_name.clone(),
                    verdicts: Vec::new(),
                    combined: String::new(),
                    errors: Vec::new(),
                });
            current.verdicts.push(EngineVerdict {
                engine: task.engine.clone(),
                refiner: task.refiner.clone(),
                verdict: task.verdict.clone(),
            });
            if task.verdict == "error" {
                current.errors.push(task.engine_label());
            }
        }
        let mut programs: Vec<ProgramDiff> = by_program.into_values().collect();
        for p in &mut programs {
            p.verdicts.sort_by_key(|v| engine_rank(&v.engine, &v.refiner));
            p.combined = combine(&p.verdicts);
        }
        DifferentialReport { programs }
    }

    /// Human-readable descriptions of every verdict disagreement (empty =
    /// the engines agree on the whole corpus).
    pub fn disagreements(&self) -> Vec<String> {
        self.programs
            .iter()
            .filter(|p| p.is_disagreement())
            .map(|p| {
                let verdicts: Vec<String> = p
                    .verdicts
                    .iter()
                    .filter(|v| v.verdict == "safe" || v.verdict == "unsafe")
                    .map(|v| format!("{} says {}", v.label(), v.verdict))
                    .collect();
                format!("{}: {}", p.program, verdicts.join(", "))
            })
            .collect()
    }

    /// Per-program engine errors, rendered (`"FORWARD: bmc errored"`).
    pub fn errors(&self) -> Vec<String> {
        self.programs
            .iter()
            .flat_map(|p| p.errors.iter().map(move |e| format!("{}: {} errored", p.program, e)))
            .collect()
    }

    /// The JSON rendering of the differential section.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            (
                "programs",
                Json::Array(
                    self.programs
                        .iter()
                        .map(|p| {
                            Json::object(vec![
                                ("program", Json::Str(p.program.clone())),
                                (
                                    "verdicts",
                                    Json::Object(
                                        p.verdicts
                                            .iter()
                                            .map(|v| (v.label(), Json::Str(v.verdict.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("combined", Json::Str(p.combined.clone())),
                                (
                                    "errors",
                                    Json::Array(
                                        p.errors.iter().map(|e| Json::Str(e.clone())).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("disagreements", Json::Int(self.disagreements().len() as i64)),
            ("engine_errors", Json::Int(self.errors().len() as i64)),
        ])
    }

    /// A one-paragraph human-readable summary, listing disagreements and
    /// per-engine errors when present.
    pub fn render_summary(&self) -> String {
        let conclusive =
            self.programs.iter().filter(|p| p.combined == "safe" || p.combined == "unsafe").count();
        let mut out = format!(
            "differential: {} programs cross-checked, {} concluded, {} disagreements\n",
            self.programs.len(),
            conclusive,
            self.disagreements().len(),
        );
        for d in self.disagreements() {
            out.push_str(&format!("  DISAGREEMENT {d}\n"));
        }
        for e in self.errors() {
            out.push_str(&format!("  ERROR {e}\n"));
        }
        out
    }
}

/// Combines one program's verdicts: disagreement dominates; otherwise the
/// first conclusive verdict in engine order; otherwise `unknown`.
///
/// Only `safe` and `unsafe` carry an opinion.  `unknown`, `error`, and
/// `cancelled` (a lane stopped by the racing harness) all fall through: a
/// cancelled engine never contradicts — and never corroborates — anything.
fn combine(verdicts: &[EngineVerdict]) -> String {
    let safe = verdicts.iter().any(|v| v.verdict == "safe");
    let unsafe_ = verdicts.iter().any(|v| v.verdict == "unsafe");
    if safe && unsafe_ {
        return "disagreement".to_string();
    }
    verdicts
        .iter()
        .map(|v| v.verdict.as_str())
        .find(|v| *v == "safe" || *v == "unsafe")
        .unwrap_or("unknown")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskReport, VerifierStats};

    fn task(program: &str, engine: &str, refiner: &str, verdict: &str) -> TaskReport {
        TaskReport {
            program_name: program.to_string(),
            engine: engine.to_string(),
            refiner: refiner.to_string(),
            verdict: verdict.to_string(),
            detail: String::new(),
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            wall_ms: 0.0,
            cert_kind: String::new(),
            cert_size: 0,
            cert_digest: String::new(),
            cert_verdict: String::new(),
            cert_reason: String::new(),
            cert_check_ms: 0.0,
            stats: VerifierStats::default(),
        }
    }

    fn batch(tasks: Vec<TaskReport>) -> BatchReport {
        BatchReport { jobs: 1, tasks, wall_ms_total: 0.0 }
    }

    #[test]
    fn agreement_with_unknown_is_not_a_disagreement() {
        // BMC giving up at its bound must never contradict a CEGAR proof.
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "safe"),
            task("P", "bmc", "-", "unknown"),
            task("P", "pdr", "-", "unknown"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        assert!(diff.disagreements().is_empty());
        assert_eq!(diff.programs[0].combined, "safe");
    }

    #[test]
    fn interleaved_task_order_cannot_hide_a_conflict() {
        // Grouping is by program name, not adjacency: a hand-assembled
        // report with interleaved tasks must still pair P's verdicts up.
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "safe"),
            task("Q", "bmc", "-", "unknown"),
            task("P", "bmc", "-", "unsafe"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        assert_eq!(diff.disagreements().len(), 1, "{:?}", diff.programs);
        assert_eq!(diff.programs.len(), 2);
    }

    #[test]
    fn cancelled_is_no_opinion() {
        // A lane the racing harness cancelled must neither contradict nor
        // corroborate: the combination skips it exactly like `unknown`.
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "cancelled"),
            task("P", "bmc", "-", "unsafe"),
            task("Q", "cegar", "path-invariants", "cancelled"),
            task("Q", "bmc", "-", "cancelled"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        assert!(diff.disagreements().is_empty());
        assert_eq!(diff.programs[0].combined, "unsafe");
        assert_eq!(diff.programs[1].combined, "unknown");
        assert!(diff.errors().is_empty(), "cancelled is not an error");
    }

    #[test]
    fn conclusive_conflict_is_a_disagreement() {
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "safe"),
            task("P", "bmc", "-", "unsafe"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        let ds = diff.disagreements();
        assert_eq!(ds.len(), 1);
        assert!(ds[0].contains("cegar/path-invariants says safe"), "{ds:?}");
        assert!(ds[0].contains("bmc says unsafe"), "{ds:?}");
        assert_eq!(diff.programs[0].combined, "disagreement");
    }

    #[test]
    fn an_engine_erroring_on_one_program_is_surfaced() {
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "unsafe"),
            task("P", "bmc", "-", "error"),
            task("Q", "cegar", "path-invariants", "safe"),
            task("Q", "bmc", "-", "safe"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        assert!(diff.disagreements().is_empty(), "an error is not a verdict");
        assert_eq!(diff.errors(), vec!["P: bmc errored".to_string()]);
        // The other engines' verdicts still combine.
        assert_eq!(diff.programs[0].combined, "unsafe");
        let json = diff.to_json();
        assert_eq!(json.get("engine_errors").and_then(Json::as_int), Some(1));
    }

    #[test]
    fn combined_verdict_prefers_the_engine_order() {
        let report = batch(vec![
            task("P", "cegar", "path-invariants", "unknown"),
            task("P", "cegar", "path-predicates", "unknown"),
            task("P", "bmc", "-", "safe"),
            task("P", "pdr", "-", "safe"),
        ]);
        let diff = DifferentialReport::from_batch(&report);
        assert_eq!(diff.programs[0].combined, "safe");
        let summary = diff.render_summary();
        assert!(summary.contains("1 programs cross-checked"), "{summary}");
        assert!(summary.contains("0 disagreements"), "{summary}");
    }
}
