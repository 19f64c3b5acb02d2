//! PDR-lite: property-directed reachability over frames of predicate
//! clauses.
//!
//! Where CEGAR refines a global abstraction from spurious paths and BMC
//! unrolls paths explicitly, PDR builds an inductive invariant *frame by
//! frame* (Bradley's IC3, adapted to control-flow graphs; see Beyer &
//! Dangl's study of PDR for software in PAPERS.md).  The engine maintains a
//! frame sequence `F_0, F_1, ..., F_N` where `F_i` maps every control
//! location to a conjunction of clause lemmas overapproximating the states
//! reachable there in at most `i` steps:
//!
//! * `F_0` is exact: the entry location holds arbitrary initial states,
//!   every other location is empty.
//! * Monotonicity `F_i ⊨ F_{i+1}` holds by construction: a lemma carries the
//!   highest frame index it is valid at and belongs to every frame below.
//!
//! Each major iteration *blocks* the error location at the next frame by
//! recursively discharging proof obligations `(frame, location, cube)` —
//! "show the states in `cube` unreachable at `location` within `frame`
//! steps".  An obligation is analysed through the exact weakest-precondition
//! preimages of its cube along incoming transitions; a satisfiable preimage
//! against the previous frame spawns a child obligation, an unsatisfiable
//! one everywhere lets the engine learn the negated cube as a lemma.
//! Learned cubes are *generalized* two ways before they become lemmas:
//!
//! * **literal dropping** — conjuncts are removed one at a time while the
//!   cube stays blocked, the standard inductive generalization;
//! * **Farkas interpolants** — when a blocking query is unsatisfiable
//!   already in its linear-arithmetic part, the existing interpolation
//!   module ([`pathinv_smt::sequence_interpolants`]) turns its certificate
//!   into a lemma at the predecessor location: the interpolant `I` is
//!   implied by the preimage cube and inconsistent with the predecessor
//!   frame, so `¬I` is entailed by the frame (sound) and blocks the cube
//!   (useful once propagation pushes it forward).
//!
//! A *propagation* pass then pushes every lemma to the next frame when it
//! remains blocked there, and the run concludes **Safe** as soon as two
//! adjacent frames coincide while blocking the error location — that frame
//! is a safe inductive invariant, reported through
//! [`VerificationResult::predicate_map`].  Obligations that reach the entry
//! location with a satisfiable cube yield a candidate counterexample trace,
//! which is re-validated against the concrete SSA path formula before the
//! engine claims **Unsafe** (preimages are exact except under `havoc`, whose
//! conjunct-dropping overapproximation could otherwise smuggle in a spurious
//! trace).  Everything else — frame bound, obligation budget, solver
//! case-split budget — is an honest [`Verdict::Unknown`].
//!
//! # Example
//!
//! ```
//! use pathinv_core::{PdrEngine, VerificationEngine};
//! use pathinv_ir::parse_program;
//!
//! let buggy = parse_program(
//!     "proc bug(n: int) {
//!          var i: int; var s: int;
//!          assume(n > 0);
//!          i = 0; s = 1;
//!          while (i < n) { s = s + 1; i = i + 1; }
//!          assert(s == n);
//!      }",
//! )?;
//! let result = PdrEngine::default().verify(&buggy)?;
//! assert!(result.verdict.is_unsafe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cegar::{Verdict, VerificationResult, VerifierStats, CEX_INTEGRALITY_NODES};
use crate::engine::VerificationEngine;
use crate::error::{CoreError, CoreResult};
use crate::predabs::PredicateMap;
use pathinv_check::{decode_model, Certificate, InvariantCert};
use pathinv_ir::{ssa, Action, Formula, Loc, Path, Program, RelOp, TransId};
use pathinv_smt::{
    sequence_interpolants, stats_snapshot, CancellationToken, IntSatResult, LinConstraint, Solver,
    SolverContext,
};
use std::collections::BTreeMap;

/// Configuration of the PDR-lite engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PdrConfig {
    /// Maximum number of frames before the engine gives up with
    /// [`Verdict::Unknown`].
    pub max_frames: usize,
    /// Budget of proof obligations across the whole run; exhausting it is
    /// resource exhaustion, reported as [`Verdict::Unknown`].
    pub max_obligations: u64,
    /// Budget of solver queries (blocking, generalization, propagation)
    /// across the whole run; exhausting it is resource exhaustion.
    pub max_queries: u64,
}

impl Default for PdrConfig {
    fn default() -> Self {
        PdrConfig { max_frames: 12, max_obligations: 400, max_queries: 4000 }
    }
}

/// The PDR-lite engine.  See the [module docs](self) for the algorithm.
#[derive(Clone, Copy, Debug, Default)]
pub struct PdrEngine {
    config: PdrConfig,
}

impl PdrEngine {
    /// Creates a PDR-lite engine with the given configuration.
    pub fn new(config: PdrConfig) -> PdrEngine {
        PdrEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &PdrConfig {
        &self.config
    }
}

impl VerificationEngine for PdrEngine {
    fn name(&self) -> &'static str {
        "pdr"
    }

    fn verify_with_cancel(
        &self,
        program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        let _ambient = token.install();
        let smt_start = stats_snapshot();
        let mut state = Pdr::new(program, self.config);
        let (verdict, predicate_map, certificate) = match state.run(token) {
            Ok(conclusion) => conclusion,
            Err(e) => {
                if e.is_cancellation() {
                    (Verdict::Cancelled, PredicateMap::new(), None)
                } else if e.is_resource_exhaustion() {
                    (Verdict::Unknown { reason: e.to_string() }, PredicateMap::new(), None)
                } else {
                    return Err(e);
                }
            }
        };
        let ctx_stats = state.ctx.stats();
        let stats = VerifierStats {
            engine_depth: state.top_frame as u64,
            engine_nodes: state.obligations,
            engine_lemmas: state.lemmas_learned,
            ..VerifierStats::default()
        }
        .with_substrate(&smt_start, ctx_stats.queries, ctx_stats.cache_hits);
        Ok(VerificationResult {
            verdict,
            refinements: 0,
            predicates: predicate_map.len(),
            art_nodes: 0,
            predicate_map,
            certificate,
            stats,
        })
    }
}

/// A frame lemma: the blocked cube, its negation (the clause conjoined into
/// frames), and the highest frame index at which it is known to hold.  The
/// lemma belongs to every frame `1..=level`.
struct Lemma {
    cube: Vec<Formula>,
    clause: Formula,
    level: usize,
}

/// A proof obligation: show the states satisfying `cube` unreachable at
/// `loc` within `frame` steps — or produce the trace (`loc` to the error
/// location) they would extend.
#[derive(Clone)]
struct Obligation {
    frame: usize,
    loc: Loc,
    cube: Vec<Formula>,
    trace: Vec<TransId>,
}

/// Outcome of one blocking phase.
enum BlockOutcome {
    /// The error location is blocked at the top frame.
    Blocked,
    /// A candidate counterexample trace from entry to error.
    Candidate(Vec<TransId>),
}

struct Pdr<'p> {
    program: &'p Program,
    config: PdrConfig,
    /// The caching context: PDR re-issues many identical queries (obligation
    /// retries after a child is discharged, generalization probes), which
    /// the keyed cache replays instead of re-solving.
    ctx: SolverContext,
    lemmas: BTreeMap<Loc, Vec<Lemma>>,
    top_frame: usize,
    obligations: u64,
    queries: u64,
    lemmas_learned: u64,
}

impl<'p> Pdr<'p> {
    fn new(program: &'p Program, config: PdrConfig) -> Pdr<'p> {
        Pdr {
            program,
            config,
            ctx: SolverContext::new(),
            lemmas: BTreeMap::new(),
            top_frame: 0,
            obligations: 0,
            queries: 0,
            lemmas_learned: 0,
        }
    }

    fn run(
        &mut self,
        token: &CancellationToken,
    ) -> CoreResult<(Verdict, PredicateMap, Option<Certificate>)> {
        let program = self.program;
        if !program.reachable_locs().contains(&program.error()) {
            // The proof needs no frames: `true` at every graph-reachable
            // location and `false` elsewhere is inductive (successors of
            // reachable locations are reachable) and excludes the error.
            let reachable = program.reachable_locs();
            let invariants = program
                .locs()
                .map(|l| (l, if reachable.contains(&l) { Formula::True } else { Formula::False }))
                .collect();
            let cert = Certificate::Inductive(InvariantCert { invariants });
            return Ok((Verdict::Safe, PredicateMap::new(), Some(cert)));
        }
        if program.entry() == program.error() {
            return Ok((
                Verdict::Unknown { reason: "the entry location is the error location".to_string() },
                PredicateMap::new(),
                None,
            ));
        }
        for level in 1..=self.config.max_frames {
            self.top_frame = level;
            match self.block(level, token)? {
                BlockOutcome::Candidate(trace) => return self.conclude_from_trace(trace),
                BlockOutcome::Blocked => {}
            }
            self.propagate(level)?;
            if let Some((invariant, cert)) = self.inductive_invariant(level)? {
                return Ok((Verdict::Safe, invariant, Some(Certificate::Inductive(cert))));
            }
        }
        Ok((
            Verdict::Unknown {
                reason: format!(
                    "no inductive invariant within {} frames (PDR-lite frame bound)",
                    self.config.max_frames
                ),
            },
            PredicateMap::new(),
            None,
        ))
    }

    /// Blocks the error location at frame `top` by discharging obligations
    /// depth-first, or returns a candidate counterexample trace.
    fn block(&mut self, top: usize, token: &CancellationToken) -> CoreResult<BlockOutcome> {
        let program = self.program;
        let mut stack = vec![Obligation {
            frame: top,
            loc: program.error(),
            cube: Vec::new(),
            trace: Vec::new(),
        }];
        'obligations: while let Some(ob) = stack.last().cloned() {
            // Same granularity as the obligation budget: one poll per proof
            // obligation.
            token.check().map_err(CoreError::from)?;
            self.obligations += 1;
            if self.obligations > self.config.max_obligations {
                return Err(CoreError::Limit {
                    message: format!(
                        "PDR-lite exceeded {} proof obligations",
                        self.config.max_obligations
                    ),
                });
            }
            // Initial states live at the entry location in every frame: a
            // satisfiable cube there is a candidate counterexample.
            if ob.loc == program.entry() && self.sat_conj(ob.cube.clone())? {
                return Ok(BlockOutcome::Candidate(ob.trace));
            }
            if ob.frame == 0 {
                // Frame 0 is exact; a non-initial obligation here is blocked
                // by construction (`F_0` is empty away from the entry).
                stack.pop();
                continue;
            }
            for &tid in program.incoming(ob.loc) {
                let t = program.transition(tid);
                let pre_cube = preimage(&t.action, &ob.cube);
                let mut query = self.frame_conjuncts(ob.frame - 1, t.from);
                query.extend(pre_cube.iter().cloned());
                if self.sat_conj(query)? {
                    let mut trace = Vec::with_capacity(ob.trace.len() + 1);
                    trace.push(tid);
                    trace.extend(ob.trace.iter().copied());
                    stack.push(Obligation {
                        frame: ob.frame - 1,
                        loc: t.from,
                        cube: pre_cube,
                        trace,
                    });
                    // The parent stays below on the stack and is re-examined
                    // once the child is discharged (its query is unsat then,
                    // thanks to the lemma the child learned).
                    continue 'obligations;
                }
            }
            // Every predecessor is blocked: learn the (generalized) cube.
            self.interpolant_lemmas(&ob)?;
            let cube = self.generalize(ob.frame, ob.loc, ob.cube)?;
            self.learn(ob.loc, cube, ob.frame);
            stack.pop();
        }
        Ok(BlockOutcome::Blocked)
    }

    /// Validates a candidate trace against the concrete path semantics: the
    /// path formula must be satisfiable, and — since rational satisfiability
    /// is only a relaxation for this integer-valued language — satisfiable
    /// *over the integers*, certified by branch and bound.
    fn conclude_from_trace(
        &mut self,
        trace: Vec<TransId>,
    ) -> CoreResult<(Verdict, PredicateMap, Option<Certificate>)> {
        let path = Path::new(self.program, trace).map_err(CoreError::from)?;
        let pf = ssa::path_formula(self.program, &path);
        let unknown = |reason: &str| {
            Ok((Verdict::Unknown { reason: reason.to_string() }, PredicateMap::new(), None))
        };
        if !self.ctx.is_sat_with(&pf.conjunction()).map_err(CoreError::from)? {
            // Only reachable through the havoc overapproximation in the
            // preimage; the honest answer is to give up.
            return unknown(
                "PDR-lite produced a spurious counterexample trace (inexact havoc preimage)",
            );
        }
        match Solver::new()
            .check_integral(&pf.conjunction(), CEX_INTEGRALITY_NODES)
            .map_err(CoreError::from)?
        {
            IntSatResult::Sat(model) => {
                // Decode the integral model through the shared decoder, so
                // the SSA trace conventions stay engine-independent.
                let cert = Certificate::Trace(decode_model(self.program, &path, &pf, &model));
                Ok((Verdict::Unsafe { path }, PredicateMap::new(), Some(cert)))
            }
            IntSatResult::Unsat => unknown(
                "PDR-lite counterexample trace is feasible over the rationals but has no \
                 integral model",
            ),
            IntSatResult::Unknown => unknown(
                "PDR-lite counterexample integrality check exhausted its branch-and-bound \
                 budget",
            ),
        }
    }

    /// Pushes lemmas to the next frame where they remain blocked.
    fn propagate(&mut self, level: usize) -> CoreResult<()> {
        for i in 1..level {
            let locs: Vec<Loc> = self.lemmas.keys().copied().collect();
            for loc in locs {
                let candidates: Vec<(usize, Vec<Formula>)> = self.lemmas[&loc]
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.level == i)
                    .map(|(k, l)| (k, l.cube.clone()))
                    .collect();
                for (k, cube) in candidates {
                    if self.holds_blocked(i + 1, loc, &cube)? {
                        self.lemmas.get_mut(&loc).expect("loc listed")[k].level = i + 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Returns the invariant map of the first frame `i ≤ level` that equals
    /// its successor frame *and* blocks the error location — a safe
    /// inductive invariant — or `None`.  Alongside the predicate map (which
    /// drops trivial formulas by design), the exact per-location frame
    /// conjunction is returned as the auditable certificate.
    fn inductive_invariant(
        &mut self,
        level: usize,
    ) -> CoreResult<Option<(PredicateMap, InvariantCert)>> {
        for i in 1..=level {
            let frame_is_closed = self.lemmas.values().flatten().all(|l| l.level != i);
            if !frame_is_closed {
                continue;
            }
            if self.sat_conj(self.frame_conjuncts(i, self.program.error()))? {
                continue;
            }
            let mut map = PredicateMap::new();
            for (loc, lemmas) in &self.lemmas {
                for l in lemmas {
                    if l.level >= i {
                        map.add(*loc, l.clause.clone());
                    }
                }
            }
            let invariants = self
                .program
                .locs()
                .map(|l| (l, Formula::and(self.frame_conjuncts(i, l))))
                .collect();
            return Ok(Some((map, InvariantCert { invariants })));
        }
        Ok(None)
    }

    /// Shrinks a blocked cube by dropping literals while it stays blocked.
    fn generalize(
        &mut self,
        frame: usize,
        loc: Loc,
        mut cube: Vec<Formula>,
    ) -> CoreResult<Vec<Formula>> {
        let mut i = 0;
        while i < cube.len() {
            let mut candidate = cube.clone();
            candidate.remove(i);
            if self.holds_blocked(frame, loc, &candidate)? {
                cube = candidate;
            } else {
                i += 1;
            }
        }
        Ok(cube)
    }

    /// Whether `cube` is blocked at `(frame, loc)`: initial states avoid it
    /// (when `loc` is the entry) and every predecessor frame refutes its
    /// preimage.
    fn holds_blocked(&mut self, frame: usize, loc: Loc, cube: &[Formula]) -> CoreResult<bool> {
        if loc == self.program.entry() && self.sat_conj(cube.to_vec())? {
            return Ok(false);
        }
        for &tid in self.program.incoming(loc) {
            let t = self.program.transition(tid);
            let pre_cube = preimage(&t.action, cube);
            let mut query = self.frame_conjuncts(frame - 1, t.from);
            query.extend(pre_cube);
            if self.sat_conj(query)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Learns `¬cube` as a lemma at `(loc, level)`, raising the level of an
    /// existing identical clause instead of duplicating it.
    fn learn(&mut self, loc: Loc, cube: Vec<Formula>, level: usize) {
        let clause = Formula::and(cube.clone()).not();
        let entry = self.lemmas.entry(loc).or_default();
        if let Some(existing) = entry.iter_mut().find(|l| l.clause == clause) {
            if existing.level < level {
                existing.level = level;
            }
            return;
        }
        entry.push(Lemma { cube, clause, level });
        self.lemmas_learned += 1;
    }

    /// Farkas-interpolant generalization: for every predecessor whose
    /// blocking query is unsatisfiable already in its linear part, learn the
    /// interpolant's negation as a lemma at the predecessor location.  The
    /// interpolant `I` is implied by the preimage cube and inconsistent with
    /// the predecessor frame, so `F_{frame-1}[pre] ⊨ ¬I`: the lemma
    /// overapproximates reachability by construction and is typically much
    /// shorter (and more relational) than the raw negated cube.
    fn interpolant_lemmas(&mut self, ob: &Obligation) -> CoreResult<()> {
        if ob.frame < 2 {
            // Lemmas at level 0 are useless: frame 0 is exact.
            return Ok(());
        }
        let program = self.program;
        for &tid in program.incoming(ob.loc) {
            let t = program.transition(tid);
            let pre_cube = preimage(&t.action, &ob.cube);
            let cube_group = linear_constraints(&pre_cube);
            let frame_group = linear_constraints(&self.frame_conjuncts(ob.frame - 1, t.from));
            if cube_group.is_empty() {
                continue;
            }
            let groups = vec![cube_group, frame_group];
            let Some(itps) = sequence_interpolants(&groups).map_err(CoreError::from)? else {
                continue; // linear parts alone are satisfiable — no certificate
            };
            let Some(interpolant) = itps.into_iter().next() else { continue };
            if matches!(interpolant, Formula::True | Formula::False) {
                continue;
            }
            let cube: Vec<Formula> = interpolant.conjuncts();
            self.learn(t.from, cube, ob.frame - 1);
        }
        Ok(())
    }

    /// The conjuncts of `F_level[loc]`: `true` at the entry of frame 0,
    /// `false` elsewhere in frame 0, and the live clause lemmas above.
    fn frame_conjuncts(&self, level: usize, loc: Loc) -> Vec<Formula> {
        if level == 0 {
            return if loc == self.program.entry() { Vec::new() } else { vec![Formula::False] };
        }
        self.lemmas
            .get(&loc)
            .map(|ls| ls.iter().filter(|l| l.level >= level).map(|l| l.clause.clone()).collect())
            .unwrap_or_default()
    }

    /// Satisfiability of a conjunction through the cached context, with the
    /// query budget enforced.  Trivial conjunctions skip the solver.
    fn sat_conj(&mut self, parts: Vec<Formula>) -> CoreResult<bool> {
        match Formula::and(parts) {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            f => {
                self.queries += 1;
                if self.queries > self.config.max_queries {
                    return Err(CoreError::Limit {
                        message: format!(
                            "PDR-lite exceeded {} solver queries",
                            self.config.max_queries
                        ),
                    });
                }
                self.ctx.is_sat_with(&f).map_err(CoreError::from)
            }
        }
    }
}

/// The preimage of a cube (conjunction of formulas over current-state
/// variables) under an action, as a cube again.  Exact for every action
/// except [`Action::Havoc`], where conjuncts mentioning a havocked variable
/// are dropped (an overapproximation — the engine re-validates any
/// counterexample trace concretely to compensate).
fn preimage(action: &Action, cube: &[Formula]) -> Vec<Formula> {
    let mut raw: Vec<Formula> = Vec::new();
    match action {
        Action::Skip => raw.extend(cube.iter().cloned()),
        Action::Assume(g) => {
            raw.extend(g.conjuncts());
            raw.extend(cube.iter().cloned());
        }
        Action::Havoc(xs) => {
            for c in cube {
                if c.var_names().iter().all(|v| !xs.contains(v)) {
                    raw.push(c.clone());
                }
            }
        }
        Action::Assign(_) | Action::ArrayAssign { .. } => {
            for c in cube {
                raw.push(action.wp(c).expect("wp is total for assignments"));
            }
        }
    }
    let mut out: Vec<Formula> = Vec::new();
    for f in raw {
        for c in f.conjuncts() {
            if matches!(c, Formula::True) {
                continue;
            }
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    out
}

/// The linear-arithmetic constraints of a conjunct list: plain arithmetic
/// atoms (no arrays, no disequalities, no quantifiers, no clause lemmas),
/// tightened for integers.  Conjuncts outside the fragment are skipped —
/// sound here, because interpolation only ever *weakens* both sides of an
/// already-proven unsatisfiability (see [`Pdr::interpolant_lemmas`]).
fn linear_constraints(conjuncts: &[Formula]) -> Vec<LinConstraint<pathinv_ir::VarRef>> {
    let mut out = Vec::new();
    for c in conjuncts {
        let Formula::Atom(atom) = c else { continue };
        if atom.op == RelOp::Ne || atom.has_nonarithmetic() {
            continue;
        }
        if let Ok(lc) = LinConstraint::from_atom(atom) {
            if let Ok(tight) = lc.tighten_for_integers() {
                out.push(tight);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::{corpus, parse_program, Term};

    #[test]
    fn straight_line_verdicts_are_definitive() {
        let safe = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
        let result = PdrEngine::default().verify(&safe).unwrap();
        assert!(result.verdict.is_safe(), "{:?}", result.verdict);
        assert!(result.predicates > 0, "a proof must come with an invariant map");
        let buggy = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        let result = PdrEngine::default().verify(&buggy).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    }

    #[test]
    fn loop_bug_counterexamples_are_concrete() {
        let p = parse_program(
            "proc bug(n: int) {
                var i: int; var s: int;
                assume(n > 0);
                i = 0; s = 1;
                while (i < n) { s = s + 1; i = i + 1; }
                assert(s == n);
            }",
        )
        .unwrap();
        let result = PdrEngine::default().verify(&p).unwrap();
        let Verdict::Unsafe { path } = &result.verdict else {
            panic!("expected a counterexample: {:?}", result.verdict);
        };
        assert!(path.is_error_path(&p));
        // The trace was validated, so its SSA formula is satisfiable.
        let pf = ssa::path_formula(&p, path);
        assert!(pathinv_smt::Solver::new().is_sat(&pf.conjunction()).unwrap());
    }

    #[test]
    fn budget_exhaustion_is_unknown_not_an_error() {
        let p = corpus::forward();
        let tiny = PdrConfig { max_frames: 12, max_obligations: 3, max_queries: 4000 };
        let result = PdrEngine::new(tiny).verify(&p).unwrap();
        match &result.verdict {
            Verdict::Unknown { reason } => assert!(reason.contains("obligations"), "{reason}"),
            other => panic!("a tiny budget must give up: {other:?}"),
        }
    }

    #[test]
    fn syntactically_unreachable_error_is_safe() {
        let p = parse_program("proc ok(x: int) { x = 1; }").unwrap();
        let result = PdrEngine::default().verify(&p).unwrap();
        assert!(result.verdict.is_safe());
        assert_eq!(result.stats.engine_nodes, 0);
    }

    #[test]
    fn preimage_is_exact_for_assignments_and_guards() {
        let cube = vec![Formula::ge(Term::var("x"), Term::int(5))];
        let assign = Action::assign("x", Term::var("x").add(Term::int(1)));
        let pre = preimage(&assign, &cube);
        assert_eq!(pre.len(), 1);
        assert_eq!(pre[0].to_string(), "(x + 1) >= 5");
        let guard = Action::assume(Formula::lt(Term::var("x"), Term::int(10)));
        let pre = preimage(&guard, &cube);
        assert_eq!(pre.len(), 2, "guard conjuncts join the cube: {pre:?}");
    }

    #[test]
    fn preimage_drops_havocked_conjuncts() {
        let x = pathinv_ir::Symbol::intern("x");
        let cube = vec![
            Formula::ge(Term::var("x"), Term::int(0)),
            Formula::ge(Term::var("y"), Term::int(0)),
        ];
        let pre = preimage(&Action::Havoc(vec![x]), &cube);
        assert_eq!(pre.len(), 1);
        assert!(pre[0].to_string().contains('y'));
    }

    #[test]
    fn stats_report_frames_obligations_and_lemmas() {
        let p = parse_program(
            "proc b(a: int[]) {
                var i: int;
                for (i = 0; i < 2; i++) { a[i] = 7; }
                assert(a[0] == 0);
            }",
        )
        .unwrap();
        let result = PdrEngine::default().verify(&p).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
        assert!(result.stats.engine_depth > 0);
        assert!(result.stats.engine_nodes > 0);
    }
}
