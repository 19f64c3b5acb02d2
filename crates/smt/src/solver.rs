//! The combined quantifier-free solver for linear integer arithmetic,
//! arrays, and uninterpreted functions.
//!
//! This is the decision procedure behind the two queries the CEGAR engine
//! needs (§4.1 of the paper):
//!
//! * **feasibility of path formulas** — is the SSA encoding of a
//!   counterexample satisfiable? (If so the bug is real.)
//! * **entailment for predicate abstraction** — does the current abstract
//!   state, conjoined with a transition relation, imply a predicate in the
//!   post-state?
//!
//! The pipeline mirrors the hierarchic reduction described in §4.2 of the
//! paper: universally quantified antecedents are instantiated at the array
//! indices occurring in the query, array writes are eliminated by
//! read-over-write case analysis, the remaining array reads are treated as
//! applications of uninterpreted functions (with functionality enforced
//! lazily), and the resulting conjunctions of linear constraints are decided
//! by the simplex solver with integer tightening of strict inequalities.
//!
//! The boolean structure is decided by a DPLL-style search over the NNF
//! skeleton (`CubeSearch`) instead of eager DNF expansion: atoms decided
//! so far form a *cube prefix*, disjunctions are unit-resolved against the
//! prefix, the prefix's theory-consistency is checked (and memoized under
//! its hash-consed atom-set id) before every case split, and a
//! theory-inconsistent prefix prunes its entire subtree of cubes at once.
//! On the quantified queries of the array programs this replaces the
//! exponential cube enumeration — the old enumerator exhausted the
//! case-split budget on BUGGY_INITCHECK — with a search whose budget
//! consumption tracks the theory work actually performed.
//!
//! Below the boolean layer, `solve_atoms` case-splits a cube's
//! disequalities and reads over writes with *conflict-directed
//! backjumping*.  Every split is a decision, identified by its recursion
//! depth; every atom carries the decisions that created or rewrote it
//! (through the split itself, alias substitution, and store-definition
//! extraction); and every refutation returns an *explanation*, the set of
//! decisions its conflict depends on.  Explanations come from three
//! sources:
//!
//! * the Farkas support of the linear-relaxation pre-check, and the
//!   conflict core of an infeasible base tableau — the deps of the atoms
//!   whose rows carry a nonzero multiplier;
//! * an atom false on its own (a read resolved to a contradicting
//!   constant) — its own deps;
//! * a congruence conflict or a refuted functionality search — the deps of
//!   every equality, or of every atom: conservative, and sound.
//!
//! When the first branch of a split at depth `d` is refuted by a conflict
//! that excludes `d`, the sibling branch is skipped and the conflict is
//! returned upward.  This is sound because such a conflict refutes the
//! parent node: every atom it uses existed before `d`, or follows from
//! atoms that did by rewrites the explanation records.  Backjumping only
//! skips subtrees already proven unsatisfiable, so the first satisfiable
//! leaf and its model are those of the plain depth-first search, while
//! independent array reads cost the *sum* of their case splits instead of
//! the product.

use crate::congruence::CongruenceClosure;
use crate::error::{SmtError, SmtResult};
use crate::linexpr::{LinConstraint, LinExpr};
use crate::rat::Rat;
use crate::simplex::{solve as lra_solve, IncrementalSimplex, LpResult};
use pathinv_ir::{Atom, Formula, FormulaId, RelOp, SeqId, Symbol, Term, VarRef};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

/// A model: rational values for the integer-sorted variables of the query.
///
/// Values are produced by the rational relaxation; they are exact witnesses
/// for the relaxation and, on the benchmark corpus, integral witnesses for
/// the original formula whenever one exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Variable assignment.
    pub values: BTreeMap<VarRef, Rat>,
}

impl Model {
    /// Looks up the value of a variable, if constrained.
    pub fn value(&self, v: VarRef) -> Option<Rat> {
        self.values.get(&v).copied()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, r) in &self.values {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v} = {r}")?;
            first = false;
        }
        Ok(())
    }
}

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model for its variables is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Returns `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Outcome of an integral satisfiability query ([`Solver::check_integral`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntSatResult {
    /// Satisfiable over the integers; the attached model is fully integral.
    Sat(Model),
    /// Unsatisfiable over the integers.
    Unsat,
    /// The branch-and-bound node budget ran out before a conclusion; callers
    /// must treat this conservatively (never as a verdict).
    Unknown,
}

/// The combined solver.  Construct once and reuse; the solver itself is
/// stateless apart from a branch budget.
#[derive(Clone, Debug)]
pub struct Solver {
    max_branches: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// A recorded "read instance": an array read or uninterpreted function
/// application that has been abstracted by a fresh integer variable.
#[derive(Clone, Debug)]
struct Instance {
    /// Identity of the function: the array term rendered to a string, or the
    /// uninterpreted function symbol.
    fun: String,
    /// Argument terms (select-free after abstraction).
    args: Vec<Term>,
    /// The fresh variable standing for the result.
    result: VarRef,
}

impl Solver {
    /// Creates a solver with the default case-split budget.
    pub fn new() -> Solver {
        Solver { max_branches: 20_000 }
    }

    /// Creates a solver with an explicit case-split budget (number of
    /// explored branches before [`SmtError::Budget`] is reported).
    pub fn with_budget(max_branches: usize) -> Solver {
        Solver { max_branches }
    }

    /// Decides satisfiability of a quantifier-free formula (universal
    /// quantifiers are allowed in *positive* positions and are instantiated
    /// at the array indices occurring in the query).
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Unsupported`] for negated quantifiers or
    /// non-linear arithmetic, and [`SmtError::Budget`] if the case-split
    /// budget is exhausted.
    pub fn check(&self, f: &Formula) -> SmtResult<SatResult> {
        crate::stats::record_sat_check();
        check_no_negated_quantifier(f, true)?;
        let budget = SplitBudget::new(self.max_branches);
        let original_vars: BTreeSet<VarRef> = f.var_refs();
        let mut search = CubeSearch::default();
        let mut pending = VecDeque::new();
        pending.push_back(f.nnf());
        match search.dpll(self, pending, Vec::new(), Vec::new(), false, &budget)? {
            Some(model) => {
                let values =
                    model.values.into_iter().filter(|(v, _)| original_vars.contains(v)).collect();
                Ok(SatResult::Sat(Model { values }))
            }
            None => Ok(SatResult::Unsat),
        }
    }

    /// Decides satisfiability of a conjunction of formulas.
    pub fn check_conjunction(&self, fs: &[Formula]) -> SmtResult<SatResult> {
        self.check(&Formula::and(fs.to_vec()))
    }

    /// Decides satisfiability *over the integers* by branch-and-bound on top
    /// of the rational relaxation.
    ///
    /// [`Solver::check`] decides the rational relaxation: only strict
    /// inequalities are tightened for integrality, so an equality like
    /// `x + x = 1` is rationally satisfiable (`x = 1/2`) with no integer
    /// solution.  Rational-UNSAT still implies integer-UNSAT, so `Safe`
    /// proofs built on `check` are sound — but *satisfiability* claims (and
    /// the counterexamples they justify) are not.  This method closes that
    /// gap: whenever the relaxation produces a fractional value for a
    /// variable `v` with value `r`, it branches on `v <= floor(r)` versus
    /// `v >= floor(r) + 1` (both of which exclude `r`) and recurses, up to
    /// `max_nodes` branch nodes.
    ///
    /// Returns [`IntSatResult::Sat`] only with a fully integral model,
    /// [`IntSatResult::Unsat`] when every branch is (rationally, hence
    /// integrally) unsatisfiable, and [`IntSatResult::Unknown`] when the
    /// node budget runs out — callers must treat `Unknown` conservatively
    /// and never turn it into a verdict.
    ///
    /// Branching only ever targets integer-sorted variables: array variables
    /// never receive values from the linear core (reads are abstracted by
    /// fresh integer instances), so every valued variable is arithmetic.
    ///
    /// # Errors
    ///
    /// As [`Solver::check`].
    pub fn check_integral(&self, f: &Formula, max_nodes: usize) -> SmtResult<IntSatResult> {
        let mut nodes = max_nodes;
        self.branch_and_bound(f, &mut nodes)
    }

    fn branch_and_bound(&self, f: &Formula, nodes: &mut usize) -> SmtResult<IntSatResult> {
        let model = match self.check(f)? {
            SatResult::Unsat => return Ok(IntSatResult::Unsat),
            SatResult::Sat(model) => model,
        };
        let Some((&v, &r)) = model.values.iter().find(|(_, r)| !r.is_integer()) else {
            return Ok(IntSatResult::Sat(model));
        };
        if *nodes == 0 {
            return Ok(IntSatResult::Unknown);
        }
        *nodes -= 1;
        let lo = r.floor();
        let below = Formula::and(vec![f.clone(), Formula::le(Term::Var(v), Term::int(lo))]);
        let above = Formula::and(vec![f.clone(), Formula::ge(Term::Var(v), Term::int(lo + 1))]);
        let mut exhausted = false;
        for branch in [below, above] {
            match self.branch_and_bound(&branch, nodes)? {
                IntSatResult::Sat(m) => return Ok(IntSatResult::Sat(m)),
                IntSatResult::Unsat => {}
                IntSatResult::Unknown => exhausted = true,
            }
        }
        Ok(if exhausted { IntSatResult::Unknown } else { IntSatResult::Unsat })
    }

    /// Returns `true` if the formula is satisfiable.
    pub fn is_sat(&self, f: &Formula) -> SmtResult<bool> {
        Ok(self.check(f)?.is_sat())
    }

    /// Returns `true` if `antecedent` entails `consequent`.
    ///
    /// Universally quantified consequents are proved by skolemising the bound
    /// variables; conjunctions are split.
    pub fn entails(&self, antecedent: &Formula, consequent: &Formula) -> SmtResult<bool> {
        match consequent {
            Formula::True => Ok(true),
            Formula::And(parts) => {
                for p in parts {
                    if !self.entails(antecedent, p)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Forall(vars, body) => {
                // Skolemise: a universal consequent holds iff the body holds
                // for fresh constants.
                let mut skolemised = (**body).clone();
                for v in vars {
                    let fresh = Symbol::fresh(&format!("sk_{v}"));
                    skolemised = skolemised.map_terms(&|t| t.subst_bound(*v, &Term::var(fresh)));
                }
                self.entails(antecedent, &skolemised)
            }
            Formula::Implies(a, b) => {
                self.entails(&Formula::and(vec![antecedent.clone(), (**a).clone()]), b)
            }
            other => {
                let query = Formula::and(vec![antecedent.clone(), other.clone().not()]);
                Ok(!self.is_sat(&query)?)
            }
        }
    }

    /// Returns `true` if the formula is valid (entailed by `true`).
    pub fn is_valid(&self, f: &Formula) -> SmtResult<bool> {
        self.entails(&Formula::True, f)
    }

    /// Decides a conjunction of ground atoms by recursive case splitting —
    /// disequalities, then read-over-write, then the base theory
    /// combination — with conflict-directed backjumping.
    ///
    /// `depth` is this node's decision id: a split made here tags every
    /// atom it creates or rewrites with `depth`, and every refutation comes
    /// back with its explanation, the decisions its conflict depends on
    /// (see [`Outcome`]).  A first branch refuted without its own decision
    /// refutes this node as well, so the sibling branch is skipped: the
    /// case splits of independent array reads cost their sum, not their
    /// product.
    fn solve_atoms(
        &self,
        lits: Vec<Lit>,
        depth: usize,
        budget: &SplitBudget,
        kind: Branch,
    ) -> SmtResult<Outcome> {
        budget.spend(kind)?;

        // 0. Conflict-driven pruning: when a non-trivial case-split tree is
        //    coming up, first check the *linear relaxation* of the
        //    conjunction (disequalities dropped, reads abstracted, no
        //    functionality) with one simplex call.  An unsatisfiable
        //    relaxation refutes every branch of the split tree at once —
        //    this is what keeps the SSA path formulas of deeply unrolled
        //    counterexamples (a disequality per store step) from burning the
        //    case-split budget on arithmetic that is already contradictory.
        //    A single pending disequality is split directly: its two
        //    branches cost about as much as the relaxation itself, and on a
        //    satisfiable query the relaxation along the witnessing branch is
        //    pure overhead.  Two or more disequalities mean a four-leaf (or
        //    larger) split tree, where one pruning call is always worth it —
        //    and the read-over-write chains of unrolled array programs renew
        //    their disequality supply at every miss step, so deep chains
        //    keep qualifying.
        let ne_count = lits.iter().filter(|l| l.atom.op == RelOp::Ne).count();
        if ne_count >= 2 {
            if let Some(core) = relaxation_conflict(&lits)? {
                return Ok(Outcome::Unsat(core));
            }
        }

        // 1. Split the first disequality `s != t` into `s < t` | `s > t`.
        //    The split is justified by the disequality, so its deps join
        //    the explanation when both branches need the decision.
        if let Some(pos) = lits.iter().position(|l| l.atom.op == RelOp::Ne) {
            let ne = lits[pos].clone();
            let decided = ne.deps.with(depth);
            return self.split(depth, budget, Branch::Disequality, ne.deps, |first| {
                let op = if first { RelOp::Lt } else { RelOp::Gt };
                let mut branch = lits.clone();
                branch[pos] = Lit {
                    atom: Atom::new(ne.atom.lhs.clone(), op, ne.atom.rhs.clone()),
                    deps: decided.clone(),
                };
                branch
            });
        }

        // 2. Resolve array aliases and collect store definitions.
        let (lits, defs) = normalise_arrays(lits);

        // 3. Find a read over a written array and split on the index: the
        //    read hits the written cell, or it misses it.  The split is a
        //    tautology and needs no justification.
        if let Some(row) = find_read_over_write(&lits, &defs) {
            return self.split(depth, budget, Branch::ReadOverWrite, Deps::default(), |hit| {
                row.branch(hit, &lits, &defs, depth)
            });
        }

        // 4. Base case: no disequalities, no reads over writes.
        self.solve_base(&lits, budget)
    }

    /// Explores the two branches of the decision made at `depth`, first
    /// branch first.  A branch refuted without mentioning the decision
    /// refutes this node outright (the backjump); otherwise the node's
    /// explanation is the union of both branches' explanations and the
    /// split's `justification`, minus the decision itself.
    fn split(
        &self,
        depth: usize,
        budget: &SplitBudget,
        kind: Branch,
        justification: Deps,
        branch: impl Fn(bool) -> Vec<Lit>,
    ) -> SmtResult<Outcome> {
        let mut explanation = justification;
        for first in [true, false] {
            match self.solve_atoms(branch(first), depth + 1, budget, kind)? {
                Outcome::Sat(m) => return Ok(Outcome::Sat(m)),
                Outcome::Unsat(e) if !e.contains(depth) => return Ok(Outcome::Unsat(e)),
                Outcome::Unsat(e) => explanation.union_with(&e),
            }
        }
        explanation.remove(depth);
        Ok(Outcome::Unsat(explanation))
    }

    /// Base-case theory combination: congruence pre-filter, abstraction of
    /// reads/applications by fresh variables, simplex with lazy functionality
    /// enforcement.
    ///
    /// An atom false on its own (a read resolved to a constant that
    /// contradicts it) is explained by its own deps, and an infeasible base
    /// tableau by the deps of its conflict core.  A congruence conflict is
    /// explained by the deps of every equality, and a refuted functionality
    /// search by the deps of every atom — conservative, and sound.
    fn solve_base(&self, lits: &[Lit], budget: &SplitBudget) -> SmtResult<Outcome> {
        if let Some(l) = lits.iter().find(|l| is_constant_false(&l.atom)) {
            return Ok(Outcome::Unsat(l.deps.clone()));
        }
        let everything = || Deps::union_all(lits.iter().map(|l| &l.deps));

        // Congruence pre-filter on the equality atoms.
        let mut cc = CongruenceClosure::new();
        let equalities = || lits.iter().filter(|l| l.atom.op == RelOp::Eq);
        for l in equalities() {
            cc.assert_eq(&l.atom.lhs, &l.atom.rhs);
        }
        if !cc.is_consistent() {
            return Ok(Outcome::Unsat(Deps::union_all(equalities().map(|l| &l.deps))));
        }

        // Abstract array reads and uninterpreted applications.
        let mut instances: Vec<Instance> = Vec::new();
        let abstracted: Vec<Atom> = lits
            .iter()
            .map(|l| {
                let lhs = abstract_term(&l.atom.lhs, &mut instances);
                let rhs = abstract_term(&l.atom.rhs, &mut instances);
                Atom::new(lhs, l.atom.op, rhs)
            })
            .collect();

        // One tableau for the whole functionality search: the base
        // constraints are its shared prefix, and every branch of the lazy
        // functionality enforcement pushes its extra constraints, re-checks
        // warm from the prefix's feasible assignment, and pops — instead of
        // rebuilding (and cold-resolving) the tableau per branch.  Pure
        // array equalities that carry no read are dropped (they cannot
        // influence the integer variables); `owners` keeps the deps of the
        // atom behind each row.
        let mut tab: IncrementalSimplex<VarRef> = IncrementalSimplex::new();
        let mut owners: Vec<&Deps> = Vec::new();
        for (a, l) in abstracted.iter().zip(lits) {
            match LinConstraint::from_atom(a) {
                Ok(c) => {
                    tab.push_constraint(&c.tighten_for_integers()?)?;
                    owners.push(&l.deps);
                }
                Err(SmtError::SortMismatch { .. }) if is_pure_array_atom(a) => {}
                Err(e) => return Err(e),
            }
        }
        budget.spend(Branch::Base)?;
        if !tab.check_fresh()? {
            let core = match tab.conflict_core() {
                Some(rows) => Deps::union_all(rows.into_iter().map(|i| owners[i])),
                None => everything(),
            };
            return Ok(Outcome::Unsat(core));
        }
        Ok(match self.enforce_functionality(&mut tab, &instances, budget)? {
            Some(model) => Outcome::Sat(model),
            None => Outcome::Unsat(everything()),
        })
    }

    /// Enforces functionality of the read instances lazily on a tableau
    /// whose last check was feasible: finds a violated axiom in the current
    /// model and splits on it, each branch pushing its constraints onto the
    /// tableau, re-checking warm, and popping.
    fn enforce_functionality(
        &self,
        tab: &mut IncrementalSimplex<VarRef>,
        instances: &[Instance],
        budget: &SplitBudget,
    ) -> SmtResult<Option<Model>> {
        let model = tab.model()?;
        let lookup = |v: &VarRef| model.get(v).copied().unwrap_or(Rat::ZERO);
        // Find a violated functionality axiom.
        for i in 0..instances.len() {
            for j in i + 1..instances.len() {
                let (a, b) = (&instances[i], &instances[j]);
                if a.fun != b.fun || a.args.len() != b.args.len() {
                    continue;
                }
                let args_equal = a
                    .args
                    .iter()
                    .zip(b.args.iter())
                    .map(|(x, y)| {
                        Ok::<bool, SmtError>(
                            LinExpr::from_term(x)?.eval(&lookup)?
                                == LinExpr::from_term(y)?.eval(&lookup)?,
                        )
                    })
                    .collect::<SmtResult<Vec<bool>>>()?
                    .into_iter()
                    .all(|b| b);
                if !args_equal {
                    continue;
                }
                if lookup(&a.result) == lookup(&b.result) {
                    continue;
                }
                // Violation: f(args) must be equal when the arguments are.
                // Case A: force the arguments and results equal.
                {
                    let cp = tab.checkpoint();
                    for (x, y) in a.args.iter().zip(b.args.iter()) {
                        tab.push_constraint(&LinConstraint::eq(
                            LinExpr::from_term(x)?,
                            LinExpr::from_term(y)?,
                        )?)?;
                    }
                    tab.push_constraint(&LinConstraint::eq(
                        LinExpr::var(a.result),
                        LinExpr::var(b.result),
                    )?)?;
                    let found = self.functionality_branch(tab, instances, budget)?;
                    tab.pop_to(cp)?;
                    if let Some(m) = found {
                        return Ok(Some(m));
                    }
                }
                // Case B: some argument differs (strictly, in either
                // direction).
                for (x, y) in a.args.iter().zip(b.args.iter()) {
                    let ex = LinExpr::from_term(x)?;
                    let ey = LinExpr::from_term(y)?;
                    for flip in [false, true] {
                        let diff = if flip { ey.sub(&ex)? } else { ex.sub(&ey)? };
                        let cp = tab.checkpoint();
                        tab.push_constraint(
                            &LinConstraint::new(diff, crate::linexpr::ConstrOp::Lt)
                                .tighten_for_integers()?,
                        )?;
                        let found = self.functionality_branch(tab, instances, budget)?;
                        tab.pop_to(cp)?;
                        if let Some(m) = found {
                            return Ok(Some(m));
                        }
                    }
                }
                return Ok(None);
            }
        }
        Ok(Some(Model { values: model }))
    }

    /// Re-checks one functionality branch warm and, when it is feasible,
    /// continues the enforcement inside it.
    fn functionality_branch(
        &self,
        tab: &mut IncrementalSimplex<VarRef>,
        instances: &[Instance],
        budget: &SplitBudget,
    ) -> SmtResult<Option<Model>> {
        budget.spend(Branch::Functionality)?;
        if !tab.check()? {
            return Ok(None);
        }
        self.enforce_functionality(tab, instances, budget)
    }
}

/// A set of split-decision ids — recursion depths of
/// [`Solver::solve_atoms`] along the current path — as a bitset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Deps(Vec<u64>);

impl Deps {
    fn contains(&self, id: usize) -> bool {
        self.0.get(id / 64).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    fn remove(&mut self, id: usize) {
        if let Some(w) = self.0.get_mut(id / 64) {
            *w &= !(1 << (id % 64));
        }
    }

    /// This set plus `id`.
    fn with(&self, id: usize) -> Deps {
        let mut out = self.clone();
        if out.0.len() <= id / 64 {
            out.0.resize(id / 64 + 1, 0);
        }
        out.0[id / 64] |= 1 << (id % 64);
        out
    }

    fn union_with(&mut self, other: &Deps) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (w, o) in self.0.iter_mut().zip(&other.0) {
            *w |= o;
        }
    }

    fn union_all<'a>(sets: impl IntoIterator<Item = &'a Deps>) -> Deps {
        let mut out = Deps::default();
        for s in sets {
            out.union_with(s);
        }
        out
    }
}

/// A ground atom with the split decisions that created or rewrote it.
#[derive(Clone, Debug)]
struct Lit {
    atom: Atom,
    deps: Deps,
}

impl Lit {
    /// Rewrites the atom's terms with `f`; a changed atom now also depends
    /// on `why`, the deps of the fact that justifies the rewrite.
    fn rewrite(&self, f: &impl Fn(&Term) -> Term, why: &Deps) -> Lit {
        let atom = self.atom.map_terms(f);
        if atom == self.atom {
            return self.clone();
        }
        let mut deps = self.deps.clone();
        deps.union_with(why);
        Lit { atom, deps }
    }
}

/// Outcome of [`Solver::solve_atoms`] on one node of the split tree.
enum Outcome {
    Sat(Model),
    /// Unsatisfiable, with the explanation: the decisions the refutation
    /// depends on, all made above this node.  If the explanation excludes
    /// an ancestor's decision, that ancestor is refuted too — every atom the
    /// conflict uses existed (or followed from atoms that existed) before
    /// the decision.
    Unsat(Deps),
}

/// Kinds of branch that spend the case-split budget.
#[derive(Clone, Copy)]
enum Branch {
    /// A theory check of a cube prefix, the root of a split tree.
    Cube,
    Disequality,
    ReadOverWrite,
    /// The cold tableau solve of a leaf of the split tree.
    Base,
    Functionality,
}

/// The case-split budget of one [`Solver::check`] call, shared by every
/// layer that branches, with a tally of what spent it, so an exhaustion
/// names the splits that consumed the budget rather than whichever layer
/// happened to take the last unit.
struct SplitBudget {
    max: usize,
    spent: [Cell<usize>; 5],
}

impl SplitBudget {
    fn new(max: usize) -> SplitBudget {
        SplitBudget { max, spent: Default::default() }
    }

    fn spend(&self, kind: Branch) -> SmtResult<()> {
        crate::cancel::check_ambient()?;
        if self.spent.iter().map(Cell::get).sum::<usize>() >= self.max {
            return Err(self.exhausted());
        }
        let count = &self.spent[kind as usize];
        count.set(count.get() + 1);
        Ok(())
    }

    fn exhausted(&self) -> SmtError {
        let n = |kind: Branch| self.spent[kind as usize].get();
        SmtError::Budget {
            message: format!(
                "case-split budget of {} branches exhausted in the combined solver by {} \
                 disequality, {} read-over-write and {} functionality splits (plus {} cube \
                 checks and {} tableau solves)",
                self.max,
                n(Branch::Disequality),
                n(Branch::ReadOverWrite),
                n(Branch::Functionality),
                n(Branch::Cube),
                n(Branch::Base),
            ),
        }
    }
}

/// DPLL-style search over the boolean skeleton of one query.
///
/// The state of one search node is the *cube prefix* (the atoms decided so
/// far), the not-yet-branched disjunctions, and the universals collected on
/// this branch.  The search alternates unit propagation (flattening
/// conjunctions, resolving disjuncts against decided atoms, promoting unit
/// disjunctions) with case splits on the smallest remaining disjunction.
/// Before every split the prefix is checked for theory consistency; an
/// inconsistent prefix prunes the whole subtree — the conflict-driven
/// replacement for enumerating (and separately refuting) every DNF cube
/// that extends it.
///
/// Theory verdicts are memoized under the hash-consed id of the canonical
/// (sorted, deduplicated) decided-atom set, so sibling branches that decide
/// the same atoms in a different order, and the final check of a cube whose
/// prefix was already checked, replay the verdict without touching the
/// simplex.  The memo lives for one [`Solver::check`] call; cross-query
/// reuse is the [`SolverContext`](crate::SolverContext) cache's job.
#[derive(Default)]
struct CubeSearch {
    /// Canonical decided-atom set id → satisfiability (with witness).
    verdicts: HashMap<SeqId, Option<Model>>,
}

impl CubeSearch {
    /// Searches for a theory-consistent cube of the pending formulas.
    ///
    /// `decided` is the inherited cube prefix, `universals` the quantified
    /// conjuncts collected so far, and `instantiated` marks the inner layer
    /// (after universal instantiation), where further quantifiers are
    /// outside the supported fragment.
    fn dpll(
        &mut self,
        solver: &Solver,
        mut pending: VecDeque<Formula>,
        mut decided: Vec<Atom>,
        mut universals: Vec<(Vec<Symbol>, Formula)>,
        instantiated: bool,
        budget: &SplitBudget,
    ) -> SmtResult<Option<Model>> {
        let mut disjunctions: Vec<Vec<Formula>> = Vec::new();
        // Unit propagation to fixpoint.
        loop {
            while let Some(f) = pending.pop_front() {
                match f {
                    Formula::True => {}
                    Formula::False => return Ok(None),
                    Formula::Atom(a) => decided.push(a),
                    Formula::And(parts) => {
                        for (i, p) in parts.into_iter().enumerate() {
                            pending.insert(i, p);
                        }
                    }
                    Formula::Or(parts) => disjunctions.push(parts),
                    Formula::Forall(vars, body) => {
                        if instantiated {
                            return Err(SmtError::unsupported(format!(
                                "nested quantifier after instantiation: forall {vars:?}. {body}"
                            )));
                        }
                        universals.push((vars, *body));
                    }
                    other => {
                        return Err(SmtError::unsupported(format!(
                            "unexpected connective shape after NNF: {other}"
                        )))
                    }
                }
            }
            // Resolve every disjunction against the decided atoms:
            // syntactically satisfied disjunctions are dropped, refuted
            // disjuncts removed, unit disjunctions promoted to the prefix.
            let decided_set: HashSet<&Atom> = decided.iter().collect();
            let mut promoted = false;
            let mut kept: Vec<Vec<Formula>> = Vec::new();
            'ors: for parts in disjunctions.drain(..) {
                let mut remaining: Vec<Formula> = Vec::with_capacity(parts.len());
                for p in parts {
                    match &p {
                        Formula::True => continue 'ors,
                        Formula::False => {}
                        Formula::Atom(a) => {
                            if decided_set.contains(a) {
                                continue 'ors;
                            }
                            if !decided_set.contains(&a.negated()) {
                                remaining.push(p);
                            }
                        }
                        _ => remaining.push(p),
                    }
                }
                match remaining.len() {
                    0 => return Ok(None), // every disjunct refuted
                    1 => {
                        pending.push_back(remaining.pop().expect("len checked"));
                        promoted = true;
                    }
                    _ => kept.push(remaining),
                }
            }
            disjunctions = kept;
            if !promoted && pending.is_empty() {
                break;
            }
        }
        // Case split on the smallest remaining disjunction — after pruning
        // the branch if the prefix is already theory-inconsistent.
        if !disjunctions.is_empty() {
            if self.theory_check(solver, &decided, budget)?.is_none() {
                return Ok(None);
            }
            let pick = disjunctions
                .iter()
                .enumerate()
                .min_by_key(|(i, d)| (d.len(), *i))
                .map(|(i, _)| i)
                .expect("nonempty");
            let branches = disjunctions.remove(pick);
            let rest: Vec<Formula> = disjunctions.into_iter().map(Formula::Or).collect();
            for branch in branches {
                let mut pending = VecDeque::with_capacity(rest.len() + 1);
                pending.push_back(branch);
                pending.extend(rest.iter().cloned());
                if let Some(m) = self.dpll(
                    solver,
                    pending,
                    decided.clone(),
                    universals.clone(),
                    instantiated,
                    budget,
                )? {
                    return Ok(Some(m));
                }
            }
            return Ok(None);
        }
        // Complete cube.  Instantiate the universals at every array-index
        // term of the ground atoms (the hierarchic reduction of §4.2) and
        // search the instantiated layer; with no candidate index a universal
        // constrains no read in this query and dropping it is sound for
        // unsatisfiability detection (it only weakens the antecedent).
        if !universals.is_empty() {
            let candidates = index_candidates(&decided);
            if !candidates.is_empty() {
                let mut inst_pending = VecDeque::new();
                for (vars, body) in &universals {
                    for combo in cartesian(&candidates, vars.len()) {
                        let mut inst = body.clone();
                        for (v, t) in vars.iter().zip(combo.iter()) {
                            inst = inst.map_terms(&|term| term.subst_bound(*v, t));
                        }
                        inst_pending.push_back(inst.nnf());
                    }
                }
                return self.dpll(solver, inst_pending, decided, Vec::new(), true, budget);
            }
        }
        self.theory_check(solver, &decided, budget)
    }

    /// Decides the conjunction of `decided` in the theory, memoized under
    /// the canonical hash-consed id of the atom set.
    fn theory_check(
        &mut self,
        solver: &Solver,
        decided: &[Atom],
        budget: &SplitBudget,
    ) -> SmtResult<Option<Model>> {
        let mut ids: Vec<u32> =
            decided.iter().map(|a| FormulaId::intern(&Formula::Atom(a.clone())).raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        let key = SeqId::intern(&ids);
        if let Some(cached) = self.verdicts.get(&key) {
            return Ok(cached.clone());
        }
        let lits = decided.iter().map(|a| Lit { atom: a.clone(), deps: Deps::default() }).collect();
        let result = match solver.solve_atoms(lits, 0, budget, Branch::Cube)? {
            Outcome::Sat(model) => Some(model),
            Outcome::Unsat(_) => None,
        };
        self.verdicts.insert(key, result.clone());
        Ok(result)
    }
}

/// Rejects formulas with universal quantifiers in negative positions; the
/// library never produces them.
fn check_no_negated_quantifier(f: &Formula, positive: bool) -> SmtResult<()> {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => Ok(()),
        Formula::Not(inner) => check_no_negated_quantifier(inner, !positive),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                check_no_negated_quantifier(p, positive)?;
            }
            Ok(())
        }
        Formula::Implies(a, b) => {
            check_no_negated_quantifier(a, !positive)?;
            check_no_negated_quantifier(b, positive)
        }
        Formula::Forall(_, body) => {
            if !positive {
                return Err(SmtError::unsupported("universal quantifier in a negative position"));
            }
            check_no_negated_quantifier(body, positive)
        }
    }
}

/// Collects candidate instantiation terms: every index of an array read in
/// the ground atoms.
fn index_candidates(atoms: &[Atom]) -> Vec<Term> {
    let mut out: Vec<Term> = Vec::new();
    let mut push = |t: &Term| {
        if !out.contains(t) {
            out.push(t.clone());
        }
    };
    for a in atoms {
        for side in [&a.lhs, &a.rhs] {
            side.for_each(&mut |t| {
                if let Term::Select(_, idx) = t {
                    push(idx);
                }
                if let Term::Store(_, idx, _) = t {
                    push(idx);
                }
            });
        }
    }
    out
}

/// All tuples of length `n` over `items`.
fn cartesian(items: &[Term], n: usize) -> Vec<Vec<Term>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for prefix in cartesian(items, n - 1) {
        for item in items {
            let mut v = prefix.clone();
            v.push(item.clone());
            out.push(v);
        }
    }
    out
}

/// The linear relaxation of a ground conjunction, decided with a single
/// simplex call: disequalities are dropped, array reads and applications
/// are abstracted by fresh variables (identical reads share one, a
/// congruence-lite that costs nothing), and store structure is ignored.
/// Every dropped or weakened constraint only *removes* information, so an
/// infeasible relaxation refutes the original conjunction; its explanation
/// is the union of the deps of the atoms in the Farkas certificate's
/// support.  `None` says nothing.
///
/// Atoms outside the linear fragment (non-linear products, array-sorted
/// equalities) are *skipped*, not errored: skipping only weakens the
/// relaxation further, and the strict path must stay the sole source of
/// `NonLinear` errors — it may legitimately refute such a cube through
/// the congruence pre-filter without ever reaching the linear converter.
///
/// # Errors
///
/// Propagates arithmetic overflow.
fn relaxation_conflict(lits: &[Lit]) -> SmtResult<Option<Deps>> {
    let mut instances: Vec<Instance> = Vec::new();
    let mut constraints: Vec<LinConstraint<VarRef>> = Vec::new();
    let mut owners: Vec<&Deps> = Vec::new();
    for l in lits {
        let a = &l.atom;
        if a.op == RelOp::Ne {
            continue;
        }
        let lhs = abstract_term(&a.lhs, &mut instances);
        let rhs = abstract_term(&a.rhs, &mut instances);
        match LinConstraint::from_atom(&Atom::new(lhs, a.op, rhs)) {
            Ok(c) => {
                constraints.push(c.tighten_for_integers()?);
                owners.push(&l.deps);
            }
            Err(SmtError::SortMismatch { .. } | SmtError::NonLinear { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(match lra_solve(&constraints)? {
        LpResult::Sat(_) => None,
        LpResult::Unsat(cert) => Some(Deps::union_all(
            cert.multipliers.iter().zip(owners).filter(|(m, _)| !m.is_zero()).map(|(_, d)| d),
        )),
    })
}

/// A store definition `array_var = store(base, idx, val)`, with the deps of
/// the atom it came from.
#[derive(Clone, Debug)]
struct StoreDef {
    var: VarRef,
    base: Term,
    idx: Term,
    val: Term,
    deps: Deps,
}

impl StoreDef {
    fn to_lit(&self) -> Lit {
        Lit {
            atom: Atom::new(
                Term::Var(self.var),
                RelOp::Eq,
                self.base.clone().store(self.idx.clone(), self.val.clone()),
            ),
            deps: self.deps.clone(),
        }
    }
}

/// Separates store definitions from the remaining atoms and applies array
/// alias equalities (`a' = a`) by substitution; an atom or definition the
/// substitution changes inherits the deps of the alias equality.
fn normalise_arrays(lits: Vec<Lit>) -> (Vec<Lit>, Vec<StoreDef>) {
    // Determine which variables are array-like: they appear as the array
    // operand of a select/store or are equated to a store.
    let mut array_vars: BTreeSet<VarRef> = BTreeSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for Lit { atom: a, .. } in &lits {
            for side in [&a.lhs, &a.rhs] {
                side.for_each(&mut |t| match t {
                    Term::Select(arr, _) | Term::Store(arr, _, _) => {
                        if let Term::Var(v) = arr.as_ref() {
                            if array_vars.insert(*v) {
                                changed = true;
                            }
                        }
                    }
                    _ => {}
                });
            }
            // Alias propagation through equalities with a known array var.
            if a.op == RelOp::Eq {
                if let (Term::Var(x), Term::Var(y)) = (&a.lhs, &a.rhs) {
                    if array_vars.contains(x) && array_vars.insert(*y) {
                        changed = true;
                    }
                    if array_vars.contains(y) && array_vars.insert(*x) {
                        changed = true;
                    }
                }
                if matches!(a.rhs, Term::Store(..)) {
                    if let Term::Var(v) = &a.lhs {
                        if array_vars.insert(*v) {
                            changed = true;
                        }
                    }
                }
                if matches!(a.lhs, Term::Store(..)) {
                    if let Term::Var(v) = &a.rhs {
                        if array_vars.insert(*v) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    let mut work = lits;
    let mut defs: Vec<StoreDef> = Vec::new();
    loop {
        // Apply one alias equality between array variables.
        let alias = work.iter().position(|l| {
            l.atom.op == RelOp::Eq
                && matches!((&l.atom.lhs, &l.atom.rhs), (Term::Var(x), Term::Var(y))
                    if array_vars.contains(x) && array_vars.contains(y) && x != y)
        });
        if let Some(pos) = alias {
            let alias = work.remove(pos);
            let (from, to) = match (&alias.atom.lhs, &alias.atom.rhs) {
                (Term::Var(x), Term::Var(y)) => (*x, Term::Var(*y)),
                _ => unreachable!("alias position checked"),
            };
            let subst = |t: &Term| t.subst_var(from, &to);
            work = work.iter().map(|l| l.rewrite(&subst, &alias.deps)).collect();
            for d in &mut defs {
                let (base, idx, val) = (subst(&d.base), subst(&d.idx), subst(&d.val));
                if (&base, &idx, &val) != (&d.base, &d.idx, &d.val) {
                    (d.base, d.idx, d.val) = (base, idx, val);
                    d.deps.union_with(&alias.deps);
                }
            }
            continue;
        }
        // Extract one store definition.
        let def_pos = work.iter().position(|l| {
            l.atom.op == RelOp::Eq
                && (matches!((&l.atom.lhs, &l.atom.rhs), (Term::Var(_), Term::Store(..)))
                    || matches!((&l.atom.lhs, &l.atom.rhs), (Term::Store(..), Term::Var(_))))
        });
        if let Some(pos) = def_pos {
            let Lit { atom, deps } = work.remove(pos);
            let (var, store) = match (atom.lhs, atom.rhs) {
                (Term::Var(v), s @ Term::Store(..)) | (s @ Term::Store(..), Term::Var(v)) => (v, s),
                _ => unreachable!("definition position checked"),
            };
            let Term::Store(base, idx, val) = store else { unreachable!() };
            defs.push(StoreDef { var, base: *base, idx: *idx, val: *val, deps });
            continue;
        }
        break;
    }
    (work, defs)
}

/// A read `target = select(arr, read_idx)` over a written array `arr`,
/// which is (or is defined as) `store(base, idx, val)`.
struct ReadOverWrite {
    target: Term,
    read_idx: Term,
    base: Term,
    idx: Term,
    val: Term,
    /// Deps of the store definition the read goes through (none for an
    /// inline store).
    deps: Deps,
}

impl ReadOverWrite {
    /// The atoms of one branch of the split at `depth`.  On a hit the read
    /// becomes the written value under `read_idx = idx`; on a miss it is
    /// redirected to the base array under `read_idx != idx`.  Rewritten
    /// atoms depend on the decision and on the store definition.
    fn branch(&self, hit: bool, lits: &[Lit], defs: &[StoreDef], depth: usize) -> Vec<Lit> {
        let (replacement, op) = if hit {
            (self.val.clone(), RelOp::Eq)
        } else {
            (self.base.clone().select(self.read_idx.clone()), RelOp::Ne)
        };
        let why = self.deps.with(depth);
        let mut branch: Vec<Lit> = lits
            .iter()
            .map(|l| l.rewrite(&|t| replace_subterm(t, &self.target, &replacement), &why))
            .collect();
        branch.push(Lit {
            atom: Atom::new(self.read_idx.clone(), op, self.idx.clone()),
            deps: Deps::default().with(depth),
        });
        branch.extend(defs.iter().map(StoreDef::to_lit));
        branch
    }
}

/// Finds the first `select` whose array operand is (or is defined as) a
/// store.
fn find_read_over_write(lits: &[Lit], defs: &[StoreDef]) -> Option<ReadOverWrite> {
    let mut found: Option<ReadOverWrite> = None;
    for l in lits {
        for side in [&l.atom.lhs, &l.atom.rhs] {
            side.for_each(&mut |t| {
                if found.is_some() {
                    return;
                }
                let Term::Select(arr, read_idx) = t else { return };
                let (base, idx, val, deps) = match arr.as_ref() {
                    Term::Store(base, idx, val) => (&**base, &**idx, &**val, Deps::default()),
                    Term::Var(v) => match defs.iter().find(|d| d.var == *v) {
                        Some(d) => (&d.base, &d.idx, &d.val, d.deps.clone()),
                        None => return,
                    },
                    _ => return,
                };
                found = Some(ReadOverWrite {
                    target: t.clone(),
                    read_idx: (**read_idx).clone(),
                    base: base.clone(),
                    idx: idx.clone(),
                    val: val.clone(),
                    deps,
                });
            });
        }
        if found.is_some() {
            break;
        }
    }
    found
}

/// Replaces every occurrence of `target` (an exact subterm) by `replacement`.
fn replace_subterm(t: &Term, target: &Term, replacement: &Term) -> Term {
    if t == target {
        return replacement.clone();
    }
    match t {
        Term::Const(_) | Term::Var(_) | Term::Bound(_) => t.clone(),
        Term::Add(a, b) => Term::Add(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Sub(a, b) => Term::Sub(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Neg(a) => Term::Neg(Box::new(replace_subterm(a, target, replacement))),
        Term::Mul(a, b) => Term::Mul(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Select(a, b) => Term::Select(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Store(a, b, c) => Term::Store(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
            Box::new(replace_subterm(c, target, replacement)),
        ),
        Term::App(f, args) => {
            Term::App(*f, args.iter().map(|a| replace_subterm(a, target, replacement)).collect())
        }
    }
}

/// Replaces array reads and uninterpreted applications by fresh variables,
/// bottom-up, recording the instances for functionality enforcement.
fn abstract_term(t: &Term, instances: &mut Vec<Instance>) -> Term {
    match t {
        Term::Const(_) | Term::Var(_) | Term::Bound(_) => t.clone(),
        Term::Add(a, b) => {
            Term::Add(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Sub(a, b) => {
            Term::Sub(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Neg(a) => Term::Neg(Box::new(abstract_term(a, instances))),
        Term::Mul(a, b) => {
            Term::Mul(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Select(arr, idx) => {
            let idx = abstract_term(idx, instances);
            let fun = format!("read:{arr}");
            instance_var(fun, vec![idx], instances)
        }
        Term::App(f, args) => {
            let args: Vec<Term> = args.iter().map(|a| abstract_term(a, instances)).collect();
            let fun = format!("app:{f}");
            instance_var(fun, args, instances)
        }
        Term::Store(a, b, c) => Term::Store(
            Box::new(abstract_term(a, instances)),
            Box::new(abstract_term(b, instances)),
            Box::new(abstract_term(c, instances)),
        ),
    }
}

fn instance_var(fun: String, args: Vec<Term>, instances: &mut Vec<Instance>) -> Term {
    if let Some(existing) = instances.iter().find(|i| i.fun == fun && i.args == args) {
        return Term::Var(existing.result);
    }
    let fresh = VarRef::cur(Symbol::fresh("rd"));
    instances.push(Instance { fun, args, result: fresh });
    Term::Var(fresh)
}

/// Returns `true` if an atom has no variables, reads or applications and
/// evaluates to false.
fn is_constant_false(a: &Atom) -> bool {
    let mut ground = true;
    for side in [&a.lhs, &a.rhs] {
        side.for_each(&mut |t| {
            ground &= !matches!(t, Term::Var(_) | Term::Bound(_) | Term::Select(..) | Term::App(..))
        });
    }
    ground
        && LinConstraint::<VarRef>::from_atom(a)
            .and_then(|c| c.holds(&|_| Rat::ZERO))
            .is_ok_and(|holds| !holds)
}

/// Returns `true` if an atom relates two array-sorted terms without reading
/// from them (after abstraction such atoms carry no arithmetic content).
fn is_pure_array_atom(a: &Atom) -> bool {
    fn arrayish(t: &Term) -> bool {
        matches!(t, Term::Var(_) | Term::Store(..))
    }
    a.op == RelOp::Eq && arrayish(&a.lhs) && arrayish(&a.rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::Formula as F;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn pure_arithmetic_sat_and_unsat() {
        let s = solver();
        let x = Term::var("x");
        let sat = F::and(vec![F::ge(x.clone(), Term::int(0)), F::le(x.clone(), Term::int(5))]);
        assert!(s.is_sat(&sat).unwrap());
        let unsat = F::and(vec![F::gt(x.clone(), Term::int(5)), F::lt(x, Term::int(5))]);
        assert!(!s.is_sat(&unsat).unwrap());
    }

    #[test]
    fn integer_tightening_applies() {
        let s = solver();
        // 0 < x < 1 has no integer solution (but has rational ones).
        let x = Term::var("x");
        let f = F::and(vec![F::gt(x.clone(), Term::int(0)), F::lt(x, Term::int(1))]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn disjunction_and_negation() {
        let s = solver();
        let x = Term::var("x");
        let f = F::or(vec![F::lt(x.clone(), Term::int(0)), F::gt(x.clone(), Term::int(10))]);
        assert!(s.is_sat(&f).unwrap());
        let g = F::and(vec![f, F::ge(x.clone(), Term::int(0)), F::le(x, Term::int(10))]);
        assert!(!s.is_sat(&g).unwrap());
    }

    #[test]
    fn disequality_split() {
        let s = solver();
        let x = Term::var("x");
        let f = F::and(vec![
            F::ne(x.clone(), Term::int(3)),
            F::ge(x.clone(), Term::int(3)),
            F::le(x.clone(), Term::int(3)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        let g = F::and(vec![F::ne(x.clone(), Term::int(3)), F::ge(x, Term::int(3))]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn read_over_write_same_index() {
        let s = solver();
        // a' = store(a, i, 0) && a'[i] != 0  is unsat.
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let i = Term::var("i");
        let f = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(ap.select(i), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn read_over_write_different_index() {
        let s = solver();
        // a' = store(a, i, 0) && j != i && a'[j] != a[j]  is unsat.
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let i = Term::var("i");
        let j = Term::var("j");
        let f = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(j.clone(), i.clone()),
            F::ne(ap.select(j.clone()), a.select(j)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Without the j != i assumption it is satisfiable (j may alias i).
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let g = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(ap.select(Term::var("j")), a.select(Term::var("j"))),
        ]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn functionality_of_reads() {
        let s = solver();
        // i = j && a[i] != a[j] is unsat.
        let a = Term::var("a");
        let f = F::and(vec![
            F::eq(Term::var("i"), Term::var("j")),
            F::ne(a.clone().select(Term::var("i")), a.clone().select(Term::var("j"))),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Different indices may hold different values.
        let g = F::ne(a.clone().select(Term::var("i")), a.select(Term::var("j")));
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn uninterpreted_function_congruence() {
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::var("y")),
            F::ne(Term::app("f", vec![Term::var("x")]), Term::app("f", vec![Term::var("y")])),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn frame_condition_aliasing() {
        let s = solver();
        // a' = a && a[i] = 1 && a'[i] = 0 is unsat (the alias must be applied).
        let f = F::and(vec![
            F::eq(Term::pvar("a"), Term::var("a")),
            F::eq(Term::var("a").select(Term::var("i")), Term::int(1)),
            F::eq(Term::pvar("a").select(Term::var("i")), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn initcheck_counterexample_path_formula_is_infeasible() {
        // SSA encoding of the Figure 2(b) counterexample (one iteration of
        // each loop): the first loop writes a[0] := 0, the second loop reads
        // a[0] and the error transition claims a[0] != 0.
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::ivar("i", 1), Term::int(0)),
            F::lt(Term::ivar("i", 1), Term::ivar("n", 0)),
            F::eq(Term::ivar("a", 1), Term::ivar("a", 0).store(Term::ivar("i", 1), Term::int(0))),
            F::eq(Term::ivar("i", 2), Term::ivar("i", 1).add(Term::int(1))),
            F::ge(Term::ivar("i", 2), Term::ivar("n", 0)),
            F::eq(Term::ivar("i", 3), Term::int(0)),
            F::lt(Term::ivar("i", 3), Term::ivar("n", 0)),
            F::ne(Term::ivar("a", 1).select(Term::ivar("i", 3)), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap(), "Figure 2(b) counterexample must be spurious");
    }

    #[test]
    fn universally_quantified_antecedent_is_instantiated() {
        let s = solver();
        let k = Symbol::intern("k");
        // forall k: 0 <= k && k <= n-1 -> a[k] = 0,  0 <= j <= n-1,  a[j] != 0
        // must be unsatisfiable.
        let inv = F::forall(
            vec![k],
            F::and(vec![
                F::le(Term::int(0), Term::Bound(k)),
                F::le(Term::Bound(k), Term::var("n").sub(Term::int(1))),
            ])
            .implies(F::eq(Term::var("a").select(Term::Bound(k)), Term::int(0))),
        );
        let f = F::and(vec![
            inv.clone(),
            F::ge(Term::var("j"), Term::int(0)),
            F::le(Term::var("j"), Term::var("n").sub(Term::int(1))),
            F::ne(Term::var("a").select(Term::var("j")), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Outside the initialised range the read is unconstrained.
        let g = F::and(vec![
            inv,
            F::gt(Term::var("j"), Term::var("n")),
            F::ne(Term::var("a").select(Term::var("j")), Term::int(0)),
        ]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn entailment_with_quantified_consequent() {
        let s = solver();
        let k = Symbol::intern("k");
        // a[k] = 0 for 0 <= k < i  and  i <= 0  entails  a[k] = 0 for 0 <= k < i
        // trivially; more interestingly, 0 <= k < 0 is empty so anything holds.
        let empty_range = F::and(vec![F::eq(Term::var("i"), Term::int(0))]);
        let goal = F::forall(
            vec![k],
            F::and(vec![
                F::le(Term::int(0), Term::Bound(k)),
                F::lt(Term::Bound(k), Term::var("i")),
            ])
            .implies(F::eq(Term::var("a").select(Term::Bound(k)), Term::int(7))),
        );
        assert!(s.entails(&empty_range, &goal).unwrap());
        // With i = 1 the range contains k = 0, and nothing constrains a[0].
        let nonempty = F::eq(Term::var("i"), Term::int(1));
        assert!(!s.entails(&nonempty, &goal).unwrap());
    }

    #[test]
    fn entailment_of_conjunction_splits() {
        let s = solver();
        let x = Term::var("x");
        let ante = F::eq(x.clone(), Term::int(5));
        let cons = F::and(vec![F::ge(x.clone(), Term::int(0)), F::le(x, Term::int(10))]);
        assert!(s.entails(&ante, &cons).unwrap());
    }

    #[test]
    fn model_is_returned_for_original_variables_only() {
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::int(2)),
            F::eq(Term::var("a").select(Term::var("x")), Term::int(9)),
        ]);
        match s.check(&f).unwrap() {
            SatResult::Sat(m) => {
                assert_eq!(m.value(VarRef::cur(Symbol::intern("x"))), Some(Rat::int(2)));
                assert!(m.values.keys().all(|v| !v.sym.as_str().contains('!')));
            }
            SatResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn relaxation_skips_nonlinear_atoms_instead_of_erroring() {
        // The strict path refutes this cube through the congruence
        // pre-filter / the equality contradiction without ever converting
        // the non-linear atom; the relaxation guard (triggered by the two
        // disequalities) must not turn that into a NonLinear error.
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::int(1)),
            F::eq(Term::var("x"), Term::int(2)),
            F::le(Term::var("y").mul(Term::var("z")), Term::int(5)),
            F::ne(Term::var("u"), Term::var("v")),
            F::ne(Term::var("w"), Term::var("t")),
        ]);
        assert!(!s.is_sat(&f).unwrap(), "decidably unsat despite the non-linear atom");
    }

    #[test]
    fn budget_is_enforced() {
        let s = Solver::with_budget(1);
        // Needs more than one branch because of the disequalities.
        let f = F::and(vec![
            F::ne(Term::var("x"), Term::int(0)),
            F::ne(Term::var("y"), Term::int(0)),
            F::ne(Term::var("z"), Term::int(0)),
        ]);
        match s.check(&f) {
            Err(SmtError::Budget { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budget_message_counts_splits_by_kind() {
        // Four disequalities with a satisfiable relaxation: the budget goes
        // to the root cube check and to disequality splits only, and the
        // message must say so instead of naming a layer that never branched.
        let s = Solver::with_budget(3);
        let f = F::and(["x", "y", "z", "w"].map(|v| F::ne(Term::var(v), Term::int(0))).to_vec());
        let Err(SmtError::Budget { message }) = s.check(&f) else {
            panic!("expected budget exhaustion");
        };
        assert!(
            message.contains("by 2 disequality, 0 read-over-write and 0 functionality splits"),
            "{message}"
        );
        assert!(message.contains("1 cube checks and 0 tableau solves"), "{message}");
    }

    /// `m` stores of 0 at the indices `0..m` into one array chain, and `r`
    /// reads of the final array at free indices.  The first `r - 1` reads
    /// are harmless (`>= 0`); the last one reads inside the written range
    /// and claims a 1 there, which only its own case splits refute.
    fn store_chain_with_reads(m: i128, r: usize) -> Formula {
        let mut conjuncts = Vec::new();
        for k in 1..=m {
            conjuncts.push(F::eq(
                Term::ivar("a", k as u32),
                Term::ivar("a", k as u32 - 1).store(Term::int(k - 1), Term::int(0)),
            ));
        }
        let last = Term::ivar("a", m as u32);
        for q in 0..r - 1 {
            let j = Term::var(format!("j{q}").as_str());
            conjuncts.push(F::ge(last.clone().select(j), Term::int(0)));
        }
        let j = Term::var("jlast");
        conjuncts.push(F::ge(j.clone(), Term::int(0)));
        conjuncts.push(F::lt(j.clone(), Term::int(m)));
        conjuncts.push(F::eq(last.select(j), Term::int(1)));
        F::and(conjuncts)
    }

    #[test]
    fn independent_reads_cost_a_sum_not_a_product() {
        // Without backjumping every combination of the harmless reads'
        // hit/miss outcomes is refuted separately: at least (m+1)^(r-1)
        // leaves, far beyond the budget.  With it, each harmless read is
        // split once and the conflict of the last read jumps over the rest.
        let (m, r) = (6, 5);
        let f = store_chain_with_reads(m, r);
        let budget = 200;
        assert!(budget * 80 < (m as usize + 1).pow(r as u32));
        assert_eq!(Solver::with_budget(budget).check(&f).unwrap(), SatResult::Unsat);
    }

    #[test]
    fn witness_after_a_backjumped_subtree_is_unchanged() {
        // Two stores of 0 into `a`; the read at `x` must be at least 5, so
        // it misses both stores, and the read at `y` is free.  The hit
        // branch of the first split on `a2[x]` is refuted by `0 >= 5`, a
        // conflict that does not mention the `a2[y]` splits made below it,
        // so those are skipped; the witness lies in the miss branch.  The
        // expected model is the one the solver returned before
        // backjumping existed.
        let f = F::and(vec![
            F::ge(Term::ivar("a", 2).select(Term::var("x")), Term::int(5)),
            F::ge(Term::ivar("a", 2).select(Term::var("y")), Term::int(0)),
            F::eq(Term::ivar("a", 1), Term::ivar("a", 0).store(Term::var("i"), Term::int(0))),
            F::eq(Term::ivar("a", 2), Term::ivar("a", 1).store(Term::var("k"), Term::int(0))),
        ]);
        // Without backjumping the search needs 47 branches; skipping the
        // refuted subtree brings it to 11.
        let SatResult::Sat(model) = Solver::with_budget(20).check(&f).unwrap() else {
            panic!("satisfiable");
        };
        let expected: BTreeMap<VarRef, Rat> = [("x", -1), ("y", 0), ("i", 0), ("k", 0)]
            .map(|(v, r)| (VarRef::cur(Symbol::intern(v)), Rat::int(r)))
            .into();
        assert_eq!(model.values, expected);
    }

    #[test]
    fn negated_quantifier_is_rejected() {
        let s = solver();
        let k = Symbol::intern("k");
        let f = Formula::Not(Box::new(F::forall(
            vec![k],
            F::eq(Term::var("a").select(Term::Bound(k)), Term::int(0)),
        )));
        assert!(matches!(s.check(&f), Err(SmtError::Unsupported { .. })));
    }

    #[test]
    fn store_chain_through_ssa_versions() {
        let s = solver();
        // a1 = store(a0, 0, 1); a2 = store(a1, 1, 2); a2[0] = 1 && a2[1] = 2 sat;
        // asserting a2[0] = 5 is unsat.
        let base = F::and(vec![
            F::eq(Term::ivar("a", 1), Term::ivar("a", 0).store(Term::int(0), Term::int(1))),
            F::eq(Term::ivar("a", 2), Term::ivar("a", 1).store(Term::int(1), Term::int(2))),
        ]);
        let good = F::and(vec![
            base.clone(),
            F::eq(Term::ivar("a", 2).select(Term::int(0)), Term::int(1)),
            F::eq(Term::ivar("a", 2).select(Term::int(1)), Term::int(2)),
        ]);
        assert!(s.is_sat(&good).unwrap());
        let bad = F::and(vec![base, F::eq(Term::ivar("a", 2).select(Term::int(0)), Term::int(5))]);
        assert!(!s.is_sat(&bad).unwrap());
    }

    #[test]
    fn integral_check_refutes_fractional_only_models() {
        let s = solver();
        // x + x = 1 is rationally satisfiable (x = 1/2) but has no integer
        // solution; the plain check must say sat and the integral check unsat.
        let f = F::eq(Term::var("x").add(Term::var("x")), Term::int(1));
        assert!(s.is_sat(&f).unwrap());
        assert_eq!(s.check_integral(&f, 64).unwrap(), IntSatResult::Unsat);
    }

    #[test]
    fn integral_check_finds_integer_models() {
        let s = solver();
        // 2x + 3y = 7 with 0 <= x, y <= 5 has integer solutions (x=2, y=1).
        let f = F::and(vec![
            F::eq(
                Term::int(2).mul(Term::var("x")).add(Term::int(3).mul(Term::var("y"))),
                Term::int(7),
            ),
            F::ge(Term::var("x"), Term::int(0)),
            F::ge(Term::var("y"), Term::int(0)),
            F::le(Term::var("x"), Term::int(5)),
            F::le(Term::var("y"), Term::int(5)),
        ]);
        let IntSatResult::Sat(m) = s.check_integral(&f, 64).unwrap() else {
            panic!("expected an integral model");
        };
        for r in m.values.values() {
            assert!(r.is_integer(), "model must be integral, got {m}");
        }
        let x = m.value(VarRef::cur(Symbol::intern("x"))).unwrap().as_integer().unwrap();
        let y = m.value(VarRef::cur(Symbol::intern("y"))).unwrap().as_integer().unwrap();
        assert_eq!(2 * x + 3 * y, 7);
    }

    #[test]
    fn integral_check_reports_unknown_on_exhausted_budget() {
        let s = solver();
        let f = F::eq(Term::var("x").add(Term::var("x")), Term::int(1));
        assert_eq!(s.check_integral(&f, 0).unwrap(), IntSatResult::Unknown);
    }
}
