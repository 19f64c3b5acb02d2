//! Cross-checks on the decision-procedure substrate:
//!
//! * the general simplex and Fourier–Motzkin elimination must agree on the
//!   satisfiability of random linear systems (both are exact over the
//!   rationals), simplex models must satisfy every constraint, and Farkas
//!   certificates must verify;
//! * congruence closure must decide satisfiability of equality chains with
//!   a disequality correctly, including through uninterpreted function
//!   applications;
//! * the combined solver, on random ground conjunctions over `select`/`store`
//!   chains, linear atoms and disequalities, must return models that satisfy
//!   the conjunction under concrete evaluation, and verdicts that do not
//!   depend on the order of the conjuncts.

use pathinv_ir::{Atom, Formula, RelOp, Symbol, Term, VarRef};
use pathinv_smt::{
    fourier_motzkin, lra_solve, CongruenceClosure, ConstrOp, LinConstraint, LinExpr, LpResult,
    Model, Rat, SatResult, Solver,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::BTreeMap;

const VARS: [&str; 3] = ["x", "y", "z"];

fn vref(name: &str) -> VarRef {
    VarRef::cur(Symbol::intern(name))
}

/// A random normalized constraint `c1*x + c2*y + c3*z + d ⋈ 0`.
fn constraint_strategy() -> impl Strategy<Value = LinConstraint<VarRef>> {
    let coeff = -3i128..=3;
    let op = prop_oneof![Just(ConstrOp::Le), Just(ConstrOp::Lt), Just(ConstrOp::Eq)];
    (coeff.clone(), coeff.clone(), coeff, -5i128..=5, op).prop_map(|(a, b, c, d, op)| {
        let mut e = LinExpr::constant(Rat::int(d));
        for (name, k) in VARS.iter().zip([a, b, c]) {
            e.add_term(vref(name), Rat::int(k)).expect("small coefficients cannot overflow");
        }
        LinConstraint::new(e, op)
    })
}

/// Full Fourier–Motzkin elimination decides satisfiability: after projecting
/// out every variable, the residue is variable-free and the conjunction is
/// satisfiable iff every residual (constant) constraint holds.
fn fm_is_sat(constraints: &[LinConstraint<VarRef>]) -> bool {
    let residue =
        fourier_motzkin::eliminate(constraints, &VARS.iter().map(|v| vref(v)).collect::<Vec<_>>())
            .expect("elimination on small systems cannot overflow");
    residue.iter().all(|c| {
        assert!(c.expr.vars().is_empty(), "residue must be variable-free");
        c.holds(&|_| Rat::ZERO).expect("constant evaluation cannot fail")
    })
}

/// An array conjunction in structured form, so it can be both handed to the
/// solver and evaluated concretely: `a1 .. an` is a store chain over `a0`,
/// read `q` is `rq = select(a_level, index)`, and the remaining conjuncts
/// are linear atoms and disequalities over `x`, `y`, `z` and the reads.
#[derive(Debug)]
struct ArrayQuery {
    /// `(index, value)` written by each store, in chain order.
    stores: Vec<(Term, Term)>,
    /// `(chain level, index)` of each read.
    reads: Vec<(usize, Term)>,
    /// Linear atoms and disequalities.
    atoms: Vec<(Term, RelOp, Term)>,
}

/// A small integer term: one of `x`, `y`, `z`, or a constant in `0..3`.
fn small_term(code: u8) -> Term {
    match code % 6 {
        k @ 0..=2 => Term::var(VARS[k as usize]),
        k => Term::int(i128::from(k) - 3),
    }
}

fn array_query_strategy() -> impl Strategy<Value = ArrayQuery> {
    let stores = proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5);
    let reads = proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4);
    let atoms =
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), -2i128..=2), 1..6);
    (stores, reads, atoms).prop_map(|(stores, reads, atoms)| {
        let stores: Vec<(Term, Term)> =
            stores.into_iter().map(|(i, v)| (small_term(i), small_term(v))).collect();
        let reads: Vec<(usize, Term)> = reads
            .into_iter()
            .map(|(level, i)| (usize::from(level) % (stores.len() + 1), small_term(i)))
            .collect();
        // Atom operands range over the index variables and the reads.
        let operand = |code: u8| {
            let k = usize::from(code) % (VARS.len() + reads.len());
            if k < VARS.len() {
                Term::var(VARS[k])
            } else {
                Term::var(format!("r{}", k - VARS.len()).as_str())
            }
        };
        let ops = [RelOp::Le, RelOp::Lt, RelOp::Eq, RelOp::Ne, RelOp::Ge, RelOp::Ne];
        let atoms = atoms
            .into_iter()
            .map(|(l, op, r, c)| {
                (operand(l), ops[usize::from(op) % ops.len()], operand(r).add(Term::int(c)))
            })
            .collect();
        ArrayQuery { stores, reads, atoms }
    })
}

impl ArrayQuery {
    fn array(level: usize) -> Term {
        Term::ivar("a", level as u32)
    }

    fn conjuncts(&self) -> Vec<Formula> {
        let mut out = Vec::new();
        for (k, (idx, val)) in self.stores.iter().enumerate() {
            out.push(Formula::eq(
                Self::array(k + 1),
                Self::array(k).store(idx.clone(), val.clone()),
            ));
        }
        for (q, (level, idx)) in self.reads.iter().enumerate() {
            out.push(Formula::eq(
                Term::var(format!("r{q}").as_str()),
                Self::array(*level).select(idx.clone()),
            ));
        }
        for (lhs, op, rhs) in &self.atoms {
            out.push(Formula::Atom(Atom::new(lhs.clone(), *op, rhs.clone())));
        }
        out
    }

    /// Evaluates the conjunction under `model` (unvalued variables are 0, as
    /// in the solver), choosing the contents of the base array `a0` freely:
    /// every read that falls through the store chain to `a0` at the same
    /// index must agree on the value there.
    fn holds(&self, model: &Model) -> bool {
        let lookup = |v: &VarRef| model.value(*v).unwrap_or(Rat::ZERO);
        let eval = |t: &Term| {
            LinExpr::from_term(t).and_then(|e| e.eval(&lookup)).expect("linear ground term")
        };
        let mut base: BTreeMap<Rat, Rat> = BTreeMap::new();
        for (q, (level, idx)) in self.reads.iter().enumerate() {
            let result = eval(&Term::var(format!("r{q}").as_str()));
            let at = eval(idx);
            let written = self.stores[..*level].iter().rev().find(|(i, _)| eval(i) == at);
            match written {
                Some((_, val)) if eval(val) != result => return false,
                Some(_) => {}
                None => {
                    if *base.entry(at).or_insert(result) != result {
                        return false;
                    }
                }
            }
        }
        self.atoms.iter().all(|(lhs, op, rhs)| {
            let (l, r) = (eval(lhs), eval(rhs));
            match op {
                RelOp::Eq => l == r,
                RelOp::Ne => l != r,
                RelOp::Lt => l < r,
                RelOp::Le => l <= r,
                RelOp::Gt => l > r,
                RelOp::Ge => l >= r,
            }
        })
    }

    /// Searches the box `{0, 1, 2}` for every index variable and read
    /// for a concrete witness; finding one proves the conjunction
    /// satisfiable (over the integers, hence in every relaxation).
    fn has_small_witness(&self) -> bool {
        let vars: Vec<VarRef> = VARS
            .iter()
            .map(|v| vref(v))
            .chain((0..self.reads.len()).map(|q| vref(&format!("r{q}"))))
            .collect();
        (0..3usize.pow(vars.len() as u32)).any(|code| {
            let values = vars
                .iter()
                .enumerate()
                .map(|(k, v)| (*v, Rat::int((code / 3usize.pow(k as u32) % 3) as i128)))
                .collect();
            self.holds(&Model { values })
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

}

proptest! {
    // Unsound backjumps show up only on the rare queries whose split trees
    // need them, so this property runs more cases than the others.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every model of a random array conjunction satisfies it concretely,
    /// an unsatisfiable verdict has no concrete witness in a small box,
    /// and a seeded permutation of the conjuncts keeps the verdict.
    #[test]
    fn array_models_evaluate_and_verdicts_ignore_conjunct_order(
        query in array_query_strategy(),
        seed in any::<u64>(),
    ) {
        let solver = Solver::new();
        let mut conjuncts = query.conjuncts();
        let verdict = solver.check(&Formula::and(conjuncts.clone())).expect("small query");
        // Fisher–Yates under a seeded generator.
        let mut rng = TestRng::from_seed(seed);
        for i in (1..conjuncts.len()).rev() {
            conjuncts.swap(i, rng.below(i as u128 + 1) as usize);
        }
        let permuted = solver.check(&Formula::and(conjuncts)).expect("small query");
        prop_assert!(
            verdict.is_sat() == permuted.is_sat(),
            "verdict depends on the conjunct order: {query:?}"
        );
        for result in [verdict, permuted] {
            match result {
                SatResult::Sat(model) => {
                    prop_assert!(query.holds(&model), "model {model} violates {query:?}");
                }
                SatResult::Unsat => {
                    prop_assert!(!query.has_small_witness(), "wrongly refuted: {query:?}");
                }
            }
        }
    }

    /// Simplex and Fourier–Motzkin agree on random systems; models and
    /// Farkas certificates check out.
    #[test]
    fn simplex_and_fourier_motzkin_agree(
        constraints in proptest::collection::vec(constraint_strategy(), 1..6)
    ) {
        let fm_sat = fm_is_sat(&constraints);
        match lra_solve(&constraints).expect("small systems cannot overflow") {
            LpResult::Sat(model) => {
                prop_assert!(
                    fm_sat,
                    "simplex found a model but Fourier–Motzkin says unsat: {constraints:?}"
                );
                for c in &constraints {
                    prop_assert!(
                        c.holds(&|k: &VarRef| {
                            model.get(k).copied().unwrap_or(Rat::ZERO)
                        }).expect("model evaluation cannot fail"),
                        "simplex model violates {c:?}"
                    );
                }
            }
            LpResult::Unsat(cert) => {
                prop_assert!(
                    !fm_sat,
                    "simplex says unsat but Fourier–Motzkin found the system satisfiable: \
                     {constraints:?}"
                );
                prop_assert!(
                    cert.verify(&constraints).expect("certificate check cannot overflow"),
                    "Farkas certificate fails to verify for {constraints:?}"
                );
            }
        }
    }

    /// An equality chain `t_0 = t_1 = ... = t_n` makes the endpoints equal;
    /// adding `t_0 != t_n` is inconsistent, and omitting one link is not.
    #[test]
    fn congruence_closure_on_equality_chains(
        n in 2usize..8,
        missing in 0usize..8,
        use_apps in proptest::prelude::any::<u8>(),
    ) {
        let use_apps = use_apps.is_multiple_of(2);
        let term = |i: usize| {
            let v = Term::var(format!("c{i}").as_str());
            if use_apps { Term::app("f", vec![v]) } else { v }
        };

        // Complete chain: endpoints merge, a disequality breaks consistency.
        let mut cc = CongruenceClosure::new();
        for i in 0..n {
            cc.assert_eq(&term(i), &term(i + 1));
        }
        prop_assert!(cc.is_consistent());
        prop_assert!(cc.are_equal(&term(0), &term(n)));
        cc.assert_ne(&term(0), &term(n));
        prop_assert!(!cc.is_consistent(), "t0 = ... = tn together with t0 != tn must be unsat");

        // Chain with one missing link: the endpoints stay separate, so the
        // same disequality remains satisfiable.
        let missing = missing % n;
        let mut cc = CongruenceClosure::new();
        for i in 0..n {
            if i != missing {
                cc.assert_eq(&term(i), &term(i + 1));
            }
        }
        cc.assert_ne(&term(0), &term(n));
        prop_assert!(
            cc.is_consistent(),
            "with link {missing} missing, t0 != tn must be satisfiable"
        );
        prop_assert!(!cc.are_equal(&term(0), &term(n)));
    }

    /// Congruence propagates through function applications: merging the
    /// chain endpoints merges their images under `f`.
    #[test]
    fn congruence_propagates_through_applications(n in 1usize..6) {
        let var = |i: usize| Term::var(format!("d{i}").as_str());
        let mut cc = CongruenceClosure::new();
        let f0 = Term::app("g", vec![var(0)]);
        let fn_ = Term::app("g", vec![var(n)]);
        cc.add_term(&f0);
        cc.add_term(&fn_);
        prop_assert!(!cc.are_equal(&f0, &fn_));
        for i in 0..n {
            cc.assert_eq(&var(i), &var(i + 1));
        }
        prop_assert!(cc.are_equal(&f0, &fn_), "g(d0) = g(dn) must follow from the chain");
        prop_assert!(cc.is_consistent());
    }
}
