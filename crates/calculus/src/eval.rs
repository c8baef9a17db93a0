//! Limited-interpretation evaluation of calculus queries.
//!
//! Quantifiers range over the constructive domain of their annotation
//! relative to the *extended active domain* `adom(d, Q)` (input atoms plus
//! the query's constants — plus any invented atoms supplied by the
//! invention semantics of [`crate::invention`]). For strict types the
//! constructive domain is finite but hyper-exponential in the set-nesting
//! depth; for rtypes mentioning `Obj` it is infinite and we enumerate it
//! bounded by construction size ([`CalcConfig::obj_size_bound`]) — the
//! documented substitution for the provably non-computable full semantics.
//!
//! Representation: one [`eval_query_over`] call owns a private
//! [`Pool`]. Every domain is enumerated into it once per annotation
//! rtype as a hash-consed DAG of [`ObjRef`] ids, so a
//! 65 536-member `{{{U}}}` domain costs one node per member rather than
//! one tree per member. Bindings, terms and atomic formulas work on ids:
//! `≈` is id equality, `∈` a binary search over a set node's children,
//! and `P(t)` a probe of `P`'s rows interned into the same pool. Only
//! the answer rows are resolved back to [`Value`]s, and the pool is
//! dropped when the call returns, so nothing reaches the global pool.
//! Ids from the private pool must never meet structures keyed by global
//! ids (`Instance::contains_ref`, `IndexSet`).

use crate::ast::{CalcQuery, CalcTerm, Formula};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use uset_object::cons::{cons_obj_bounded, cons_type_par};
use uset_object::intern::FxBuildHasher;
use uset_object::{Atom, Database, Instance, ObjRef, ObjectError, Pool, RType, Value};

/// Evaluation bounds.
#[derive(Clone, Copy, Debug)]
pub struct CalcConfig {
    /// Cap on any single constructive-domain enumeration.
    pub cons_limit: usize,
    /// Size bound for enumerating `cons_Obj` (rtypes mentioning `Obj`).
    pub obj_size_bound: usize,
    /// Worker threads for splitting `cons_T(X)` candidate spaces
    /// (`1` = sequential; the enumeration order is identical at every
    /// width). The governed invention loops set this from their
    /// [`uset_guard::Governor`]'s parallelism policy; direct callers can
    /// pin it explicitly.
    pub workers: usize,
}

impl Default for CalcConfig {
    fn default() -> Self {
        CalcConfig {
            cons_limit: 1 << 20,
            obj_size_bound: 4,
            workers: 1,
        }
    }
}

impl CalcConfig {
    /// The [`uset_guard::Budget`] equivalent of this config's knobs:
    /// `cons_limit` caps the size of any single enumerated domain or
    /// per-level answer, so it maps to `max_value_size`. `obj_size_bound`
    /// is a structural bound on object construction, not a resource limit,
    /// and stays out of the budget.
    pub fn budget(&self) -> uset_guard::Budget {
        uset_guard::Budget::unlimited().with_value_size(self.cons_limit)
    }
}

/// The calculus engine's exhaustion report (see
/// [`crate::invention::InventionPartial`] for the snapshot the invention
/// loops surrender).
pub type CalcExhausted = uset_guard::Exhausted<crate::invention::InventionPartial>;

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalcError {
    /// A constructive domain exceeded [`CalcConfig::cons_limit`].
    DomainTooLarge(String),
    /// A free variable was not the query variable.
    UnboundVariable(String),
    /// A resource budget was exhausted or the run was cancelled during an
    /// invention enumeration; carries the union accumulated over the
    /// completed invention levels.
    Exhausted(Box<CalcExhausted>),
}

impl CalcError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&CalcExhausted> {
        match self {
            CalcError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for CalcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalcError::DomainTooLarge(what) => {
                write!(f, "constructive domain too large: {what}")
            }
            CalcError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            CalcError::Exhausted(e) => write!(f, "calculus evaluation exhausted: {e}"),
        }
    }
}

impl std::error::Error for CalcError {}

/// Enumerate `cons_T(atoms)` for an rtype under the config bounds.
pub fn enumerate_rtype(
    ty: &RType,
    atoms: &BTreeSet<Atom>,
    config: &CalcConfig,
) -> Result<Vec<Value>, CalcError> {
    let pool = Pool::new();
    let ids = enumerate_ids(ty, atoms, config, &pool)?;
    Ok(ids.into_iter().map(|r| pool.resolve(r)).collect())
}

/// [`enumerate_rtype`] as ids interned into `pool`.
fn enumerate_ids(
    ty: &RType,
    atoms: &BTreeSet<Atom>,
    config: &CalcConfig,
    pool: &Pool,
) -> Result<Vec<ObjRef>, CalcError> {
    if let Some(strict) = ty.to_type() {
        cons_type_par(&strict, atoms, config.cons_limit, config.workers, pool).map_err(describe)
    } else {
        // rtype mentions Obj: enumerate all bounded objects, filter to the
        // rtype (bounded stand-in for the infinite domain)
        let all =
            cons_obj_bounded(atoms, config.obj_size_bound, config.cons_limit).map_err(describe)?;
        Ok(all
            .iter()
            .filter(|v| ty.contains(v))
            .map(|v| pool.intern(v))
            .collect())
    }
}

fn describe(e: ObjectError) -> CalcError {
    CalcError::DomainTooLarge(e.to_string())
}

/// The state of one [`eval_query_over`] call: its private pool and
/// everything memoized against it.
struct Scope<'q> {
    pool: Pool,
    db: &'q Database,
    atoms: &'q BTreeSet<Atom>,
    config: &'q CalcConfig,
    /// Quantifier domains by annotation rtype. The atom universe is fixed
    /// for the call, so a quantifier nested under `k` binding loops
    /// enumerates its (often exponential) domain once, not once per
    /// enclosing combination.
    domains: HashMap<&'q RType, Rc<[ObjRef]>>,
    /// Each probed relation's rows, interned into `pool` on first probe
    /// (an absent relation reads empty).
    relations: HashMap<&'q str, HashSet<ObjRef, FxBuildHasher>, FxBuildHasher>,
    /// Bound variables, innermost last; a rebinding shadows until popped.
    bindings: Vec<(&'q str, ObjRef)>,
}

impl<'q> Scope<'q> {
    fn domain(&mut self, ty: &'q RType) -> Result<Rc<[ObjRef]>, CalcError> {
        if let Some(d) = self.domains.get(ty) {
            return Ok(Rc::clone(d));
        }
        let d: Rc<[ObjRef]> = enumerate_ids(ty, self.atoms, self.config, &self.pool)?.into();
        self.domains.insert(ty, Rc::clone(&d));
        Ok(d)
    }

    fn term(&self, t: &CalcTerm) -> Result<ObjRef, CalcError> {
        match t {
            CalcTerm::Var(v) => self
                .bindings
                .iter()
                .rev()
                .find(|(name, _)| name == v)
                .map(|&(_, r)| r)
                .ok_or_else(|| CalcError::UnboundVariable(v.clone())),
            CalcTerm::Const(c) => Ok(self.pool.intern(c)),
            CalcTerm::Tuple(ts) => {
                let items = self.terms(ts)?;
                Ok(self.pool.tuple_of(&items))
            }
            CalcTerm::SetEnum(ts) => {
                let mut items = self.terms(ts)?;
                items.sort_by(|&a, &b| self.pool.cmp_refs(a, b));
                items.dedup();
                Ok(self.pool.set_of_sorted(items))
            }
        }
    }

    fn terms(&self, ts: &[CalcTerm]) -> Result<Vec<ObjRef>, CalcError> {
        ts.iter().map(|t| self.term(t)).collect()
    }

    fn formula(&mut self, f: &'q Formula) -> Result<bool, CalcError> {
        match f {
            Formula::Eq(x, y) => Ok(self.term(x)? == self.term(y)?),
            Formula::Member(x, y) => {
                let (x, y) = (self.term(x)?, self.term(y)?);
                Ok(self.pool.set_contains_ref(y, x) == Some(true))
            }
            Formula::Pred(p, t) => {
                let row = self.term(t)?;
                let (pool, db) = (&self.pool, self.db);
                let rows = self.relations.entry(p).or_insert_with(|| {
                    db.get_ref(p)
                        .map(|rel| rel.iter().map(|v| pool.intern(v)).collect())
                        .unwrap_or_default()
                });
                Ok(rows.contains(&row))
            }
            Formula::And(x, y) => Ok(self.formula(x)? && self.formula(y)?),
            Formula::Or(x, y) => Ok(self.formula(x)? || self.formula(y)?),
            Formula::Not(g) => Ok(!self.formula(g)?),
            // ∃ stops at the first witness, ∀ at the first counterexample
            Formula::Exists(x, ty, g) => self.quantify(x, ty, g, true),
            Formula::Forall(x, ty, g) => self.quantify(x, ty, g, false),
        }
    }

    /// True iff some member of `ty`'s domain bound to `x` makes `g`
    /// evaluate to `stop` — then `stop`, else `!stop`.
    fn quantify(
        &mut self,
        x: &'q str,
        ty: &'q RType,
        g: &'q Formula,
        stop: bool,
    ) -> Result<bool, CalcError> {
        let domain = self.domain(ty)?;
        for &v in domain.iter() {
            self.bindings.push((x, v));
            let holds = self.formula(g);
            self.bindings.pop();
            if holds? == stop {
                return Ok(stop);
            }
        }
        Ok(!stop)
    }
}

/// The extended active domain `adom(d, Q)`: input atoms plus the query's
/// constants.
pub fn extended_adom(q: &CalcQuery, db: &Database) -> BTreeSet<Atom> {
    let mut atoms = db.adom();
    atoms.extend(q.formula.const_atoms());
    atoms
}

/// Evaluate `{x/T | φ}` under the limited interpretation with the given
/// atom universe (normally [`extended_adom`]; the invention semantics pass
/// an enlarged universe).
pub fn eval_query_over(
    q: &CalcQuery,
    db: &Database,
    atoms: &BTreeSet<Atom>,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    let mut scope = Scope {
        pool: Pool::new(),
        db,
        atoms,
        config,
        domains: HashMap::new(),
        relations: HashMap::default(),
        bindings: Vec::new(),
    };
    let candidates = scope.domain(&q.ty)?;
    let mut answer = Vec::new();
    for &c in candidates.iter() {
        scope.bindings.push((&q.var, c));
        let pass = scope.formula(&q.formula)?;
        scope.bindings.pop();
        if pass {
            answer.push(scope.pool.resolve(c));
        }
    }
    Ok(Instance::from_values(answer))
}

/// Evaluate under the limited interpretation (`Q|₀[d]` in the §6
/// notation).
pub fn eval_query(
    q: &CalcQuery,
    db: &Database,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    let atoms = extended_adom(q, db);
    eval_query_over(q, db, &atoms, config)
}

/// The tree-form evaluator the id evaluator replaced, kept as the test
/// oracle: domains are `Value` vectors built by plain recursion (same
/// mask and row order as `cons_type_par`), bindings a name → value map,
/// and `P(t)` an [`Instance::contains`] probe.
#[cfg(test)]
mod oracle {
    use super::*;
    use uset_object::cons::powerset;
    use uset_object::Type;

    fn cons(ty: &Type, atoms: &BTreeSet<Atom>, limit: usize) -> Result<Vec<Value>, CalcError> {
        let over = |what| describe(ObjectError::BoundExceeded { what, bound: limit });
        match ty {
            Type::Atomic => Ok(atoms.iter().map(|&a| Value::Atom(a)).collect()),
            Type::Set(inner) => {
                let members = cons(inner, atoms, limit)?;
                if members.len() >= 64 || 1u64 << members.len() > limit as u64 {
                    return Err(over("cons_T powerset"));
                }
                Ok(powerset(&members))
            }
            Type::Tuple(items) => {
                let columns: Vec<Vec<Value>> = items
                    .iter()
                    .map(|t| cons(t, atoms, limit))
                    .collect::<Result<_, _>>()?;
                let mut total: usize = 1;
                for c in &columns {
                    total = total
                        .checked_mul(c.len().max(1))
                        .ok_or_else(|| over("cons_T product"))?;
                }
                if total > limit {
                    return Err(over("cons_T product"));
                }
                let mut rows = vec![Vec::new()];
                for col in &columns {
                    rows = rows
                        .iter()
                        .flat_map(|r| {
                            col.iter().map(move |v| {
                                let mut r = r.clone();
                                r.push(v.clone());
                                r
                            })
                        })
                        .collect();
                }
                Ok(rows.into_iter().map(Value::Tuple).collect())
            }
        }
    }

    fn domain(
        ty: &RType,
        atoms: &BTreeSet<Atom>,
        cfg: &CalcConfig,
    ) -> Result<Vec<Value>, CalcError> {
        match ty.to_type() {
            Some(strict) => cons(&strict, atoms, cfg.cons_limit),
            None => Ok(cons_obj_bounded(atoms, cfg.obj_size_bound, cfg.cons_limit)
                .map_err(describe)?
                .into_iter()
                .filter(|v| ty.contains(v))
                .collect()),
        }
    }

    type Bindings = HashMap<String, Value>;

    fn term(t: &CalcTerm, b: &Bindings) -> Result<Value, CalcError> {
        match t {
            CalcTerm::Var(v) => b
                .get(v)
                .cloned()
                .ok_or_else(|| CalcError::UnboundVariable(v.clone())),
            CalcTerm::Const(c) => Ok(c.clone()),
            CalcTerm::Tuple(ts) => Ok(Value::Tuple(
                ts.iter().map(|t| term(t, b)).collect::<Result<_, _>>()?,
            )),
            CalcTerm::SetEnum(ts) => Ok(Value::Set(
                ts.iter().map(|t| term(t, b)).collect::<Result<_, _>>()?,
            )),
        }
    }

    struct Ctx<'a> {
        db: &'a Database,
        atoms: &'a BTreeSet<Atom>,
        cfg: &'a CalcConfig,
    }

    fn formula(f: &Formula, cx: &Ctx, b: &mut Bindings) -> Result<bool, CalcError> {
        match f {
            Formula::Eq(x, y) => Ok(term(x, b)? == term(y, b)?),
            Formula::Member(x, y) => {
                let (x, y) = (term(x, b)?, term(y, b)?);
                Ok(y.as_set().is_some_and(|s| s.contains(&x)))
            }
            Formula::Pred(p, t) => {
                let v = term(t, b)?;
                Ok(cx.db.get_ref(p).is_some_and(|rel| rel.contains(&v)))
            }
            Formula::And(x, y) => Ok(formula(x, cx, b)? && formula(y, cx, b)?),
            Formula::Or(x, y) => Ok(formula(x, cx, b)? || formula(y, cx, b)?),
            Formula::Not(g) => Ok(!formula(g, cx, b)?),
            Formula::Exists(x, ty, g) | Formula::Forall(x, ty, g) => {
                let stop = matches!(f, Formula::Exists(..));
                let saved = b.get(x).cloned();
                let mut result = !stop;
                for v in domain(ty, cx.atoms, cx.cfg)? {
                    b.insert(x.clone(), v);
                    if formula(g, cx, b)? == stop {
                        result = stop;
                        break;
                    }
                }
                match saved {
                    Some(v) => b.insert(x.clone(), v),
                    None => b.remove(x),
                };
                Ok(result)
            }
        }
    }

    /// [`eval_query_over`] on trees.
    pub fn eval_query_over(
        q: &CalcQuery,
        db: &Database,
        atoms: &BTreeSet<Atom>,
        cfg: &CalcConfig,
    ) -> Result<Instance, CalcError> {
        let cx = Ctx { db, atoms, cfg };
        let mut out = Instance::empty();
        for v in domain(&q.ty, atoms, cfg)? {
            let mut b = Bindings::from([(q.var.clone(), v.clone())]);
            if formula(&q.formula, &cx, &mut b)? {
                out.insert(v);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use uset_object::{atom, set, tuple, Type};

    fn pair_db(rows: &[(u64, u64)]) -> Database {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows(rows.iter().map(|&(a, b)| [atom(a), atom(b)])),
        );
        db
    }

    fn t_u() -> RType {
        RType::Atomic
    }

    fn t_uu() -> RType {
        Type::atomic_tuple(2).to_rtype()
    }

    #[test]
    fn identity_query() {
        let db = pair_db(&[(1, 2), (3, 4)]);
        let q = CalcQuery::new("t", t_uu(), Formula::Pred("R".into(), CalcTerm::var("t")));
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, db.get("R"));
    }

    #[test]
    fn projection_via_tuple_terms() {
        // { x/U | ∃y/U R([x,y]) }
        let db = pair_db(&[(1, 2), (3, 4)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(1), atom(3)]));
    }

    #[test]
    fn join_via_shared_variable() {
        // { t/[U,U] | ∃x y z: t ≈ [x,z] ∧ R([x,y]) ∧ R([y,z]) }
        let db = pair_db(&[(1, 2), (2, 3)]);
        let body = Formula::Eq(
            CalcTerm::var("t"),
            CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("z")]),
        )
        .and(Formula::Pred(
            "R".into(),
            CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
        ))
        .and(Formula::Pred(
            "R".into(),
            CalcTerm::Tuple(vec![CalcTerm::var("y"), CalcTerm::var("z")]),
        ))
        .exists("z", t_u())
        .exists("y", t_u())
        .exists("x", t_u());
        let q = CalcQuery::new("t", t_uu(), body);
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([tuple([atom(1), atom(3)])]));
    }

    #[test]
    fn negation_is_active_domain_complement() {
        // { x/U | ¬∃y/U R([x,y]) } — atoms with no outgoing edge
        let db = pair_db(&[(1, 2)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u())
            .not(),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(2)]));
    }

    #[test]
    fn set_typed_quantifier_ranges_over_powerset() {
        // { s/{U} | ∀x/U (x ∈ s → ∃y/U R([x,y])) } — all subsets of the
        // "sources" set; over adom {1,2} with R={(1,2)} the sources are {1},
        // so the answer is {{}, {1}}
        let db = pair_db(&[(1, 2)]);
        let member_implies = Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
            .not()
            .or(Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()));
        let q = CalcQuery::new(
            "s",
            RType::Set(Box::new(RType::Atomic)),
            member_implies.forall("x", t_u()),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(
            out,
            Instance::from_values([Value::empty_set(), set([atom(1)])])
        );
    }

    #[test]
    fn cons_splitting_workers_do_not_change_answers() {
        // same query as `set_typed_quantifier_ranges_over_powerset`, with
        // the powerset enumeration split across workers: the answer (and
        // its canonical order) must be identical at every width
        let db = pair_db(&[(1, 2)]);
        let member_implies = Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
            .not()
            .or(Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()));
        let q = CalcQuery::new(
            "s",
            RType::Set(Box::new(RType::Atomic)),
            member_implies.forall("x", t_u()),
        );
        // and a `{{U}}`-typed quantifier: { s/{U} | ∃f/{{U}} (s ∈ f ∧ ¬{} ∈ f) }
        // holds for every non-empty s
        let nested = CalcQuery::new(
            "s",
            RType::Set(Box::new(RType::Atomic)),
            Formula::Member(CalcTerm::var("s"), CalcTerm::var("f"))
                .and(Formula::Member(CalcTerm::cst(Value::empty_set()), CalcTerm::var("f")).not())
                .exists("f", Type::nested_set(2).to_rtype()),
        );
        let seq = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        let nested_seq = eval_query(&nested, &db, &CalcConfig::default()).unwrap();
        assert_eq!(
            nested_seq,
            Instance::from_values([set([atom(1)]), set([atom(2)]), set([atom(1), atom(2)])])
        );
        let atoms = db.adom();
        let domains: Vec<Vec<Value>> = [t_u(), t_uu(), Type::nested_set(2).to_rtype()]
            .iter()
            .map(|ty| enumerate_rtype(ty, &atoms, &CalcConfig::default()).unwrap())
            .collect();
        for workers in [2, 4, 7] {
            let cfg = CalcConfig {
                workers,
                ..CalcConfig::default()
            };
            assert_eq!(eval_query(&q, &db, &cfg).unwrap(), seq, "workers {workers}");
            assert_eq!(
                eval_query(&nested, &db, &cfg).unwrap(),
                nested_seq,
                "workers {workers}"
            );
            for (ty, expect) in [t_u(), t_uu(), Type::nested_set(2).to_rtype()]
                .iter()
                .zip(&domains)
            {
                assert_eq!(
                    &enumerate_rtype(ty, &atoms, &cfg).unwrap(),
                    expect,
                    "{ty:?} at workers {workers}"
                );
            }
        }
    }

    #[test]
    fn constants_extend_the_domain() {
        // { x/U | x ≈ c } over an empty database still finds c
        let c = Atom::named("calc-c");
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(Value::Atom(c))),
        );
        let out = eval_query(&q, &Database::empty(), &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([Value::Atom(c)]));
    }

    #[test]
    fn untyped_quantifier_is_bounded() {
        // { x/U | ∃s/{Obj} (x ∈ s) } — with any non-empty bounded cons_Obj
        // every atom is in some set, so this is the active domain
        let db = pair_db(&[(1, 2)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
                .exists("s", RType::untyped_set()),
        );
        let cfg = CalcConfig {
            obj_size_bound: 3,
            ..CalcConfig::default()
        };
        let out = eval_query(&q, &db, &cfg).unwrap();
        assert_eq!(out, Instance::from_values([atom(1), atom(2)]));
        assert!(!q.is_typed());
    }

    #[test]
    fn domain_blowup_is_reported() {
        // {{{U}}} over 5 atoms overflows the default cons limit
        let db = pair_db(&[(1, 2), (3, 4), (5, 5)]);
        let q = CalcQuery::new(
            "s",
            Type::nested_set(3).to_rtype(),
            Formula::Eq(CalcTerm::var("s"), CalcTerm::var("s")),
        );
        assert!(matches!(
            eval_query(&q, &db, &CalcConfig::default()),
            Err(CalcError::DomainTooLarge(_))
        ));
    }

    #[test]
    fn genericity_of_evaluation() {
        use uset_object::perm::Permutation;
        let db = pair_db(&[(1, 2), (2, 3)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()),
        );
        let sigma = Permutation::from_pairs([
            (Atom::new(1), Atom::new(2)),
            (Atom::new(2), Atom::new(3)),
            (Atom::new(3), Atom::new(1)),
        ]);
        let direct = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        let renamed = eval_query(&q, &sigma.apply_database(&db), &CalcConfig::default()).unwrap();
        assert_eq!(renamed, sigma.apply_instance(&direct));
    }

    /// Random formulas for the oracle test: every variable draws its type
    /// from `U`, `{U}`, `[U,U]` and `{{U}}` over the atoms 0 and 1, and the
    /// relations mix members of all four domains.
    struct CaseGen {
        rng: TestRng,
        /// The 25 distinct members of the four domains (`{}` is in two).
        values: Vec<Value>,
    }

    impl CaseGen {
        fn new(seed: u64) -> CaseGen {
            let atoms: BTreeSet<Atom> = [Atom::new(0), Atom::new(1)].into();
            let values = Self::rtypes()
                .iter()
                .flat_map(|ty| enumerate_rtype(ty, &atoms, &CalcConfig::default()).unwrap())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            CaseGen {
                rng: TestRng::from_seed(seed),
                values,
            }
        }

        fn rtypes() -> [RType; 4] {
            [
                t_u(),
                RType::Set(Box::new(t_u())),
                t_uu(),
                Type::nested_set(2).to_rtype(),
            ]
        }

        fn below(&mut self, n: usize) -> usize {
            self.rng.below(n as u64) as usize
        }

        fn rtype(&mut self) -> RType {
            Self::rtypes()[self.below(4)].clone()
        }

        fn value(&mut self) -> Value {
            let i = self.below(self.values.len());
            self.values[i].clone()
        }

        /// `lo..hi` distinct rows drawn from the domain members.
        fn relation(&mut self, lo: usize, hi: usize) -> Instance {
            let len = lo + self.below(hi - lo);
            let mut rows = BTreeSet::new();
            while rows.len() < len {
                rows.insert(self.value());
            }
            Instance::from_values(rows)
        }

        /// Mostly variables, then constants, then one level of tuple or
        /// set-enum construction.
        fn term(&mut self, vars: &[String], nested: bool) -> CalcTerm {
            match self.below(if nested { 5 } else { 8 }) {
                // a rare unbound name exercises the error path
                0..=2 if vars.is_empty() || self.below(40) == 0 => CalcTerm::var("w"),
                0..=2 => CalcTerm::Var(vars[self.below(vars.len())].clone()),
                3 => CalcTerm::Const(Value::Atom(Atom::new(self.below(2) as u64))),
                4 => CalcTerm::Const(self.value()),
                5..=6 => CalcTerm::Tuple(
                    (0..1 + self.below(2))
                        .map(|_| self.term(vars, true))
                        .collect(),
                ),
                _ => CalcTerm::SetEnum((0..self.below(4)).map(|_| self.term(vars, true)).collect()),
            }
        }

        fn formula(&mut self, vars: &mut Vec<String>, depth: usize, quants: usize) -> Formula {
            let pick = if depth == 0 {
                self.below(3)
            } else {
                self.below(8)
            };
            match pick {
                0 => Formula::Eq(self.term(vars, true), self.term(vars, false)),
                1 => Formula::Member(self.term(vars, true), self.term(vars, false)),
                2 => {
                    let p = ["P", "Q", "Q", "Absent"][self.below(4)];
                    Formula::Pred(p.into(), self.term(vars, false))
                }
                3 => {
                    self.formula(vars, depth - 1, quants)
                        .and(self.formula(vars, depth - 1, quants))
                }
                4 => {
                    self.formula(vars, depth - 1, quants)
                        .or(self.formula(vars, depth - 1, quants))
                }
                5 => self.formula(vars, depth - 1, quants).not(),
                _ if quants == 0 => self.formula(vars, depth - 1, quants),
                q => {
                    // names repeat, so inner quantifiers may shadow
                    let x = ["x", "y", "s"][self.below(3)].to_owned();
                    let ty = self.rtype();
                    vars.push(x.clone());
                    let body = self.formula(vars, depth - 1, quants - 1);
                    vars.pop();
                    if q == 6 {
                        body.exists(&x, ty)
                    } else {
                        body.forall(&x, ty)
                    }
                }
            }
        }

        fn case(&mut self) -> (CalcQuery, Database, CalcConfig) {
            let mut db = Database::empty();
            // below and at or above the 16-row sidecar threshold
            db.set("P", self.relation(0, 8));
            db.set("Q", self.relation(16, self.values.len() + 1));
            let ty = self.rtype();
            let formula = self.formula(&mut vec!["s".to_owned()], 3, 2);
            let cons_limit = if self.below(8) == 0 { 8 } else { 1 << 20 };
            let cfg = CalcConfig {
                cons_limit,
                ..CalcConfig::default()
            };
            (CalcQuery::new("s", ty, formula), db, cfg)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The id evaluator returns the tree oracle's answer, or its
        /// error, at workers 1 and 3.
        #[test]
        fn id_evaluation_matches_the_tree_oracle(seed in 0u64..u64::MAX) {
            let (q, db, cfg) = CaseGen::new(seed).case();
            let atoms = extended_adom(&q, &db);
            let expect = oracle::eval_query_over(&q, &db, &atoms, &cfg);
            for workers in [1, 3] {
                let cfg = CalcConfig { workers, ..cfg };
                prop_assert_eq!(eval_query_over(&q, &db, &atoms, &cfg), expect.clone());
            }
        }
    }
}
