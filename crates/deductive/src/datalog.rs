//! Flat DATALOG with negation — the baseline deductive language.
//!
//! Two semantics are implemented:
//!
//! * **stratified**: the program is split into strata so that negation
//!   never occurs inside a recursion; each stratum is evaluated to its
//!   least fixpoint over the previous strata.
//! * **inflationary** (Kolaitis–Papadimitriou): all rules fire
//!   simultaneously against the *current* state, derived facts accumulate,
//!   and iteration stops at the (always-reached) fixpoint.
//!
//! On flat relations stratified DATALOG¬ is strictly weaker than
//! inflationary DATALOG¬ — the asymmetry that Theorem 5.1 shows disappears
//! for COL with untyped sets.

use crate::round::{fire_round, FireUnit, RoundUnits, RuleClass};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;
use std::time::Instant;
use uset_guard::ckpt;
use uset_guard::trace::span::{engine_end, engine_start, RuleFirings};
use uset_guard::trace::TraceEvent;
use uset_guard::{Budget, EngineId, Exhausted, Governor, Guard, ParBrake, Trip};
use uset_object::{ColumnIndex, Database, EvalStats, IndexSet, Instance, ObjRef, Pool, Value};
use uset_par::shard_by_hash;

/// A term: a variable or a constant atom value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlTerm {
    /// Variable.
    Var(String),
    /// Constant.
    Const(Value),
}

impl DlTerm {
    /// Shorthand variable.
    pub fn var(name: &str) -> DlTerm {
        DlTerm::Var(name.to_owned())
    }
}

/// A predicate atom `P(t1, …, tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlAtom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<DlTerm>,
}

impl DlAtom {
    /// Build an atom.
    pub fn new(pred: &str, args: Vec<DlTerm>) -> DlAtom {
        DlAtom {
            pred: pred.to_owned(),
            args,
        }
    }
}

/// A possibly negated body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlLiteral {
    /// Polarity: false = negated.
    pub positive: bool,
    /// The atom.
    pub atom: DlAtom,
}

/// A rule `head ← body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlRule {
    /// Head atom.
    pub head: DlAtom,
    /// Body literals (evaluated left to right for binding).
    pub body: Vec<DlLiteral>,
}

impl DlRule {
    /// Build a rule from a head and `(positive, atom)` body entries.
    pub fn new(head: DlAtom, body: Vec<(bool, DlAtom)>) -> DlRule {
        DlRule {
            head,
            body: body
                .into_iter()
                .map(|(positive, atom)| DlLiteral { positive, atom })
                .collect(),
        }
    }
}

/// A DATALOG¬ program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatalogProgram {
    /// The rules.
    pub rules: Vec<DlRule>,
}

/// The DATALOG¬ engine's exhaustion report: the snapshot is the database
/// (EDB + IDB derived so far) at the last completed round.
pub type DlExhausted = Exhausted<Database>;

/// Errors from DATALOG evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlError {
    /// A head or negated variable does not occur in a positive body
    /// literal.
    Unsafe(String),
    /// A head or negated-literal variable was still unbound when a rule
    /// fired — only reachable if evaluation is driven without
    /// [`DatalogProgram::check_safety`].
    UnboundAtFiring {
        /// The unbound variable.
        var: String,
        /// The predicate being instantiated (head or negated literal).
        pred: String,
    },
    /// The program has negation inside recursion (stratified mode only).
    NotStratifiable(String),
    /// A resource budget was exhausted or the run was cancelled; carries
    /// the database at the last completed round.
    Exhausted(Box<DlExhausted>),
}

impl DlError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&DlExhausted> {
        match self {
            DlError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlError::Unsafe(v) => write!(f, "unsafe variable {v}"),
            DlError::UnboundAtFiring { var, pred } => write!(
                f,
                "variable {var} of {pred} unbound at rule firing (rule is unsafe)"
            ),
            DlError::NotStratifiable(p) => {
                write!(f, "negation through recursion at predicate {p}")
            }
            DlError::Exhausted(e) => write!(f, "datalog evaluation exhausted: {e}"),
        }
    }
}

impl std::error::Error for DlError {}

/// Package the current state + counters into the shared error taxonomy.
fn dl_exhaust(trip: Trip, state: &mut Database, stats: &EvalStats) -> DlError {
    DlError::Exhausted(Box::new(Exhausted::new(
        trip,
        std::mem::take(state),
        *stats,
    )))
}

/// Engine label carried by every DATALOG¬ trace event.
const ENGINE: &str = "datalog";

/// Canonical fact rendering shared by provenance events and the
/// `why(fact)` API: predicate name followed by the stored row value.
pub fn render_fact(pred: &str, row: &Value) -> String {
    format!("{pred}{row}")
}

/// One tuple produced by a rule firing, waiting for the round's
/// deduplicating insertion phase. `parents` carries the instantiated
/// positive body facts when the attached tracer wants provenance.
struct DerivedFact {
    pred: String,
    row: Value,
    rule: usize,
    parents: Option<Vec<String>>,
}

impl DatalogProgram {
    /// Build from rules.
    pub fn new(rules: Vec<DlRule>) -> DatalogProgram {
        DatalogProgram { rules }
    }

    /// Safety check: every head variable and every variable in a negated
    /// literal must occur in some positive body literal.
    pub fn check_safety(&self) -> Result<(), DlError> {
        for rule in &self.rules {
            let mut positive_vars: BTreeSet<&str> = BTreeSet::new();
            for lit in &rule.body {
                if lit.positive {
                    for t in &lit.atom.args {
                        if let DlTerm::Var(v) = t {
                            positive_vars.insert(v);
                        }
                    }
                }
            }
            let check = |args: &[DlTerm]| -> Result<(), DlError> {
                for t in args {
                    if let DlTerm::Var(v) = t {
                        if !positive_vars.contains(v.as_str()) {
                            return Err(DlError::Unsafe(v.clone()));
                        }
                    }
                }
                Ok(())
            };
            check(&rule.head.args)?;
            for lit in &rule.body {
                if !lit.positive {
                    check(&lit.atom.args)?;
                }
            }
        }
        Ok(())
    }

    /// Intensional (head) predicates.
    pub fn idb_predicates(&self) -> BTreeSet<String> {
        self.rules.iter().map(|r| r.head.pred.clone()).collect()
    }

    /// Compute the stratification: predicate → stratum index. Errors if
    /// negation occurs through recursion.
    pub fn stratify(&self) -> Result<BTreeMap<String, usize>, DlError> {
        // iterate stratum assignment to fixpoint (standard algorithm)
        let idb = self.idb_predicates();
        let mut stratum: BTreeMap<String, usize> = idb.iter().map(|p| (p.clone(), 0)).collect();
        let bound = idb.len() + 1;
        loop {
            let mut changed = false;
            for rule in &self.rules {
                let h = stratum[&rule.head.pred];
                for lit in &rule.body {
                    let Some(&b) = stratum.get(&lit.atom.pred) else {
                        continue; // EDB predicate: stratum 0 implicitly
                    };
                    let required = if lit.positive { b } else { b + 1 };
                    if required > h {
                        stratum.insert(rule.head.pred.clone(), required);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            if stratum.values().any(|&s| s > bound) {
                // a stratum exceeding the predicate count means a negative
                // cycle
                let culprit = stratum
                    .iter()
                    .max_by_key(|(_, s)| **s)
                    .map(|(p, _)| p.clone())
                    .unwrap_or_default();
                return Err(DlError::NotStratifiable(culprit));
            }
        }
        Ok(stratum)
    }

    /// Stratified evaluation: returns the database extended with all IDB
    /// relations.
    pub fn eval_stratified(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_stratified_governed(
            db,
            &Governor::new(fuel_budget(fuel)),
            &mut EvalStats::default(),
        )
    }

    /// Stratified evaluation under a shared-layer [`Governor`] (one guard
    /// for the whole run: the step budget bounds rounds summed across
    /// strata). On exhaustion the error carries the database at the last
    /// completed round.
    pub fn eval_stratified_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let strata = self.stratify()?;
        let max = strata.values().copied().max().unwrap_or(0);
        let mut guard = governor.guard(EngineId::Datalog);
        let pool_t0 = Pool::global().stats();
        let run_start = engine_start(ENGINE, &governor.trace);
        let (mut session, resume) = guard.resume(
            || dl_fingerprint("stratified", &self.rules, db),
            stats,
            dl_fold,
        );
        let (mut state, start) = match resume {
            Some(r) => (r.state, r.stratum),
            None => (db.clone(), 0),
        };
        for s in start..=max {
            let rules: Vec<(usize, &DlRule)> = self
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| strata[&r.head.pred] == s)
                .collect();
            let classes = vec![RuleClass::Snapshot; rules.len()];
            fixpoint(
                &rules,
                &classes,
                false,
                &mut state,
                &mut guard,
                stats,
                &mut session,
                s,
                None,
            )?;
        }
        engine_end(ENGINE, &governor.trace, guard.steps(), run_start);
        stats.note_intern(&Pool::global().stats().delta_since(&pool_t0));
        if let Some(sess) = session.as_mut() {
            sess.finish();
        }
        Ok(state)
    }

    /// Inflationary evaluation: all rules fire cumulatively until fixpoint.
    pub fn eval_inflationary(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_inflationary_governed(
            db,
            &Governor::new(fuel_budget(fuel)),
            &mut EvalStats::default(),
        )
    }

    /// Inflationary evaluation under a shared-layer [`Governor`].
    pub fn eval_inflationary_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let rules: Vec<(usize, &DlRule)> = self.rules.iter().enumerate().collect();
        let mut guard = governor.guard(EngineId::Datalog);
        let pool_t0 = Pool::global().stats();
        let run_start = engine_start(ENGINE, &governor.trace);
        let (mut session, resume) = guard.resume(
            || dl_fingerprint("inflationary", &self.rules, db),
            stats,
            dl_fold,
        );
        let (mut state, done) = match resume {
            // stratum 1 marks "the single fixpoint already converged":
            // the crash landed between the final commit and cleanup
            Some(r) => (r.state, r.stratum > 0),
            None => (db.clone(), false),
        };
        if !done {
            let classes = vec![RuleClass::Snapshot; rules.len()];
            fixpoint(
                &rules,
                &classes,
                false,
                &mut state,
                &mut guard,
                stats,
                &mut session,
                0,
                None,
            )?;
        }
        engine_end(ENGINE, &governor.trace, guard.steps(), run_start);
        stats.note_intern(&Pool::global().stats().delta_since(&pool_t0));
        if let Some(sess) = session.as_mut() {
            sess.finish();
        }
        Ok(state)
    }

    /// Stratified evaluation with **semi-naive** per-stratum fixpoints:
    /// each round, every recursive rule is evaluated once per positive
    /// recursive body literal with that literal restricted to the previous
    /// round's delta. Produces exactly the same result as
    /// [`Self::eval_stratified`]; the ablation bench
    /// `ablation/naive_vs_seminaive` measures the speed difference.
    pub fn eval_stratified_seminaive(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_stratified_seminaive_governed(
            db,
            &Governor::new(fuel_budget(fuel)),
            &mut EvalStats::default(),
        )
    }

    /// Semi-naive stratified evaluation under a shared-layer [`Governor`].
    pub fn eval_stratified_seminaive_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let strata = self.stratify()?;
        let max = strata.values().copied().max().unwrap_or(0);
        let mut guard = governor.guard(EngineId::Datalog);
        let pool_t0 = Pool::global().stats();
        let run_start = engine_start(ENGINE, &governor.trace);
        let (mut session, resume) = guard.resume(
            || dl_fingerprint("seminaive", &self.rules, db),
            stats,
            dl_fold,
        );
        let (mut state, start, mut mid) = match resume {
            Some(r) => (r.state, r.stratum, Some((r.first, r.delta))),
            None => (db.clone(), 0, None),
        };
        for s in start..=max {
            let rules: Vec<(usize, &DlRule)> = self
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| strata[&r.head.pred] == s)
                .collect();
            let recursive: BTreeSet<&str> =
                rules.iter().map(|(_, r)| r.head.pred.as_str()).collect();
            let classes: Vec<RuleClass> =
                rules.iter().map(|(_, r)| classify(r, &recursive)).collect();
            fixpoint(
                &rules,
                &classes,
                true,
                &mut state,
                &mut guard,
                stats,
                &mut session,
                s,
                mid.take(),
            )?;
        }
        engine_end(ENGINE, &governor.trace, guard.steps(), run_start);
        stats.note_intern(&Pool::global().stats().delta_since(&pool_t0));
        if let Some(sess) = session.as_mut() {
            sess.finish();
        }
        Ok(state)
    }
}

/// The budget equivalent of the historical `fuel` knob (rounds only).
fn fuel_budget(fuel: u64) -> Budget {
    Budget::unlimited().with_steps(fuel)
}

/// Total rows across all relations of a database.
fn db_facts(db: &Database) -> usize {
    db.iter().map(|(_, inst)| inst.len()).sum()
}

/// The loop state a DATALOG¬ checkpoint restores: which stratum was
/// running, the semi-naive round flags, and the full database at the
/// last completed round. The naive fixpoint stores the same shape with
/// an always-empty delta.
struct DlResume {
    stratum: usize,
    first: bool,
    delta: BTreeMap<String, Instance>,
    state: Database,
}

/// Fingerprint of one governed computation — semantics kind, program,
/// and input database — so a shared checkpoint directory never resumes
/// a *different* computation's state.
fn dl_fingerprint(kind: &str, rules: &[DlRule], db: &Database) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE);
    e.put_str(kind);
    e.put_str(&format!("{rules:?}"));
    e.put_database(db);
    ckpt::fnv64(&e.finish())
}

fn dl_encode(
    stratum: usize,
    first: bool,
    delta: &BTreeMap<String, Instance>,
    state: &Database,
) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(stratum as u64);
    e.put_u8(first as u8);
    e.put_instance_map(delta);
    e.put_database(state);
    e.finish()
}

fn dl_decode(payload: &[u8]) -> Option<DlResume> {
    let mut d = ckpt::Dec::new(payload);
    let stratum = d.u64().ok()? as usize;
    let first = d.u8().ok()? != 0;
    let delta = d.instance_map().ok()?;
    let state = d.database().ok()?;
    d.done().then_some(DlResume {
        stratum,
        first,
        delta,
        state,
    })
}

/// WAL-record payload for one round: the loop flags, the semi-naive
/// delta, and — when it differs from the delta — the set of facts the
/// round inserted into the state. Committing only the round's change
/// keeps a cheap round's checkpoint cost O(delta) instead of O(state)
/// (the `ablation/ckpt_overhead` bench holds this under 10%).
fn dl_encode_delta(
    stratum: usize,
    first: bool,
    delta: &BTreeMap<String, Instance>,
    added: Option<&BTreeMap<String, Instance>>,
) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(stratum as u64);
    e.put_u8(first as u8);
    match added {
        // the delta doubles as the round's insertions (semi-naive)
        None => {
            e.put_u8(1);
            e.put_instance_map(delta);
        }
        // naive rounds keep an empty delta but still insert facts
        Some(a) => {
            e.put_u8(0);
            e.put_instance_map(delta);
            e.put_instance_map(a);
        }
    }
    e.finish()
}

/// Rebuild the last durable loop state from a recovered snapshot plus
/// the engine-delta records committed after it: each record's inserted
/// facts fold into the database (exactly the rows `insert_row` admitted
/// in that round, so the fold reproduces the uninterrupted state bit for
/// bit) and its flags replace the loop flags.
fn dl_fold(rec: &ckpt::Recovered) -> Option<DlResume> {
    let mut r = dl_decode(&rec.payload)?;
    for dp in &rec.deltas {
        let mut d = ckpt::Dec::new(dp);
        let stratum = d.u64().ok()? as usize;
        let first = d.u8().ok()? != 0;
        let same = match d.u8().ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let delta = d.instance_map().ok()?;
        let added = if same {
            None
        } else {
            Some(d.instance_map().ok()?)
        };
        d.done().then_some(())?;
        for (pred, rows) in added.as_ref().unwrap_or(&delta) {
            for row in rows.iter() {
                r.state.insert_row(pred, row);
            }
        }
        r.stratum = stratum;
        r.first = first;
        r.delta = delta;
    }
    Some(r)
}

/// Commit one completed round as an engine-level delta record (the full
/// state is only serialized on the session's snapshot rounds). `added`
/// carries the round's insertions when they differ from `delta`; `None`
/// means the delta *is* the insertion set. A quiescent round (fixpoint
/// reached) commits the *next* stratum's entry state so a resume never
/// replays the no-op round — that replay would drift `stats.rounds` and
/// the step meter away from the uninterrupted run.
#[allow(clippy::too_many_arguments)]
fn dl_commit(
    session: &mut Option<ckpt::Session>,
    guard: &Guard,
    stats: &EvalStats,
    round: u64,
    stratum: usize,
    first: bool,
    delta: &BTreeMap<String, Instance>,
    added: Option<&BTreeMap<String, Instance>>,
    state: &Database,
) {
    if let Some(sess) = session.as_mut() {
        let wal = dl_encode_delta(stratum, first, delta, added);
        sess.commit_delta(&guard.round_ckpt(round, stats, wal), || {
            dl_encode(stratum, first, delta, state)
        });
    }
}

/// How a rule takes part in a semi-naive stratum whose head predicates
/// are `recursive`. Rules that read a recursive predicate through
/// **negation** (only reachable when the caller feeds the engine an
/// unstratified stratum) never qualify for delta restriction: their
/// support is not monotone in the delta, so they re-fire from the full
/// snapshot every round.
fn classify(rule: &DlRule, recursive: &BTreeSet<&str>) -> RuleClass {
    let reads = |positive: bool| {
        rule.body
            .iter()
            .enumerate()
            .filter(move |(_, l)| {
                l.positive == positive && recursive.contains(l.atom.pred.as_str())
            })
            .map(|(i, _)| i)
    };
    if reads(false).next().is_some() {
        return RuleClass::Snapshot;
    }
    let positions: Vec<usize> = reads(true).collect();
    if positions.is_empty() {
        RuleClass::Constant
    } else {
        RuleClass::Seminaive(positions)
    }
}

/// One round's phase 1 (see [`crate::round`]): the firings `classes` call
/// for, each reading the settled `state` through indexes prebuilt here,
/// with delta-restricted literals reading `delta`. One buffer per unit,
/// in canonical order; a stopped round surrenders `state` as is.
#[allow(clippy::too_many_arguments)]
fn derive_round(
    rules: &[(usize, &DlRule)],
    classes: &[RuleClass],
    first: bool,
    delta: &BTreeMap<String, Instance>,
    state: &mut Database,
    indexes: &mut IndexSet,
    guard: &mut Guard,
    stats: &mut EvalStats,
    ctx: &mut RuleFirings,
) -> Result<Vec<Vec<DerivedFact>>, DlError> {
    let mut units = RoundUnits::new(guard.workers());
    for (&(idx, rule), class) in rules.iter().zip(classes) {
        units.push_rule(
            idx,
            rule,
            class,
            first,
            |pos| delta.get(&rule.body[pos].atom.pred),
            |d, _, k| {
                shard_by_hash(d.iter().cloned(), k)
                    .into_iter()
                    .filter(|rows| !rows.is_empty())
                    .map(Instance::from_values)
                    .collect()
            },
        );
    }
    let units = units.into_units();
    prebuild_indexes(&units, state, indexes);
    let (snapshot, indexes): (&Database, &IndexSet) = (state, indexes);
    let want_prov = ctx.want_provenance();
    fire_round(&units, guard, stats, ctx, |unit, brake, out, st| {
        // test-only panic injection: a rule whose head uses this reserved
        // name simulates a buggy rule implementation blowing up inside a
        // unit, so the structured-error path is testable end to end
        #[cfg(test)]
        if unit.rule.head.pred == "panic-inject!" {
            panic!("injected rule panic");
        }
        fire_unit(unit, snapshot, indexes, want_prov, out, st, brake)
    })
    .map_err(|stop| stop.into_error(|trip| dl_exhaust(trip, state, stats)))
}

/// Least fixpoint of one stratum (of the whole program under inflationary
/// semantics). Each round fires every rule as its class says and inserts
/// the derivations. A semi-naive run keeps each round's insertions as the
/// next round's delta: its first round runs naive to seed the deltas, and
/// afterwards a rule fires once per positive recursive literal bound to
/// the delta, from the full snapshot, or (constant support) not at all.
/// A naive run classifies every rule [`RuleClass::Snapshot`] and keeps no
/// delta; its checkpoint records carry the round's insertions instead.
#[allow(clippy::too_many_arguments)]
fn fixpoint(
    rules: &[(usize, &DlRule)],
    classes: &[RuleClass],
    seminaive: bool,
    state: &mut Database,
    guard: &mut Guard,
    stats: &mut EvalStats,
    session: &mut Option<ckpt::Session>,
    stratum: usize,
    mid: Option<(bool, BTreeMap<String, Instance>)>,
) -> Result<(), DlError> {
    let trace = guard.trace().clone();
    let mut ctx = RuleFirings::new(ENGINE, &trace);
    let mut indexes = IndexSet::new();
    let mut facts = db_facts(state);
    stats.observe_facts(facts);
    if let Err(trip) = guard.set_fact_base(facts) {
        return Err(dl_exhaust(trip, state, stats));
    }
    // deltas per recursive predicate; round 0 runs naive over the
    // initial state. A recovered run re-enters mid-stratum with the
    // checkpointed flags instead.
    let (mut first, mut delta): (bool, BTreeMap<String, Instance>) =
        mid.unwrap_or((true, BTreeMap::new()));
    loop {
        if let Err(trip) = guard.step() {
            return Err(dl_exhaust(trip, state, stats));
        }
        stats.rounds += 1;
        let round = guard.steps();
        let round_start = trace.enabled().then(Instant::now);
        trace.emit(|| TraceEvent::RoundStart {
            engine: ENGINE.into(),
            round,
            delta: delta.values().map(|d| d.len() as u64).sum(),
        });
        ctx.clear();
        let derived = derive_round(
            rules,
            classes,
            first,
            &delta,
            state,
            &mut indexes,
            guard,
            stats,
            &mut ctx,
        )?;
        let mut new_delta: BTreeMap<String, Instance> = BTreeMap::new();
        let mut new_per_rule: BTreeMap<usize, u64> = BTreeMap::new();
        let mut changed = false;
        for df in derived.into_iter().flatten() {
            let DerivedFact {
                pred,
                row,
                rule,
                parents,
            } = df;
            if state.insert_row(&pred, &row) {
                if let Some(inst) = state.get_ref(&pred) {
                    indexes.note_insert(&pred, &row, inst);
                }
                facts += 1;
                let charged = guard.add_fact();
                if trace.enabled() {
                    *new_per_rule.entry(rule).or_default() += 1;
                }
                if ctx.want_provenance() {
                    let fact = render_fact(&pred, &row);
                    let parents = parents.unwrap_or_default();
                    trace.emit(move || TraceEvent::Derivation {
                        engine: ENGINE.into(),
                        round,
                        rule,
                        fact,
                        parents,
                    });
                }
                new_delta.entry(pred).or_default().insert(row);
                changed = true;
                if let Err(trip) = charged {
                    // the round's delta doubles as the rollback log; the
                    // removals bump each instance's mutation version, so
                    // any index built this round is detected as stale on
                    // its next access rather than served
                    for (p, rows) in &new_delta {
                        for r in rows.iter() {
                            state.remove_row(p, r);
                        }
                    }
                    stats.observe_facts(facts);
                    return Err(dl_exhaust(trip, state, stats));
                }
            }
        }
        stats.observe_facts(facts);
        ctx.emit_round(
            &trace,
            round,
            &new_per_rule,
            facts as u64,
            guard.value_hwm() as u64,
            round_start,
        );
        first = false;
        if !changed {
            dl_commit(
                session,
                guard,
                stats,
                round,
                stratum + 1,
                true,
                &BTreeMap::new(),
                None,
                state,
            );
            return Ok(());
        }
        if seminaive {
            // the semi-naive delta is exactly the round's insertion set
            delta = new_delta;
            dl_commit(
                session, guard, stats, round, stratum, first, &delta, None, state,
            );
        } else {
            // naive rounds carry no delta, so the round's insertions ride
            // in the checkpoint record separately
            dl_commit(
                session,
                guard,
                stats,
                round,
                stratum,
                first,
                &BTreeMap::new(),
                Some(&new_delta),
                state,
            );
        }
    }
}

/// The instantiated positive body facts of one firing — the parents of
/// every head fact the binding derives.
fn parent_facts(rule: &DlRule, b: &DlBindings) -> Result<Vec<String>, DlError> {
    let mut out = Vec::new();
    for lit in rule.body.iter().filter(|l| l.positive) {
        let row: Vec<Value> = lit
            .atom
            .args
            .iter()
            .map(|t| instantiate(t, b, &lit.atom.pred))
            .collect::<Result<_, _>>()?;
        out.push(render_fact(&lit.atom.pred, &Value::Tuple(row)));
    }
    Ok(out)
}

/// For each body literal, the column a join should probe when the body is
/// evaluated in `order` starting from bindings of exactly the `bound`
/// variables: the first argument position that is a constant or a
/// variable bound by `bound` or by an earlier positive literal of
/// `order`, or `None` when every argument is unconstrained at that point
/// (the literal is a genuine scan). Bindings built in that order bind
/// exactly those variables, so this static plan agrees with the dynamic
/// groundness of every binding. The result is indexed by body position;
/// positions `order` skips get `None`. The fixpoint engines pass source
/// order and no bound variables; the maintenance engine (`uset-ivm`)
/// passes its delta-first order and the variables of a seed binding.
pub fn probe_plan<'r>(
    rule: &'r DlRule,
    order: impl IntoIterator<Item = usize>,
    bound: &BTreeSet<&'r str>,
) -> Vec<Option<usize>> {
    let mut bound = bound.clone();
    let mut plan = vec![None; rule.body.len()];
    for i in order {
        let lit = &rule.body[i];
        plan[i] = lit.atom.args.iter().position(|t| match t {
            DlTerm::Const(_) => true,
            DlTerm::Var(v) => bound.contains(v.as_str()),
        });
        if lit.positive {
            for t in &lit.atom.args {
                if let DlTerm::Var(v) = t {
                    bound.insert(v);
                }
            }
        }
    }
    plan
}

/// How the maintenance engine's (`uset-ivm`) joins reach an index cache:
/// built on first probe, or — in its parallel rederive pass — shared
/// read-only, where only prebuilt indexes are usable. The fixpoint
/// engines here always prebuild a round's indexes and read them through
/// a plain `&IndexSet`.
pub enum IndexAccess<'a> {
    /// Build-on-demand.
    Build(&'a mut IndexSet),
    /// Prebuilt, read-only.
    Prebuilt(&'a IndexSet),
}

impl IndexAccess<'_> {
    /// The column-`col` index of relation `pred`, whose live instance is
    /// `rel`: built (or rebuilt, if stale) on demand, or — read-only — the
    /// prebuilt entry if it is fresh. `None` makes the join scan.
    pub fn index(&mut self, pred: &str, col: usize, rel: &Instance) -> Option<&ColumnIndex> {
        match self {
            IndexAccess::Build(set) => Some(set.of_col(pred, col, rel)),
            IndexAccess::Prebuilt(set) => set.get(pred, col, rel.version()),
        }
    }
}

/// A DATALOG¬ firing unit: the delta a restricted literal reads is one
/// relation's rows.
type DlUnit<'a> = FireUnit<'a, DlRule, Instance>;

/// Fire one unit into `derived`: rule `unit.rule` against the settled
/// `state`, probing the round's prebuilt `indexes`; a delta-restricted
/// literal reads the unit's delta rows instead of the state. Work
/// counters of the literals before that position go to `stats` only if
/// the unit counts the prefix (see [`FireUnit`]). The `brake` is polled
/// between literals and charged with the firing's derivation volume; once
/// it stops the round the unit returns early with a truncated buffer,
/// which is never observable because the round then ends in a trip.
fn fire_unit(
    unit: &DlUnit<'_>,
    state: &Database,
    indexes: &IndexSet,
    want_prov: bool,
    derived: &mut Vec<DerivedFact>,
    stats: &mut EvalStats,
    brake: &ParBrake,
) -> Result<(), DlError> {
    let rule = unit.rule;
    let shard = unit.delta.as_ref().map(|(d, pos)| (&**d, *pos));
    let count_prefix = unit.count_prefix;
    let plan = probe_plan(rule, 0..rule.body.len(), &BTreeSet::new());
    let empty = Instance::empty();
    let shard_pos = shard.map(|(_, pos)| pos);
    let mut scratch = EvalStats::default();
    let mut bindings = vec![HashMap::new()];
    for (i, lit) in rule.body.iter().enumerate() {
        if brake.should_stop() {
            return Ok(());
        }
        let from_shard = shard_pos == Some(i);
        let rel = match shard {
            Some((s, pos)) if pos == i => s,
            _ => state.get_ref(&lit.atom.pred).unwrap_or(&empty),
        };
        // shards are small and short-lived: they are scanned by design
        // (never indexed, never a "missed index" fallback); only the
        // settled state earns an index
        let probe_col = if lit.positive && !from_shard {
            plan[i]
        } else {
            None
        };
        let index = probe_col.and_then(|col| indexes.get(&lit.atom.pred, col, rel.version()));
        let st: &mut EvalStats = if count_prefix || shard_pos.is_none_or(|pos| i >= pos) {
            stats
        } else {
            &mut scratch
        };
        bindings = extend_bindings(lit, probe_col, &bindings, LitRows::of(rel, index), st)?;
        if bindings.is_empty() {
            break;
        }
    }
    let produced = bindings.len() as u64;
    stats.tuples_derived += produced;
    if !brake.charge(produced) {
        return Ok(());
    }
    let head_rel = state.get_ref(&rule.head.pred);
    for b in &bindings {
        if settled_dup_probe(&rule.head, b, head_rel) {
            continue;
        }
        let row: Vec<Value> = rule
            .head
            .args
            .iter()
            .map(|t| instantiate(t, b, &rule.head.pred))
            .collect::<Result<_, _>>()?;
        let parents = if want_prov {
            Some(parent_facts(rule, b)?)
        } else {
            None
        };
        derived.push(DerivedFact {
            pred: rule.head.pred.clone(),
            row: Value::Tuple(row),
            rule: unit.idx,
            parents,
        });
    }
    Ok(())
}

/// A head fact already present in the settled state has no observable
/// effect downstream: the apply loop's `insert_row` returns false and
/// takes no branch — no fact count, no guard charge, no trace or
/// provenance event. When the head relation's id sidecar can answer
/// membership, detect that case from the *borrowed*
/// binding values and skip materializing the row (and its provenance)
/// entirely — in a saturating fixpoint most firings re-derive settled
/// facts, and building each as a fresh tuple tree dominated the round.
/// The state only grows between firing and apply, so a hit here is
/// always a genuine duplicate; within-round duplicates still materialize
/// and are deduplicated by `insert_row` exactly as before. An unbound
/// head variable falls through so the materializing path raises the
/// same safety error it always did.
fn settled_dup_probe(head: &DlAtom, b: &DlBindings, rel: Option<&Instance>) -> bool {
    let Some(rel) = rel else { return false };
    let mut refs: Vec<ObjRef> = Vec::with_capacity(head.args.len());
    for t in &head.args {
        match t {
            DlTerm::Var(v) => match b.get(v) {
                Some(val) => refs.push(val.obj_ref()),
                None => return false,
            },
            DlTerm::Const(c) => refs.push(Pool::global().intern(c)),
        }
    }
    rel.contains_ref(Pool::global().tuple_of(&refs))
        .unwrap_or(false)
}

/// Build (or refresh), before the round fans out, every index a unit's
/// probe plan can touch outside its delta-restricted literal, so units
/// find a fresh read-only cache. Missing relations get an (empty) index
/// too: a probe against an empty relation still counts as a probe.
fn prebuild_indexes(units: &[DlUnit<'_>], state: &Database, indexes: &mut IndexSet) {
    let empty = Instance::empty();
    for unit in units {
        let rule = unit.rule;
        let delta_pos = unit.delta.as_ref().map(|(_, pos)| *pos);
        let plan = probe_plan(rule, 0..rule.body.len(), &BTreeSet::new());
        for (i, lit) in rule.body.iter().enumerate() {
            if let (true, Some(col)) = (lit.positive && delta_pos != Some(i), plan[i]) {
                let rel = state.get_ref(&lit.atom.pred).unwrap_or(&empty);
                indexes.of_col(&lit.atom.pred, col, rel);
            }
        }
    }
}

/// A join binding's value: the tree-form value plus a lazily computed
/// canonical pool id. The row cache hands the *same* `Rc` to every
/// binding one row element extends, so the id is computed at most once
/// per distinct element per join loop — a saturating fixpoint that
/// dup-probes the same element thousands of times pays one deep hash
/// instead of one per probe.
#[derive(Debug)]
pub struct BoundVal {
    v: Value,
    r: std::cell::OnceCell<ObjRef>,
}

// the cached id is derived state: equality is equality of the values
impl PartialEq for BoundVal {
    fn eq(&self, other: &Self) -> bool {
        self.v == other.v
    }
}
impl Eq for BoundVal {}

impl BoundVal {
    pub fn new(v: Value) -> Self {
        Self {
            v,
            r: std::cell::OnceCell::new(),
        }
    }

    /// The tree-form value.
    pub fn value(&self) -> &Value {
        &self.v
    }

    /// The value's canonical pool id, interned on first use and cached
    /// for every binding sharing this allocation.
    pub fn obj_ref(&self) -> ObjRef {
        *self.r.get_or_init(|| Pool::global().intern(&self.v))
    }
}

/// A join binding: variable name → bound value. Values are `Rc`-shared
/// so extending a binding through a literal (which clones the map once
/// per matched row) copies pointers, not object trees — with deeply
/// nested set values the per-candidate tree clones dominated the join.
pub type DlBindings = HashMap<String, Rc<BoundVal>>;

/// Ground one term under a binding, erroring (with the offending
/// predicate for context) if a variable is unbound. Shared with the
/// maintenance engine (`uset-ivm`), whose delta-rule firings must ground
/// heads and negated literals exactly as the from-scratch engine does.
pub fn instantiate(t: &DlTerm, b: &DlBindings, pred: &str) -> Result<Value, DlError> {
    match t {
        DlTerm::Var(v) => {
            b.get(v)
                .map(|rc| rc.value().clone())
                .ok_or_else(|| DlError::UnboundAtFiring {
                    var: v.clone(),
                    pred: pred.to_owned(),
                })
        }
        DlTerm::Const(c) => Ok(c.clone()),
    }
}

/// Unify a rule head's argument pattern against a stored fact row,
/// returning the binding of the head's variables when they match. This
/// is how the maintenance engine turns an over-deleted fact back into a
/// query: bind the head against the fact, then re-evaluate the body
/// under that partial binding to ask whether any derivation survives.
pub fn head_binding(head: &DlAtom, row: &Value) -> Option<DlBindings> {
    let mut out = Vec::new();
    match_row(&head.args, row, &HashMap::new(), &mut out);
    out.pop()
}

/// Per-join cache of `Rc`-wrapped row elements keyed by their address
/// inside the borrowed relation, so a row element that extends many
/// bindings is deep-cloned once instead of once per binding. Addresses
/// are only stable while the relation borrow is alive: build a fresh
/// cache per join loop and drop it with the borrow.
pub type RowCache = HashMap<usize, Rc<BoundVal>>;

/// Match one relation row against the literal's argument pattern, pushing
/// the extended binding on success. Shared with the maintenance engine's
/// delta-rule join loop.
pub fn match_row(args: &[DlTerm], row: &Value, b: &DlBindings, out: &mut Vec<DlBindings>) {
    let mut cache = RowCache::new();
    match_row_cached(args, row, b, out, &mut cache);
}

/// [`match_row`] with a caller-held [`RowCache`] amortising the clone of
/// row elements across the bindings of one join loop.
pub fn match_row_cached(
    args: &[DlTerm],
    row: &Value,
    b: &DlBindings,
    out: &mut Vec<DlBindings>,
    cache: &mut RowCache,
) {
    let Some(items) = row.as_tuple() else { return };
    if items.len() != args.len() {
        return;
    }
    // Reject on constants, already-bound variables, and inconsistent
    // repeats of fresh variables *before* paying for the binding clone:
    // in a selective join most candidate rows fail here, and cloning the
    // whole binding map per candidate dominated the join cost.
    let mut fresh: Vec<(&str, &Value)> = Vec::new();
    for (t, v) in args.iter().zip(items) {
        match t {
            DlTerm::Var(name) => {
                if let Some(bound) = b.get(name) {
                    if bound.value() != v {
                        return;
                    }
                } else if let Some((_, prev)) = fresh.iter().find(|(n, _)| *n == name.as_str()) {
                    if *prev != v {
                        return;
                    }
                } else {
                    fresh.push((name, v));
                }
            }
            DlTerm::Const(c) => {
                if c != v {
                    return;
                }
            }
        }
    }
    let mut nb = b.clone();
    for (name, v) in fresh {
        let rc = cache
            .entry(v as *const Value as usize)
            .or_insert_with(|| Rc::new(BoundVal::new(v.clone())));
        nb.insert(name.to_owned(), Rc::clone(rc));
    }
    out.push(nb);
}

/// The rows one body literal is joined against: a stored relation and,
/// when one is usable, its index on the literal's probe column —
/// optionally patched by rows to hide and rows to add. The patch is how
/// the maintenance engine (`uset-ivm`) reads a relation's pre-batch
/// value, `new − added + removed`, straight off the current relation and
/// its index instead of materializing a copy, and how it joins against a
/// bare set of delta rows (an empty relation plus the rows).
#[derive(Clone, Copy)]
pub struct LitRows<'a> {
    /// The stored relation.
    pub rel: &'a Instance,
    /// An index of `rel` on the literal's probe column, if usable.
    pub index: Option<&'a ColumnIndex>,
    /// Rows of `rel` the view leaves out.
    pub hide: Option<&'a BTreeSet<Value>>,
    /// Rows the view adds (disjoint from `rel`).
    pub extra: Option<&'a BTreeSet<Value>>,
}

impl<'a> LitRows<'a> {
    /// A relation as stored, with its probe-column index if any.
    pub fn of(rel: &'a Instance, index: Option<&'a ColumnIndex>) -> LitRows<'a> {
        LitRows {
            rel,
            index,
            hide: None,
            extra: None,
        }
    }

    fn hides(&self, row: &Value) -> bool {
        self.hide.is_some_and(|h| h.contains(row))
    }

    /// Match the stored `candidates` the view does not hide. The branch
    /// on the patch stays outside the loop: unpatched joins are the
    /// fixpoint engines' hot path.
    fn match_each<'v>(
        &self,
        candidates: impl IntoIterator<Item = &'v Value>,
        args: &[DlTerm],
        b: &DlBindings,
        out: &mut Vec<DlBindings>,
        cache: &mut RowCache,
    ) {
        match self.hide {
            None => {
                for row in candidates {
                    match_row_cached(args, row, b, out, cache);
                }
            }
            Some(hide) => {
                for row in candidates {
                    if !hide.contains(row) {
                        match_row_cached(args, row, b, out, cache);
                    }
                }
            }
        }
    }
}

/// Extend each binding through one literal evaluated against `rows`.
/// When the literal is positive and `probe_col` names a column that is
/// ground under the binding, the optional index answers the join with a
/// bucket probe instead of a scan over the whole relation; a ground
/// column with no usable index is recorded as a scan fallback. Patch
/// rows are always scanned: they are the few rows a batch changed.
pub fn extend_bindings(
    lit: &DlLiteral,
    probe_col: Option<usize>,
    bindings: &[DlBindings],
    rows: LitRows<'_>,
    stats: &mut EvalStats,
) -> Result<Vec<DlBindings>, DlError> {
    let mut out = Vec::new();
    let args = &lit.atom.args;
    if lit.positive {
        let mut cache = RowCache::new();
        for b in bindings {
            let key: Option<&Value> = probe_col.and_then(|c| match &args[c] {
                DlTerm::Const(cv) => Some(cv),
                DlTerm::Var(v) => b.get(v).map(|rc| rc.value()),
            });
            match (rows.index, key) {
                (Some(idx), Some(k)) => {
                    stats.index_probes += 1;
                    rows.match_each(idx.probe(k), args, b, &mut out, &mut cache);
                }
                (None, Some(_)) => {
                    stats.scan_fallbacks += 1;
                    rows.match_each(rows.rel.iter(), args, b, &mut out, &mut cache);
                }
                _ => rows.match_each(rows.rel.iter(), args, b, &mut out, &mut cache),
            }
            if let Some(extra) = rows.extra {
                for row in extra {
                    match_row_cached(args, row, b, &mut out, &mut cache);
                }
            }
        }
    } else {
        for b in bindings {
            // Borrow the ground argument values; an unbound variable is
            // the same safety error the materializing path raised.
            let mut vals: Vec<&Value> = Vec::with_capacity(args.len());
            for t in args {
                vals.push(match t {
                    DlTerm::Var(v) => {
                        b.get(v)
                            .map(|rc| rc.value())
                            .ok_or_else(|| DlError::UnboundAtFiring {
                                var: v.clone(),
                                pred: lit.atom.pred.clone(),
                            })?
                    }
                    DlTerm::Const(c) => c,
                });
            }
            let present = if rows.hide.is_none() && rows.extra.is_none() {
                // when the relation's id sidecar can answer, the borrowed
                // values intern straight to an ObjRef and membership is
                // a hash-set lookup, with no tuple built
                let id = Pool::global().intern_tuple_slice(vals.iter().copied());
                match rows.rel.contains_ref(id) {
                    Some(hit) => hit,
                    None => rows
                        .rel
                        .contains(&Value::Tuple(vals.iter().map(|&v| v.clone()).collect())),
                }
            } else {
                let row = Value::Tuple(vals.iter().map(|&v| v.clone()).collect());
                (rows.rel.contains(&row) && !rows.hides(&row))
                    || rows.extra.is_some_and(|x| x.contains(&row))
            };
            if !present {
                out.push(b.clone());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    #[test]
    fn extend_bindings_counter_contract() {
        // `scan_fallbacks` fires only when a probe column is ground but no
        // index is usable (a `IndexAccess::Prebuilt` cache miss); the
        // governed engines prebuild every probe column, so end-to-end runs
        // keep it at 0. Pin the counting contract at the source instead:
        // one index hit counts one probe, a ground column without an index
        // counts one fallback, plain scans and negated membership probes
        // count nothing, whether or not the interned negated probe answers.
        let rel = Instance::from_rows((0..8u64).map(|i| [atom(i), atom(i + 1)]));
        let lit = DlLiteral {
            positive: true,
            atom: DlAtom::new("E", vec![DlTerm::Const(atom(3)), v("y")]),
        };
        let neg = DlLiteral {
            positive: false,
            atom: DlAtom::new("E", vec![DlTerm::Const(atom(3)), DlTerm::Const(atom(4))]),
        };
        let bindings = vec![HashMap::new()];
        let idx = ColumnIndex::build_on(&rel, 0);

        let mut stats = EvalStats::default();
        let hit = extend_bindings(
            &lit,
            Some(0),
            &bindings,
            LitRows::of(&rel, Some(&idx)),
            &mut stats,
        )
        .unwrap();
        let scan = extend_bindings(
            &lit,
            Some(0),
            &bindings,
            LitRows::of(&rel, None),
            &mut stats,
        )
        .unwrap();
        let plain =
            extend_bindings(&lit, None, &bindings, LitRows::of(&rel, None), &mut stats).unwrap();
        let negated =
            extend_bindings(&neg, None, &bindings, LitRows::of(&rel, None), &mut stats).unwrap();
        assert_eq!(stats.index_probes, 1, "one bucket probe");
        assert_eq!(stats.scan_fallbacks, 1, "one scan fallback");
        assert_eq!(hit, scan, "probe and fallback agree on bindings");
        assert_eq!(scan, plain);
        assert!(negated.is_empty(), "E(3,4) holds, so ¬E(3,4) filters");
    }

    #[test]
    fn tc_via_stratified_and_inflationary_agree() {
        let prog = tc_program();
        let db = path_db(5);
        let s = prog.eval_stratified(&db, 10_000).unwrap();
        let i = prog.eval_inflationary(&db, 10_000).unwrap();
        assert_eq!(s.get("T"), i.get("T"));
        assert_eq!(s.get("T").len(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn negation_complement_pairs() {
        // NT(x,y) ← N(x), N(y), ¬T(x,y): pairs not connected
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("y")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let strata = prog.stratify().unwrap();
        assert!(strata["NT"] > strata["T"]);
        let out = prog.eval_stratified(&path_db(4), 10_000).unwrap();
        // 16 pairs total, T holds 6, so NT holds 10
        assert_eq!(out.get("NT").len(), 10);
    }

    #[test]
    fn unstratifiable_program_rejected() {
        // P(x) ← E(x,y), ¬P(x) — negation through recursion
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("P", vec![v("x")])),
            ],
        )]);
        assert!(matches!(prog.stratify(), Err(DlError::NotStratifiable(_))));
        // but inflationary semantics handles it fine
        let out = prog.eval_inflationary(&path_db(3), 10_000).unwrap();
        // round 1: ¬P holds for everything, so P gets {0, 1}
        assert_eq!(out.get("P").len(), 2);
    }

    #[test]
    fn inflationary_differs_from_stratified_on_win_move() {
        // the "win" query: W(x) ← E(x,y), ¬W(y). Unstratifiable; under
        // inflationary semantics it computes an approximation, not the
        // game-theoretic answer — we only check it terminates and derives
        // something sensible.
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("W", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("W", vec![v("y")])),
            ],
        )]);
        let db = path_db(4); // 0→1→2→3
        let out = prog.eval_inflationary(&db, 10_000).unwrap();
        // first round: every node with an outgoing edge wins (W unpopulated)
        assert!(out.get("W").contains(&uset_object::tuple([atom(0)])));
    }

    #[test]
    fn safety_violations_rejected() {
        let bad_head = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("z")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        )]);
        assert_eq!(
            bad_head.eval_stratified(&path_db(2), 100),
            Err(DlError::Unsafe("z".to_owned()))
        );
        let bad_neg = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("Q", vec![v("w")])),
            ],
        )]);
        assert_eq!(
            bad_neg.eval_inflationary(&path_db(2), 100),
            Err(DlError::Unsafe("w".to_owned()))
        );
    }

    #[test]
    fn constants_in_rules() {
        // P(x) ← E(a0, x): successors of node 0
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![DlTerm::Const(atom(0)), v("x")]))],
        )]);
        let out = prog.eval_stratified(&path_db(3), 100).unwrap();
        assert_eq!(out.get("P"), Instance::from_rows([[atom(1)]]));
    }
}

#[cfg(test)]
mod seminaive_tests {
    use super::*;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    #[test]
    fn seminaive_matches_naive_on_tc() {
        let prog = tc_program();
        for n in [2u64, 5, 10] {
            let db = path_db(n);
            let naive = prog.eval_stratified(&db, 100_000).unwrap();
            let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
            assert_eq!(naive.get("T"), semi.get("T"), "n = {n}");
        }
    }

    #[test]
    fn seminaive_matches_naive_with_negation_strata() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(5);
        let naive = prog.eval_stratified(&db, 100_000).unwrap();
        let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        assert_eq!(naive.get("NT"), semi.get("NT"));
        assert_eq!(naive.get("T"), semi.get("T"));
    }

    #[test]
    fn seminaive_on_cyclic_graph() {
        let prog = tc_program();
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows([[atom(0), atom(1)], [atom(1), atom(2)], [atom(2), atom(0)]]),
        );
        let naive = prog.eval_stratified(&db, 100_000).unwrap();
        let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        assert_eq!(naive.get("T"), semi.get("T"));
        assert_eq!(semi.get("T").len(), 9);
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use uset_guard::ParConfig;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn governor(workers: usize) -> Governor {
        Governor::unlimited().with_par(ParConfig::workers(workers))
    }

    #[test]
    fn parallel_seminaive_matches_sequential_exactly() {
        let prog = tc_program();
        let db = path_db(24);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_seminaive_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        for workers in [2usize, 4, 7] {
            let mut par_stats = EvalStats::default();
            let par = prog
                .eval_stratified_seminaive_governed(&db, &governor(workers), &mut par_stats)
                .unwrap();
            assert_eq!(seq, par, "state diverged at {workers} workers");
            assert_eq!(seq_stats, par_stats, "stats diverged at {workers} workers");
        }
    }

    #[test]
    fn parallel_naive_matches_sequential_exactly() {
        let prog = tc_program();
        let db = path_db(12);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_stratified_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_inflationary_matches_sequential_exactly() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("S", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(9);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_inflationary_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_inflationary_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_negation_strata_match_sequential() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(7);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_seminaive_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_stratified_seminaive_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_panicking_rule_is_structured_error() {
        // a rule that panics in a phase-1 unit must come back as a
        // structured Exhausted(Panicked) error, not unwind through the
        // pool or hang — inline at width 1 exactly as on a worker
        let prog = DatalogProgram {
            rules: vec![
                DlRule::new(
                    DlAtom::new("T", vec![v("x"), v("y")]),
                    vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
                ),
                DlRule::new(
                    DlAtom::new("panic-inject!", vec![v("x")]),
                    vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
                ),
            ],
        };
        let db = path_db(8);
        for workers in [1, 4] {
            let mut stats = EvalStats::default();
            let err = prog
                .eval_stratified_seminaive_governed(&db, &governor(workers), &mut stats)
                .unwrap_err();
            let DlError::Exhausted(ex) = err else {
                panic!("expected structured exhaustion, got {err:?}");
            };
            assert_eq!(ex.trip.resource, uset_guard::Resource::Panicked);
            assert_eq!(ex.trip.engine, EngineId::Datalog);
            // nothing from the panicking round was merged: the snapshot is
            // the round-start state, which still holds the EDB intact
            assert_eq!(ex.partial.get("E"), db.get("E"));
        }
    }

    #[test]
    fn parallel_facts_budget_yields_round_consistent_partial() {
        let prog = tc_program();
        let db = path_db(24);
        let governor =
            Governor::new(Budget::unlimited().with_facts(40)).with_par(ParConfig::workers(4));
        let mut stats = EvalStats::default();
        let err = prog
            .eval_stratified_seminaive_governed(&db, &governor, &mut stats)
            .unwrap_err();
        let DlError::Exhausted(ex) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        // the partial snapshot is a prefix of the true fixpoint and is
        // round-consistent: every E edge survives, T is closed under the
        // rounds that completed
        let full = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        let partial = ex.partial;
        assert_eq!(partial.get("E"), db.get("E"));
        for (_, row) in partial.get("T").iter().map(|r| ("T", r)) {
            assert!(full.get_ref("T").unwrap().contains(row));
        }
    }
}
