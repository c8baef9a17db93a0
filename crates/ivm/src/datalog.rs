//! The DATALOG¬ maintenance session: counting + DRed, stratum at a time.
//!
//! A [`DatalogSession`] materializes a program's fixpoint once (through
//! the `uset-opt` front doors, so the `USET_OPT` knob applies) and then
//! keeps it synchronized with EDB delta batches. Strata are maintained
//! in dependency order — the order [`uset_opt::maintenance_plan`] emits
//! them in — so by the time a stratum runs, every relation below it
//! already has its post-batch value in the state and its net change in
//! the batch's delta log. That is what makes negation safe: a negated
//! literal always refers to a *settled* lower stratum, and its delta is
//! the complement's delta with the signs flipped.
//!
//! Apply is atomic. Every mutation (state row, EDB row, support count)
//! is journaled in an undo log; a budget trip or evaluation error
//! replays the log backwards and returns [`IvmError::Exhausted`] with
//! the session still holding the pre-batch state.
//!
//! The session owns one [`IndexSet`] over the state. Every state row a
//! batch inserts or removes is reported to it, so each delta firing
//! probes current indexes; a rollback drops the indexes of the
//! relations it touched, and a recompute drops them all.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use uset_deductive::datalog::{head_binding, IndexAccess};
use uset_deductive::{DatalogProgram, DlError, DlLiteral};
use uset_guard::ckpt::codec::{Dec, Enc};
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, EngineId, Governor, Guard, TraceHandle, Trip};
use uset_object::{Database, EvalStats, IndexSet, Instance, Value};
use uset_opt::{maintenance_plan, MaintPlan, MaintStratum, StratumPlan};
use uset_par::par_map;

use crate::delta::{DeltaBatch, DeltaLog, NormalBatch};
use crate::fire::{body_bindings, delta_bindings, head_row, prebuild_rederive, Reads, View};
use crate::{ApplyReport, IvmError, IvmMode, Semantics};

/// A long-lived materialized DATALOG¬ fixpoint that absorbs EDB delta
/// batches. See the crate docs for the algorithm split.
pub struct DatalogSession {
    prog: DatalogProgram,
    semantics: Semantics,
    plan: MaintPlan,
    governor: Governor,
    /// The extensional database as of the last applied batch.
    edb: Database,
    /// The materialized state (EDB relations + derived IDB relations).
    state: Database,
    /// Column indexes over `state`, built on first probe and kept
    /// current across batches.
    indexes: IndexSet,
    /// Per-fact derivation counts for counting strata. Counts exclude
    /// EDB-seeded occurrences: a seeded fact is an axiom and survives a
    /// count of zero.
    counts: Counts,
    /// Counters of the initial build (or the last fallback recompute).
    build_stats: EvalStats,
    /// Cumulative maintenance work across all applied batches.
    maint_stats: EvalStats,
    batches: u64,
    journal: Option<ckpt::Session>,
}

/// Internal maintenance failure, before rollback decides the public face.
enum MaintErr {
    Trip(Trip),
    Dl(DlError),
}

impl From<Trip> for MaintErr {
    fn from(t: Trip) -> MaintErr {
        MaintErr::Trip(t)
    }
}

impl From<DlError> for MaintErr {
    fn from(e: DlError) -> MaintErr {
        MaintErr::Dl(e)
    }
}

impl MaintErr {
    fn into_ivm(self, stats: EvalStats) -> IvmError {
        match self {
            MaintErr::Trip(trip) => IvmError::Exhausted { trip, stats },
            MaintErr::Dl(d) => IvmError::Datalog(d),
        }
    }
}

/// One reversible mutation, replayed backwards on rollback. Insert ops
/// carry whether the relation already existed (possibly empty) before
/// the insert: `remove_row` prunes a relation whose last row goes, and
/// a rollback must restore *explicitly-present-but-empty* relations —
/// `Database::PartialEq` distinguishes them from absent ones.
enum UndoOp {
    /// A row was inserted into the state.
    StateAdd(String, Value, bool),
    /// A row was removed from the state.
    StateDel(String, Value),
    /// A row was inserted into the EDB.
    EdbAdd(String, Value, bool),
    /// A row was removed from the EDB.
    EdbDel(String, Value),
    /// A support count changed; the payload is the *old* count (0 means
    /// the entry was absent).
    Count(String, Value, i64),
}

/// Support counts per relation and fact.
type Counts = BTreeMap<String, BTreeMap<Value, i64>>;

/// The session's mutable parts as one batch changes them: every change
/// is journaled for [`Store::rollback`], and every state row change is
/// reported to the session's indexes.
struct Store<'a> {
    edb: &'a mut Database,
    state: &'a mut Database,
    indexes: &'a mut IndexSet,
    counts: &'a mut Counts,
    undo: Vec<UndoOp>,
}

impl Store<'_> {
    fn contains(&self, pred: &str, row: &Value) -> bool {
        self.state.get_ref(pred).is_some_and(|i| i.contains(row))
    }

    fn insert(&mut self, pred: &str, row: &Value) {
        let had_rel = self.state.contains_relation(pred);
        if self.state.insert_row(pred, row) {
            if let Some(inst) = self.state.get_ref(pred) {
                self.indexes.note_insert(pred, row, inst);
            }
        }
        self.undo
            .push(UndoOp::StateAdd(pred.to_owned(), row.clone(), had_rel));
    }

    fn remove(&mut self, pred: &str, row: &Value) {
        self.state.remove_row(pred, row);
        match self.state.get_ref(pred) {
            Some(inst) => self.indexes.note_remove(pred, row, inst),
            // the last row went and the relation with it
            None => self.indexes.invalidate(pred),
        }
        self.undo
            .push(UndoOp::StateDel(pred.to_owned(), row.clone()));
    }

    fn edb_insert(&mut self, rel: &str, row: &Value) {
        let had_rel = self.edb.contains_relation(rel);
        self.edb.insert_row(rel, row);
        self.undo
            .push(UndoOp::EdbAdd(rel.to_owned(), row.clone(), had_rel));
    }

    fn edb_remove(&mut self, rel: &str, row: &Value) {
        self.edb.remove_row(rel, row);
        self.undo.push(UndoOp::EdbDel(rel.to_owned(), row.clone()));
    }

    /// Add `delta` to a fact's support count; returns the old count.
    fn add_count(&mut self, pred: &str, row: &Value, delta: i64) -> i64 {
        let pc = self.counts.entry(pred.to_owned()).or_default();
        let old = pc.get(row).copied().unwrap_or(0);
        debug_assert!(old + delta >= 0, "support count of {pred} went negative");
        if old + delta == 0 {
            pc.remove(row);
        } else {
            pc.insert(row.clone(), old + delta);
        }
        self.undo
            .push(UndoOp::Count(pred.to_owned(), row.clone(), old));
        old
    }

    /// What a firing reads: the state, `log`, and the indexes, built on
    /// demand.
    fn reads<'b>(&'b mut self, log: &'b DeltaLog) -> Reads<'b> {
        Reads {
            state: self.state,
            log,
            indexes: IndexAccess::Build(self.indexes),
        }
    }

    /// Replay the undo log backwards. The indexes of every state
    /// relation touched are dropped rather than replayed: the next probe
    /// rebuilds them from the restored rows.
    fn rollback(self) {
        let Store {
            edb,
            state,
            indexes,
            counts,
            undo,
        } = self;
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::StateAdd(p, r, had_rel) => {
                    indexes.invalidate(&p);
                    state.remove_row(&p, &r);
                    if had_rel && !state.contains_relation(&p) {
                        state.set(p, Instance::default());
                    }
                }
                UndoOp::StateDel(p, r) => {
                    indexes.invalidate(&p);
                    state.insert_row(&p, &r);
                }
                UndoOp::EdbAdd(p, r, had_rel) => {
                    edb.remove_row(&p, &r);
                    if had_rel && !edb.contains_relation(&p) {
                        edb.set(p, Instance::default());
                    }
                }
                UndoOp::EdbDel(p, r) => {
                    edb.insert_row(&p, &r);
                }
                UndoOp::Count(p, r, old) => {
                    let pc = counts.entry(p.clone()).or_default();
                    if old == 0 {
                        pc.remove(&r);
                    } else {
                        pc.insert(r, old);
                    }
                    if pc.is_empty() {
                        counts.remove(&p);
                    }
                }
            }
        }
    }
}

fn total_facts(db: &Database) -> usize {
    db.iter().map(|(_, inst)| inst.len()).sum()
}

fn eval(
    prog: &DatalogProgram,
    semantics: Semantics,
    db: &Database,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Database, DlError> {
    match semantics {
        Semantics::Stratified => uset_opt::eval_stratified(prog, db, governor, stats),
        Semantics::StratifiedSeminaive => {
            uset_opt::eval_stratified_seminaive(prog, db, governor, stats)
        }
        Semantics::Inflationary => uset_opt::eval_inflationary(prog, db, governor, stats),
    }
}

fn fingerprint(prog: &DatalogProgram, semantics: Semantics, db: &Database) -> u64 {
    let mut e = Enc::new();
    e.put_str(&format!("{prog:?}"));
    e.put_u8(match semantics {
        Semantics::Stratified => 0,
        Semantics::StratifiedSeminaive => 1,
        Semantics::Inflationary => 2,
    });
    e.put_database(db);
    ckpt::codec::fnv64(&e.finish())
}

/// Fold a recovered journal back into the EDB it describes.
fn decode_recovery(rec: &ckpt::Recovered) -> Option<(Database, EvalStats, u64)> {
    let mut d = Dec::new(&rec.payload);
    let mut edb = d.database().ok()?;
    for delta in &rec.deltas {
        NormalBatch::decode(delta)?.apply_to(&mut edb);
    }
    Some((edb, rec.stats, rec.round))
}

impl DatalogSession {
    /// Build the session: materialize the fixpoint, plan maintenance,
    /// and seed support counts for the counting strata. The mode comes
    /// from `USET_IVM`.
    pub fn new(
        prog: DatalogProgram,
        db: &Database,
        semantics: Semantics,
        governor: &Governor,
    ) -> Result<DatalogSession, IvmError> {
        DatalogSession::with_mode(prog, db, semantics, governor, IvmMode::from_env())
    }

    /// [`DatalogSession::new`] with an explicit mode (tests and callers
    /// that must not consult the environment).
    pub fn with_mode(
        prog: DatalogProgram,
        db: &Database,
        semantics: Semantics,
        governor: &Governor,
        mode: IvmMode,
    ) -> Result<DatalogSession, IvmError> {
        prog.check_safety().map_err(IvmError::Datalog)?;
        let governor = governor.clone();
        let mut guard = governor.guard(EngineId::Ivm);
        let mut journal = guard.ckpt_session(fingerprint(&prog, semantics, db));
        let mut edb = db.clone();
        let mut maint_stats = EvalStats::default();
        let mut batches = 0u64;
        if let Some(rec) = journal.as_mut().and_then(|j| j.recover()) {
            if let Some((redb, rstats, rround)) = decode_recovery(&rec) {
                edb = redb;
                maint_stats = rstats;
                batches = rround;
            }
        }
        let mut build_stats = EvalStats::default();
        let state =
            eval(&prog, semantics, &edb, &governor, &mut build_stats).map_err(IvmError::Datalog)?;
        let plan = match (semantics, mode) {
            (Semantics::Inflationary, _) => MaintPlan::Recompute(
                "inflationary fixpoints are not change-monotone; retraction invalidates \
                 the firing history"
                    .to_owned(),
            ),
            (_, IvmMode::Recompute) => {
                MaintPlan::Recompute("forced by USET_IVM=recompute".to_owned())
            }
            (_, IvmMode::Auto) => maintenance_plan(&prog),
        };
        let mut counts = BTreeMap::new();
        let mut indexes = IndexSet::new();
        if let MaintPlan::Incremental(strata) = &plan {
            init_counts(
                &prog,
                strata,
                &state,
                &mut indexes,
                &mut counts,
                &mut guard,
                &mut maint_stats,
            )
            .map_err(|e| e.into_ivm(maint_stats))?;
        }
        Ok(DatalogSession {
            prog,
            semantics,
            plan,
            governor,
            edb,
            state,
            indexes,
            counts,
            build_stats,
            maint_stats,
            batches,
            journal,
        })
    }

    /// The materialized state (EDB relations plus derived relations),
    /// bit-identical to evaluating the program on [`Self::edb`] from
    /// scratch.
    pub fn state(&self) -> &Database {
        &self.state
    }

    /// The extensional database as of the last applied batch.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// The static maintenance plan.
    pub fn plan(&self) -> &MaintPlan {
        &self.plan
    }

    /// The session's semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Counters of the initial build (or last fallback recompute).
    pub fn build_stats(&self) -> &EvalStats {
        &self.build_stats
    }

    /// Cumulative maintenance work across applied batches.
    pub fn maint_stats(&self) -> &EvalStats {
        &self.maint_stats
    }

    /// Apply one batch atomically: on `Ok` the state equals a
    /// from-scratch evaluation of the updated EDB; on `Err` nothing
    /// changed.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, IvmError> {
        let idb = self.prog.idb_predicates();
        for rel in batch.relations() {
            if idb.contains(rel) {
                return Err(IvmError::NotEdb {
                    pred: rel.to_owned(),
                });
            }
        }
        let norm = batch.normalize(&self.edb);
        let inserted = norm.inserted();
        let retracted = norm.retracted();
        let mut stats = EvalStats::default();
        let mut guard = self.governor.guard(EngineId::Ivm);
        let mut fallback = false;
        let (idb_added, idb_removed) = match &self.plan {
            MaintPlan::Incremental(strata) => {
                let mut store = Store {
                    edb: &mut self.edb,
                    state: &mut self.state,
                    indexes: &mut self.indexes,
                    counts: &mut self.counts,
                    undo: Vec::new(),
                };
                let trace = &self.governor.trace;
                match run_incremental(
                    &self.prog, strata, &norm, &mut store, &mut guard, &mut stats, trace,
                ) {
                    Ok(pair) => pair,
                    Err(e) => {
                        store.rollback();
                        return Err(e.into_ivm(stats));
                    }
                }
            }
            MaintPlan::Recompute(_) => {
                fallback = true;
                self.apply_recompute(&norm, &mut stats)?
            }
        };
        self.batches += 1;
        self.maint_stats.absorb(&stats);
        let batch_no = self.batches;
        self.governor.trace.emit(|| TraceEvent::DeltaApplied {
            engine: "ivm".to_owned(),
            batch: batch_no,
            inserted,
            retracted,
            idb_added,
            idb_removed,
            fallback,
        });
        if let Some(journal) = self.journal.as_mut() {
            let rc = guard.round_ckpt(self.batches, &self.maint_stats, norm.encode());
            let edb = &self.edb;
            journal.commit_delta(&rc, || {
                let mut e = Enc::new();
                e.put_database(edb);
                e.finish()
            });
        }
        Ok(ApplyReport {
            batch: self.batches,
            inserted,
            retracted,
            idb_added,
            idb_removed,
            fallback,
            stats,
        })
    }

    /// Close the checkpoint journal cleanly, if one is open.
    pub fn finish(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.finish();
        }
    }

    fn apply_recompute(
        &mut self,
        norm: &NormalBatch,
        stats: &mut EvalStats,
    ) -> Result<(u64, u64), IvmError> {
        let mut edb = self.edb.clone();
        norm.apply_to(&mut edb);
        let mut fresh = EvalStats::default();
        match eval(&self.prog, self.semantics, &edb, &self.governor, &mut fresh) {
            Ok(new_state) => {
                let (added, removed) = db_diff(&self.state, &new_state);
                self.edb = edb;
                self.state = new_state;
                self.indexes = IndexSet::new();
                self.build_stats = fresh;
                stats.absorb(&fresh);
                Ok((
                    added.saturating_sub(norm.inserted()),
                    removed.saturating_sub(norm.retracted()),
                ))
            }
            Err(DlError::Exhausted(ex)) => Err(IvmError::Exhausted {
                trip: ex.trip,
                stats: ex.stats,
            }),
            Err(other) => Err(IvmError::Datalog(other)),
        }
    }
}

/// Count rows present in `new` but not `old`, and vice versa.
fn db_diff(old: &Database, new: &Database) -> (u64, u64) {
    let mut added = 0u64;
    let mut removed = 0u64;
    for (name, inst) in new.iter() {
        match old.get_ref(name) {
            Some(o) => added += inst.iter().filter(|r| !o.contains(r)).count() as u64,
            None => added += inst.len() as u64,
        }
    }
    for (name, inst) in old.iter() {
        match new.get_ref(name) {
            Some(n) => removed += inst.iter().filter(|r| !n.contains(r)).count() as u64,
            None => removed += inst.len() as u64,
        }
    }
    (added, removed)
}

/// Seed the support counts of every counting stratum by evaluating each
/// defining rule's body once against the freshly built state: the count
/// of a fact is exactly its number of (rule, binding) derivations.
fn init_counts(
    prog: &DatalogProgram,
    strata: &[MaintStratum],
    state: &Database,
    indexes: &mut IndexSet,
    counts: &mut Counts,
    guard: &mut Guard,
    stats: &mut EvalStats,
) -> Result<(), MaintErr> {
    let log = DeltaLog::default();
    let mut reads = Reads {
        state,
        log: &log,
        indexes: IndexAccess::Build(indexes),
    };
    for stratum in strata {
        if stratum.plan != StratumPlan::Counting {
            continue;
        }
        for &ri in &stratum.rules {
            guard.step()?;
            let rule = &prog.rules[ri];
            let bs = body_bindings(rule, HashMap::new(), View::New, &mut reads, stats)?;
            for b in &bs {
                let row = head_row(rule, b)?;
                *counts
                    .entry(rule.head.pred.clone())
                    .or_default()
                    .entry(row)
                    .or_insert(0) += 1;
            }
        }
    }
    Ok(())
}

/// Does any rule of this stratum consume a relation the batch changed?
fn stratum_touched(prog: &DatalogProgram, stratum: &MaintStratum, log: &DeltaLog) -> bool {
    stratum.rules.iter().any(|&ri| {
        prog.rules[ri]
            .body
            .iter()
            .any(|lit| log.delta(&lit.atom.pred).is_some())
    })
}

#[allow(clippy::too_many_arguments)]
fn run_incremental(
    prog: &DatalogProgram,
    strata: &[MaintStratum],
    norm: &NormalBatch,
    store: &mut Store<'_>,
    guard: &mut Guard,
    stats: &mut EvalStats,
    trace: &TraceHandle,
) -> Result<(u64, u64), MaintErr> {
    guard.set_fact_base(total_facts(store.state))?;
    let mut log = DeltaLog::default();
    // 1. the EDB delta itself (state carries EDB relations too)
    for (rel, rows) in &norm.removed {
        for row in rows.iter() {
            store.remove(rel, row);
            store.edb_remove(rel, row);
            guard.remove_fact()?;
            log.note_remove(rel, row.clone());
        }
    }
    for (rel, rows) in &norm.added {
        for row in rows.iter() {
            store.insert(rel, row);
            store.edb_insert(rel, row);
            guard.add_fact()?;
            log.note_add(rel, row.clone());
        }
    }
    // 2. strata in dependency order
    let mut idb_added = 0u64;
    let mut idb_removed = 0u64;
    for (si, stratum) in strata.iter().enumerate() {
        match stratum.plan {
            StratumPlan::Counting => {
                let (a, r) = maintain_counting(prog, stratum, store, &mut log, guard, stats)?;
                idb_added += a;
                idb_removed += r;
            }
            StratumPlan::DRed => {
                let out = maintain_dred(prog, stratum, store, &mut log, guard, stats)?;
                idb_added += out.added;
                idb_removed += out.removed;
                if out.overdeleted > 0 || out.reinserted > 0 {
                    let (od, rd, ri) = (out.overdeleted, out.rederived, out.reinserted);
                    trace.emit(|| TraceEvent::Rederived {
                        engine: "ivm".to_owned(),
                        stratum: si,
                        overdeleted: od,
                        rederived: rd,
                        reinserted: ri,
                    });
                }
            }
        }
    }
    stats.observe_facts(total_facts(store.state));
    Ok((idb_added, idb_removed))
}

/// Counting maintenance for one non-recursive stratum: accumulate signed
/// derivation-count deltas through the telescoped delta rules, then
/// apply them. A fact is present iff it is EDB-seeded or its count is
/// positive.
fn maintain_counting(
    prog: &DatalogProgram,
    stratum: &MaintStratum,
    store: &mut Store<'_>,
    log: &mut DeltaLog,
    guard: &mut Guard,
    stats: &mut EvalStats,
) -> Result<(u64, u64), MaintErr> {
    if !stratum_touched(prog, stratum, log) {
        return Ok((0, 0));
    }
    let mut signed: BTreeMap<(String, Value), i64> = BTreeMap::new();
    for &ri in &stratum.rules {
        let rule = &prog.rules[ri];
        for (i, lit) in rule.body.iter().enumerate() {
            let Some(d) = log.delta(&lit.atom.pred) else {
                continue;
            };
            // a negated literal is its relation's complement: rows
            // leaving the relation are gains, rows entering are losses
            let passes: [(&BTreeSet<Value>, i64); 2] = if lit.positive {
                [(&d.added, 1), (&d.removed, -1)]
            } else {
                [(&d.removed, 1), (&d.added, -1)]
            };
            for (rows, sign) in passes {
                if rows.is_empty() {
                    continue;
                }
                guard.step()?;
                let mut reads = store.reads(log);
                let bs = delta_bindings(rule, i, rows, View::New, View::Old, &mut reads, stats)?;
                for b in &bs {
                    let row = head_row(rule, b)?;
                    *signed.entry((rule.head.pred.clone(), row)).or_insert(0) += sign;
                }
            }
        }
    }
    stats.rounds += 1;
    let mut added = 0u64;
    let mut removed = 0u64;
    for ((pred, row), delta) in signed {
        if delta == 0 {
            continue;
        }
        let old = store.add_count(&pred, &row, delta);
        let new = old + delta;
        let seeded = store.edb.get_ref(&pred).is_some_and(|i| i.contains(&row));
        let was = old > 0 || seeded;
        let now = new > 0 || seeded;
        if was && !now {
            store.remove(&pred, &row);
            guard.remove_fact()?;
            log.note_remove(&pred, row);
            removed += 1;
        } else if !was && now {
            store.insert(&pred, &row);
            guard.add_fact()?;
            log.note_add(&pred, row);
            added += 1;
        }
    }
    stats.observe_facts(total_facts(store.state));
    Ok((added, removed))
}

#[derive(Default)]
struct DredOut {
    added: u64,
    removed: u64,
    overdeleted: u64,
    rederived: u64,
    reinserted: u64,
}

fn consider_delete(
    pred: &str,
    row: Value,
    store: &Store<'_>,
    deleted: &mut BTreeMap<String, BTreeSet<Value>>,
    pending: &mut Pending,
) {
    // an EDB-seeded fact is an axiom, never a deletion candidate
    if !store.contains(pred, &row)
        || store.edb.get_ref(pred).is_some_and(|i| i.contains(&row))
        || deleted.get(pred).is_some_and(|s| s.contains(&row))
    {
        return;
    }
    deleted
        .entry(pred.to_owned())
        .or_default()
        .insert(row.clone());
    pending.entry(pred.to_owned()).or_default().insert(row);
}

/// Can this deleted fact still be derived from the current state?
fn rederivable(
    prog: &DatalogProgram,
    stratum: &MaintStratum,
    pred: &str,
    row: &Value,
    reads: &mut Reads<'_>,
    stats: &mut EvalStats,
) -> Result<bool, DlError> {
    for &ri in &stratum.rules {
        let rule = &prog.rules[ri];
        if rule.head.pred != pred {
            continue;
        }
        let Some(seed) = head_binding(&rule.head, row) else {
            continue;
        };
        if !body_bindings(rule, seed, View::New, reads, stats)?.is_empty() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Derived rows per relation awaiting the next semi-naive round.
type Pending = BTreeMap<String, BTreeSet<Value>>;

/// Fire the stratum's delta rules with both sides at `view`: first at
/// every body position `seed` restricts to a non-empty row set, then
/// semi-naively, each round at the stratum's positive literals
/// restricted to the rows the previous round left pending. Every derived
/// head row goes to `sink`, which decides whether it becomes pending.
#[allow(clippy::too_many_arguments)]
fn propagate<'l>(
    prog: &DatalogProgram,
    stratum: &MaintStratum,
    seed: impl Fn(&DlLiteral) -> Option<&'l BTreeSet<Value>>,
    view: View,
    store: &mut Store<'_>,
    log: &DeltaLog,
    guard: &mut Guard,
    stats: &mut EvalStats,
    mut sink: impl FnMut(&str, Value, &mut Store<'_>, &mut Guard, &mut Pending) -> Result<(), MaintErr>,
) -> Result<(), MaintErr> {
    let mut round: Option<Pending> = None;
    loop {
        let mut pending = Pending::new();
        for &ri in &stratum.rules {
            let rule = &prog.rules[ri];
            for (i, lit) in rule.body.iter().enumerate() {
                let rows = match &round {
                    None => seed(lit),
                    Some(cur) if lit.positive && stratum.preds.contains(&lit.atom.pred) => {
                        cur.get(&lit.atom.pred)
                    }
                    Some(_) => None,
                };
                let Some(rows) = rows.filter(|rows| !rows.is_empty()) else {
                    continue;
                };
                guard.step()?;
                let mut reads = store.reads(log);
                let bs = delta_bindings(rule, i, rows, view, view, &mut reads, stats)?;
                for b in &bs {
                    sink(
                        &rule.head.pred,
                        head_row(rule, b)?,
                        store,
                        guard,
                        &mut pending,
                    )?;
                }
            }
        }
        if pending.values().all(BTreeSet::is_empty) {
            return Ok(());
        }
        stats.rounds += 1;
        round = Some(pending);
    }
}

/// Delete-and-rederive for one recursive stratum.
///
/// Phase 1 computes the over-deletion set against the **old** views
/// (state is untouched until the set converges, so same-stratum
/// relations read correctly), excluding EDB-seeded axioms. Phase 2
/// repeatedly re-checks the deleted facts against the current state —
/// each pass is embarrassingly parallel over candidates and is sharded
/// across the guard's workers over indexes prebuilt for it, with
/// per-candidate counters absorbed in canonical order so the result and
/// stats are identical at any width. Phase 3 seeds insertions from the
/// lower relations' gains and propagates them semi-naively within the
/// stratum.
fn maintain_dred(
    prog: &DatalogProgram,
    stratum: &MaintStratum,
    store: &mut Store<'_>,
    log: &mut DeltaLog,
    guard: &mut Guard,
    stats: &mut EvalStats,
) -> Result<DredOut, MaintErr> {
    let mut out = DredOut::default();
    if !stratum_touched(prog, stratum, log) {
        return Ok(out);
    }
    let lower = |lit: &DlLiteral| !stratum.preds.contains(&lit.atom.pred);

    // ---- phase 1: over-delete at old views -------------------------
    let mut deleted: BTreeMap<String, BTreeSet<Value>> = BTreeMap::new();
    let losses = |lit: &DlLiteral| {
        let d = log.delta(&lit.atom.pred).filter(|_| lower(lit))?;
        Some(if lit.positive { &d.removed } else { &d.added })
    };
    propagate(
        prog,
        stratum,
        losses,
        View::Old,
        store,
        log,
        guard,
        stats,
        |pred, row, store, _, pending| {
            consider_delete(pred, row, store, &mut deleted, pending);
            Ok(())
        },
    )?;
    for (pred, rows) in &deleted {
        for row in rows {
            store.remove(pred, row);
            guard.remove_fact()?;
            out.overdeleted += 1;
        }
    }

    // ---- phase 2: rederive what still has an independent proof -----
    let mut remaining: Vec<(String, Value)> = deleted
        .iter()
        .flat_map(|(p, rs)| rs.iter().map(move |r| (p.clone(), r.clone())))
        .collect();
    let workers = guard.workers();
    let rules = stratum.rules.iter().map(|&ri| &prog.rules[ri]);
    while !remaining.is_empty() {
        stats.rounds += 1;
        prebuild_rederive(rules.clone(), store.state, store.indexes);
        let (state, indexes) = (&*store.state, &*store.indexes);
        let results = par_map(workers, &remaining, |_, (pred, row)| {
            let mut reads = Reads {
                state,
                log,
                indexes: IndexAccess::Prebuilt(indexes),
            };
            let mut s = EvalStats::default();
            let ok = rederivable(prog, stratum, pred, row, &mut reads, &mut s);
            (ok, s)
        });
        let mut alive = Vec::new();
        let mut progressed = false;
        for ((pred, row), (ok, s)) in remaining.into_iter().zip(results) {
            stats.absorb(&s);
            guard.step()?;
            if ok? {
                store.insert(&pred, &row);
                guard.add_fact()?;
                out.rederived += 1;
                out.reinserted += 1;
                progressed = true;
            } else {
                alive.push((pred, row));
            }
        }
        remaining = alive;
        if !progressed {
            break;
        }
    }

    // ---- phase 3: insertions, semi-naive within the stratum --------
    let mut inserted_rows: Vec<(String, Value)> = Vec::new();
    let gains = |lit: &DlLiteral| {
        let d = log.delta(&lit.atom.pred).filter(|_| lower(lit))?;
        Some(if lit.positive { &d.added } else { &d.removed })
    };
    propagate(
        prog,
        stratum,
        gains,
        View::New,
        store,
        log,
        guard,
        stats,
        |pred, row, store, guard, pending| {
            insert_new(pred, row, store, guard, pending, &mut inserted_rows)
        },
    )?;

    // ---- net bookkeeping for downstream strata ---------------------
    for (pred, rows) in &deleted {
        for row in rows {
            if !store.contains(pred, row) {
                log.note_remove(pred, row.clone());
                out.removed += 1;
            }
        }
    }
    for (pred, row) in &inserted_rows {
        if deleted.get(pred).is_some_and(|s| s.contains(row)) {
            out.reinserted += 1; // a phase-3 restoration of an over-deleted fact
        } else {
            log.note_add(pred, row.clone());
            out.added += 1;
        }
    }
    stats.observe_facts(total_facts(store.state));
    Ok(out)
}

fn insert_new(
    pred: &str,
    row: Value,
    store: &mut Store<'_>,
    guard: &mut Guard,
    pending: &mut Pending,
    inserted: &mut Vec<(String, Value)>,
) -> Result<(), MaintErr> {
    if store.contains(pred, &row) {
        return Ok(());
    }
    store.insert(pred, &row);
    guard.add_fact()?;
    pending
        .entry(pred.to_owned())
        .or_default()
        .insert(row.clone());
    inserted.push((pred.to_owned(), row));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlRule, DlTerm};
    use uset_guard::Budget;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn edge(a: u64, b: u64) -> Value {
        Value::Tuple(vec![atom(a), atom(b)])
    }

    fn tc() -> DatalogProgram {
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

    fn recompute(prog: &DatalogProgram, db: &Database, semantics: Semantics) -> Database {
        eval(
            prog,
            semantics,
            db,
            &Governor::unlimited(),
            &mut EvalStats::default(),
        )
        .unwrap()
    }

    #[test]
    fn counting_join_tracks_inserts_and_retracts() {
        // J(x,z) ← A(x,y), B(y,z): one counting stratum
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("J", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("A", vec![v("x"), v("y")])),
                (true, DlAtom::new("B", vec![v("y"), v("z")])),
            ],
        )]);
        let mut db = Database::empty();
        db.set(
            "A",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(5u64), atom(1u64)]]),
        );
        db.set("B", Instance::from_rows([[atom(1u64), atom(2u64)]]));
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        assert!(matches!(s.plan(), MaintPlan::Incremental(_)));
        // retract A(0,1): J(0,2) loses its only support; J(5,2) survives
        let rep = s
            .apply(
                &DeltaBatch::new()
                    .retract("A", edge(0, 1))
                    .insert("B", edge(1, 7)),
            )
            .unwrap();
        assert!(!rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::StratifiedSeminaive)
        );
        assert!(s.state().get("J").contains(&edge(5, 2)));
        assert!(!s.state().get("J").contains(&edge(0, 2)));
        assert!(s.state().get("J").contains(&edge(5, 7)));
    }

    #[test]
    fn dred_retraction_matches_recompute_and_does_less_work() {
        let prog = tc();
        let db = path_db(32);
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(30, 31)))
            .unwrap();
        assert!(!rep.fallback);
        let fresh = recompute(&prog, s.edb(), Semantics::StratifiedSeminaive);
        assert_eq!(s.state(), &fresh);
        // the single-edge retraction must touch far fewer tuples than a rebuild
        let mut full = EvalStats::default();
        eval(
            &prog,
            Semantics::StratifiedSeminaive,
            s.edb(),
            &gov,
            &mut full,
        )
        .unwrap();
        assert!(
            rep.stats.tuples_derived * 2 < full.tuples_derived,
            "maintain {} vs recompute {}",
            rep.stats.tuples_derived,
            full.tuples_derived
        );
    }

    #[test]
    fn insertion_then_retraction_roundtrips_through_negation() {
        // Bad(x) ← Block(x); Top(x) ← T(x,y), ¬Bad(x)
        let mut rules = tc().rules.clone();
        rules.push(DlRule::new(
            DlAtom::new("Bad", vec![v("x")]),
            vec![(true, DlAtom::new("Block", vec![v("x")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("Top", vec![v("x")]),
            vec![
                (true, DlAtom::new("T", vec![v("x"), v("y")])),
                (false, DlAtom::new("Bad", vec![v("x")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let mut db = path_db(6);
        db.set("Block", Instance::from_rows([[atom(0u64)]]));
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::Stratified,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        // unblocking 0 must bring Top(0) back through the negated literal
        let rep = s
            .apply(&DeltaBatch::new().retract("Block", Value::Tuple(vec![atom(0u64)])))
            .unwrap();
        assert!(!rep.fallback);
        assert_eq!(s.state(), &recompute(&prog, s.edb(), Semantics::Stratified));
        // and blocking 3 plus cutting an edge must remove Top(3)
        s.apply(
            &DeltaBatch::new()
                .insert("Block", Value::Tuple(vec![atom(3u64)]))
                .retract("E", edge(1, 2)),
        )
        .unwrap();
        assert_eq!(s.state(), &recompute(&prog, s.edb(), Semantics::Stratified));
    }

    #[test]
    fn budget_trip_rolls_the_batch_back() {
        let prog = tc();
        let db = path_db(16);
        let gov = Governor::unlimited();
        let s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        let before_state = s.state().clone();
        let before_edb = s.edb().clone();
        // a governor whose step budget cannot cover the maintenance pass
        let tight = Governor::new(Budget::unlimited().with_steps(3));
        let mut tight_session = DatalogSession {
            governor: tight,
            ..// move the rest of the fields over
            match DatalogSession::with_mode(
                prog,
                &db,
                Semantics::StratifiedSeminaive,
                &gov,
                IvmMode::Auto,
            ) {
                Ok(sess) => sess,
                Err(e) => panic!("{e}"),
            }
        };
        let err = tight_session
            .apply(
                &DeltaBatch::new()
                    .retract("E", edge(0, 1))
                    .insert("E", edge(20, 21)),
            )
            .unwrap_err();
        assert!(matches!(err, IvmError::Exhausted { .. }), "{err}");
        assert_eq!(tight_session.state(), &before_state, "state rolled back");
        assert_eq!(tight_session.edb(), &before_edb, "edb rolled back");
        drop(s);
    }

    #[test]
    fn rollback_leaves_no_stale_index_behind() {
        // two paths 0..7 and 8..15; joining them derives 64 new T facts
        let prog = tc();
        let mut db = path_db(16);
        db.remove_row("E", &edge(7, 8));
        let facts = total_facts(&recompute(&prog, &db, Semantics::StratifiedSeminaive));
        let gov = Governor::new(Budget::unlimited().with_facts(facts + 10))
            .with_ckpt_config(uset_guard::CkptConfig::Off)
            .with_par(uset_par::ParConfig::workers(4));
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        let before = s.state().clone();
        // an insert-only batch trips the facts budget in DRed phase 3,
        // after its insertions reached the session's indexes
        let err = s
            .apply(&DeltaBatch::new().insert("E", edge(7, 8)))
            .unwrap_err();
        assert!(
            matches!(&err, IvmError::Exhausted { trip, .. } if trip.resource == uset_guard::Resource::Facts),
            "{err}"
        );
        assert_eq!(s.state(), &before);
        // a retraction then over-deletes and rederives — in parallel,
        // over prebuilt indexes — from the rolled-back state
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(3, 4)))
            .unwrap();
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::StratifiedSeminaive)
        );
        assert_eq!(rep.stats.scan_fallbacks, 0);
        assert!(rep.stats.index_probes > 0);
    }

    #[test]
    fn idb_deltas_are_rejected() {
        let prog = tc();
        let db = path_db(4);
        let mut s = DatalogSession::with_mode(
            prog,
            &db,
            Semantics::StratifiedSeminaive,
            &Governor::unlimited(),
            IvmMode::Auto,
        )
        .unwrap();
        let err = s
            .apply(&DeltaBatch::new().insert("T", edge(0, 3)))
            .unwrap_err();
        assert!(matches!(err, IvmError::NotEdb { pred } if pred == "T"));
    }

    #[test]
    fn inflationary_sessions_fall_back_to_recompute() {
        let prog = tc();
        let db = path_db(5);
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::Inflationary,
            &Governor::unlimited(),
            IvmMode::Auto,
        )
        .unwrap();
        assert!(matches!(s.plan(), MaintPlan::Recompute(_)));
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(2, 3)))
            .unwrap();
        assert!(rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::Inflationary)
        );
    }

    #[test]
    fn forced_recompute_mode_still_agrees() {
        let prog = tc();
        let db = path_db(8);
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &Governor::unlimited(),
            IvmMode::Recompute,
        )
        .unwrap();
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(3, 4)))
            .unwrap();
        assert!(rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::StratifiedSeminaive)
        );
    }
}
