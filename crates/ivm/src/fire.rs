//! Delta-rule firing for counting and DRed, on the deductive engine's
//! join step.
//!
//! Incremental maintenance never re-fires a rule over whole relations.
//! It fires *delta rules*: one body position is restricted to the rows
//! that changed, positions to its left read the **new** value of their
//! relation and positions to its right read the **old** value. Summing
//! over every changed position telescopes exactly to the difference
//! between the rule's new and old output — the classical identity
//!
//! ```text
//! Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ  New(R₁..Rᵢ₋₁) ⋈ ΔRᵢ ⋈ Old(Rᵢ₊₁..Rₙ)
//! ```
//!
//! which holds with *signed* deltas (insertions count +1, deletions −1)
//! and therefore with multiplicities, the property counting maintenance
//! depends on. DRed reuses the same firing with both sides pinned to a
//! single view (all-old for over-deletion, all-new for re-insertion).
//!
//! The join is the deductive engine's ([`probe_plan`] and
//! [`extend_bindings`]) in another literal order: the **delta position
//! first** — its changed rows generate the bindings, even at a negated
//! position — then the other literals in source order, each probing the
//! session's column index on a bound argument. Views stay assigned by
//! *source* position, so the identity is untouched. A rule that is not
//! left-to-right moded (some negated literal reads a variable no
//! positive literal to its left binds) is fired in source order instead,
//! so it raises `UnboundAtFiring` exactly where the from-scratch engine
//! would. `Old` views are never copied: they are the current relation
//! and its index, patched by the batch's [`DeltaLog`] (`added` rows
//! hidden, `removed` rows added back: `old = new − added + removed`).

use std::collections::{BTreeSet, HashMap};
use uset_deductive::datalog::{
    extend_bindings, instantiate, probe_plan, DlBindings, IndexAccess, LitRows,
};
use uset_deductive::{DlError, DlLiteral, DlRule, DlTerm};
use uset_object::{Database, EvalStats, IndexSet, Instance, Value};

use crate::delta::DeltaLog;

/// Which value of a relation a body position reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum View {
    /// The current (post-change) state.
    New,
    /// The pre-batch state, reconstructed from the delta log.
    Old,
}

/// What a firing reads: the current state, the batch's ledger of
/// changes (which turns the state into `Old` views), and the session's
/// column indexes over the state.
pub(crate) struct Reads<'a> {
    pub state: &'a Database,
    pub log: &'a DeltaLog,
    pub indexes: IndexAccess<'a>,
}

/// Fire one delta rule: body position `pos` is restricted to
/// `delta_rows`, positions before it read the `left` view, positions
/// after it the `right` view. For a *negated* literal at `pos` the
/// caller passes the rows whose membership flip makes the literal's
/// truth flip (the complement's delta); the join keeps a binding when
/// its instantiated atom is one of them.
pub(crate) fn delta_bindings(
    rule: &DlRule,
    pos: usize,
    delta_rows: &BTreeSet<Value>,
    left: View,
    right: View,
    reads: &mut Reads<'_>,
    stats: &mut EvalStats,
) -> Result<Vec<DlBindings>, DlError> {
    let first = left_to_right_moded(rule);
    let mut order: Vec<usize> = (0..rule.body.len()).collect();
    let mut bound = BTreeSet::new();
    if first {
        // the delta literal binds its variables whatever its polarity
        order.remove(pos);
        order.insert(0, pos);
        bound.extend(vars(&rule.body[pos].atom.args));
    }
    let plan = probe_plan(rule, order.iter().copied(), &bound);
    let delta = Delta {
        pos,
        rows: delta_rows,
        first,
    };
    let view = |i: usize| if i < pos { left } else { right };
    join(
        rule,
        &order,
        &plan,
        HashMap::new(),
        Some(delta),
        view,
        reads,
        stats,
    )
}

/// Evaluate a full rule body from a seed binding, every position at
/// `view`. Rederivation asks "does any derivation survive?" by seeding
/// with the head binding of a deleted fact and checking non-emptiness;
/// the seeded variables let the first literal probe instead of scan.
pub(crate) fn body_bindings(
    rule: &DlRule,
    seed: DlBindings,
    view: View,
    reads: &mut Reads<'_>,
    stats: &mut EvalStats,
) -> Result<Vec<DlBindings>, DlError> {
    let order: Vec<usize> = (0..rule.body.len()).collect();
    let bound = seed.keys().map(String::as_str).collect();
    let plan = probe_plan(rule, order.iter().copied(), &bound);
    join(rule, &order, &plan, seed, None, |_| view, reads, stats)
}

/// Build every index a rederivation pass over `rules` probes — the
/// plans of [`body_bindings`] seeded with each head's variables — so
/// the pass can share the cache read-only ([`IndexAccess::Prebuilt`])
/// across workers.
pub(crate) fn prebuild_rederive<'r>(
    rules: impl Iterator<Item = &'r DlRule>,
    state: &Database,
    indexes: &mut IndexSet,
) {
    for rule in rules {
        let plan = probe_plan(rule, 0..rule.body.len(), &vars(&rule.head.args).collect());
        for (lit, col) in rule.body.iter().zip(plan) {
            if let (true, Some(col)) = (lit.positive, col) {
                let pred = &lit.atom.pred;
                indexes.of_col(pred, col, state.get_ref(pred).unwrap_or(&Instance::empty()));
            }
        }
    }
}

/// Ground a rule's head under a final binding.
pub(crate) fn head_row(rule: &DlRule, b: &DlBindings) -> Result<Value, DlError> {
    let vals: Vec<Value> = rule
        .head
        .args
        .iter()
        .map(|t| instantiate(t, b, &rule.head.pred))
        .collect::<Result<_, _>>()?;
    Ok(Value::Tuple(vals))
}

/// A firing's delta position and its rows. `first` is set when the
/// position is evaluated first, where it binds its variables from the
/// rows even if the literal is negated.
struct Delta<'a> {
    pos: usize,
    rows: &'a BTreeSet<Value>,
    first: bool,
}

fn vars(args: &[DlTerm]) -> impl Iterator<Item = &str> {
    args.iter().filter_map(|t| match t {
        DlTerm::Var(v) => Some(v.as_str()),
        DlTerm::Const(_) => None,
    })
}

/// Is every negated literal's variable bound by a positive literal to
/// its left? Only then may the delta literal move ahead of the others
/// without changing which firings raise an unbound-variable error.
fn left_to_right_moded(rule: &DlRule) -> bool {
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    rule.body.iter().all(|lit| {
        if lit.positive {
            bound.extend(vars(&lit.atom.args));
            true
        } else {
            vars(&lit.atom.args).all(|v| bound.contains(v))
        }
    })
}

/// Join a rule body in `order` from `seed`. The delta position, if any,
/// is matched against its rows; every other literal reads its relation
/// under `view(position)` through the deductive engine's join step.
#[allow(clippy::too_many_arguments)]
fn join(
    rule: &DlRule,
    order: &[usize],
    plan: &[Option<usize>],
    seed: DlBindings,
    delta: Option<Delta<'_>>,
    view: impl Fn(usize) -> View,
    reads: &mut Reads<'_>,
    stats: &mut EvalStats,
) -> Result<Vec<DlBindings>, DlError> {
    let empty = Instance::empty();
    let mut bindings = vec![seed];
    for &i in order {
        if bindings.is_empty() {
            break;
        }
        let lit = &rule.body[i];
        let pred = &lit.atom.pred;
        bindings = match &delta {
            Some(d) if d.pos == i => {
                // a negated delta literal keeps the bindings whose atom is
                // a delta row: a positive match against the rows. Out of
                // first place it must also be as ground as the
                // from-scratch engine requires of a negated literal.
                if !lit.positive && !d.first {
                    for t in &lit.atom.args {
                        instantiate(t, &bindings[0], pred)?;
                    }
                }
                let matcher = DlLiteral {
                    positive: true,
                    atom: lit.atom.clone(),
                };
                let rows = LitRows {
                    extra: Some(d.rows),
                    ..LitRows::of(&empty, None)
                };
                extend_bindings(&matcher, None, &bindings, rows, stats)?
            }
            _ => {
                let rel = reads.state.get_ref(pred).unwrap_or(&empty);
                let probe = plan[i].filter(|_| lit.positive);
                let index = match probe {
                    Some(col) => reads.indexes.index(pred, col, rel),
                    None => None,
                };
                let mut rows = LitRows::of(rel, index);
                if let (View::Old, Some(d)) = (view(i), reads.log.delta(pred)) {
                    rows.hide = Some(&d.added);
                    rows.extra = Some(&d.removed);
                }
                extend_bindings(lit, probe, &bindings, rows, stats)?
            }
        };
    }
    stats.rules_fired += 1;
    stats.tuples_derived += bindings.len() as u64;
    Ok(bindings)
}

/// A nested-loop reference firing — source literal order, every
/// literal a scan, `Old` views materialized as relation copies — that
/// the equivalence tests compare the indexed firing against.
#[cfg(test)]
mod oracle {
    use super::View;
    use crate::delta::DeltaLog;
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    use uset_deductive::datalog::{instantiate, match_row_cached, DlBindings, RowCache};
    use uset_deductive::{DlError, DlRule};
    use uset_object::{Database, EvalStats, Instance, Value};

    fn view_instance<'a>(
        pred: &str,
        view: View,
        state: &'a Database,
        log: &DeltaLog,
        cache: &'a mut BTreeMap<String, Instance>,
    ) -> Option<&'a Instance> {
        match view {
            View::New => state.get_ref(pred),
            View::Old => {
                if !cache.contains_key(pred) {
                    let mut inst = state.get(pred);
                    if let Some(d) = log.rels.get(pred) {
                        for row in &d.added {
                            inst.remove(row);
                        }
                        for row in &d.removed {
                            inst.insert(row.clone());
                        }
                    }
                    cache.insert(pred.to_owned(), inst);
                }
                cache.get(pred)
            }
        }
    }

    /// `delta`: the restricted position and its rows; `view` of every
    /// other position.
    pub(super) fn fire(
        rule: &DlRule,
        seed: &DlBindings,
        delta: Option<(usize, &BTreeSet<Value>)>,
        view: impl Fn(usize) -> View,
        state: &Database,
        log: &DeltaLog,
        stats: &mut EvalStats,
    ) -> Result<Vec<DlBindings>, DlError> {
        let mut cache = BTreeMap::new();
        let mut bindings: Vec<DlBindings> = vec![seed.clone()];
        for (i, lit) in rule.body.iter().enumerate() {
            if bindings.is_empty() {
                break;
            }
            let mut out = Vec::new();
            let restricted = delta.filter(|(pos, _)| *pos == i).map(|(_, rows)| rows);
            if lit.positive {
                let rows: Vec<&Value> = match restricted {
                    Some(rows) => rows.iter().collect(),
                    None => view_instance(&lit.atom.pred, view(i), state, log, &mut cache)
                        .map(|inst| inst.iter().collect())
                        .unwrap_or_default(),
                };
                let mut rc_cache = RowCache::new();
                for b in &bindings {
                    for row in &rows {
                        match_row_cached(&lit.atom.args, row, b, &mut out, &mut rc_cache);
                    }
                }
            } else {
                for b in &bindings {
                    let vals: Vec<Value> = lit
                        .atom
                        .args
                        .iter()
                        .map(|t| instantiate(t, b, &lit.atom.pred))
                        .collect::<Result<_, _>>()?;
                    let tup = Value::Tuple(vals);
                    let keep = match restricted {
                        Some(rows) => rows.contains(&tup),
                        None => !view_instance(&lit.atom.pred, view(i), state, log, &mut cache)
                            .is_some_and(|inst| inst.contains(&tup)),
                    };
                    if keep {
                        out.push(b.clone());
                    }
                }
            }
            bindings = out;
        }
        stats.rules_fired += 1;
        stats.tuples_derived += bindings.len() as u64;
        Ok(bindings)
    }

    pub(super) fn empty_seed() -> DlBindings {
        HashMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uset_deductive::DlAtom;
    use uset_object::atom;

    fn edge(a: u64, b: u64) -> Value {
        Value::Tuple(vec![atom(a), atom(b)])
    }

    // T(x,z) ← E(x,y), T(y,z)
    fn tc_rec_rule() -> DlRule {
        let v = DlTerm::var;
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (true, DlAtom::new("T", vec![v("y"), v("z")])),
            ],
        )
    }

    /// A binding set as a comparable value: each binding's sorted
    /// variable → value pairs, the bindings sorted.
    fn canon(bs: &[DlBindings]) -> Vec<Vec<(String, Value)>> {
        let mut out: Vec<Vec<(String, Value)>> = bs
            .iter()
            .map(|b| {
                let mut kv: Vec<(String, Value)> = b
                    .iter()
                    .map(|(k, v)| (k.clone(), v.value().clone()))
                    .collect();
                kv.sort();
                kv
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn old_view_reconstructs_the_pre_batch_relation() {
        // E now = {(0,1),(1,2)}; the batch added (0,1) and removed (5,6)
        let mut state = Database::empty();
        state.set(
            "E",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(1u64), atom(2u64)]]),
        );
        let mut log = DeltaLog::default();
        log.note_add("E", edge(0, 1));
        log.note_remove("E", edge(5, 6));
        let v = DlTerm::var;
        let rule = DlRule::new(
            DlAtom::new("H", vec![v("x"), v("y")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        );
        let mut indexes = IndexSet::new();
        let mut reads = Reads {
            state: &state,
            log: &log,
            indexes: IndexAccess::Build(&mut indexes),
        };
        let mut stats = EvalStats::default();
        let old = body_bindings(&rule, HashMap::new(), View::Old, &mut reads, &mut stats).unwrap();
        let rows: BTreeSet<Value> = old.iter().map(|b| head_row(&rule, b).unwrap()).collect();
        assert_eq!(
            rows,
            [edge(1, 2), edge(5, 6)].into(),
            "added hidden, removed back"
        );
        // a seeded firing probes the index, and the probe is patched too
        let seed = uset_deductive::datalog::head_binding(&rule.head, &edge(5, 6)).unwrap();
        let hit = body_bindings(&rule, seed, View::Old, &mut reads, &mut stats).unwrap();
        assert_eq!(hit.len(), 1);
        let seed = uset_deductive::datalog::head_binding(&rule.head, &edge(0, 1)).unwrap();
        let miss = body_bindings(&rule, seed, View::Old, &mut reads, &mut stats).unwrap();
        assert!(miss.is_empty());
        assert_eq!((stats.index_probes, stats.scan_fallbacks), (2, 0));
    }

    #[test]
    fn delta_firing_joins_only_through_the_changed_rows() {
        // E = {(0,1),(1,2)}, T = {(0,1),(1,2),(0,2)}; delta: E gained (2,3).
        let mut state = Database::empty();
        state.set(
            "E",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(1u64), atom(2u64)]]),
        );
        state.set(
            "T",
            Instance::from_rows([
                [atom(0u64), atom(1u64)],
                [atom(1u64), atom(2u64)],
                [atom(0u64), atom(2u64)],
            ]),
        );
        let log = DeltaLog::default();
        let mut indexes = IndexSet::new();
        let mut reads = Reads {
            state: &state,
            log: &log,
            indexes: IndexAccess::Build(&mut indexes),
        };
        let mut stats = EvalStats::default();
        let delta: BTreeSet<Value> = [edge(1, 2)].into();
        // restrict position 1 (the T literal) to the single delta row
        let bs = delta_bindings(
            &tc_rec_rule(),
            1,
            &delta,
            View::New,
            View::Old,
            &mut reads,
            &mut stats,
        )
        .unwrap();
        // E(x,1) has the single row (0,1) → one binding {x:0, y:1, z:2}
        assert_eq!(bs.len(), 1);
        assert_eq!(head_row(&tc_rec_rule(), &bs[0]).unwrap(), edge(0, 2));
        assert_eq!(stats.tuples_derived, 1);
        // the delta row came first, so E was probed on its bound y column
        assert_eq!((stats.index_probes, stats.scan_fallbacks), (1, 0));
    }

    #[test]
    fn unmoded_rule_raises_the_unbound_error_in_source_order() {
        // H(x) ← ¬N(x), P(x): ¬N(x) reads x before anything binds it
        let v = DlTerm::var;
        let rule = DlRule::new(
            DlAtom::new("H", vec![v("x")]),
            vec![
                (false, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("P", vec![v("x")])),
            ],
        );
        assert!(!left_to_right_moded(&rule));
        let mut state = Database::empty();
        state.set("P", Instance::from_values([Value::Tuple(vec![atom(1u64)])]));
        let log = DeltaLog::default();
        let delta: BTreeSet<Value> = [Value::Tuple(vec![atom(1u64)])].into();
        for pos in 0..2 {
            let mut indexes = IndexSet::new();
            let mut reads = Reads {
                state: &state,
                log: &log,
                indexes: IndexAccess::Build(&mut indexes),
            };
            let new = delta_bindings(
                &rule,
                pos,
                &delta,
                View::New,
                View::Old,
                &mut reads,
                &mut EvalStats::default(),
            );
            let old = oracle::fire(
                &rule,
                &oracle::empty_seed(),
                Some((pos, &delta)),
                |i| if i < pos { View::New } else { View::Old },
                &state,
                &log,
                &mut EvalStats::default(),
            );
            assert!(matches!(old, Err(DlError::UnboundAtFiring { .. })));
            assert_eq!(new.map(|b| canon(&b)), old.map(|b| canon(&b)));
        }
    }

    // ----------------------------------------------- equivalence proptest

    const PREDS: [&str; 3] = ["A", "B", "C"];
    const VARS: [&str; 3] = ["x", "y", "z"];

    /// A variable (three times in four) or a constant.
    fn arb_term() -> impl Strategy<Value = DlTerm> {
        (0u8..4, 0u64..3).prop_map(|(kind, i)| {
            if kind < 3 {
                DlTerm::var(VARS[i as usize])
            } else {
                DlTerm::Const(atom(i))
            }
        })
    }

    /// Predicate `A` is unary, `B` and `C` binary.
    fn arity(pred: usize) -> usize {
        if pred == 0 {
            1
        } else {
            2
        }
    }

    /// Random 1–3-literal rules over `A`, `B`, `C`, with constants,
    /// repeated variables and negated literals (three in ten). The head
    /// carries every variable; bindings, not heads, are compared.
    fn arb_rule() -> impl Strategy<Value = DlRule> {
        let lit = (0u8..10, 0usize..3, prop::collection::vec(arb_term(), 2));
        prop::collection::vec(lit, 1..4).prop_map(|lits| {
            DlRule::new(
                DlAtom::new("H", VARS.iter().map(|v| DlTerm::var(v)).collect()),
                lits.into_iter()
                    .map(|(sign, p, mut args)| {
                        args.truncate(arity(p));
                        (sign < 7, DlAtom::new(PREDS[p], args))
                    })
                    .collect(),
            )
        })
    }

    /// Up to five binary rows over three atoms; `width` 1 keeps the
    /// first column.
    fn arb_rows() -> impl Strategy<Value = Vec<(u64, u64)>> {
        prop::collection::vec((0u64..3, 0u64..3), 0..6)
    }

    fn rows_of(raw: &[(u64, u64)], width: usize) -> BTreeSet<Value> {
        raw.iter()
            .map(|&(a, b)| Value::Tuple([atom(a), atom(b)][..width].to_vec()))
            .collect()
    }

    /// A state, and a log of the changes that produced it from the
    /// pre-batch state: `added` rows are in the state, `removed` rows
    /// are not, so `Old` views exercise `new − added + removed`.
    fn arb_state_and_log() -> impl Strategy<Value = (Database, DeltaLog)> {
        let per_pred = || (arb_rows(), arb_rows(), arb_rows());
        (per_pred(), per_pred(), per_pred()).prop_map(|(a, b, c)| {
            let mut state = Database::empty();
            let mut log = DeltaLog::default();
            for (p, (now, added, removed)) in [a, b, c].into_iter().enumerate() {
                let w = arity(p);
                let (added, removed) = (rows_of(&added, w), rows_of(&removed, w));
                let mut rows = rows_of(&now, w);
                rows.extend(added.iter().cloned());
                rows.retain(|r| !removed.contains(r) || added.contains(r));
                for r in &added {
                    log.note_add(PREDS[p], r.clone());
                }
                for r in removed.iter().filter(|r| !added.contains(*r)) {
                    log.note_remove(PREDS[p], r.clone());
                }
                if !rows.is_empty() {
                    state.set(PREDS[p], Instance::from_values(rows));
                }
            }
            (state, log)
        })
    }

    fn arb_view() -> impl Strategy<Value = View> {
        (0u8..2).prop_map(|old| if old == 1 { View::Old } else { View::New })
    }

    type Outcome = Result<(Vec<Vec<(String, Value)>>, u64, u64), DlError>;

    fn outcome(res: Result<Vec<DlBindings>, DlError>, stats: &EvalStats) -> Outcome {
        res.map(|bs| (canon(&bs), stats.tuples_derived, stats.rules_fired))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Delta-first, index-probed firing with patched `Old` views
        /// enumerates exactly the oracle's bindings, with the oracle's
        /// `tuples_derived` and `rules_fired` — or raises the same error.
        #[test]
        fn delta_firing_matches_the_nested_loop_oracle(
            rule in arb_rule(),
            (state, log) in arb_state_and_log(),
            pos_pick in 0usize..3,
            delta_rows in arb_rows(),
            left in arb_view(),
            right in arb_view(),
        ) {
            let pos = pos_pick % rule.body.len();
            let delta_rows = rows_of(&delta_rows, rule.body[pos].atom.args.len());
            let mut indexes = IndexSet::new();
            let mut reads = Reads {
                state: &state,
                log: &log,
                indexes: IndexAccess::Build(&mut indexes),
            };
            let mut new_stats = EvalStats::default();
            let new = delta_bindings(&rule, pos, &delta_rows, left, right, &mut reads, &mut new_stats);
            let mut old_stats = EvalStats::default();
            let view = |i: usize| if i < pos { left } else { right };
            let old = oracle::fire(
                &rule,
                &oracle::empty_seed(),
                Some((pos, &delta_rows)),
                view,
                &state,
                &log,
                &mut old_stats,
            );
            prop_assert_eq!(outcome(new, &new_stats), outcome(old, &old_stats));
            prop_assert_eq!(new_stats.scan_fallbacks, 0);
        }

        /// Seeded body evaluation (rederivation, count seeding) agrees
        /// with the oracle under either view, from a head binding.
        #[test]
        fn seeded_firing_matches_the_nested_loop_oracle(
            rule in arb_rule(),
            (state, log) in arb_state_and_log(),
            head in prop::collection::vec(0u64..3, 3),
            view in arb_view(),
        ) {
            let Some(seed) = uset_deductive::datalog::head_binding(&rule.head, &Value::Tuple(head.into_iter().map(atom).collect()))
            else {
                return Ok(());
            };
            let mut indexes = IndexSet::new();
            prebuild_rederive(std::iter::once(&rule), &state, &mut indexes);
            let mut reads = Reads {
                state: &state,
                log: &log,
                indexes: IndexAccess::Prebuilt(&indexes),
            };
            let mut new_stats = EvalStats::default();
            let new = body_bindings(&rule, seed.clone(), view, &mut reads, &mut new_stats);
            let mut old_stats = EvalStats::default();
            let old = oracle::fire(&rule, &seed, None, |_| view, &state, &log, &mut old_stats);
            prop_assert_eq!(outcome(new, &new_stats), outcome(old, &old_stats));
            prop_assert_eq!(new_stats.scan_fallbacks, 0);
        }
    }
}
