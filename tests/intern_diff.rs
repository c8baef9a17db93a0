//! Differential suite for the hash-consing pool (`uset_object::intern`).
//! Interning is always on, so its id fast paths — the `Instance`
//! membership sidecar, id-keyed `ColumnIndex` buckets, and the engines'
//! settled-duplicate and negated-literal probes — are checked against
//! oracles that never consult the pool:
//!
//! - a `BTreeSet<Value>` model of `Instance` under random operation
//!   sequences, and filtering the rows by key column as the model of
//!   `ColumnIndex`; sizes cross both sidecar thresholds (16 members for
//!   a membership probe, 16 rejected duplicates for the adaptive build);
//! - a set-theoretic evaluation, computed in this file over the edge
//!   list, of a transitive-closure program with a negation stratum,
//!   against DATALOG¬ and COL under both semantics (COL under both
//!   fixpoint strategies), at par widths 1 and 4. The
//!   `*_pooled_matches_plain` properties compare the pooled engines with
//!   this plain reference.

use std::collections::BTreeSet;

use proptest::prelude::*;
use untyped_sets::deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use untyped_sets::deductive::col::eval::{
    inflationary_governed, stratified_governed, ColConfig, ColStrategy,
};
use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::guard::Governor;
use untyped_sets::object::{
    atom, set, tuple, Atom, ColumnIndex, Database, EvalStats, Instance, Pool, Value,
};
use untyped_sets::par::ParConfig;

/// Par widths the acceptance criteria pin: sequential and a real fan-out.
const WIDTHS: [usize; 2] = [1, 4];

/// Distinct objects the model tests draw from: more than twice the
/// sidecar thresholds, so instances grow past them and shrink back.
const UNIVERSE: u64 = 40;

fn a(id: u64) -> Value {
    Value::Atom(Atom::new(id))
}

/// Object `i` of the model universe: atoms, flat and nested tuples, and
/// sets, so membership is asked of every value shape.
fn obj(i: u64) -> Value {
    match i % 4 {
        0 => a(i),
        1 => tuple([a(i), a(i % 5)]),
        2 => set([a(i), tuple([a(i / 2), a(1)])]),
        _ => tuple([a(i % 3), set([a(i)])]),
    }
}

/// Row `i` for the index model: mostly 3-tuples whose first two columns
/// repeat across rows (so buckets hold several rows), plus bare objects
/// and 1-tuples that lack the higher columns.
fn row(i: u64) -> Value {
    match i % 7 {
        0 => a(i),
        1 => tuple([a(i % 5)]),
        _ => tuple([a(i % 5), obj(i % 6), a(i)]),
    }
}

/// Column `col` of a row, read directly off the tree.
fn column(r: &Value, col: usize) -> Option<&Value> {
    r.as_tuple().and_then(|items| items.get(col))
}

/// Check `inst` against its model: same members in the same order, and
/// the same answer to membership for every object of the universe, by
/// value and by pool id.
fn assert_models(inst: &Instance, model: &BTreeSet<Value>, step: usize) {
    assert_eq!(inst.len(), model.len(), "len after step {step}");
    assert!(inst.iter().eq(model.iter()), "members after step {step}");
    for i in 0..UNIVERSE {
        let v = obj(i);
        let want = model.contains(&v);
        assert_eq!(inst.contains(&v), want, "contains({v}) after step {step}");
        match inst.contains_ref(Pool::global().intern(&v)) {
            Some(got) => assert_eq!(got, want, "contains_ref({v}) after step {step}"),
            None => assert!(
                model.len() < 16,
                "a probe against {} members must answer by id",
                model.len()
            ),
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..6, 0u64..6), 0..12)
}

fn graph_db(edges: &[(u64, u64)]) -> Database {
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows(edges.iter().map(|&(x, y)| [a(x), a(y)])),
    );
    db
}

fn governor(workers: usize) -> Governor {
    Governor::unlimited().with_par(ParConfig::workers(workers))
}

/// TC + a negation stratum, so the suite covers the negated-literal
/// `ObjRef` probe path as well as the positive index probes.
fn dl_tc_neg_prog() -> DatalogProgram {
    let v = DlTerm::var;
    DatalogProgram::new(vec![
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("y")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        ),
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("R", vec![v("x"), v("y")])),
                (true, DlAtom::new("T", vec![v("y"), v("z")])),
            ],
        ),
        DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        ),
        DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ),
    ])
}

fn col_tc_neg_prog() -> ColProgram {
    let v = ColTerm::var;
    ColProgram::new(vec![
        ColRule::pred(
            "T",
            vec![v("x"), v("y")],
            vec![ColLiteral::pred("R", vec![v("x"), v("y")])],
        ),
        ColRule::pred(
            "T",
            vec![v("x"), v("z")],
            vec![
                ColLiteral::pred("R", vec![v("x"), v("y")]),
                ColLiteral::pred("T", vec![v("y"), v("z")]),
            ],
        ),
        ColRule::pred(
            "N",
            vec![v("x")],
            vec![ColLiteral::pred("R", vec![v("x"), v("y")])],
        ),
        ColRule::pred(
            "NT",
            vec![v("x"), v("y")],
            vec![
                ColLiteral::pred("N", vec![v("x")]),
                ColLiteral::pred("N", vec![v("y")]),
                ColLiteral::not_pred("T", vec![v("x"), v("y")]),
            ],
        ),
    ])
}

type Pairs = BTreeSet<(u64, u64)>;

/// The extents of `T`, `N` and `NT` as plain sets of atom ids.
#[derive(Debug, Default, PartialEq)]
struct Reference {
    t: Pairs,
    n: BTreeSet<u64>,
    nt: Pairs,
}

/// `R ∘ T`: pairs `(x, z)` with `R(x, y)` and `T(y, z)`.
fn compose(edges: &[(u64, u64)], t: &Pairs) -> Pairs {
    edges
        .iter()
        .flat_map(|&(x, y)| t.range((y, 0)..=(y, u64::MAX)).map(move |&(_, z)| (x, z)))
        .collect()
}

/// `N × N` minus `T`.
fn unconnected(n: &BTreeSet<u64>, t: &Pairs) -> Pairs {
    n.iter()
        .flat_map(|&x| n.iter().map(move |&y| (x, y)))
        .filter(|p| !t.contains(p))
        .collect()
}

/// Stratified semantics: `T` is the transitive closure of `R`, `N` its
/// domain, and `NT` the pairs of `N` that `T` does not connect.
fn stratified_reference(edges: &[(u64, u64)]) -> Reference {
    let mut t: Pairs = edges.iter().copied().collect();
    loop {
        let before = t.len();
        let step = compose(edges, &t);
        t.extend(step);
        if t.len() == before {
            break;
        }
    }
    let n: BTreeSet<u64> = edges.iter().map(|&(x, _)| x).collect();
    let nt = unconnected(&n, &t);
    Reference { t, n, nt }
}

/// Inflationary semantics: every round fires all four rules once against
/// the state the round began with (negation included) and adds what
/// they derive, until a round adds nothing.
fn inflationary_reference(edges: &[(u64, u64)]) -> Reference {
    let mut cur = Reference::default();
    loop {
        let mut next = Reference {
            t: cur.t.clone(),
            n: cur.n.clone(),
            nt: cur.nt.clone(),
        };
        next.t.extend(edges.iter().copied());
        next.t.extend(compose(edges, &cur.t));
        next.n.extend(edges.iter().map(|&(x, _)| x));
        next.nt.extend(unconnected(&cur.n, &cur.t));
        if next == cur {
            return cur;
        }
        cur = next;
    }
}

fn pair_rows(p: &Pairs) -> Instance {
    Instance::from_rows(p.iter().map(|&(x, y)| [a(x), a(y)]))
}

/// The reference as DATALOG¬ relations (unary `N` holds 1-tuples).
fn dl_expected(r: &Reference) -> [Instance; 3] {
    [
        pair_rows(&r.t),
        Instance::from_rows(r.n.iter().map(|&x| [a(x)])),
        pair_rows(&r.nt),
    ]
}

/// The reference as COL predicates (unary `N` holds bare objects).
fn col_expected(r: &Reference) -> [Instance; 3] {
    [
        pair_rows(&r.t),
        Instance::from_values(r.n.iter().map(|&x| a(x))),
        pair_rows(&r.nt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Instance` against a `BTreeSet<Value>` model: every mutation
    /// reports what the model reports, and after every step the members
    /// and every membership answer (by value and by pool id) agree.
    /// Clones and set operations carry or combine sidecars; the op mix
    /// grows instances past 16 members and rejects runs of duplicates.
    #[test]
    fn instance_matches_btreeset_model(
        ops in prop::collection::vec((0u8..14, 0u64..UNIVERSE), 0..300),
    ) {
        let mut inst = Instance::empty();
        let mut model = BTreeSet::new();
        let mut other = Instance::empty();
        let mut other_model = BTreeSet::new();
        for (step, (op, x)) in ops.into_iter().enumerate() {
            let v = obj(x);
            match op {
                0..=2 => assert_eq!(inst.insert(v.clone()), model.insert(v), "insert"),
                3 | 4 => assert_eq!(inst.insert_ref(&v), model.insert(v), "insert_ref"),
                5 | 6 => assert_eq!(inst.remove(&v), model.remove(&v), "remove"),
                7 => assert_eq!(inst.contains(&v), model.contains(&v), "contains"),
                8 => {
                    other = inst.clone();
                    other_model = model.clone();
                }
                9 => {
                    other.insert(v.clone());
                    other_model.insert(v);
                }
                10 => {
                    inst = inst.union(&other);
                    model = model.union(&other_model).cloned().collect();
                }
                11 => {
                    inst = inst.difference(&other);
                    model = model.difference(&other_model).cloned().collect();
                }
                12 => {
                    inst = inst.intersection(&other);
                    model = model.intersection(&other_model).cloned().collect();
                }
                _ => {
                    inst.absorb(other.clone());
                    model.extend(other_model.iter().cloned());
                }
            }
            assert_models(&inst, &model, step);
            assert_models(&other, &other_model, step);
        }
    }

    /// `ColumnIndex` against filtering the rows by key column: after
    /// every insert, removal or rebuild, each key's probe returns exactly
    /// the rows holding that key, and the counts agree.
    #[test]
    fn column_index_matches_row_filter(
        col in 0usize..3,
        ops in prop::collection::vec((0u8..6, 0u64..UNIVERSE), 0..300),
    ) {
        let mut rows = BTreeSet::new();
        let mut idx = ColumnIndex::build_on(&Instance::empty(), col);
        let keys: BTreeSet<Value> = (0..UNIVERSE + 1)
            .filter_map(|i| column(&row(i), col).cloned())
            .collect();
        for (step, (op, x)) in ops.into_iter().enumerate() {
            let r = row(x);
            match op {
                0..=2 => {
                    if rows.insert(r.clone()) {
                        idx.insert(&r);
                    }
                }
                3 | 4 => {
                    if rows.remove(&r) {
                        idx.remove(&r);
                    }
                }
                _ => {
                    let inst = Instance::from_values(rows.iter().cloned());
                    idx = ColumnIndex::build_on(&inst, col);
                }
            }
            for key in &keys {
                let mut got: Vec<&Value> = idx.probe(key).iter().collect();
                got.sort();
                let want: Vec<&Value> =
                    rows.iter().filter(|r| column(r, col) == Some(key)).collect();
                assert_eq!(got, want, "probe({key}) on column {col} after step {step}");
            }
            let keyed: Vec<&Value> = rows.iter().filter_map(|r| column(r, col)).collect();
            assert_eq!(idx.len(), keyed.len(), "len after step {step}");
            let distinct: BTreeSet<&Value> = keyed.into_iter().collect();
            assert_eq!(idx.distinct_keys(), distinct.len(), "keys after step {step}");
        }
    }

    /// DATALOG¬ (stratified semi-naive and inflationary) against the
    /// set-theoretic reference on random graphs, at widths 1 and 4.
    #[test]
    fn datalog_pooled_matches_plain(edges in arb_graph()) {
        let prog = dl_tc_neg_prog();
        let db = graph_db(&edges);
        let strat_want = dl_expected(&stratified_reference(&edges));
        let infl_want = dl_expected(&inflationary_reference(&edges));
        for workers in WIDTHS {
            let gov = governor(workers);
            let strat = prog
                .eval_stratified_seminaive_governed(&db, &gov, &mut EvalStats::default())
                .unwrap();
            let infl = prog
                .eval_inflationary_governed(&db, &gov, &mut EvalStats::default())
                .unwrap();
            for (i, rel) in ["T", "N", "NT"].into_iter().enumerate() {
                assert_eq!(strat.get(rel), strat_want[i], "stratified {rel}, width {workers}");
                assert_eq!(infl.get(rel), infl_want[i], "inflationary {rel}, width {workers}");
            }
        }
    }

    /// COL against the set-theoretic reference under both fixpoint
    /// strategies and both semantics, at widths 1 and 4.
    #[test]
    fn col_pooled_matches_plain(edges in arb_graph()) {
        let prog = col_tc_neg_prog();
        let db = graph_db(&edges);
        let cfg = ColConfig::default();
        let strat_want = col_expected(&stratified_reference(&edges));
        let infl_want = col_expected(&inflationary_reference(&edges));
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            for workers in WIDTHS {
                let gov = governor(workers);
                let mut stats = EvalStats::default();
                let strat =
                    stratified_governed(&prog, &db, &cfg, strategy, &gov, &mut stats).unwrap();
                let infl =
                    inflationary_governed(&prog, &db, &cfg, strategy, &gov, &mut stats).unwrap();
                for (i, pred) in ["T", "N", "NT"].into_iter().enumerate() {
                    let at = format!("{pred}, {strategy:?}, width {workers}");
                    assert_eq!(strat.pred(pred), strat_want[i], "stratified {at}");
                    assert_eq!(infl.pred(pred), infl_want[i], "inflationary {at}");
                }
            }
        }
    }
}

/// The run attributes its advisory pool counters without perturbing the
/// six governed work counters: `EvalStats` equality ignores the advisory
/// fields, so the run's stats equal a copy with those fields cleared,
/// and a second run — which finds its objects already pooled — reports
/// equal work counters too.
#[test]
fn advisory_intern_counters_do_not_affect_equality() {
    let prog = dl_tc_neg_prog();
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0..8).map(|i| [atom(i), atom(i + 1)])),
    );
    let run = || {
        let mut stats = EvalStats::default();
        let out = prog
            .eval_stratified_seminaive_governed(&db, &governor(1), &mut stats)
            .unwrap();
        (out, stats)
    };
    let (first, stats) = run();
    assert!(
        stats.objects_interned + stats.intern_hits > 0,
        "the run must attribute pool activity"
    );
    let work_only = EvalStats {
        objects_interned: 0,
        intern_hits: 0,
        bytes_shared_estimate: 0,
        ..stats
    };
    assert_eq!(stats, work_only, "advisory fields are outside equality");
    let (second, again) = run();
    assert_eq!(first, second);
    assert_eq!(
        stats, again,
        "work counters do not depend on the pool's contents"
    );
}
