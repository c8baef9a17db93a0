//! Maintenance work counters are a property of the binding sets a batch
//! enumerates, not of how the join finds them. Replaying one churn cycle
//! — every edge of a path retracted by one batch and re-inserted by the
//! next — must reproduce, batch for batch, the `tuples_derived`,
//! `rules_fired` and `rounds` in `data/path128_cycle_work.txt`, which
//! were recorded with a nested-loop firing (source literal order, every
//! literal scanned). Probing must be total: every ground column finds an
//! index, sequentially and on the parallel rederive path alike.

use uset_deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use uset_guard::{CkptConfig, Governor, OptConfig, ParConfig};
use uset_ivm::{DatalogSession, DeltaBatch, IvmMode, Semantics};
use uset_object::{atom, Database, EvalStats, Instance, Value};

const PATH: u64 = 128;

/// Linear TC (a DRed stratum), vertices `V` and the non-edges of the
/// closure `U(x,y) ← V(x), V(y), ¬T(x,y)` (counting strata, one with a
/// negated delta position).
fn prog() -> DatalogProgram {
    let v = DlTerm::var;
    let e = |x: &str, y: &str| DlAtom::new("E", vec![v(x), v(y)]);
    DatalogProgram::new(vec![
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("y")]),
            vec![(true, e("x", "y"))],
        ),
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("z")]),
            vec![
                (true, e("x", "y")),
                (true, DlAtom::new("T", vec![v("y"), v("z")])),
            ],
        ),
        DlRule::new(DlAtom::new("V", vec![v("x")]), vec![(true, e("x", "y"))]),
        DlRule::new(DlAtom::new("V", vec![v("y")]), vec![(true, e("x", "y"))]),
        DlRule::new(
            DlAtom::new("U", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("V", vec![v("x")])),
                (true, DlAtom::new("V", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ),
    ])
}

fn edge(i: u64) -> Value {
    Value::Tuple(vec![atom(i), atom(i + 1)])
}

/// `(tuples_derived, rules_fired, rounds)` per batch, in cycle order.
fn recorded() -> Vec<(u64, u64, u64)> {
    include_str!("data/path128_cycle_work.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<u64> = l.split_whitespace().map(|x| x.parse().unwrap()).collect();
            (f[1], f[2], f[3])
        })
        .collect()
}

/// Run the cycle at `width` workers; return each batch's stats.
fn cycle(width: usize) -> Vec<EvalStats> {
    let mut db = Database::empty();
    db.set("E", Instance::from_values((0..PATH - 1).map(edge)));
    let gov = Governor::unlimited()
        .with_opt(OptConfig::Off)
        .with_ckpt_config(CkptConfig::Off)
        .with_par(ParConfig::workers(width));
    let mut s = DatalogSession::with_mode(
        prog(),
        &db,
        Semantics::StratifiedSeminaive,
        &gov,
        IvmMode::Auto,
    )
    .unwrap();
    let mut out = Vec::new();
    for i in 0..PATH - 1 {
        for batch in [
            DeltaBatch::new().retract("E", edge(i)),
            DeltaBatch::new().insert("E", edge(i)),
        ] {
            let rep = s.apply(&batch).unwrap();
            assert!(!rep.fallback);
            out.push(rep.stats);
        }
    }
    assert_eq!(s.edb(), &db, "a full cycle restores the EDB");
    out
}

#[test]
fn churn_cycle_work_matches_the_recorded_counters() {
    let expected = recorded();
    assert_eq!(expected.len() as u64, 2 * (PATH - 1));
    for width in [1, 4] {
        let stats = cycle(width);
        for (k, (s, &(tuples, rules, rounds))) in stats.iter().zip(&expected).enumerate() {
            assert_eq!(
                (s.tuples_derived, s.rules_fired, s.rounds),
                (tuples, rules, rounds),
                "batch {k} at width {width}"
            );
            assert_eq!(s.scan_fallbacks, 0, "batch {k} at width {width}");
            assert!(s.index_probes > 0, "batch {k} at width {width}");
        }
    }
}
