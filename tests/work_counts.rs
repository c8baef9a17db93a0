//! Width-1 work counters of the round-based fixpoint engines, pinned.
//!
//! Phase 1 of every DATALOG¬, COL and BK round runs through one code
//! path at every width; at width 1 that path runs inline. Its work is a
//! property of the rules and the data, not of how the round is driven,
//! so a fixed set of programs must reproduce, run for run, the six
//! `EvalStats` work counters and the per-kind trace event counts (with
//! provenance on) recorded in `data/width1_work.txt`. A mismatch prints
//! the full table as measured.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use untyped_sets::bk::eval::{eval_rounds_with, state_from, BkConfig};
use untyped_sets::bk::{BkObject, BkProgram};
use untyped_sets::deductive::{
    inflationary_governed, stratified_governed, ColConfig, ColLiteral, ColProgram, ColRule,
    ColStrategy, ColTerm, DatalogProgram, DlAtom, DlRule, DlTerm,
};
use untyped_sets::guard::{CkptConfig, Governor, OptConfig, ParConfig};
use untyped_sets::object::{atom, Database, EvalStats, Instance};
use untyped_sets::trace::{TraceEvent, TraceHandle, Tracer};

/// A sink that counts events by kind and asks for provenance, so the
/// per-fact `derivation` events are counted too.
#[derive(Debug, Default)]
struct KindCounter(Mutex<BTreeMap<&'static str, u64>>);

impl Tracer for KindCounter {
    fn emit(&self, event: &TraceEvent) {
        *self.0.lock().unwrap().entry(event.kind()).or_default() += 1;
    }

    fn wants_provenance(&self) -> bool {
        true
    }
}

/// A 12-vertex path with three back edges: cycles, branching, and a
/// closure of every pair.
fn graph() -> Database {
    let mut edges: Vec<(u64, u64)> = (0..11).map(|i| (i, i + 1)).collect();
    edges.extend([(4, 1), (9, 3), (11, 0)]);
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows(edges.into_iter().map(|(x, y)| [atom(x), atom(y)])),
    );
    db
}

fn dv(name: &str) -> DlTerm {
    DlTerm::var(name)
}

fn dl_atom(pred: &str, vars: &[&str]) -> DlAtom {
    DlAtom::new(pred, vars.iter().map(|v| dv(v)).collect())
}

fn dl_linear_tc() -> Vec<DlRule> {
    vec![
        DlRule::new(
            dl_atom("T", &["x", "y"]),
            vec![(true, dl_atom("E", &["x", "y"]))],
        ),
        DlRule::new(
            dl_atom("T", &["x", "z"]),
            vec![
                (true, dl_atom("E", &["x", "y"])),
                (true, dl_atom("T", &["y", "z"])),
            ],
        ),
    ]
}

fn dl_nonlinear_tc() -> Vec<DlRule> {
    vec![
        DlRule::new(
            dl_atom("T", &["x", "y"]),
            vec![(true, dl_atom("E", &["x", "y"]))],
        ),
        DlRule::new(
            dl_atom("T", &["x", "z"]),
            vec![
                (true, dl_atom("T", &["x", "y"])),
                (true, dl_atom("T", &["y", "z"])),
            ],
        ),
    ]
}

/// Linear TC plus the non-edges of the closure, one stratum up.
fn dl_negation() -> Vec<DlRule> {
    let mut rules = dl_linear_tc();
    rules.extend([
        DlRule::new(
            dl_atom("V", &["x"]),
            vec![(true, dl_atom("E", &["x", "y"]))],
        ),
        DlRule::new(
            dl_atom("V", &["y"]),
            vec![(true, dl_atom("E", &["x", "y"]))],
        ),
        DlRule::new(
            dl_atom("U", &["x", "y"]),
            vec![
                (true, dl_atom("V", &["x"])),
                (true, dl_atom("V", &["y"])),
                (false, dl_atom("T", &["x", "y"])),
            ],
        ),
    ]);
    rules
}

/// Negation through recursion: only the inflationary semantics takes it.
fn dl_win() -> Vec<DlRule> {
    vec![DlRule::new(
        dl_atom("W", &["x"]),
        vec![
            (true, dl_atom("E", &["x", "y"])),
            (false, dl_atom("W", &["y"])),
        ],
    )]
}

fn cv(name: &str) -> ColTerm {
    ColTerm::var(name)
}

fn col_tc() -> Vec<ColRule> {
    vec![
        ColRule::pred(
            "T",
            vec![cv("x"), cv("y")],
            vec![ColLiteral::pred("E", vec![cv("x"), cv("y")])],
        ),
        ColRule::pred(
            "T",
            vec![cv("x"), cv("z")],
            vec![
                ColLiteral::pred("E", vec![cv("x"), cv("y")]),
                ColLiteral::pred("T", vec![cv("y"), cv("z")]),
            ],
        ),
    ]
}

/// Reachability sets built in a data function and read back both as a
/// membership (a function delta) and as a term (`P([x, F(x)])`).
fn col_data_function() -> Vec<ColRule> {
    let mut rules = col_tc();
    rules.extend([
        ColRule::func_member(
            "F",
            vec![cv("x")],
            cv("z"),
            vec![
                ColLiteral::pred("E", vec![cv("x"), cv("y")]),
                ColLiteral::pred("T", vec![cv("y"), cv("z")]),
            ],
        ),
        ColRule::func_member(
            "G",
            vec![cv("x")],
            cv("z"),
            vec![
                ColLiteral::pred("E", vec![cv("x"), cv("y")]),
                ColLiteral::member(cv("z"), ColTerm::Apply("F".into(), vec![cv("y")])),
            ],
        ),
        ColRule::pred(
            "P",
            vec![ColTerm::Tuple(vec![
                cv("x"),
                ColTerm::Apply("F".into(), vec![cv("x")]),
            ])],
            vec![ColLiteral::pred("E", vec![cv("x"), cv("y")])],
        ),
    ]);
    rules
}

/// The Example 5.2 join over two tuples per relation.
fn bk_join() -> (BkProgram, untyped_sets::bk::BkState) {
    let pair = |a: &'static str, x: u64, b: &'static str, y: u64| {
        BkObject::tuple([(a, BkObject::atom(x)), (b, BkObject::atom(y))])
    };
    let st = state_from([
        ("R1", vec![pair("A", 1, "B", 2), pair("A", 7, "B", 8)]),
        ("R2", vec![pair("B", 2, "C", 3), pair("B", 4, "C", 5)]),
    ]);
    (BkProgram::join_rule(), st)
}

/// Run `f` at width 1 under a counting tracer; render its result line.
fn measure(name: &str, f: impl FnOnce(&Governor, &mut EvalStats)) -> String {
    let counter = Arc::new(KindCounter::default());
    let gov = Governor::unlimited()
        .with_par(ParConfig::off())
        .with_opt(OptConfig::Off)
        .with_ckpt_config(CkptConfig::Off)
        .with_trace(TraceHandle::new(counter.clone()));
    let mut s = EvalStats::default();
    f(&gov, &mut s);
    let mut line = format!(
        "{name} {} {} {} {} {} {}",
        s.rounds, s.rules_fired, s.tuples_derived, s.index_probes, s.scan_fallbacks, s.peak_facts
    );
    for (kind, n) in counter.0.lock().unwrap().iter() {
        line.push_str(&format!(" {kind}={n}"));
    }
    line
}

fn measured() -> Vec<String> {
    let db = graph();
    let mut out = Vec::new();
    let dl = [
        ("linear_tc", dl_linear_tc()),
        ("nonlinear_tc", dl_nonlinear_tc()),
        ("negation", dl_negation()),
    ];
    for (name, rules) in dl {
        let prog = DatalogProgram::new(rules);
        out.push(measure(&format!("dl.{name}.naive"), |g, s| {
            prog.eval_stratified_governed(&db, g, s).unwrap();
        }));
        out.push(measure(&format!("dl.{name}.seminaive"), |g, s| {
            prog.eval_stratified_seminaive_governed(&db, g, s).unwrap();
        }));
    }
    for (name, rules) in [("negation", dl_negation()), ("win", dl_win())] {
        let prog = DatalogProgram::new(rules);
        out.push(measure(&format!("dl.{name}.inflationary"), |g, s| {
            prog.eval_inflationary_governed(&db, g, s).unwrap();
        }));
    }
    let cfg = ColConfig::default();
    for (name, rules) in [("tc", col_tc()), ("data_function", col_data_function())] {
        let prog = ColProgram::new(rules);
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            out.push(measure(&format!("col.{name}.{strategy:?}"), |g, s| {
                stratified_governed(&prog, &db, &cfg, strategy, g, s).unwrap();
            }));
            out.push(measure(
                &format!("col.{name}.{strategy:?}.inflationary"),
                |g, s| {
                    inflationary_governed(&prog, &db, &cfg, strategy, g, s).unwrap();
                },
            ));
        }
    }
    let (prog, st) = bk_join();
    out.push(measure("bk.example_52_join", |g, s| {
        let (_, _, converged) = eval_rounds_with(&prog, &st, &BkConfig::default(), g, s).unwrap();
        assert!(converged);
    }));
    out
}

#[test]
fn width1_work_matches_the_recorded_counters() {
    let expected: Vec<&str> = include_str!("data/width1_work.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let got = measured();
    assert!(
        got.iter().map(String::as_str).eq(expected.iter().copied()),
        "width-1 work diverged from data/width1_work.txt; measured:\n{}",
        got.join("\n")
    );
}
