//! `ablation/intern_speedup` — the hash-consing pool knob (DESIGN.md §15).
//!
//! Two workloads where structural sharing changes the constant factor
//! without changing one observable byte (the `intern_diff` suite pins
//! that contract; here only wall-clock and pool counters may move):
//!
//! * `calc_nested_forall` — a powerset-heavy calculus query: the bound
//!   variable ranges over `{{U}}` while an inner `∀x : {{{U}}}` re-visits
//!   a 65 536-member domain per candidate. The calculus evaluates on ids
//!   in a pool of its own whatever the knob says, so both sides run the
//!   same code: expected ≈1× (the row stays as a control).
//! * `datalog_tc_path64_chain` — non-linear transitive closure on a
//!   64-node path whose vertices are depth-i singleton chains (the
//!   untyped-set integer encoding). The saturating fixpoint re-derives
//!   settled facts by the tens of thousands; the pooled engine skips
//!   each after an id probe while the plain engine pays materialize +
//!   deep-compare dedup. Expected ≥1.3×.
//!
//! The vendored criterion stand-in cannot interleave parameterized
//! runs or export machine-readable reports, and this ablation flips a
//! process-global knob between sides — so the harness below self-times
//! with `Instant` (alternating pooled/plain samples to cancel machine
//! drift, median of samples) and writes `BENCH_10.json` at the repo
//! root. One invocation produces both the human table and the JSON:
//!
//! ```text
//! cargo bench -p uset-bench --bench intern
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use uset_calculus::ast::{CalcQuery, CalcTerm, Formula};
use uset_calculus::eval::{enumerate_rtype, eval_query, CalcConfig};
use uset_deductive::datalog::{DatalogProgram, DlAtom, DlRule, DlTerm};
use uset_object::cons::singleton_chain;
use uset_object::rtype::RType;
use uset_object::{atom, intern, Atom, Database, Instance, Pool};

/// One interleaved pooled/plain measurement: medians over `samples`
/// alternating pairs (after one warmup run per mode), plus the pool
/// counter delta across the pooled samples.
struct Measurement {
    pooled_ms: f64,
    plain_ms: f64,
    intern_hits: u64,
    objects_interned: u64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.plain_ms / self.pooled_ms
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    xs[xs.len() / 2]
}

fn measure(label: &str, samples: usize, mut f: impl FnMut() -> usize) -> Measurement {
    // warmup: populate the pool/memo once and fault in both code paths,
    // so no sample pays one-time costs
    for on in [true, false] {
        intern::set_enabled(on);
        black_box(f());
    }
    let (mut pooled, mut plain) = (Vec::new(), Vec::new());
    let mut hits = 0u64;
    let mut interned = 0u64;
    for _ in 0..samples {
        for on in [true, false] {
            intern::set_enabled(on);
            let c0 = Pool::global().stats();
            let t = Instant::now();
            black_box(f());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if on {
                let d = Pool::global().stats().delta_since(&c0);
                hits += d.intern_hits;
                interned += d.objects_interned;
                pooled.push(ms);
            } else {
                plain.push(ms);
            }
        }
    }
    intern::set_enabled(true);
    let m = Measurement {
        pooled_ms: median(pooled),
        plain_ms: median(plain),
        intern_hits: hits / samples as u64,
        objects_interned: interned / samples as u64,
    };
    println!(
        "ablation/intern_speedup/{label}/pooled        time: [{:.3} ms]  intern_hits={} interned={}",
        m.pooled_ms, m.intern_hits, m.objects_interned
    );
    println!(
        "ablation/intern_speedup/{label}/plain         time: [{:.3} ms]",
        m.plain_ms
    );
    println!(
        "ablation/intern_speedup/{label}/speedup       {:.2}x",
        m.speedup()
    );
    m
}

/// `s : {{U}}` such that `D(s) ∧ ∀x : {{{U}}}. ¬R(x)`, over R = two
/// atoms and D = all 16 members of `{{U}}` as unary rows. The inner
/// quantifier supplies the powerset blow-up (65 536-member domain,
/// enumerated once per call into the evaluator's own pool).
fn calc_nested_forall() -> Measurement {
    let nested2 = RType::Set(Box::new(RType::Set(Box::new(RType::Atomic))));
    let nested3 = RType::Set(Box::new(nested2.clone()));
    let q = CalcQuery::new(
        "s",
        nested2.clone(),
        Formula::Pred("D".into(), CalcTerm::var("s")).and(Formula::Forall(
            "x".into(),
            nested3,
            Box::new(Formula::Not(Box::new(Formula::Pred(
                "R".into(),
                CalcTerm::var("x"),
            )))),
        )),
    );
    let mut db = Database::empty();
    db.set("R", Instance::from_rows((0..2u64).map(|i| [atom(i)])));
    let cfg = CalcConfig::default();
    let atoms = db.adom();
    db.set(
        "D",
        Instance::from_values(enumerate_rtype(&nested2, &atoms, &cfg).unwrap()),
    );
    measure("calc_nested_forall", 3, || {
        eval_query(&q, &db, &cfg).unwrap().len()
    })
}

/// Non-linear TC on a 64-vertex path, vertices encoded as singleton
/// chains of depth i.
fn datalog_tc_path64_chain() -> Measurement {
    let v = DlTerm::var;
    let prog = DatalogProgram::new(vec![
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("y")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ),
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("T", vec![v("x"), v("y")])),
                (true, DlAtom::new("T", vec![v("y"), v("z")])),
            ],
        ),
    ]);
    let verts = singleton_chain(Atom::new(0), 64);
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..63).map(|i| [verts[i].clone(), verts[i + 1].clone()])),
    );
    measure("datalog_tc_path64_chain", 5, || {
        prog.eval_stratified_seminaive(&db, 1_000_000)
            .unwrap()
            .get("T")
            .len()
    })
}

fn json_entry(name: &str, m: &Measurement) -> String {
    format!(
        "  \"{name}\": {{\n    \"pooled_ms\": {:.3},\n    \"plain_ms\": {:.3},\n    \"speedup\": {:.2},\n    \"intern_hits\": {},\n    \"objects_interned\": {}\n  }}",
        m.pooled_ms,
        m.plain_ms,
        m.speedup(),
        m.intern_hits,
        m.objects_interned
    )
}

fn bench_intern_speedup(_c: &mut Criterion) {
    let calc = calc_nested_forall();
    let tc = datalog_tc_path64_chain();
    let json = format!(
        "{{\n  \"bench\": \"ablation/intern_speedup\",\n  \"invocation\": \"cargo bench -p uset-bench --bench intern\",\n{},\n{}\n}}\n",
        json_entry("calc_nested_forall", &calc),
        json_entry("datalog_tc_path64_chain", &tc)
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_intern_speedup);
criterion_main!(benches);
