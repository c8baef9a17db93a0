//! `flat-fixpoint` and `nested-values`: a fixed op mix over one seeded
//! graph, run in whole passes. The two workloads share everything but
//! the vertex representation; `nested-values` adds the calculus and GTM
//! ops.

use crate::calib::Calibration;
use crate::inputs::{self, fact_count, VertexKind};
use crate::record::Recorder;
use crate::rng::Rng;
use crate::{op_budget, ratio, work_fields, Latencies, Options, Report, Values};
use std::collections::BTreeMap;
use std::time::Instant;
use uset_algebra::eval_program_governed;
use uset_bk::{eval_fixpoint_governed, BkConfig, BkProgram, BkState};
use uset_calculus::eval::enumerate_rtype;
use uset_calculus::{eval_query, CalcConfig, CalcQuery, CalcTerm, Formula};
use uset_core::{compile_gtm, decode_tape_relation, prepare_gtm_input};
use uset_deductive::{stratified_governed, ColConfig, ColProgram, ColState, ColStrategy};
use uset_deductive::{DatalogProgram, EvalStats};
use uset_gtm::machines::swap_pairs_gtm;
use uset_gtm::query::run_gtm_query_governed;
use uset_gtm::Gtm;
use uset_guard::{CkptConfig, Governor, TraceHandle};
use uset_object::rtype::RType;
use uset_object::{atom, Database, Instance, Pool, Schema, Type, Value};
use uset_opt::{query_datalog, Goal};

enum Job {
    Datalog {
        prog: DatalogProgram,
        out: &'static str,
    },
    Col {
        prog: ColProgram,
        cfg: ColConfig,
    },
    Magic {
        prog: DatalogProgram,
        goal: Goal,
    },
    Bk {
        prog: BkProgram,
        state: BkState,
        cfg: BkConfig,
    },
    Calc {
        q: CalcQuery,
        db: Database,
        cfg: CalcConfig,
    },
    Gtm {
        m: Gtm,
        db: Database,
        schema: Schema,
        target: Type,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Answer {
    Rows(Instance),
    Count(usize),
}

impl Answer {
    fn len(&self) -> usize {
        match self {
            Answer::Rows(rows) => rows.len(),
            Answer::Count(n) => *n,
        }
    }

    fn matches(&self, expect: &Answer) -> bool {
        match (self, expect) {
            (Answer::Rows(a), Answer::Count(n)) => a.len() == *n,
            (a, e) => a == e,
        }
    }
}

struct Done {
    answer: Answer,
    stats: Option<EvalStats>,
    /// Facts the op added to the state (deductive ops only).
    facts_added: Option<u64>,
}

enum Fail {
    Trip(String),
    Error(String),
}

struct Op {
    /// Root span name, `op.<name>`.
    root: &'static str,
    job: Job,
    expect: Option<Answer>,
    /// The warm-up pass's outcome; every later pass must repeat its work
    /// counters exactly.
    warm: Option<Done>,
}

impl Op {
    fn name(&self) -> &'static str {
        &self.root[3..]
    }

    fn warm_stats(&self) -> Option<EvalStats> {
        self.warm.as_ref().and_then(|d| d.stats)
    }
}

fn plain_governor() -> Governor {
    Governor::new(op_budget()).with_ckpt_config(CkptConfig::Off)
}

fn col_facts(st: &ColState) -> u64 {
    let preds: usize = st.preds.values().map(Instance::len).sum();
    let funcs: usize = st
        .funcs
        .values()
        .flat_map(|f| f.values())
        .map(|s| s.len())
        .sum();
    (preds + funcs) as u64
}

/// `s : {{U}}` such that `D(s) ∧ ∀x : {{{U}}}. ¬R(x)`, with `R` the
/// seeded atoms and `D` every member of `{{U}}`: the `∀` ranges over a
/// `2^(2^(2^atoms))`-member powerset domain. The answer is all of `D`.
fn calc_case(rng: &mut Rng, atoms: usize) -> (CalcQuery, Database, usize) {
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
    let base = rng.below(1000) as u64;
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0..atoms as u64).map(|i| [atom(base + i)])),
    );
    let universe = db.adom();
    let d = enumerate_rtype(&nested2, &universe, &CalcConfig::default())
        .expect("{{U}} over a few atoms is small");
    let expected = 1usize << (1usize << atoms);
    db.set("D", Instance::from_values(d));
    (q, db, expected)
}

/// The pair-swap GTM on `pairs` seeded binary tuples.
fn gtm_case(rng: &mut Rng, pairs: usize) -> (Gtm, Database, Schema, Type) {
    let mut labels: Vec<u64> = (0..(4 * pairs as u64).max(4)).collect();
    rng.shuffle(&mut labels);
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0..pairs).map(|i| [atom(labels[2 * i]), atom(labels[2 * i + 1])])),
    );
    (
        swap_pairs_gtm(),
        db,
        Schema::flat([("R", 2)]),
        Type::atomic_tuple(2),
    )
}

struct Setup {
    db: Database,
    ops: Vec<Op>,
}

/// Generate inputs and build the op list. The graph database is built
/// through `object.build_db`.
fn setup(opts: &Options, kind: VertexKind, rec: &mut Recorder) -> Setup {
    let s = &opts.sizes;
    let mut rng = Rng::new(opts.seed);
    let (graph, goal_path, goal_rand) =
        inputs::path_and_random(&mut rng, s.path, s.rand_nodes, s.rand_edges, s.rand_closure);
    let db = rec.call("object.build_db", || {
        let verts = inputs::vertex_values(kind, graph.n);
        graph.edge_db(&verts)
    });
    let verts = inputs::vertex_values(kind, graph.n);
    let goal = |v: usize| Goal::new("T", vec![None, Some(verts[v].clone())]);
    let op = |root: &'static str, job: Job| Op {
        root,
        job,
        expect: None,
        warm: None,
    };
    let mut ops = vec![
        op(
            "op.dl_tc_linear",
            Job::Datalog {
                prog: inputs::tc_linear(),
                out: "T",
            },
        ),
        op(
            "op.dl_tc_nonlinear",
            Job::Datalog {
                prog: inputs::tc_nonlinear(),
                out: "T",
            },
        ),
        op(
            "op.dl_neg",
            Job::Datalog {
                prog: inputs::tc_negation(),
                out: "U",
            },
        ),
        op(
            "op.col_setheavy",
            Job::Col {
                prog: inputs::col_setheavy(),
                cfg: ColConfig::default(),
            },
        ),
        op(
            "op.opt_magic_path",
            Job::Magic {
                prog: inputs::tc_linear(),
                goal: goal(goal_path),
            },
        ),
        op(
            "op.opt_magic_rand",
            Job::Magic {
                prog: inputs::tc_linear(),
                goal: goal(goal_rand),
            },
        ),
    ];
    match kind {
        VertexKind::Atom => {
            let (prog, state) = inputs::bk_join_input(&mut rng, s.bk_n);
            ops.push(op(
                "op.bk_join",
                Job::Bk {
                    prog,
                    state,
                    cfg: BkConfig::default(),
                },
            ));
        }
        VertexKind::Chain => {
            // the calculus query over two seeded universes: the mix's
            // tail, weighted so that p90 falls inside it
            for root in ["op.calc_nested_forall_a", "op.calc_nested_forall_b"] {
                let (q, cdb, count) = calc_case(&mut rng, s.calc_atoms);
                let mut calc = op(
                    root,
                    Job::Calc {
                        q,
                        db: cdb,
                        cfg: CalcConfig::default(),
                    },
                );
                calc.expect = Some(Answer::Count(count));
                ops.push(calc);
            }
            let (m, gdb, schema, target) = gtm_case(&mut rng, s.gtm_pairs);
            ops.push(op(
                "op.gtm_swap_compiled",
                Job::Gtm {
                    m,
                    db: gdb,
                    schema,
                    target,
                },
            ));
        }
    }
    Setup { db, ops }
}

fn dl_fail(e: uset_deductive::DlError) -> Fail {
    match e.exhausted() {
        Some(x) => Fail::Trip(x.to_string()),
        None => Fail::Error(e.to_string()),
    }
}

/// Run one op through its layers' public entry points.
fn exec(op: &Op, db: &Database, gov: &Governor, r: &mut Recorder) -> Result<Done, Fail> {
    let mut stats = EvalStats::default();
    match &op.job {
        Job::Datalog { prog, out } => {
            let state = r
                .call("deductive.eval_stratified_seminaive_governed", || {
                    prog.eval_stratified_seminaive_governed(db, gov, &mut stats)
                })
                .map_err(dl_fail)?;
            let rows = r.call("object.get", || state.get(out));
            Ok(Done {
                answer: Answer::Rows(rows),
                stats: Some(stats),
                facts_added: Some(fact_count(&state) - fact_count(db)),
            })
        }
        Job::Col { prog, cfg } => {
            let state = r
                .call("deductive.stratified_governed", || {
                    stratified_governed(prog, db, cfg, ColStrategy::Seminaive, gov, &mut stats)
                })
                .map_err(|e| match e.exhausted() {
                    Some(x) => Fail::Trip(x.to_string()),
                    None => Fail::Error(e.to_string()),
                })?;
            let rows = r.call("deductive.pred", || state.pred("P"));
            Ok(Done {
                answer: Answer::Rows(rows),
                stats: Some(stats),
                facts_added: Some(col_facts(&state) - fact_count(db)),
            })
        }
        Job::Magic { prog, goal } => {
            let rows = r
                .call("opt.query_datalog", || {
                    query_datalog(prog, db, goal, gov, &mut stats)
                })
                .map_err(dl_fail)?;
            Ok(Done {
                answer: Answer::Rows(rows),
                stats: Some(stats),
                facts_added: None,
            })
        }
        Job::Bk { prog, state, cfg } => {
            let (out, _) = r
                .call("bk.eval_fixpoint_governed", || {
                    eval_fixpoint_governed(prog, state, cfg, gov)
                })
                .map_err(|e| Fail::Trip(e.to_string()))?;
            Ok(Done {
                answer: Answer::Count(out.get("R").map_or(0, |r| r.len())),
                stats: None,
                facts_added: None,
            })
        }
        Job::Calc { q, db, cfg } => {
            let rows = r
                .call("calculus.eval_query", || eval_query(q, db, cfg))
                .map_err(|e| match e.exhausted() {
                    Some(x) => Fail::Trip(x.to_string()),
                    None => Fail::Error(e.to_string()),
                })?;
            Ok(Done {
                answer: Answer::Rows(rows),
                stats: None,
                facts_added: None,
            })
        }
        Job::Gtm { m, db, schema, .. } => {
            let orders: Vec<Vec<Value>> = vec![db.get("R").iter().cloned().collect()];
            let prog = r.call("core.compile_gtm", || compile_gtm(m));
            let input = r
                .call("core.prepare_gtm_input", || {
                    prepare_gtm_input(db, schema, &orders)
                })
                .ok_or_else(|| Fail::Error("GTM input does not encode".into()))?;
            let tape = r
                .call("algebra.eval_program_governed", || {
                    eval_program_governed(&prog, &input, gov)
                })
                .map_err(|e| {
                    if e.is_exhausted() {
                        Fail::Trip(e.to_string())
                    } else {
                        Fail::Error(e.to_string())
                    }
                })?;
            let rows = r
                .call("core.decode_tape_relation", || decode_tape_relation(&tape))
                .ok_or_else(|| Fail::Error("final tape does not decode".into()))?;
            Ok(Done {
                answer: Answer::Rows(rows),
                stats: None,
                facts_added: None,
            })
        }
    }
}

/// The direct GTM run: the reference the compiled run must agree with.
fn gtm_direct(op: &Op, r: &mut Recorder) -> Option<Answer> {
    let Job::Gtm {
        m,
        db,
        schema,
        target,
    } = &op.job
    else {
        return None;
    };
    let gov = plain_governor();
    let out = r.call("gtm.run_gtm_query_governed", || {
        run_gtm_query_governed(m, db, schema, target, &gov)
    });
    Some(match out {
        Ok(Some(rows)) => Answer::Rows(rows),
        _ => Answer::Count(usize::MAX),
    })
}

/// Reference answers from independent paths, computed once before
/// timing: the naive DATALOG¬ and COL engines, the full evaluation
/// filtered by the goal, the direct GTM run, and known counts.
fn references(setup: &mut Setup, sizes: &crate::Sizes) -> Result<(), String> {
    let gov = plain_governor();
    let db = &setup.db;
    for op in &mut setup.ops {
        let expect = match &op.job {
            Job::Datalog { prog, out } => {
                let st = prog
                    .eval_stratified_governed(db, &gov, &mut EvalStats::default())
                    .map_err(|e| format!("{}: naive reference failed: {e}", op.name()))?;
                Answer::Rows(st.get(out))
            }
            Job::Col { prog, cfg } => {
                let st = stratified_governed(
                    prog,
                    db,
                    cfg,
                    ColStrategy::Naive,
                    &gov,
                    &mut EvalStats::default(),
                )
                .map_err(|e| format!("{}: naive reference failed: {e}", op.name()))?;
                Answer::Rows(st.pred("P"))
            }
            Job::Magic { prog, goal } => {
                let st = prog
                    .eval_stratified_governed(db, &gov, &mut EvalStats::default())
                    .map_err(|e| format!("{}: naive reference failed: {e}", op.name()))?;
                let want = goal.bound[1].as_ref().expect("goal binds column 1");
                Answer::Rows(Instance::from_values(st.get("T").iter().filter_map(
                    |row| {
                        let cols = row.as_tuple()?;
                        (&cols[1] == want).then(|| row.clone())
                    },
                )))
            }
            Job::Bk { .. } => Answer::Count(bk_expected(sizes.bk_n)),
            Job::Calc { .. } => op.expect.clone().expect("calc count set at setup"),
            Job::Gtm { .. } => {
                let mut scratch = Recorder::new(false);
                gtm_direct(op, &mut scratch).expect("gtm op")
            }
        };
        op.expect = Some(expect);
    }
    Ok(())
}

/// Facts in `R` after the BK join rule on the disjoint input of size
/// `n`: the join is empty, yet `R` holds `[A:x, C:z]` for every `x` of
/// `R1`'s `A` column or `⊥` and every `z` of `R2`'s `C` column or `⊥`.
fn bk_expected(n: usize) -> usize {
    (n + 1) * (n + 1)
}

/// Summed outcome of one phase (untraced or traced).
#[derive(Default)]
struct Phase {
    lat: Latencies,
    ops: u64,
    passes: u64,
    trips: u64,
    /// Per op name: summed ms and tuples derived.
    per_op: BTreeMap<&'static str, (f64, u64)>,
    pool_interned: u64,
    pool_hits: u64,
    pool_bytes: u64,
    rule_wall_us: u64,
    rule_derived: u64,
    rule_deduped: u64,
    rule_engine_ms: f64,
}

fn run_phase(
    setup: &Setup,
    rec: &mut Recorder,
    cal: &mut Calibration,
    seconds: f64,
    min_ops: usize,
    report: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let base = plain_governor();
    let pool0 = Pool::global().stats();
    let t0 = Instant::now();
    loop {
        for op in &setup.ops {
            let (gov, mem) = if rec.traced() {
                let (h, mem) = TraceHandle::mem();
                (base.clone().with_trace(h), Some(mem))
            } else {
                (base.clone(), None)
            };
            let (res, ms) = rec.op(op.root, |r| exec(op, &setup.db, &gov, r));
            let epoch = cal.epoch();
            cal.after_op(ms);
            ph.ops += 1;
            report.attempted += 1;
            let tuples = res
                .as_ref()
                .ok()
                .and_then(|d| d.stats)
                .map(|s| s.tuples_derived);
            ph.lat.push(ms, epoch, tuples);
            let entry = ph.per_op.entry(op.name()).or_insert((0.0, 0));
            entry.0 += ms;
            entry.1 += tuples.unwrap_or(0);
            if let Some(mem) = mem {
                let rules = mem.rule_stats();
                if !rules.is_empty() {
                    ph.rule_engine_ms += ms;
                }
                for rs in rules.values() {
                    ph.rule_wall_us += rs.wall_micros;
                    ph.rule_derived += rs.derived;
                    ph.rule_deduped += rs.deduped;
                }
            }
            let done = match res {
                Ok(done) => done,
                Err(Fail::Trip(msg)) => {
                    ph.trips += 1;
                    report.fail(format!("{}: budget tripped: {msg}", op.name()));
                    continue;
                }
                Err(Fail::Error(msg)) => {
                    report.fail(format!("{}: error: {msg}", op.name()));
                    continue;
                }
            };
            let expect = op.expect.as_ref().expect("references computed");
            if !done.answer.matches(expect) {
                report.fail(format!(
                    "{}: answer differs from the reference ({} rows, expected {})",
                    op.name(),
                    done.answer.len(),
                    expect.len()
                ));
            } else if let (Some(w), Some(st)) = (op.warm_stats(), &done.stats) {
                if &w != st {
                    report.fail(format!(
                        "{}: work counters drifted: {:?} vs warm-up {:?}",
                        op.name(),
                        work_fields(st),
                        work_fields(&w)
                    ));
                }
            }
            if matches!(op.job, Job::Gtm { .. }) && gtm_direct(op, rec).as_ref() != Some(expect) {
                report.fail("gtm_swap_compiled: direct GTM run drifted".into());
            }
        }
        ph.passes += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= seconds && ph.ops as usize >= min_ops) || elapsed >= 4.0 * seconds.max(1.0) {
            break;
        }
    }
    let d = Pool::global().stats().delta_since(&pool0);
    ph.pool_interned = d.objects_interned;
    ph.pool_hits = d.intern_hits;
    ph.pool_bytes = d.bytes_shared_estimate;
    ph
}

pub fn run(
    opts: &Options,
    kind: VertexKind,
    report: &mut Report,
    values: &mut Values,
    cal: &mut Calibration,
) -> Result<(), String> {
    // set-up, repeated: input generation, database build, one warm-up
    // pass (which also records the work counters every pass must repeat)
    let mut setup_s = Vec::new();
    let mut build = Recorder::new(false);
    let mut current = None;
    while crate::more_setups(&opts.sizes, setup_s.len(), setup_s.iter().sum()) {
        cal.sample();
        let (t, k0) = (Instant::now(), cal.spent_ms());
        let mut s = setup(opts, kind, &mut build);
        let gov = plain_governor();
        let mut scratch = Recorder::new(false);
        for op in &mut s.ops {
            let (res, ms) = scratch.op(op.root, |r| exec(op, &s.db, &gov, r));
            cal.after_op(ms);
            op.warm = res.ok();
        }
        setup_s.push(t.elapsed().as_secs_f64() - (cal.spent_ms() - k0) / 1e3);
        current = Some(s);
    }
    let mut setup = current.expect("at least one set-up");
    crate::publish_setup(&setup_s, cal, values, &mut report.meta);
    values.set("object.build_db_ms", build.median("object.build_db"));
    references(&mut setup, &opts.sizes)?;

    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut rec = Recorder::new(false);
    let ph = run_phase(
        &setup,
        &mut rec,
        cal,
        untraced_s,
        opts.sizes.min_ops,
        report,
    );
    ph.lat.publish(cal, values, &mut report.meta);
    report
        .meta
        .insert("passes.timed".into(), ph.passes.to_string());

    // per-layer figures from the untraced phase
    let passes = ph.passes.max(1) as f64;
    values.set(
        "object.pool.objects_interned",
        ph.pool_interned as f64 / passes,
    );
    values.set("object.pool.intern_hits", ph.pool_hits as f64 / passes);
    values.set(
        "object.pool.hit_ratio",
        ratio(
            ph.pool_hits as f64,
            (ph.pool_hits + ph.pool_interned) as f64,
        ),
    );
    values.set(
        "object.pool.bytes_shared_estimate",
        ph.pool_bytes as f64 / passes,
    );
    for name in crate::DEDUCTIVE_OPS {
        let (ms, tuples) = ph.per_op.get(name).copied().unwrap_or((0.0, 0));
        values.set(
            &format!("deductive.{name}.ms_p50"),
            rec.median(&format!("op.{name}")),
        );
        values.set(
            &format!("deductive.{name}.us_per_tuple"),
            ratio(ms * 1e3, tuples as f64),
        );
    }
    let warm = |name: &str| {
        setup
            .ops
            .iter()
            .find(|o| o.name() == name)
            .and_then(Op::warm_stats)
            .unwrap_or_default()
    };
    let mut ded = EvalStats::default();
    let mut added = 0u64;
    for op in &setup.ops {
        if let (Job::Datalog { .. } | Job::Col { .. }, Some(w)) = (&op.job, &op.warm) {
            ded.absorb(&w.stats.unwrap_or_default());
            added += w.facts_added.unwrap_or(0);
        }
    }
    values.set("deductive.tuples_derived", ded.tuples_derived as f64);
    values.set("deductive.rounds", ded.rounds as f64);
    values.set("deductive.index_probes", ded.index_probes as f64);
    values.set("deductive.scan_fallbacks", ded.scan_fallbacks as f64);
    values.set(
        "deductive.useful_ratio",
        ratio(added as f64, ded.tuples_derived as f64),
    );
    values.set("opt.query_datalog.ms_p50", rec.median("opt.query_datalog"));
    let magic = warm("opt_magic_path").tuples_derived + warm("opt_magic_rand").tuples_derived;
    values.set(
        "opt.magic_tuples_ratio",
        ratio(
            magic as f64,
            2.0 * warm("dl_tc_linear").tuples_derived as f64,
        ),
    );
    values.set(
        "bk.eval_fixpoint.ms_p50",
        rec.median("bk.eval_fixpoint_governed"),
    );
    values.set(
        "calculus.eval_query.ms_p50",
        rec.median("calculus.eval_query"),
    );
    values.set("core.compile_gtm.ms", rec.median("core.compile_gtm"));
    values.set(
        "core.prepare_gtm_input.ms",
        rec.median("core.prepare_gtm_input"),
    );
    values.set(
        "algebra.eval_program.ms_p50",
        rec.median("algebra.eval_program_governed"),
    );
    values.set(
        "gtm.run_gtm_query.ms_p50",
        rec.median("gtm.run_gtm_query_governed"),
    );
    let mut trips = ph.trips;

    report.meta.insert(
        "work_digest".into(),
        format!(
            "{:016x}",
            crate::digest(
                setup
                    .ops
                    .iter()
                    .flat_map(|o| { o.warm_stats().map_or([0; 6], |w| work_fields(&w)) })
            )
        ),
    );

    if opts.trace {
        let mut trec = Recorder::new(true);
        let tph = run_phase(&setup, &mut trec, cal, opts.seconds / 2.0, 1, report);
        trips += tph.trips;
        let ops = tph.ops.max(1) as f64;
        for (layer, ms) in trec.self_ms_by_layer() {
            values.set(&format!("trace.self_ms_per_op.{layer}"), ms / ops);
        }
        values.set(
            "trace.rule_wall_share",
            ratio(tph.rule_wall_us as f64 / 1e3, tph.rule_engine_ms),
        );
        values.set(
            "trace.deduped_per_derived",
            ratio(tph.rule_deduped as f64, tph.rule_derived as f64),
        );
        values.set(
            "trace.overhead_ratio",
            ratio(tph.lat.mean_scaled(cal), ph.lat.mean_scaled(cal)),
        );
        report.meta.insert("ops.traced".into(), tph.ops.to_string());
        report.spans = Some(trec.spans_jsonl());
    }
    values.set("guard.trips", trips as f64);
    values.set("object.pool.len_end", Pool::global().len() as f64);
    Ok(())
}
