//! `ivm-churn`: one long-lived maintenance session over linear TC plus
//! the negation stratum (a DRed stratum and a counting stratum), with a
//! checkpoint journal, absorbing a seeded cycle of single-edge batches.
//! Each cycle retracts every edge and re-inserts it, so the EDB is back
//! at its initial state when a cycle ends and the cycle's per-batch work
//! repeats exactly.

use crate::calib::Calibration;
use crate::inputs::{self, VertexKind};
use crate::record::{percentile, Recorder};
use crate::rng::Rng;
use crate::{median, op_budget, ratio, work_fields, Latencies, Options, Report, Values};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uset_deductive::{DatalogProgram, EvalStats};
use uset_guard::ckpt::Spec;
use uset_guard::{CkptConfig, Governor, TraceHandle};
use uset_ivm::{ApplyReport, DatalogSession, DeltaBatch, Semantics};
use uset_object::{Database, Pool, Value};

struct Batch {
    retract: bool,
    delta: DeltaBatch,
}

/// One churn cycle: every edge, in seeded order, is retracted by one
/// batch and re-inserted by the next. With one edge out at a time, a
/// batch's work depends on its edge alone, so every seed's cycle holds
/// the same batches in another order. (Batches that retracted several
/// edges, or left several out at once, made the latency quantiles move
/// with the seed.)
fn cycle(rng: &mut Rng, edges: &[Value]) -> Vec<Batch> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .flat_map(|e| {
            [
                Batch {
                    retract: true,
                    delta: DeltaBatch::new().retract("E", edges[e].clone()),
                },
                Batch {
                    retract: false,
                    delta: DeltaBatch::new().insert("E", edges[e].clone()),
                },
            ]
        })
        .collect()
}

/// The counters of a report that must repeat at the same cycle
/// position.
fn report_fields(r: &ApplyReport) -> Vec<u64> {
    let mut v = vec![
        r.inserted,
        r.retracted,
        r.idb_added,
        r.idb_removed,
        u64::from(r.fallback),
    ];
    v.extend(work_fields(&r.stats));
    v
}

/// Bytes written under `dir` since `before` (file sizes that grew, plus
/// new files), and the new size map.
fn journal_growth(dir: &Path, before: &BTreeMap<PathBuf, u64>) -> (u64, BTreeMap<PathBuf, u64>) {
    let mut now = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                now.insert(e.path(), meta.len());
            }
        }
    }
    let grown = now
        .iter()
        .map(|(p, &len)| len.saturating_sub(before.get(p).copied().unwrap_or(0)))
        .sum();
    (grown, now)
}

/// A journal directory no other run, in this process or another, uses.
fn journal_dir(opts: &Options, suffix: &str) -> PathBuf {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    opts.out_dir
        .join(format!("ckpt-{}-{run}{suffix}", std::process::id()))
}

fn governor(ckpt_dir: &Path) -> Governor {
    Governor::new(op_budget()).with_ckpt(Spec::new(ckpt_dir))
}

struct Setup {
    prog: DatalogProgram,
    db: Database,
    batches: Vec<Batch>,
}

/// The graph keeps its labels: relabelling it moved batch latencies (and
/// the from-scratch evaluation of the same shape) by up to 30% between
/// seeds. The seed orders the churn stream.
fn setup(opts: &Options, rec: &mut Recorder) -> Setup {
    let s = &opts.sizes;
    let mut rng = Rng::new(opts.seed);
    let graph = inputs::sparse_random(s.ivm_nodes, s.ivm_edges, s.ivm_closure);
    let db = rec.call("object.build_db", || {
        graph.edge_db(&inputs::vertex_values(VertexKind::Atom, graph.n))
    });
    let edges: Vec<Value> = db.get("E").iter().cloned().collect();
    let batches = cycle(&mut rng, &edges);
    Setup {
        prog: inputs::tc_negation(),
        db,
        batches,
    }
}

fn open(
    setup: &Setup,
    gov: &Governor,
    dir: &Path,
    rec: &mut Recorder,
) -> Result<DatalogSession, String> {
    // a fresh journal: a leftover one would be recovered into the session
    let _ = std::fs::remove_dir_all(dir);
    rec.call("ivm.open", || {
        DatalogSession::new(
            setup.prog.clone(),
            &setup.db,
            Semantics::StratifiedSeminaive,
            gov,
        )
    })
    .map_err(|e| format!("ivm session open failed: {e}"))
}

#[derive(Default)]
struct Phase {
    lat: Latencies,
    batches: u64,
    op_ms: f64,
    retract_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    derived: u64,
    fallbacks: u64,
    trips: u64,
    journal_bytes: u64,
}

/// Apply whole cycles for `seconds`, checking each report against the
/// warm-up cycle's and the session against a from-scratch evaluation
/// every `check_every` batches.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    setup: &Setup,
    sess: &mut DatalogSession,
    warm: &[Vec<u64>],
    journal: &Path,
    rec: &mut Recorder,
    cal: &mut Calibration,
    opts: &Options,
    seconds: f64,
    min_ops: usize,
    report: &mut Report,
) -> Phase {
    let mut ph = Phase::default();
    let plain = Governor::new(op_budget()).with_ckpt_config(CkptConfig::Off);
    let (_, mut sizes) = journal_growth(journal, &BTreeMap::new());
    let t0 = Instant::now();
    loop {
        for (i, b) in setup.batches.iter().enumerate() {
            let (res, ms) = rec.op("op.ivm_apply", |r| {
                r.call("ivm.apply", || sess.apply(&b.delta))
            });
            let epoch = cal.epoch();
            cal.after_op(ms);
            report.attempted += 1;
            ph.batches += 1;
            ph.op_ms += ms;
            let tuples = res.as_ref().ok().map(|rep| rep.stats.tuples_derived);
            ph.lat.push(ms, epoch, tuples);
            let (grown, now) = journal_growth(journal, &sizes);
            ph.journal_bytes += grown;
            sizes = now;
            match res {
                Ok(rep) => {
                    ph.derived += rep.stats.tuples_derived;
                    ph.fallbacks += u64::from(rep.fallback);
                    if b.retract {
                        ph.retract_ms.push(ms);
                    } else {
                        ph.insert_ms.push(ms);
                    }
                    if report_fields(&rep) != warm[i] {
                        report.fail(format!(
                            "ivm batch {i}: report counters drifted: {:?} vs warm-up {:?}",
                            report_fields(&rep),
                            warm[i]
                        ));
                    }
                }
                Err(e) => {
                    if matches!(e, uset_ivm::IvmError::Exhausted { .. }) {
                        ph.trips += 1;
                    }
                    report.fail(format!("ivm batch {i}: {e}"));
                }
            }
            if ph.batches % opts.sizes.ivm_check_every.max(1) as u64 == 0 {
                let fresh = rec.call("deductive.eval_stratified_seminaive_governed", || {
                    setup.prog.eval_stratified_seminaive_governed(
                        sess.edb(),
                        &plain,
                        &mut EvalStats::default(),
                    )
                });
                if fresh.as_ref().ok() != Some(sess.state()) {
                    report.fail(format!(
                        "ivm batch {i}: session state differs from a from-scratch evaluation"
                    ));
                }
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= seconds && ph.batches as usize >= min_ops)
            || elapsed >= 4.0 * seconds.max(1.0)
        {
            break;
        }
    }
    ph
}

pub fn run(
    opts: &Options,
    report: &mut Report,
    values: &mut Values,
    cal: &mut Calibration,
) -> Result<(), String> {
    let journal = journal_dir(opts, "");
    let gov = governor(&journal);
    // set-up, repeated: input generation, database build, session open,
    // one warm-up cycle (whose reports every later cycle must repeat)
    let mut setup_s = Vec::new();
    let mut build = Recorder::new(false);
    let mut current = None;
    while crate::more_setups(&opts.sizes, setup_s.len(), setup_s.iter().sum()) {
        cal.sample();
        let (t, k0) = (Instant::now(), cal.spent_ms());
        let s = setup(opts, &mut build);
        if let Some((_, mut old, _)) = current.take() {
            DatalogSession::finish(&mut old);
        }
        let mut sess = open(&s, &gov, &journal, &mut build)?;
        let mut warm = Vec::new();
        for b in &s.batches {
            let t1 = Instant::now();
            let rep = sess
                .apply(&b.delta)
                .map_err(|e| format!("ivm warm-up batch failed: {e}"))?;
            cal.after_op(t1.elapsed().as_secs_f64() * 1e3);
            warm.push(report_fields(&rep));
        }
        setup_s.push(t.elapsed().as_secs_f64() - (cal.spent_ms() - k0) / 1e3);
        current = Some((s, sess, warm));
    }
    let (setup, mut sess, warm) = current.expect("at least one set-up");
    crate::publish_setup(&setup_s, cal, values, &mut report.meta);
    values.set("object.build_db_ms", build.median("object.build_db"));
    values.set("ivm.open_ms", build.median("ivm.open"));
    report.meta.insert(
        "work_digest".into(),
        format!("{:016x}", crate::digest(warm.iter().flatten().copied())),
    );
    report
        .meta
        .insert("ivm.cycle_batches".into(), setup.batches.len().to_string());
    report.meta.insert(
        "ivm.plan".into(),
        format!("{:?}", sess.plan()).chars().take(120).collect(),
    );

    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let pool0 = Pool::global().stats();
    let mut rec = Recorder::new(false);
    let ph = run_phase(
        &setup,
        &mut sess,
        &warm,
        &journal,
        &mut rec,
        cal,
        opts,
        untraced_s,
        opts.sizes.min_ops,
        report,
    );
    sess.finish();
    let pool = Pool::global().stats().delta_since(&pool0);
    ph.lat.publish(cal, values, &mut report.meta);

    let n = ph.batches.max(1) as f64;
    let apply_ms = ph.lat.raw();
    let apply_p90 = percentile(&apply_ms, 0.9);
    let recompute = rec.median("deductive.eval_stratified_seminaive_governed");
    values.set("ivm.apply.ms_p50", percentile(&apply_ms, 0.5));
    values.set("ivm.apply.ms_p90", apply_p90);
    values.set("ivm.apply_retract.ms_p50", median(&ph.retract_ms));
    values.set("ivm.apply_insert.ms_p50", median(&ph.insert_ms));
    values.set("ivm.tuples_derived_per_batch", ph.derived as f64 / n);
    values.set("ivm.fallback_frac", ph.fallbacks as f64 / n);
    values.set("ivm.recompute.ms_p50", recompute);
    values.set("ivm.apply_vs_recompute_p90", ratio(apply_p90, recompute));
    values.set("ckpt.journal_bytes_per_batch", ph.journal_bytes as f64 / n);
    let cycles = n / setup.batches.len().max(1) as f64;
    values.set(
        "object.pool.objects_interned",
        pool.objects_interned as f64 / cycles,
    );
    values.set("object.pool.intern_hits", pool.intern_hits as f64 / cycles);
    values.set(
        "object.pool.hit_ratio",
        ratio(
            pool.intern_hits as f64,
            (pool.intern_hits + pool.objects_interned) as f64,
        ),
    );
    values.set(
        "object.pool.bytes_shared_estimate",
        pool.bytes_shared_estimate as f64 / cycles,
    );
    let mut trips = ph.trips;

    if opts.trace {
        // a second session whose governor carries the in-memory tracer
        let mut trec = Recorder::new(true);
        let (handle, mem) = TraceHandle::mem();
        let tjournal = journal_dir(opts, "-traced");
        let tgov = governor(&tjournal).with_trace(handle);
        let mut tsess = open(&setup, &tgov, &tjournal, &mut trec)?;
        let totals = || {
            mem.rule_stats()
                .values()
                .fold((0u64, 0u64, 0u64), |acc, r| {
                    (acc.0 + r.wall_micros, acc.1 + r.derived, acc.2 + r.deduped)
                })
        };
        // the session's initial build fired rules too; count only batches
        let at_open = totals();
        let tph = run_phase(
            &setup,
            &mut tsess,
            &warm,
            &tjournal,
            &mut trec,
            cal,
            opts,
            opts.seconds / 2.0,
            1,
            report,
        );
        tsess.finish();
        let _ = std::fs::remove_dir_all(&tjournal);
        trips += tph.trips;
        let ops = tph.batches.max(1) as f64;
        for (layer, ms) in trec.self_ms_by_layer() {
            values.set(&format!("trace.self_ms_per_op.{layer}"), ms / ops);
        }
        let end = totals();
        let (wall, derived, deduped) = (end.0 - at_open.0, end.1 - at_open.1, end.2 - at_open.2);
        values.set("trace.rule_wall_share", ratio(wall as f64 / 1e3, tph.op_ms));
        values.set(
            "trace.deduped_per_derived",
            ratio(deduped as f64, derived as f64),
        );
        values.set(
            "trace.overhead_ratio",
            ratio(tph.lat.mean_scaled(cal), ph.lat.mean_scaled(cal)),
        );
        report
            .meta
            .insert("ops.traced".into(), tph.batches.to_string());
        report.spans = Some(trec.spans_jsonl());
    }
    values.set("guard.trips", trips as f64);
    values.set("object.pool.len_end", Pool::global().len() as f64);
    let _ = std::fs::remove_dir_all(&journal);
    Ok(())
}
