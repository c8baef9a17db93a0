//! The untyped-sets engine benchmark.
//!
//! Three workloads, each a single closed-loop client in one process:
//!
//! * `flat-fixpoint`: DATALOG¬ (linear TC, non-linear TC, stratified
//!   negation), COL set-heavy TC, two magic-set goal queries and the BK
//!   Example 5.2 join over seeded graphs whose vertices are atoms;
//! * `nested-values`: the same ops over the same graphs with vertex `i`
//!   the depth-`i` singleton chain, plus a powerset calculus query and a
//!   compiled GTM → ALG+while run;
//! * `ivm-churn`: one long-lived DATALOG¬ maintenance session with a
//!   checkpoint journal absorbing seeded single-edge retractions and
//!   re-insertions.
//!
//! Every op's output is checked against an independent reference; every
//! layer is timed from outside, at its public entry point. See
//! `README.md` next to this crate for the metric catalogue.

pub mod calib;
pub mod churn;
pub mod inputs;
pub mod mix;
pub mod record;
pub mod rng;

use std::collections::BTreeMap;
use std::path::PathBuf;
use uset_guard::{Budget, OptConfig, ParConfig};

/// The end-to-end metrics: `(name, unit, better)`. Every workload
/// reports all of them from its untraced run.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("us_per_derived_tuple", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Layers that get a self-time metric in the traced run.
pub const LAYERS: &[&str] = &[
    "object",
    "deductive",
    "opt",
    "bk",
    "calculus",
    "core",
    "algebra",
    "ivm",
    "harness",
];

/// The deductive ops shared by `flat-fixpoint` and `nested-values`.
pub const DEDUCTIVE_OPS: &[&str] = &["dl_tc_linear", "dl_tc_nonlinear", "dl_neg", "col_setheavy"];

/// The per-layer metrics: `(name, unit, better)`. Every workload reports
/// all of them from its traced run; a layer the workload does not run
/// reports 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: &'static str| {
        out.push((name.to_owned(), unit, better));
    };
    add("failed_op_frac", "ratio", "lower");
    add("object.build_db_ms", "ms", "lower");
    add("object.pool.objects_interned", "count", "lower");
    add("object.pool.intern_hits", "count", "higher");
    add("object.pool.hit_ratio", "ratio", "higher");
    add("object.pool.len_end", "count", "lower");
    add("object.pool.bytes_shared_estimate", "bytes", "higher");
    for op in DEDUCTIVE_OPS {
        add(&format!("deductive.{op}.ms_p50"), "ms", "lower");
        add(&format!("deductive.{op}.us_per_tuple"), "us", "lower");
    }
    add("deductive.tuples_derived", "count", "lower");
    add("deductive.rounds", "count", "lower");
    add("deductive.index_probes", "count", "lower");
    add("deductive.scan_fallbacks", "count", "lower");
    add("deductive.useful_ratio", "ratio", "higher");
    add("opt.query_datalog.ms_p50", "ms", "lower");
    add("opt.magic_tuples_ratio", "ratio", "lower");
    add("bk.eval_fixpoint.ms_p50", "ms", "lower");
    add("calculus.eval_query.ms_p50", "ms", "lower");
    add("core.compile_gtm.ms", "ms", "lower");
    add("core.prepare_gtm_input.ms", "ms", "lower");
    add("algebra.eval_program.ms_p50", "ms", "lower");
    add("gtm.run_gtm_query.ms_p50", "ms", "lower");
    add("ivm.open_ms", "ms", "lower");
    add("ivm.apply.ms_p50", "ms", "lower");
    add("ivm.apply.ms_p90", "ms", "lower");
    add("ivm.apply_retract.ms_p50", "ms", "lower");
    add("ivm.apply_insert.ms_p50", "ms", "lower");
    add("ivm.tuples_derived_per_batch", "count", "lower");
    add("ivm.fallback_frac", "ratio", "lower");
    add("ivm.recompute.ms_p50", "ms", "lower");
    add("ivm.apply_vs_recompute_p90", "ratio", "lower");
    add("ckpt.journal_bytes_per_batch", "bytes", "lower");
    add("guard.trips", "count", "lower");
    add("trace.rule_wall_share", "ratio", "higher");
    add("trace.deduped_per_derived", "ratio", "lower");
    add("trace.overhead_ratio", "ratio", "lower");
    for layer in LAYERS {
        add(&format!("trace.self_ms_per_op.{layer}"), "ms", "lower");
    }
    out
}

pub const WORKLOADS: &[&str] = &["flat-fixpoint", "nested-values", "ivm-churn"];

/// Input sizes and run shape. [`Sizes::standard`] is what the benchmark
/// measures; [`Sizes::toy`] is for the self-test.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Vertices on the path component.
    pub path: usize,
    /// Vertices and edges of the random component.
    pub rand_nodes: usize,
    pub rand_edges: usize,
    /// Accepted closure sizes of the random component.
    pub rand_closure: (usize, usize),
    /// `n` of the BK Example 5.2 input.
    pub bk_n: usize,
    /// Atoms of the calculus query's universe: the `∀` domain
    /// `{{{U}}}` has `2^(2^(2^atoms))` members.
    pub calc_atoms: usize,
    /// Tuples the GTM swaps.
    pub gtm_pairs: usize,
    /// IVM graph: vertices, edges, accepted closure sizes.
    pub ivm_nodes: usize,
    pub ivm_edges: usize,
    pub ivm_closure: (usize, usize),
    /// Compare the session against a from-scratch evaluation every this
    /// many batches.
    pub ivm_check_every: usize,
    /// Set-ups per run: at least `.0`, and more, up to `.1`, until they
    /// have taken a second; `setup_s` is their median.
    pub setup_reps: (usize, usize),
    /// Ops the untraced phase completes at least (so ≥ 10 lie beyond
    /// p90).
    pub min_ops: usize,
}

impl Sizes {
    pub fn standard() -> Sizes {
        Sizes {
            path: 24,
            rand_nodes: 24,
            rand_edges: 30,
            rand_closure: (129, 143),
            bk_n: 8,
            calc_atoms: 2,
            gtm_pairs: 2,
            ivm_nodes: 100,
            ivm_edges: 120,
            ivm_closure: (1167, 1290),
            ivm_check_every: 32,
            setup_reps: (3, 15),
            min_ops: 100,
        }
    }

    pub fn toy() -> Sizes {
        Sizes {
            path: 6,
            rand_nodes: 6,
            rand_edges: 7,
            rand_closure: (6, 20),
            bk_n: 2,
            calc_atoms: 1,
            gtm_pairs: 1,
            ivm_nodes: 10,
            ivm_edges: 12,
            ivm_closure: (10, 60),
            ivm_check_every: 2,
            setup_reps: (2, 3),
            min_ops: 10,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where reports, spans and the checkpoint journal go.
    pub out_dir: PathBuf,
    /// The benchmark binary, started again as the calibration helper.
    pub helper_exe: PathBuf,
}

/// The finite budget every op runs under: no wall deadline, so a trip is
/// deterministic.
pub fn op_budget() -> Budget {
    Budget::unlimited()
        .with_steps(10_000_000)
        .with_facts(10_000_000)
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Run metadata: seed, host, resolved knobs, sample counts, the
    /// work-counter digest.
    pub meta: BTreeMap<String, String>,
    /// Spans of the traced phase, as JSON lines.
    pub spans: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed op, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Collects one workload's metric values, then lays them out in
/// catalogue order (every catalogue name present, 0 where unset).
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0
            .insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
    }

    /// Scale every per-layer time metric by `scale`.
    fn scale_per_layer_times(&mut self, scale: f64) {
        for (name, unit, _) in per_layer_catalogue() {
            if let (Some(value), "ms" | "us") = (self.0.get_mut(&name), unit) {
                *value *= scale;
            }
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|(name, unit, _)| Metric {
                name: (*name).to_owned(),
                unit,
                value: self.0.get(*name).copied().unwrap_or(0.0),
            })
            .collect()
    }

    fn per_layer(&self) -> Vec<Metric> {
        per_layer_catalogue()
            .into_iter()
            .map(|(name, unit, _)| Metric {
                value: self.0.get(&name).copied().unwrap_or(0.0),
                name,
                unit,
            })
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Whether another set-up is due after `done` set-ups taking `total_s`.
pub fn more_setups(sizes: &Sizes, done: usize, total_s: f64) -> bool {
    done < sizes.setup_reps.0 || (done < sizes.setup_reps.1 && total_s < 1.0)
}

pub fn median(xs: &[f64]) -> f64 {
    record::percentile(xs, 0.5)
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a sequence of counters: a run's work fingerprint.
pub fn digest(counters: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in counters {
        for b in c.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The six `EvalStats` work fields.
pub fn work_fields(s: &uset_object::EvalStats) -> [u64; 6] {
    [
        s.rounds,
        s.rules_fired,
        s.tuples_derived,
        s.index_probes,
        s.scan_fallbacks,
        s.peak_facts as u64,
    ]
}

fn knob_meta(meta: &mut BTreeMap<String, String>, opts: &Options) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    meta.insert("host.cores".into(), cores.to_string());
    meta.insert("seed".into(), opts.seed.to_string());
    meta.insert("seconds".into(), opts.seconds.to_string());
    meta.insert("client".into(), "closed loop, 1 client".into());
    meta.insert(
        "knob.intern".into(),
        uset_object::intern::enabled().to_string(),
    );
    meta.insert(
        "knob.ivm".into(),
        format!("{:?}", uset_ivm::IvmMode::from_env()),
    );
    meta.insert("knob.opt".into(), OptConfig::Env.resolve().to_string());
    meta.insert(
        "knob.par_workers".into(),
        ParConfig::from_env().resolve().to_string(),
    );
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut values = Values::default();
    let mut report = Report {
        workload: opts.workload.clone(),
        ..Report::default()
    };
    knob_meta(&mut report.meta, opts);
    let mut cal = calib::Calibration::spawn(&opts.helper_exe)?;
    let (r, v, c) = (&mut report, &mut values, &mut cal);
    match opts.workload.as_str() {
        "flat-fixpoint" => mix::run(opts, inputs::VertexKind::Atom, r, v, c)?,
        "nested-values" => mix::run(opts, inputs::VertexKind::Chain, r, v, c)?,
        "ivm-churn" => churn::run(opts, r, v, c)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    cal.sample();
    values.set("peak_rss_mb", peak_rss_mb());
    values.set(
        "failed_op_frac",
        ratio(report.failed as f64, report.attempted as f64),
    );
    let scale = cal.scale_between(0, cal.epoch());
    report
        .meta
        .insert("calib.samples".into(), cal.epoch().to_string());
    report
        .meta
        .insert("calib.scale".into(), format!("{scale:.4}"));
    values.scale_per_layer_times(scale);
    report.end_to_end = values.end_to_end();
    report.per_layer = values.per_layer();
    Ok(report)
}

/// The untraced phase's op latencies, each with the calibration epoch
/// it was timed in, and the tuples it derived if it reports `EvalStats`.
/// Each latency is scaled by the kernel samples around it, so host-speed
/// drift within a run cancels too.
#[derive(Default)]
pub struct Latencies(Vec<(f64, usize, Option<u64>)>);

impl Latencies {
    pub fn push(&mut self, ms: f64, epoch: usize, tuples: Option<u64>) {
        self.0.push((ms, epoch, tuples));
    }

    pub fn raw(&self) -> Vec<f64> {
        self.0.iter().map(|o| o.0).collect()
    }

    pub fn scaled(&self, cal: &calib::Calibration) -> Vec<f64> {
        self.0
            .iter()
            .map(|&(ms, e, _)| ms * cal.scale_at(e))
            .collect()
    }

    pub fn mean_scaled(&self, cal: &calib::Calibration) -> f64 {
        ratio(self.scaled(cal).iter().sum(), self.0.len() as f64)
    }

    /// Set the end-to-end op metrics from `lat` (reference-host time)
    /// and record the raw figures in `meta`.
    pub fn publish(
        &self,
        cal: &calib::Calibration,
        values: &mut Values,
        meta: &mut BTreeMap<String, String>,
    ) {
        let n = self.0.len();
        for (prefix, lat) in [("", self.scaled(cal)), ("raw.", self.raw())] {
            let stats_ms: f64 = lat
                .iter()
                .zip(&self.0)
                .filter(|(_, o)| o.2.is_some())
                .map(|(ms, _)| ms)
                .sum();
            let tuples: u64 = self.0.iter().filter_map(|o| o.2).sum();
            let figures = [
                ("op_ms_p50", record::percentile(&lat, 0.5)),
                ("op_ms_p90", record::percentile(&lat, 0.9)),
                ("ops_per_s", ratio(n as f64, lat.iter().sum::<f64>() / 1e3)),
                ("us_per_derived_tuple", ratio(stats_ms * 1e3, tuples as f64)),
            ];
            for (name, v) in figures {
                if prefix.is_empty() {
                    values.set(name, v);
                } else {
                    meta.insert(format!("{prefix}{name}"), format!("{v:.4}"));
                }
            }
        }
        meta.insert("ops.timed".into(), n.to_string());
        meta.insert(
            "ops.beyond_p90".into(),
            (n - (0.9 * n as f64).ceil() as usize).to_string(),
        );
    }
}

/// Set `setup_s` from the set-up times, scaled by the kernel samples
/// taken during set-up, and record the raw figure.
pub fn publish_setup(
    setup_s: &[f64],
    cal: &calib::Calibration,
    values: &mut Values,
    meta: &mut BTreeMap<String, String>,
) {
    let raw = median(setup_s);
    let scale = cal.scale_between(0, cal.epoch());
    values.set("setup_s", raw * scale);
    meta.insert("raw.setup_s".into(), format!("{raw:.4}"));
    meta.insert("calib.setup_scale".into(), format!("{scale:.4}"));
    meta.insert("setup.reps".into(), setup_s.len().to_string());
}
