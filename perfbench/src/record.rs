//! Timing from outside the engines: every op is a root span and every
//! call into a crate's public entry point is a child span named
//! `<crate>.<function>`.
//!
//! An untraced recorder keeps only per-name duration samples. A traced
//! recorder also keeps every span (name, start, end, parent, op id) of
//! the ops in memory; they are written out once the run is over. Calls
//! made outside an op (reference runs, untimed checks, session opens)
//! leave a duration sample but no span, so they never count towards a
//! layer's self time.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    traced: bool,
    op_id: u64,
    open: Option<usize>,
    spans: Vec<Span>,
    /// Call durations in ms, by span name (roots and children alike).
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            traced,
            op_id: 0,
            open: None,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time one op: `f` makes its layer calls through [`Recorder::call`].
    /// Returns `f`'s result and the op's latency in ms.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        self.op_id += 1;
        let start = self.now_ns();
        let slot = self.traced.then(|| {
            self.spans.push(Span {
                name,
                op: self.op_id,
                parent: None,
                start_ns: start,
                end_ns: start,
            });
            self.spans.len() - 1
        });
        self.open = slot;
        let t = Instant::now();
        let out = f(self);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(i) = slot {
            self.spans[i].end_ns = self.now_ns();
        }
        self.open = None;
        self.samples.entry(name).or_default().push(ms);
        (out, ms)
    }

    /// Time one call into a layer's public entry point; inside an op of
    /// a traced recorder, also record it as a child span of the op.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(parent) = self.open {
            self.spans.push(Span {
                name,
                op: self.op_id,
                parent: Some(parent),
                start_ns: start,
                end_ns: self.now_ns(),
            });
        }
        self.samples.entry(name).or_default().push(ms);
        out
    }

    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |xs| percentile(xs, 0.5))
    }

    /// Self time per layer (the span name's prefix up to the first dot;
    /// `op.*` root spans count as `harness`), in ms summed over all
    /// spans. A span's self time is its duration minus its children's.
    pub fn self_ms_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = match s.name.split('.').next().unwrap_or(s.name) {
                "op" => "harness",
                prefix => prefix,
            };
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(layer.to_owned()).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::Recorder;

    #[test]
    fn calls_outside_an_op_leave_a_sample_but_no_span() {
        let mut rec = Recorder::new(true);
        rec.call("gtm.reference", || ());
        rec.op("op.x", |r| r.call("deductive.eval", || ()));
        rec.call("deductive.check", || ());
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op.x", "deductive.eval"]);
        assert_eq!(rec.samples["deductive.check"].len(), 1);
        assert_eq!(rec.samples["gtm.reference"].len(), 1);
        let layers: Vec<String> = rec.self_ms_by_layer().into_keys().collect();
        assert_eq!(layers, ["deductive", "harness"]);
    }
}
