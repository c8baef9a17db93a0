//! Host-speed calibration.
//!
//! The effective speed of a shared host drifts by tens of percent over
//! minutes, which swamps the differences the benchmark exists to show.
//! The benchmark therefore times a fixed kernel, independent of the
//! engines, between ops, and scales every time metric by
//! `REFERENCE_MS / median(kernel time)`: a time metric reads as it would
//! on a host where the kernel takes exactly [`REFERENCE_MS`]. The raw
//! figures and the scale factor are reported alongside.
//!
//! The kernel runs in a helper process of its own (the benchmark binary
//! started with [`HELPER_FLAG`]), so it shares the host's drift but not
//! the engines' heap: the global intern pool, allocator state and
//! anything else an engine change could leave behind cannot speed up or
//! slow down the kernel and so be cancelled out of the scaled figures.
//! (Timed inside the benchmark's process, against the helper at the same
//! moments, the kernel ran 9–11% slower with `USET_INTERN=on` than with
//! `off` on `flat-fixpoint` and `ivm-churn`: that much of an engine
//! change was cancelled.) `run.py` pins the benchmark, and so the helper,
//! to one CPU: the vCPUs of a shared host drift apart, and an unpinned
//! helper timed whichever one it woke on. Before each timing the helper
//! writes one word per cache line of a buffer larger than the caches, so
//! the kernel starts cold, as it did after an op in the benchmark's
//! process; over the same five runs of `flat-fixpoint` and `ivm-churn`,
//! the run-to-run spread of the scaled median latency was 0.026 and
//! 0.079 this way, 0.033 and 0.092 with warm caches, and 0.022 and
//! 0.069 with the kernel timed in-process.
//!
//! The kernel formats, sorts, groups and parses a few thousand short
//! strings: many small heap objects, ordered-map inserts and a broad mix
//! of library code. Of the kernels tried (ordered-set probes over a
//! small and a multi-megabyte set, allocation churn, a std-only
//! transitive closure, this one), its time tracked the engines' time
//! over 2-second windows best on a shared 2-core host: the engines'
//! time varied 2× between windows, their ratio to this kernel's by a
//! coefficient of variation of 0.04.

use crate::rng::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The argument that makes the benchmark binary serve kernel timings:
/// one kernel run per line read from stdin, its time in ms written back
/// as one line; it exits at end of input.
pub const HELPER_FLAG: &str = "--calib-helper";

/// Kernel time on the reference host.
pub const REFERENCE_MS: f64 = 2.0;

/// The cache-flushing buffer's length in `u64`s: 16 MB.
const FLUSH_WORDS: usize = 2 << 20;

/// Op time to let pass between two kernel samples.
const EVERY_MS: f64 = 25.0;

/// Kernel samples on each side of an op that set its scale.
const WINDOW: usize = 4;

fn kernel() -> u64 {
    let mut rng = Rng::new(0x41);
    let mut words: Vec<String> = (0..3_000)
        .map(|_| format!("w{:x}-{}", rng.next_u64() % 100_000, rng.next_u64() % 7))
        .collect();
    words.sort();
    let mut groups: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for w in &words {
        groups.entry(w[..3].to_owned()).or_default().push(w.clone());
    }
    let mut acc = 0u64;
    for (k, v) in &groups {
        let parsed: u64 = v
            .iter()
            .map(|s| s.parse::<u64>().unwrap_or(s.len() as u64))
            .sum();
        acc = acc.wrapping_add(k.len() as u64 + parsed);
    }
    black_box(acc)
}

fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Evict the kernel's data from the caches: write one word per 64-byte
/// line of `buf`.
fn flush(buf: &mut [u64]) {
    for i in (0..buf.len()).step_by(8) {
        buf[i] = buf[i].wrapping_add(1);
    }
    black_box(buf);
}

/// The helper process's main loop.
pub fn serve() -> std::io::Result<()> {
    time_kernel(); // untimed: first-touch page faults
    let mut buf = vec![0u64; FLUSH_WORDS];
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line?;
        flush(&mut buf);
        writeln!(out, "{}", time_kernel())?;
        out.flush()?;
    }
    Ok(())
}

pub struct Calibration {
    child: Child,
    to_helper: Option<ChildStdin>,
    from_helper: BufReader<ChildStdout>,
    samples: Vec<f64>,
    since_ms: f64,
    spent_ms: f64,
}

impl Calibration {
    /// Start the helper process: `exe` is the benchmark binary.
    pub fn spawn(exe: &Path) -> Result<Calibration, String> {
        let mut child = Command::new(exe)
            .arg(HELPER_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start calibration helper {}: {e}", exe.display()))?;
        let to_helper = child.stdin.take();
        let from_helper = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Calibration {
            child,
            to_helper,
            from_helper,
            samples: Vec::new(),
            since_ms: 0.0,
            spent_ms: 0.0,
        })
    }

    /// Time the kernel once, in the helper.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut line = String::new();
        let to_helper = self.to_helper.as_mut().expect("helper open");
        to_helper
            .write_all(b"\n")
            .and_then(|()| to_helper.flush())
            .and_then(|()| self.from_helper.read_line(&mut line))
            .expect("calibration helper answers");
        let ms = line.trim().parse::<f64>().expect("calibration helper sends a time");
        self.samples.push(ms);
        self.since_ms = 0.0;
        self.spent_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    /// Account `ms` of op time; sample the kernel once enough has passed.
    pub fn after_op(&mut self, ms: f64) {
        self.since_ms += ms;
        if self.since_ms >= EVERY_MS {
            self.sample();
        }
    }

    /// Wall time spent sampling so far, in ms: set-up subtracts what it
    /// spent calibrating.
    pub fn spent_ms(&self) -> f64 {
        self.spent_ms
    }

    /// Kernel samples so far: an op timed now belongs to this epoch.
    pub fn epoch(&self) -> usize {
        self.samples.len()
    }

    /// Multiply a time measured between epochs `from` and `to` by this
    /// to get reference-host time.
    pub fn scale_between(&self, from: usize, to: usize) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let to = to.clamp(1, self.samples.len());
        let from = from.min(to - 1);
        crate::ratio(REFERENCE_MS, crate::median(&self.samples[from..to]))
    }

    /// The scale for an op timed in `epoch`: from the kernel samples
    /// closest to it in time.
    pub fn scale_at(&self, epoch: usize) -> f64 {
        self.scale_between(epoch.saturating_sub(WINDOW), epoch + WINDOW)
    }
}

impl Drop for Calibration {
    /// Close the helper's input, which ends it, and wait for it.
    fn drop(&mut self) {
        drop(self.to_helper.take());
        let _ = self.child.wait();
    }
}
