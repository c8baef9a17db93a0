//! Deterministic scoped worker pool for the fixpoint engines.
//!
//! Every engine in this workspace evaluates by *rounds*: phase 1 derives
//! candidate facts from a settled pre-round snapshot, phase 2 inserts them
//! sequentially (deduplicating, charging budgets, recording deltas and
//! trace events). Phase 1 is pure — it only reads the snapshot — so it can
//! fan out across threads without changing any observable behavior, as
//! long as the per-worker result buffers are merged back in a canonical
//! order. The fixpoint engines (DATALOG¬, COL, BK) run phase 1 through
//! [`try_par_map`] at *every* width: at width 1 it runs the same units
//! inline on the caller's thread, so there is no separate sequential
//! path to drift from the parallel one. This crate provides exactly that
//! primitive and nothing else:
//!
//! - [`ParConfig`]: worker-count selection (`USET_THREADS=off|N`, default
//!   `off`, i.e. width 1 — no thread is spawned unless opted in);
//! - [`par_map`]: an order-preserving parallel map on
//!   [`std::thread::scope`] with dynamic work distribution — results come
//!   back indexed by input position, so the merge order is the input
//!   order no matter which worker computed what;
//! - [`shard_of`]: a stable hash-based fact → shard assignment used to
//!   partition a round's delta across workers;
//! - [`split_range`]: contiguous range splitting for level/candidate-space
//!   enumeration (calculus invention levels, `cons_T(X)` candidates).
//!
//! The pool is deliberately *scoped*, not persistent: a fixpoint round
//! borrows engine state (rules, snapshots, read-only indexes) into the
//! workers, and `std::thread::scope` guarantees those borrows end before
//! the round's sequential phase 2 begins. Spawning a handful of threads
//! per round costs ~100µs, which is noise against the multi-millisecond
//! rounds that are worth parallelizing at all; see DESIGN.md §11 for the
//! determinism argument and the memory model.

use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the worker count, however `USET_THREADS` is set. A
/// fixpoint round shards its delta per worker; thousands of shards would
/// only fragment the work, so widths beyond any plausible core count are
/// clamped rather than honored.
pub const MAX_WORKERS: usize = 256;

/// Worker-count policy for one engine run.
///
/// The default ([`ParConfig::from_env`]) defers to the `USET_THREADS`
/// environment variable *at resolution time* — i.e. when the engine run
/// starts — so every existing entry point picks up the variable without
/// signature changes. Tests and benches should pin an explicit
/// [`ParConfig::off`]/[`ParConfig::workers`] instead, because process
/// environment is global and racy under a multi-threaded test harness.
///
/// `USET_THREADS` grammar: unset, empty, `off`, `1`, or anything
/// unparseable → sequential; `N ≥ 2` → `N` workers (clamped to
/// [`MAX_WORKERS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig {
    /// `None` = resolve from the environment; `Some(n)` = pinned width.
    workers: Option<usize>,
}

impl ParConfig {
    /// Defer to `USET_THREADS` when the run starts (the default).
    pub fn from_env() -> ParConfig {
        ParConfig { workers: None }
    }

    /// Force sequential evaluation regardless of the environment.
    pub fn off() -> ParConfig {
        ParConfig { workers: Some(1) }
    }

    /// Pin an explicit worker count (0 is treated as 1).
    pub fn workers(n: usize) -> ParConfig {
        ParConfig {
            workers: Some(n.clamp(1, MAX_WORKERS)),
        }
    }

    /// The effective worker count for a run starting now: the pinned
    /// width, or the current value of `USET_THREADS`. A result of 1 means
    /// every phase runs inline on the caller's thread.
    pub fn resolve(&self) -> usize {
        match self.workers {
            Some(n) => n,
            None => env_workers(),
        }
    }

    /// True if this config can never parallelize (pinned to 1).
    pub fn is_off(&self) -> bool {
        self.workers == Some(1)
    }
}

/// Parse `USET_THREADS` (see [`ParConfig`] for the grammar).
fn env_workers() -> usize {
    match std::env::var("USET_THREADS") {
        Ok(raw) => {
            let s = raw.trim();
            if s.is_empty() || s.eq_ignore_ascii_case("off") {
                1
            } else {
                s.parse::<usize>()
                    .ok()
                    .map_or(1, |n| n.clamp(1, MAX_WORKERS))
            }
        }
        Err(_) => 1,
    }
}

/// Order-preserving parallel map: applies `f` to every item and returns
/// the results **in input order**, regardless of which worker computed
/// which item.
///
/// Work distribution is dynamic (an atomic next-index counter), so
/// heterogeneous unit costs — one rule's delta shard being 100× another —
/// balance across workers instead of serializing on the unlucky chunk.
/// Determinism is unaffected: a unit's *result* depends only on the unit,
/// never on the worker or the schedule, and the merge is by input index.
///
/// With `workers <= 1` (or fewer than two items) this runs inline on the
/// caller's thread with no pool at all — the sequential code path is the
/// parallel code path at width 1, which is what makes "parallel ≡
/// sequential" testable rather than aspirational. The fixpoint engines
/// call [`try_par_map`], the panic-isolating variant, at every width.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let width = workers.min(n).min(MAX_WORKERS);
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        for h in handles {
            match h.join() {
                Ok(local) => out.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// A worker unit panicked inside [`try_par_map`].
///
/// Carries the lowest panicking unit index (deterministic no matter which
/// worker hit it first) and the panic payload rendered as a string when it
/// was a `&str` or `String` — the two shapes `panic!` produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParPanic {
    /// Input index of the panicking unit (lowest, if several panicked).
    pub unit: usize,
    /// Panic payload as text, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for ParPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker unit {} panicked: {}", self.unit, self.message)
    }
}

impl std::error::Error for ParPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolating variant of [`par_map`]: each unit runs under
/// `catch_unwind`, and a panicking unit becomes a structured
/// [`ParPanic`] error instead of unwinding through the pool.
///
/// On the first caught panic the next-index counter is saturated so the
/// remaining workers drain without starting new units; the pool always
/// joins cleanly — no hung threads, no poisoned state. When several units
/// panic (possible with concurrent workers), the *lowest* unit index is
/// reported, so the error is deterministic regardless of schedule.
///
/// On success the result is identical to `par_map` — same order, same
/// inline fast path at width 1.
pub fn try_par_map<T, R, F>(workers: usize, items: &[T], f: F) -> Result<Vec<R>, ParPanic>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let n = items.len();
    if workers <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, t) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, t))) {
                Ok(r) => out.push(r),
                Err(p) => {
                    return Err(ParPanic {
                        unit: i,
                        message: panic_message(p.as_ref()),
                    })
                }
            }
        }
        return Ok(out);
    }
    let width = workers.min(n).min(MAX_WORKERS);
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let (mut pairs, panics): (Vec<(usize, R)>, Vec<ParPanic>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut tripped: Option<ParPanic> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                            Ok(r) => local.push((i, r)),
                            Err(p) => {
                                tripped = Some(ParPanic {
                                    unit: i,
                                    message: panic_message(p.as_ref()),
                                });
                                // Push the counter past the end so the
                                // other workers stop claiming units and
                                // the scope joins promptly. (`n`, not
                                // `usize::MAX`: fetch_add wraps, and a
                                // wrapped counter would hand out unit 0
                                // again.)
                                next.store(n, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    (local, tripped)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut panics = Vec::new();
        for h in handles {
            // The closures only run under catch_unwind, so join can only
            // fail on a panic in this harness itself; propagate those.
            match h.join() {
                Ok((local, tripped)) => {
                    out.extend(local);
                    panics.extend(tripped);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        (out, panics)
    });
    if let Some(p) = panics.into_iter().min_by_key(|p| p.unit) {
        return Err(p);
    }
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    Ok(pairs.into_iter().map(|(_, r)| r).collect())
}

/// Stable shard assignment for a hashable fact: `shard_of(v, k) ∈ 0..k`.
///
/// Uses [`std::collections::hash_map::DefaultHasher`] *constructed
/// directly* (not through a `RandomState`), which is SipHash-1-3 with a
/// fixed zero key — the assignment is identical across runs, processes,
/// and platforms, so a sharded round partitions its delta the same way
/// every time. `k = 0` is treated as 1.
pub fn shard_of<T: Hash + ?Sized>(value: &T, shards: usize) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    (h.finish() % shards.max(1) as u64) as usize
}

/// Partition items into `shards` buckets by [`shard_of`], preserving the
/// input order within each bucket. The concatenation of the buckets in
/// index order is a permutation of the input that depends only on the
/// items and the shard count.
pub fn shard_by_hash<T: Hash, I: IntoIterator<Item = T>>(items: I, shards: usize) -> Vec<Vec<T>> {
    let k = shards.max(1);
    let mut out: Vec<Vec<T>> = (0..k).map(|_| Vec::new()).collect();
    for item in items {
        let s = shard_of(&item, k);
        out[s].push(item);
    }
    out
}

/// Split `0..n` into at most `parts` contiguous ranges of near-equal
/// length (sizes differ by at most 1), in order. Empty ranges are never
/// returned; fewer than `parts` ranges come back when `n < parts`.
pub fn split_range(n: usize, parts: usize) -> Vec<Range<usize>> {
    let p = parts.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_every_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for width in [1, 2, 3, 4, 8, 97, 200] {
            let got = par_map(width, &items, |_, x| x * x);
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn par_map_passes_input_index() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(4, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_handles_heterogeneous_costs() {
        // one expensive unit among many cheap ones must not lose or
        // reorder results under dynamic scheduling
        let items: Vec<u64> = (0..32).collect();
        let got = par_map(4, &items, |_, &x| {
            if x == 0 {
                (0..200_000u64).sum::<u64>() % 1000 + x
            } else {
                x
            }
        });
        assert_eq!(got.len(), 32);
        assert_eq!(&got[1..], &items[1..]);
    }

    #[test]
    #[should_panic(expected = "unit 13")]
    fn par_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(4, &items, |i, _| {
            if i == 13 {
                panic!("unit 13");
            }
            i
        });
    }

    #[test]
    fn try_par_map_matches_par_map_on_success() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [1, 2, 4, 8] {
            let got = try_par_map(workers, &items, |i, &x| x * 2 + i as u64).unwrap();
            let want = par_map(workers, &items, |i, &x| x * 2 + i as u64);
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn try_par_map_surfaces_panicking_unit_as_error() {
        // deliberately panicking injected task: the pool must join
        // cleanly and hand back a structured error, not unwind or hang
        let items: Vec<usize> = (0..64).collect();
        for workers in [1, 4] {
            let err = try_par_map(workers, &items, |i, _| {
                if i == 13 {
                    panic!("unit 13 blew up");
                }
                i
            })
            .unwrap_err();
            assert_eq!(err.unit, 13, "workers={workers}");
            assert_eq!(err.message, "unit 13 blew up");
            assert!(err.to_string().contains("unit 13"));
        }
    }

    #[test]
    fn try_par_map_reports_lowest_panicking_unit() {
        // several units panic; the reported index must be deterministic
        // (the lowest) no matter which worker tripped first
        let items: Vec<usize> = (0..64).collect();
        let err = try_par_map(4, &items, |i, _| {
            if i % 7 == 3 {
                panic!("boom at {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.unit, 3);
        assert_eq!(err.message, "boom at 3");
    }

    #[test]
    fn try_par_map_non_string_payload_gets_placeholder() {
        let items: Vec<usize> = vec![0];
        let err = try_par_map(1, &items, |_, _| -> usize {
            std::panic::panic_any(42u32);
        })
        .unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for k in 1..9usize {
            for v in 0..1000u64 {
                let s = shard_of(&v, k);
                assert!(s < k);
                assert_eq!(s, shard_of(&v, k), "same input, same shard");
            }
        }
        // k = 0 degrades to a single shard rather than dividing by zero
        assert_eq!(shard_of(&42u64, 0), 0);
    }

    #[test]
    fn shard_by_hash_partitions_and_spreads() {
        let items: Vec<u64> = (0..256).collect();
        let buckets = shard_by_hash(items.clone(), 4);
        assert_eq!(buckets.len(), 4);
        let mut flat: Vec<u64> = buckets.iter().flatten().copied().collect();
        flat.sort_unstable();
        assert_eq!(flat, items, "sharding is a partition");
        // SipHash spreads a contiguous range decently: no bucket owns
        // everything
        assert!(buckets.iter().all(|b| b.len() < 256));
        assert!(buckets.iter().filter(|b| !b.is_empty()).count() >= 2);
    }

    #[test]
    fn split_range_covers_exactly() {
        for n in 0..40usize {
            for parts in 1..10usize {
                let ranges = split_range(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} parts={parts}");
                assert!(ranges.iter().all(|r| !r.is_empty()));
                let mut pos = 0;
                for r in &ranges {
                    assert_eq!(r.start, pos, "contiguous");
                    pos = r.end;
                }
                if n > 0 {
                    let (min, max) = (
                        ranges.iter().map(|r| r.len()).min().unwrap(),
                        ranges.iter().map(|r| r.len()).max().unwrap(),
                    );
                    assert!(max - min <= 1, "near-equal sizes");
                }
            }
        }
    }

    #[test]
    fn config_resolution() {
        assert_eq!(ParConfig::off().resolve(), 1);
        assert!(ParConfig::off().is_off());
        assert_eq!(ParConfig::workers(4).resolve(), 4);
        assert_eq!(ParConfig::workers(0).resolve(), 1);
        assert_eq!(ParConfig::workers(usize::MAX).resolve(), MAX_WORKERS);
        assert!(!ParConfig::workers(4).is_off());
        // from_env defers; we can't assert the ambient env var's value in
        // a parallel test harness, only that resolution stays in range
        let n = ParConfig::from_env().resolve();
        assert!((1..=MAX_WORKERS).contains(&n));
    }
}
