//! Work counters for the deductive engines.
//!
//! Wall-clock alone cannot distinguish "the engine did less work" from
//! "the machine was faster", so the engines in `uset-deductive` thread an
//! [`EvalStats`] through their fixpoints and the bench harness reports
//! these counts alongside timing. The semi-naive ablations assert on them
//! directly: a correct semi-naive engine derives strictly fewer tuples
//! than the naive engine on recursive workloads.

/// Cumulative work counters for one evaluation (or several, when reused
/// across strata — counters only ever accumulate).
///
/// The first six fields are *work* counters: they measure what the engine
/// logically did and must be bit-identical across execution choices
/// (parallel widths, checkpoint resume). The pool fields are *advisory*
/// attribution counters: they describe how the hash-consing layer served
/// that work, legitimately differ with what the pool already held (a
/// second run of the same program hits where the first stored, and a
/// kill/resume re-warms it), and are therefore excluded from equality,
/// `Display`, and the checkpoint codec.
#[derive(Clone, Copy, Debug, Default, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed.
    pub rounds: u64,
    /// Rule firings (one per rule × round × delta-rewriting variant).
    pub rules_fired: u64,
    /// Tuples derived before deduplication — the raw join output volume,
    /// the number a semi-naive engine exists to shrink.
    pub tuples_derived: u64,
    /// Hash-index probes that replaced full relation scans.
    pub index_probes: u64,
    /// Join literals that had a ground column available but still fell
    /// back to a full relation scan (no usable index at that position) —
    /// the benchable signal that an indexing opportunity was missed.
    pub scan_fallbacks: u64,
    /// Largest total fact count observed in the evolving state.
    pub peak_facts: usize,
    /// Distinct objects the hash-consing pool stored during this
    /// evaluation (advisory; see the struct docs).
    pub objects_interned: u64,
    /// Intern calls the pool answered from an existing record —
    /// each one is a deep traversal (hash/compare/clone) that the
    /// sharing avoided (advisory).
    pub intern_hits: u64,
    /// Estimated heap bytes structural sharing avoided allocating
    /// (advisory).
    pub bytes_shared_estimate: u64,
}

/// Equality covers the work counters only: two runs of the same program
/// must compare equal even though their pool attribution differs.
impl PartialEq for EvalStats {
    fn eq(&self, other: &EvalStats) -> bool {
        self.rounds == other.rounds
            && self.rules_fired == other.rules_fired
            && self.tuples_derived == other.tuples_derived
            && self.index_probes == other.index_probes
            && self.scan_fallbacks == other.scan_fallbacks
            && self.peak_facts == other.peak_facts
    }
}

impl EvalStats {
    /// Record the current total fact count, keeping the running peak.
    pub fn observe_facts(&mut self, facts: usize) {
        self.peak_facts = self.peak_facts.max(facts);
    }

    /// Fold another evaluation's counters into this one (counts add,
    /// peaks max) — for callers that evaluate in phases with separate
    /// stats.
    pub fn absorb(&mut self, other: &EvalStats) {
        self.rounds += other.rounds;
        self.rules_fired += other.rules_fired;
        self.tuples_derived += other.tuples_derived;
        self.index_probes += other.index_probes;
        self.scan_fallbacks += other.scan_fallbacks;
        self.peak_facts = self.peak_facts.max(other.peak_facts);
        self.objects_interned += other.objects_interned;
        self.intern_hits += other.intern_hits;
        self.bytes_shared_estimate += other.bytes_shared_estimate;
    }

    /// Attribute pool counter movement to this evaluation: callers
    /// snapshot [`crate::Pool::stats`] on entry and pass the delta on
    /// exit.
    pub fn note_intern(&mut self, delta: &crate::intern::InternStats) {
        self.objects_interned += delta.objects_interned;
        self.intern_hits += delta.intern_hits;
        self.bytes_shared_estimate += delta.bytes_shared_estimate;
    }
}

/// `Display` prints the work counters only (the stable six-field line
/// examples and traces were built against); pool attribution is read
/// from the fields or [`crate::Pool::stats`] directly.
impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rounds={} rules_fired={} tuples_derived={} index_probes={} scan_fallbacks={} peak_facts={}",
            self.rounds,
            self.rules_fired,
            self.tuples_derived,
            self.index_probes,
            self.scan_fallbacks,
            self.peak_facts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::EvalStats;

    #[test]
    fn absorb_adds_counts_and_maxes_peak() {
        let mut a = EvalStats {
            rounds: 2,
            rules_fired: 10,
            tuples_derived: 100,
            index_probes: 5,
            scan_fallbacks: 2,
            peak_facts: 40,
            ..EvalStats::default()
        };
        let b = EvalStats {
            rounds: 3,
            rules_fired: 1,
            tuples_derived: 1,
            index_probes: 1,
            scan_fallbacks: 1,
            peak_facts: 7,
            ..EvalStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.rules_fired, 11);
        assert_eq!(a.tuples_derived, 101);
        assert_eq!(a.index_probes, 6);
        assert_eq!(a.scan_fallbacks, 3);
        assert_eq!(a.peak_facts, 40);
    }

    #[test]
    fn observe_facts_tracks_peak() {
        let mut s = EvalStats::default();
        s.observe_facts(3);
        s.observe_facts(9);
        s.observe_facts(6);
        assert_eq!(s.peak_facts, 9);
    }

    #[test]
    fn intern_counters_are_advisory() {
        let mut a = EvalStats {
            rounds: 1,
            ..EvalStats::default()
        };
        let mut b = a;
        b.objects_interned = 100;
        b.intern_hits = 50;
        b.bytes_shared_estimate = 4096;
        // Same work, different pool attribution: still equal, same line.
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        assert!(!a.to_string().contains("intern"));
        // ...but absorb carries them for the bench harness.
        a.absorb(&b);
        assert_eq!(a.objects_interned, 100);
        assert_eq!(a.intern_hits, 50);
        assert_eq!(a.rounds, 2);
    }
}
