//! Phase 1 of a fixpoint round, shared by the DATALOG¬ and COL engines.
//!
//! Both engines evaluate by rounds: phase 1 derives candidate facts from
//! the settled pre-round state, phase 2 inserts them one by one
//! (deduplicating, charging the fact budget, recording the delta and the
//! trace). Phase 1 takes one path at every width. The engine lists the
//! round's firing units with [`RoundUnits`], and [`fire_round`] runs them
//! through [`uset_par::try_par_map`] — inline on the caller's thread at
//! width 1, on a scoped pool above — then merges the per-unit buffers in
//! canonical (group, shard) order. The width only decides how a
//! delta-restricted firing is split: at width 1 one unit borrows the
//! round's delta; above, each non-empty hash shard of it becomes a unit.

use std::borrow::Cow;
use std::time::Instant;
use uset_guard::trace::span::RuleFirings;
use uset_guard::{Guard, ParBrake, Trip};
use uset_object::EvalStats;
use uset_par::try_par_map;

/// How one rule takes part in a semi-naive run, classified once per run
/// (per stratum under stratified semantics). A naive run classifies every
/// rule as [`RuleClass::Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RuleClass {
    /// Reads no symbol defined in this run: fires in the first round only.
    Constant,
    /// All same-run reads are monotone; each listed body position is a
    /// positive read of a run symbol, and after the first round the rule
    /// fires once per position with that literal restricted to the delta.
    Seminaive(Vec<usize>),
    /// Has a non-monotone same-run read (negation, or a run function's
    /// value evaluated as a term): fires from the full pre-round state
    /// every round.
    Snapshot,
}

/// One phase-1 work unit: rule `idx` fired from the full settled state
/// (`delta: None`) or with body position `pos` reading `delta` instead —
/// the round's delta itself at width 1, one hash shard of it above. Units
/// sharing a `group` are one firing: the merge counts the group once and
/// concatenates its buffers in shard order. `count_prefix` routes the
/// work counters of the literals before `pos`, which evaluate identically
/// in every shard: exactly one shard of a group counts them.
pub(crate) struct FireUnit<'a, R, D: Clone> {
    pub group: usize,
    pub idx: usize,
    pub rule: &'a R,
    pub delta: Option<(Cow<'a, D>, usize)>,
    pub count_prefix: bool,
}

/// The firing units of one round, in canonical order.
pub(crate) struct RoundUnits<'a, R, D: Clone> {
    workers: usize,
    groups: usize,
    units: Vec<FireUnit<'a, R, D>>,
}

impl<'a, R, D: Clone + Default> RoundUnits<'a, R, D> {
    /// No units yet, for a round `workers` wide.
    pub fn new(workers: usize) -> Self {
        RoundUnits {
            workers,
            groups: 0,
            units: Vec::new(),
        }
    }

    /// Add the firings of rule `idx` that its class calls for this round.
    /// `delta_at(pos)` is the delta body position `pos` reads (`None` if
    /// the round derived nothing for it); `shard(delta, pos, k)` splits
    /// that delta into the non-empty ones of `k` hash shards, and is only
    /// called above width 1.
    pub fn push_rule(
        &mut self,
        idx: usize,
        rule: &'a R,
        class: &RuleClass,
        first: bool,
        delta_at: impl Fn(usize) -> Option<&'a D>,
        shard: impl Fn(&D, usize, usize) -> Vec<D>,
    ) {
        let positions: &[usize] = match class {
            RuleClass::Seminaive(positions) if !first => positions,
            RuleClass::Constant if !first => return,
            _ => {
                self.push(idx, rule, None, true);
                self.groups += 1;
                return;
            }
        };
        for &pos in positions {
            let split = match delta_at(pos) {
                Some(d) if self.workers <= 1 => vec![Cow::Borrowed(d)],
                Some(d) => shard(d, pos, self.workers)
                    .into_iter()
                    .map(Cow::Owned)
                    .collect(),
                None => Vec::new(),
            };
            if split.is_empty() {
                // an empty delta still fires once, so the firing and its
                // prefix work are counted at every width
                self.push(idx, rule, Some((Cow::Owned(D::default()), pos)), true);
            }
            for (k, d) in split.into_iter().enumerate() {
                self.push(idx, rule, Some((d, pos)), k == 0);
            }
            self.groups += 1;
        }
    }

    fn push(
        &mut self,
        idx: usize,
        rule: &'a R,
        delta: Option<(Cow<'a, D>, usize)>,
        count_prefix: bool,
    ) {
        self.units.push(FireUnit {
            group: self.groups,
            idx,
            rule,
            delta,
            count_prefix,
        });
    }

    /// The units, in canonical order.
    pub fn into_units(self) -> Vec<FireUnit<'a, R, D>> {
        self.units
    }
}

/// Why phase 1 handed back no candidates.
pub(crate) enum RoundStop<E> {
    /// A rule failed; the first failing unit in canonical order.
    Rule(E),
    /// A unit panicked or the brake stopped the round. Nothing was
    /// inserted, so the engine reports this trip with the state at the
    /// last completed round.
    Trip(Trip),
}

impl<E> RoundStop<E> {
    /// The engine error: a rule's own, or `exhaust` applied to the trip.
    pub fn into_error(self, exhaust: impl FnOnce(Trip) -> E) -> E {
        match self {
            RoundStop::Rule(e) => e,
            RoundStop::Trip(trip) => exhaust(trip),
        }
    }
}

/// One unit's buffers, merged on the caller's thread in unit order.
struct Fired<F> {
    derived: Vec<F>,
    stats: EvalStats,
    wall: u64,
}

/// Run one round's units at the guard's width and merge their buffers in
/// canonical order. `fire` derives one unit's candidates into its buffer
/// and local counters, polling the brake. Group-level `rules_fired` and
/// `RuleFired` accounting land in `stats` and `ctx`, and the units' local
/// counters are summed in. A panicking unit becomes a
/// [`uset_guard::Resource::Panicked`] trip; a brake stop becomes the trip
/// [`Guard::brake_stop`] names. The result is one buffer per unit.
pub(crate) fn fire_round<R, D, F, E>(
    units: &[FireUnit<'_, R, D>],
    guard: &mut Guard,
    stats: &mut EvalStats,
    ctx: &mut RuleFirings,
    fire: impl Fn(&FireUnit<'_, R, D>, &ParBrake, &mut Vec<F>, &mut EvalStats) -> Result<(), E> + Sync,
) -> Result<Vec<Vec<F>>, RoundStop<E>>
where
    R: Sync,
    D: Clone + Sync,
    F: Send,
    E: Send,
{
    let brake = guard.par_brake();
    let timed = ctx.enabled();
    let fired = try_par_map(guard.workers(), units, |_, unit| {
        let t0 = timed.then(Instant::now);
        let mut out = Fired {
            derived: Vec::new(),
            stats: EvalStats::default(),
            wall: 0,
        };
        let res = fire(unit, &brake, &mut out.derived, &mut out.stats);
        if let Some(t0) = t0 {
            out.wall = t0.elapsed().as_micros() as u64;
        }
        res.map(|()| out)
    });
    // a panicking unit drained the pool cleanly and nothing was merged
    let outputs = fired.map_err(|_| RoundStop::Trip(guard.panic_trip()))?;
    let mut buffers = Vec::with_capacity(outputs.len());
    let mut current: Option<(usize, usize, u64, u64)> = None; // (group, idx, produced, wall)
    for (unit, res) in units.iter().zip(outputs) {
        let out = res.map_err(RoundStop::Rule)?;
        let produced = out.derived.len() as u64;
        match &mut current {
            Some((group, _, p, wall)) if *group == unit.group => {
                *p += produced;
                *wall += out.wall;
            }
            _ => {
                if let Some((_, idx, p, wall)) = current.take() {
                    ctx.record(idx, p, wall);
                }
                stats.rules_fired += 1;
                current = Some((unit.group, unit.idx, produced, out.wall));
            }
        }
        stats.absorb(&out.stats);
        buffers.push(out.derived);
    }
    if let Some((_, idx, p, wall)) = current {
        ctx.record(idx, p, wall);
    }
    if brake.should_stop() {
        // a unit overran the allowance, or the run was cancelled or hit
        // its deadline mid-round: some buffers are truncated
        return Err(RoundStop::Trip(guard.brake_stop(&brake)));
    }
    Ok(buffers)
}
