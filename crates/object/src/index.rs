//! Per-column hash indexes over relation instances.
//!
//! The deductive engines join a rule body left to right; by the time a
//! literal `P(t1, …, tn)` is reached, some `ti` is very often already
//! ground under the current bindings (the idiomatic rule orders, e.g.
//! transitive closure `T(x,z) ← E(x,y), T(y,z)`, ground the first
//! position, but programs are under no obligation to). A [`ColumnIndex`]
//! groups a relation's tuple rows by one chosen component so such
//! literals probe a hash bucket instead of scanning the whole relation —
//! turning the inner join loop from O(|rel|) to O(matches).
//!
//! [`IndexSet`] caches indexes per `(relation, column)`, built on first
//! use and kept in sync by the engine notifying it of every inserted or
//! removed row. Because the cache is only *advisory* — a probe answers
//! the same question a scan would — it also defends itself against the
//! one way the notify protocol can be violated: every index carries the
//! mutation-version stamp ([`Instance::version`]) of the instance state
//! it reflects, and [`IndexSet::of_col`] compares it against the live
//! instance's stamp, rebuilding on any mismatch. The stamp is renewed by
//! *every* mutation, so unlike the row-count stamp it replaced it cannot
//! be fooled by a `remove_row` + `insert_row` pair that leaves the
//! cardinality unchanged — the exact pattern a maintenance engine
//! applying a retraction batch produces. A call site that mutates a
//! relation after its index was built therefore gets a fresh index on
//! the next access instead of a stale join snapshot.

use crate::database::Instance;
use crate::intern::{FxBuildHasher, ObjRef, Pool};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// The first column of a row, when the row is a non-empty tuple.
pub fn first_column(row: &Value) -> Option<&Value> {
    nth_column(row, 0)
}

/// Column `col` of a row, when the row is a tuple of arity > `col`.
///
/// Rows that are not tuples (bare objects in unary relations) have no
/// columns; literals of arity ≥ 2 can never match them, and unary
/// literals with a ground argument are answered by a direct
/// `Instance::contains` instead of an index probe.
pub fn nth_column(row: &Value, col: usize) -> Option<&Value> {
    row.as_tuple().and_then(|items| items.get(col))
}

/// A hash index over one relation: tuple rows grouped by one component.
/// Buckets are keyed by the key's pool id, so a probe interns the key
/// once and looks up by O(1) id hash instead of deep-hashing the key
/// `Value` and deep-comparing on bucket collisions.
#[derive(Clone, Debug, Default)]
pub struct ColumnIndex {
    key_col: usize,
    buckets: HashMap<ObjRef, Vec<Value>, FxBuildHasher>,
    rows_indexed: usize,
    stamp: u64,
}

impl ColumnIndex {
    /// Build a first-column index from an instance's current rows.
    pub fn build(inst: &Instance) -> ColumnIndex {
        ColumnIndex::build_on(inst, 0)
    }

    /// Build an index keyed on column `col` from an instance's rows.
    pub fn build_on(inst: &Instance, col: usize) -> ColumnIndex {
        let mut idx = ColumnIndex {
            key_col: col,
            stamp: inst.version(),
            ..ColumnIndex::default()
        };
        for row in inst.iter() {
            idx.insert(row);
        }
        idx
    }

    /// The column this index is keyed on.
    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Add one row to the buckets. Rows without the keyed column
    /// (non-tuples, short tuples) are skipped. This updates contents
    /// only; adopting the instance's new stamp is the caller's job
    /// (see [`IndexSet::note_insert`]).
    pub fn insert(&mut self, row: &Value) {
        if let Some(key) = nth_column(row, self.key_col) {
            self.buckets
                .entry(Pool::global().intern(key))
                .or_default()
                // must stay: probe answers borrow from the bucket
                .push(row.clone());
            self.rows_indexed += 1;
        }
    }

    /// Remove one row from the buckets (the inverse of
    /// [`ColumnIndex::insert`]); a no-op for rows that were never
    /// indexable. Contents only — stamp adoption is the caller's job.
    pub fn remove(&mut self, row: &Value) {
        let Some(key) = nth_column(row, self.key_col) else {
            return;
        };
        let id = Pool::global().intern(key);
        if let Some(bucket) = self.buckets.get_mut(&id) {
            if let Some(pos) = bucket.iter().position(|r| r == row) {
                bucket.swap_remove(pos);
                self.rows_indexed -= 1;
                if bucket.is_empty() {
                    self.buckets.remove(&id);
                }
            }
        }
    }

    /// All rows whose keyed component equals `key`.
    pub fn probe(&self, key: &Value) -> &[Value] {
        self.buckets
            .get(&Pool::global().intern(key))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of rows the index covers (rows that have the keyed column).
    pub fn len(&self) -> usize {
        self.rows_indexed
    }

    /// True if no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.rows_indexed == 0
    }

    /// Number of distinct key values in the index — the denominator of
    /// the classic `|rel| / distinct(col)` selectivity estimate the
    /// optimizer's cardinality domain uses to rank probe columns. An
    /// empty index reports 0 distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.buckets.len()
    }

    /// Average bucket depth (`len / distinct_keys`, 0 for an empty
    /// index): the expected number of rows a ground probe on the keyed
    /// column returns — lower is more selective.
    pub fn avg_bucket_depth(&self) -> usize {
        if self.buckets.is_empty() {
            0
        } else {
            self.rows_indexed.div_ceil(self.buckets.len())
        }
    }

    /// The [`Instance::version`] stamp of the instance state this index
    /// reflects. [`IndexSet::of_col`] compares it against the live
    /// instance to detect un-notified mutation in either direction. A
    /// default-constructed index carries stamp 0, which only
    /// pristine-empty instances have — and matching those is correct,
    /// since both sides are empty.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Adopt the stamp of the instance state the index now reflects.
    pub fn set_stamp(&mut self, stamp: u64) {
        self.stamp = stamp;
    }
}

/// A cache of [`ColumnIndex`]es per `(relation, column)` over a mutating
/// database.
#[derive(Clone, Debug, Default)]
pub struct IndexSet {
    map: HashMap<String, BTreeMap<usize, ColumnIndex>>,
}

impl IndexSet {
    /// An empty cache.
    pub fn new() -> IndexSet {
        IndexSet::default()
    }

    /// The first-column index for `name`, building it from `inst` on
    /// first use. Shorthand for [`IndexSet::of_col`] with column 0.
    pub fn of(&mut self, name: &str, inst: &Instance) -> &ColumnIndex {
        self.of_col(name, 0, inst)
    }

    /// The column-`col` index for `name`, building it from `inst` on
    /// first use.
    ///
    /// Callers should report mutations via [`IndexSet::note_insert`] /
    /// [`IndexSet::note_remove`]; if a relation was nonetheless mutated
    /// behind the cache's back (detected by comparing the index's stamp
    /// against the live instance's mutation version), the stale index is
    /// discarded and rebuilt here rather than served.
    pub fn of_col(&mut self, name: &str, col: usize, inst: &Instance) -> &ColumnIndex {
        let by_col = self.map.entry(name.to_owned()).or_default();
        let entry = by_col
            .entry(col)
            .or_insert_with(|| ColumnIndex::build_on(inst, col));
        if entry.stamp() != inst.version() {
            *entry = ColumnIndex::build_on(inst, col);
        }
        entry
    }

    /// The column-`col` index for `name` if it is already built **and**
    /// fresh — the read-only lookup parallel workers use against a
    /// prebuilt cache (workers share `&IndexSet` and cannot build).
    /// `stamp` is the probed relation's current mutation version
    /// ([`Instance::version`]); a stale entry returns `None` so the
    /// caller falls back to a scan instead of joining against a stale
    /// snapshot.
    pub fn get(&self, name: &str, col: usize, stamp: u64) -> Option<&ColumnIndex> {
        self.map
            .get(name)
            .and_then(|by_col| by_col.get(&col))
            .filter(|idx| idx.stamp() == stamp)
    }

    /// Record a row newly inserted into relation `name`, updating every
    /// built column index for it and adopting the mutated instance's
    /// fresh stamp. Relations with no built index are skipped — rows are
    /// picked up when (if ever) an index is first built.
    pub fn note_insert(&mut self, name: &str, row: &Value, inst: &Instance) {
        if let Some(by_col) = self.map.get_mut(name) {
            for idx in by_col.values_mut() {
                idx.insert(row);
                idx.set_stamp(inst.version());
            }
        }
    }

    /// Record a row removed from relation `name`, updating every built
    /// column index and adopting the mutated instance's fresh stamp —
    /// the retraction counterpart of [`IndexSet::note_insert`], cheaper
    /// than [`IndexSet::invalidate`] when only a few rows leave a large
    /// relation.
    pub fn note_remove(&mut self, name: &str, row: &Value, inst: &Instance) {
        if let Some(by_col) = self.map.get_mut(name) {
            for idx in by_col.values_mut() {
                idx.remove(row);
                idx.set_stamp(inst.version());
            }
        }
    }

    /// Drop every cached index for `name` (e.g. after a rollback that
    /// removed many rows). Cheaper than letting each next access detect
    /// the mismatch and rebuild one column at a time.
    pub fn invalidate(&mut self, name: &str) {
        self.map.remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, tuple};

    fn rel() -> Instance {
        Instance::from_rows([
            [atom(1), atom(10)],
            [atom(1), atom(11)],
            [atom(2), atom(20)],
        ])
    }

    #[test]
    fn probe_groups_by_first_column() {
        let idx = ColumnIndex::build(&rel());
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.probe(&atom(1)).len(), 2);
        assert_eq!(idx.probe(&atom(2)), &[tuple([atom(2), atom(20)])]);
        assert!(idx.probe(&atom(3)).is_empty());
    }

    #[test]
    fn probe_on_second_column() {
        let mut inst = rel();
        inst.insert(tuple([atom(3), atom(10)]));
        let idx = ColumnIndex::build_on(&inst, 1);
        assert_eq!(idx.key_col(), 1);
        assert_eq!(idx.probe(&atom(10)).len(), 2);
        assert_eq!(idx.probe(&atom(20)), &[tuple([atom(2), atom(20)])]);
        assert!(idx.probe(&atom(1)).is_empty(), "keys are column 1 values");
    }

    #[test]
    fn selectivity_accessors_report_distinct_keys_and_depth() {
        let idx = ColumnIndex::build(&rel());
        // keys 1 and 2; key 1 holds two rows
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.avg_bucket_depth(), 2, "ceil(3 rows / 2 keys)");
        let empty = ColumnIndex::default();
        assert_eq!(empty.distinct_keys(), 0);
        assert_eq!(empty.avg_bucket_depth(), 0);
    }

    #[test]
    fn non_tuple_rows_are_not_indexed() {
        let mut idx = ColumnIndex::default();
        idx.insert(&atom(5));
        idx.insert(&Value::Tuple(vec![]));
        assert!(idx.is_empty());
        assert!(idx.probe(&atom(5)).is_empty());
    }

    #[test]
    fn remove_is_the_inverse_of_insert() {
        let mut idx = ColumnIndex::build(&rel());
        idx.remove(&tuple([atom(1), atom(10)]));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(&atom(1)), &[tuple([atom(1), atom(11)])]);
        // removing the last row of a key drops its bucket
        idx.remove(&tuple([atom(2), atom(20)]));
        assert_eq!(idx.distinct_keys(), 1);
        // unknown and non-tuple rows are clean no-ops
        idx.remove(&tuple([atom(9), atom(9)]));
        idx.remove(&atom(5));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn short_tuples_are_skipped_by_higher_columns() {
        let mut inst = Instance::from_rows([[atom(1), atom(2)]]);
        inst.insert(tuple([atom(9)])); // arity 1: no column 1
        let idx = ColumnIndex::build_on(&inst, 1);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn index_set_stays_in_sync_with_inserts() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        assert_eq!(set.of("R", &inst).probe(&atom(1)).len(), 2);
        // grow the relation and notify the cache
        let row = tuple([atom(1), atom(12)]);
        inst.insert(row.clone());
        set.note_insert("R", &row, &inst);
        assert_eq!(set.of("R", &inst).probe(&atom(1)).len(), 3);
        // un-built relations ignore notifications, then build fresh
        let s = Instance::from_rows([[atom(9), atom(9)]]);
        set.note_insert("S", &row, &s);
        assert_eq!(set.of("S", &s).probe(&atom(9)).len(), 1);
    }

    #[test]
    fn note_insert_updates_every_built_column() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        set.of_col("R", 0, &inst);
        set.of_col("R", 1, &inst);
        let row = tuple([atom(7), atom(10)]);
        inst.insert(row.clone());
        set.note_insert("R", &row, &inst);
        assert_eq!(set.of_col("R", 0, &inst).probe(&atom(7)).len(), 1);
        assert_eq!(set.of_col("R", 1, &inst).probe(&atom(10)).len(), 2);
    }

    #[test]
    fn note_remove_updates_every_built_column() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        set.of_col("R", 0, &inst);
        set.of_col("R", 1, &inst);
        let row = tuple([atom(1), atom(10)]);
        inst.remove(&row);
        set.note_remove("R", &row, &inst);
        assert_eq!(set.of_col("R", 0, &inst).probe(&atom(1)).len(), 1);
        assert!(set.of_col("R", 1, &inst).probe(&atom(10)).is_empty());
        // the notified entries are fresh: read-only probers accept them
        assert!(set.get("R", 0, inst.version()).is_some());
    }

    /// Regression test for the staleness hazard: mutate the relation
    /// *without* notifying the cache (the bug pattern an engine hits if
    /// any mutation path forgets the notify step) and demand that the
    /// next access still answers from fresh data. On the pre-version-stamp
    /// implementation, the second `of()` returned the cached index and
    /// this probe missed the new row.
    #[test]
    fn unnotified_mutation_is_healed_on_next_access() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        assert_eq!(set.of("R", &inst).probe(&atom(2)).len(), 1);
        // mutate behind the cache's back — no note_insert
        inst.insert(tuple([atom(2), atom(21)]));
        assert_eq!(
            set.of("R", &inst).probe(&atom(2)).len(),
            2,
            "stale index must be rebuilt, not served"
        );
        // removal (the rollback direction) is healed the same way
        inst.remove(&tuple([atom(2), atom(21)]));
        assert_eq!(set.of("R", &inst).probe(&atom(2)).len(), 1);
    }

    /// Regression test for the length-stamp collision the version stamp
    /// fixes: a remove + insert pair that leaves `len()` unchanged. The
    /// old implementation compared `rows_seen == inst.len()`, judged the
    /// cached index fresh, and served rows that were no longer in the
    /// relation (and missed rows that were).
    #[test]
    fn remove_plus_insert_at_equal_count_is_detected() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        assert_eq!(set.of("R", &inst).probe(&atom(2)).len(), 1);
        let before = inst.len();
        // swap one row for another without notifying — same cardinality
        inst.remove(&tuple([atom(2), atom(20)]));
        inst.insert(tuple([atom(3), atom(30)]));
        assert_eq!(inst.len(), before, "the collision the bug needs");
        let idx = set.of("R", &inst);
        assert!(
            idx.probe(&atom(2)).is_empty(),
            "retracted row must not be served from a stale snapshot"
        );
        assert_eq!(idx.probe(&atom(3)).len(), 1, "new row must be visible");
        // the read-only path refuses the stale entry for the same reason
        let mut set2 = IndexSet::new();
        set2.of("R", &inst);
        inst.remove(&tuple([atom(3), atom(30)]));
        inst.insert(tuple([atom(4), atom(40)]));
        assert!(
            set2.get("R", 0, inst.version()).is_none(),
            "read-only probe must fall back to a scan, not a stale index"
        );
    }

    #[test]
    fn read_only_get_refuses_stale_entries() {
        let mut inst = rel();
        let mut set = IndexSet::new();
        assert!(
            set.get("R", 0, inst.version()).is_none(),
            "nothing built yet"
        );
        set.of_col("R", 0, &inst);
        assert!(set.get("R", 0, inst.version()).is_some());
        assert!(
            set.get("R", 1, inst.version()).is_none(),
            "column not built"
        );
        inst.insert(tuple([atom(4), atom(40)]));
        assert!(
            set.get("R", 0, inst.version()).is_none(),
            "stale entry must not be served to read-only probers"
        );
    }

    /// Id-keyed buckets give the same probe answers and counts under
    /// inserts and removals alike.
    #[test]
    fn buckets_follow_inserts_and_removals() {
        let mut idx = ColumnIndex::build(&rel());
        assert_eq!(idx.probe(&atom(1)).len(), 2);
        assert_eq!(idx.distinct_keys(), 2);
        idx.insert(&tuple([atom(1), atom(12)]));
        assert_eq!(idx.probe(&atom(1)).len(), 3);
        idx.remove(&tuple([atom(1), atom(10)]));
        idx.remove(&tuple([atom(2), atom(20)]));
        assert_eq!(idx.probe(&atom(1)).len(), 2);
        assert!(idx.probe(&atom(2)).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn invalidate_drops_all_columns() {
        let inst = rel();
        let mut set = IndexSet::new();
        set.of_col("R", 0, &inst);
        set.of_col("R", 1, &inst);
        set.invalidate("R");
        assert!(set.get("R", 0, inst.version()).is_none());
        assert!(set.get("R", 1, inst.version()).is_none());
    }
}
