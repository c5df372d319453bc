//! Indexed sub-cubic cluster search: sorted per-node distance labels.
//!
//! Algorithm 1 examines every node pair `(p, q)` and counts the
//! *pair-bounded set* `S*_pq = {x : d(x,p) ≤ d(p,q) ∧ d(x,q) ≤ d(p,q)}`
//! — an `O(n³)` sweep. But `S*_pq` is, **by definition on any symmetric
//! metric**, exactly the intersection of the two closed balls
//! `B(p, d(p,q)) ∩ B(q, d(p,q))`, so
//!
//! ```text
//! |S*_pq| ≤ min(|B(p, d(p,q))|, |B(q, d(p,q))|)
//! ```
//!
//! A [`ClusterIndex`] precomputes, once in `O(n² log n)`, every node's
//! distance row sorted ascending by `(d, id)`; ball sizes then cost one
//! binary search, and the cubic sweep collapses to range scans that prune
//! whole rows (`|B(p, l)| < k` means no pair in row `p` can ever bound a
//! `k`-cluster) and individual pairs before the expensive membership count
//! runs. On the paper's tree-metric-like spaces the pruning is dramatic —
//! the unsatisfiable `k = n` probe drops from `O(n³)` to `O(n log n)` —
//! but the bounds are *sound on any symmetric metric*, so the indexed
//! kernels return **bit-identical** results to the brute-force sweeps even
//! on the noisy, only-approximately-tree synthetic datasets. Tree
//! structure buys speed, never correctness.
//!
//! The index is **incrementally maintained under churn**: a membership
//! delta (hosts removed, hosts whose distances changed — e.g. re-embedded
//! anchor-subtree orphans) updates only the affected row slices with one
//! merge pass per surviving row, `O(n·(n + |Δ| log |Δ|) + |Δ|·n log n)`
//! total, never a full re-sort. The canonical `(d, id)` entry order makes
//! the [`ClusterIndex::digest`] of an incrementally-maintained index equal
//! to a from-scratch rebuild of the same membership — the invariant the
//! chaos harness asserts after every churn schedule.

use bcc_metric::FiniteMetric;

use crate::find_cluster::{check_pair, check_pair_rows, PAR_SERIAL_CUTOFF};

/// Slot sentinel for ids not present in the index.
const ABSENT: u32 = u32::MAX;

/// FNV-1a 64-bit, the digest primitive used across the workspace benches.
#[inline]
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One node's sorted distance label: every current member's distance from
/// the row owner, ascending by `(distance, id)` — the canonical tie-break
/// that makes digests independent of construction history.
#[derive(Debug, Clone, Default)]
struct Row {
    d: Vec<f64>,
    id: Vec<u32>,
}

impl Row {
    fn digest(&self, owner: u32) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &owner.to_le_bytes());
        h = fnv1a(h, &(self.d.len() as u64).to_le_bytes());
        for (&d, &id) in self.d.iter().zip(&self.id) {
            h = fnv1a(h, &d.to_bits().to_le_bytes());
            h = fnv1a(h, &id.to_le_bytes());
        }
        h
    }
}

/// Lifetime maintenance counters of one [`ClusterIndex`] instance.
///
/// These are *instance* stats (unlike the global `bcc-obs` counters), so a
/// test or chaos oracle can assert a specific system's index was
/// maintained incrementally — `full_builds` stays put while
/// `incremental_updates` tracks the churn ops — without cross-talk from
/// other systems in the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// `O(n² log n)` from-scratch constructions ([`ClusterIndex::build`] /
    /// [`ClusterIndex::from_metric`]). An index born empty and grown by
    /// churn reports 0 here forever — the "no full rebuild on the hot
    /// path" guarantee.
    pub full_builds: u64,
    /// Incremental delta applications ([`ClusterIndex::apply_churn`]).
    pub incremental_updates: u64,
    /// Rows fully re-sorted across all incremental updates (removed hosts'
    /// rows are dropped, re-embedded hosts' rows rebuilt; every other row
    /// gets a merge pass, not a sort).
    pub rows_rebuilt: u64,
}

/// Typed rejection of an invalid churn delta — the library-boundary
/// contract of [`ClusterIndex::apply_churn`], mirroring how
/// `QueryRequest::validate` rejects malformed queries instead of letting
/// them panic deep inside a kernel. An `Err` guarantees the index (and its
/// [`IndexStats`]) was left exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// A `removed` id is not currently an index member.
    NotAMember(u32),
    /// An id lies outside the fixed universe the index was created over.
    OutOfUniverse {
        /// The offending id.
        id: u32,
        /// The universe bound the index was created with.
        universe: usize,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::NotAMember(id) => write!(f, "removed id {id} is not an index member"),
            IndexError::OutOfUniverse { id, universe } => {
                write!(f, "id {id} outside universe {universe}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Sorted per-node distance labels over a membership of universe ids.
///
/// Row `slot` belongs to member `ids()[slot]`; members are kept in
/// ascending id order, so when the index is built over a
/// [`FiniteMetric`] directly (ids `0..n`) slots and metric positions
/// coincide, and when it is built over an active subset the slot order
/// matches a [`bcc_metric::SubsetMetric`] view of the same ascending ids.
///
/// All query methods take *slots*; [`ClusterIndex::slot`] maps ids back.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    /// Id bound: all member ids are `< universe`.
    universe: usize,
    /// Ascending member ids; `slot -> id`.
    ids: Vec<u32>,
    /// `id -> slot`, [`ABSENT`] when not a member.
    slot_of: Vec<u32>,
    rows: Vec<Row>,
    row_digest: Vec<u64>,
    /// XOR fold of the per-row digests (each covers its owner id, so the
    /// fold is membership-sensitive despite being order-insensitive).
    digest: u64,
    stats: IndexStats,
}

impl ClusterIndex {
    /// An empty index over a universe of `universe` potential ids. Costs
    /// nothing and counts as neither a build nor an update — the natural
    /// starting point for a system whose membership grows by churn.
    pub fn empty(universe: usize) -> Self {
        ClusterIndex {
            universe,
            ids: Vec::new(),
            slot_of: vec![ABSENT; universe],
            rows: Vec::new(),
            row_digest: Vec::new(),
            digest: 0,
            stats: IndexStats::default(),
        }
    }

    /// Builds the index from scratch over `ids` (deduplicated, sorted
    /// ascending internally) with `dist(owner, other)` supplying every
    /// entry: `O(m² log m)` for `m` members.
    ///
    /// # Panics
    ///
    /// Panics when an id is `>= universe`.
    pub fn build(universe: usize, ids: &[u32], mut dist: impl FnMut(u32, u32) -> f64) -> Self {
        let _span = bcc_obs::span!("core.index.build");
        bcc_obs::inc!("core.index.builds");
        let mut sorted: Vec<u32> = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut index = ClusterIndex::empty(universe);
        index.stats.full_builds = 1;
        for &id in &sorted {
            assert!(
                (id as usize) < universe,
                "id {id} outside universe {universe}"
            );
        }
        index.ids = sorted;
        for (slot, &id) in index.ids.iter().enumerate() {
            index.slot_of[id as usize] = slot as u32;
        }
        index.rows = index
            .ids
            .iter()
            .map(|&owner| build_row(owner, &index.ids, &mut dist))
            .collect();
        index.rebuild_digests();
        index
    }

    /// [`ClusterIndex::build`] over a metric space directly: ids are the
    /// positions `0..metric.len()`, so slots equal metric positions and
    /// the index can be handed to the `_indexed` kernels together with the
    /// same metric.
    pub fn from_metric<M: FiniteMetric>(metric: &M) -> Self {
        let n = metric.len();
        ClusterIndex::build(n, &(0..n as u32).collect::<Vec<_>>(), |a, b| {
            metric.distance(a as usize, b as usize)
        })
    }

    /// Rebuilds an index from exported parts: the universe bound, the
    /// ascending member ids, and each member's sorted row as parallel
    /// `(distances, ids)` vectors (the exact shape [`ClusterIndex::row`]
    /// exposes). Restoring a snapshot this way costs `O(m·n)` — no
    /// re-sorting — and counts as **neither** a build nor an update:
    /// `full_builds` stays 0, which is how a warm-restart oracle proves no
    /// `O(n² log n)` rebuild ran.
    ///
    /// The resulting [`ClusterIndex::digest`] is recomputed from the rows,
    /// so it equals the exporting index's digest exactly when the rows
    /// round-tripped bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation when the parts are not
    /// a valid index: unsorted/duplicate/out-of-universe ids, row count or
    /// length mismatches, non-finite or negative distances, entries out of
    /// canonical `(d, id)` order, or row entries that are not members.
    pub fn from_parts(
        universe: usize,
        ids: Vec<u32>,
        rows: Vec<(Vec<f64>, Vec<u32>)>,
    ) -> Result<Self, String> {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("member ids must be strictly ascending".into());
        }
        if let Some(&id) = ids.last() {
            if id as usize >= universe {
                return Err(format!("id {id} outside universe {universe}"));
            }
        }
        if rows.len() != ids.len() {
            return Err(format!("{} rows for {} members", rows.len(), ids.len()));
        }
        let mut slot_of = vec![ABSENT; universe];
        for (slot, &id) in ids.iter().enumerate() {
            slot_of[id as usize] = slot as u32;
        }
        let mut checked = Vec::with_capacity(rows.len());
        // `last_seen[id] == slot` marks `id` as already present in `slot`'s
        // row — a duplicate would shadow a missing member (lengths match).
        let mut last_seen = vec![ABSENT; universe];
        for (slot, (d, id)) in rows.into_iter().enumerate() {
            let owner = ids[slot];
            if d.len() != ids.len() || id.len() != ids.len() {
                return Err(format!(
                    "row of {owner} has {}/{} entries for {} members",
                    d.len(),
                    id.len(),
                    ids.len()
                ));
            }
            for (pos, (&dv, &iv)) in d.iter().zip(&id).enumerate() {
                if !dv.is_finite() || dv < 0.0 {
                    return Err(format!("row of {owner} has invalid distance {dv}"));
                }
                if (iv as usize) >= universe || slot_of[iv as usize] == ABSENT {
                    return Err(format!("row of {owner} references non-member {iv}"));
                }
                if last_seen[iv as usize] == slot as u32 {
                    return Err(format!("row of {owner} lists member {iv} twice"));
                }
                last_seen[iv as usize] = slot as u32;
                if pos > 0 {
                    let prev = (d[pos - 1], id[pos - 1]);
                    if prev.0.total_cmp(&dv).then(prev.1.cmp(&iv)).is_ge() {
                        return Err(format!(
                            "row of {owner} breaks canonical (d, id) order at entry {pos}"
                        ));
                    }
                }
            }
            checked.push(Row { d, id });
        }
        let mut index = ClusterIndex {
            universe,
            ids,
            slot_of,
            rows: checked,
            row_digest: Vec::new(),
            digest: 0,
            stats: IndexStats::default(),
        };
        index.rebuild_digests();
        Ok(index)
    }

    /// The id bound the index was created with: all member ids are below it.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no member is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Ascending member ids; position in this slice is the slot.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Slot of `id`, or `None` when not a member.
    pub fn slot(&self, id: u32) -> Option<usize> {
        match self.slot_of.get(id as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// `|B(ids()[slot], l)|`: members within distance `l` of the row owner
    /// (the owner itself included), by binary search over the sorted row.
    pub fn count_within(&self, slot: usize, l: f64) -> usize {
        self.rows[slot].d.partition_point(|&d| d <= l)
    }

    /// The sorted row of `slot`: parallel `(distances, ids)` slices,
    /// ascending by `(d, id)`.
    pub fn row(&self, slot: usize) -> (&[f64], &[u32]) {
        (&self.rows[slot].d, &self.rows[slot].id)
    }

    /// The closed ball `B(ids()[slot], l)` as a row prefix: every member
    /// within distance `l` of the row owner (the owner itself included),
    /// as parallel `(distances, ids)` slices still ascending by `(d, id)`.
    /// One binary search, no scan — the boundary-ball candidate enumeration
    /// primitive of region-scoped (sharded) serving.
    pub fn ball(&self, slot: usize, l: f64) -> (&[f64], &[u32]) {
        let reach = self.count_within(slot, l);
        (&self.rows[slot].d[..reach], &self.rows[slot].id[..reach])
    }

    /// Content digest: equal for equal (membership, distances) regardless
    /// of whether the index was built from scratch or maintained
    /// incrementally — the churn-correctness oracle.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Instance maintenance counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Applies one churn delta incrementally: `removed` ids leave the
    /// membership, `reembedded` ids have (re)computed distances — either
    /// new members joining or existing members whose labels changed (the
    /// re-adopted anchor-subtree orphans of a leave). Every surviving
    /// untouched row is updated with a single strip-and-merge pass; only
    /// the `reembedded` rows themselves are re-sorted. The resulting
    /// digest equals a from-scratch [`ClusterIndex::build`] of the new
    /// membership with the same `dist`.
    ///
    /// `dist` is invoked as `dist(row_owner, reembedded_id)` — the same
    /// orientation [`ClusterIndex::build`] uses — so an asymmetric oracle
    /// stays consistent between the two construction paths.
    ///
    /// # Errors
    ///
    /// Rejects the delta — leaving the index and its [`IndexStats`]
    /// untouched — when a `removed` id is not a member
    /// ([`IndexError::NotAMember`]) or any id is `>= universe`
    /// ([`IndexError::OutOfUniverse`]).
    pub fn apply_churn(
        &mut self,
        removed: &[u32],
        reembedded: &[u32],
        mut dist: impl FnMut(u32, u32) -> f64,
    ) -> Result<(), IndexError> {
        // Validate before mutating anything, counters included: an Err
        // must leave the instance bit-identical to its pre-call state.
        for &id in removed.iter().chain(reembedded) {
            if id as usize >= self.universe {
                return Err(IndexError::OutOfUniverse {
                    id,
                    universe: self.universe,
                });
            }
        }
        for &id in removed {
            if self.slot(id).is_none() {
                return Err(IndexError::NotAMember(id));
            }
        }
        let _span = bcc_obs::span!("core.index.update");
        bcc_obs::inc!("core.index.incremental_updates");
        self.stats.incremental_updates += 1;
        // `touched[id]`: entries to strip out of every surviving row
        // (removed members and stale rows of re-embedded members alike).
        // Only the removed ids are marked before the survivor filter, so
        // membership costs one bitmap probe per member instead of an
        // O(|removed|) scan; re-embedded ids are folded in afterwards —
        // marking them first would make the filter drop re-embedded
        // *existing* members as if they had departed.
        let mut touched = vec![false; self.universe];
        for &id in removed {
            touched[id as usize] = true;
        }

        // New membership: old minus removed, plus re-embedded ids.
        let mut new_ids: Vec<u32> = self
            .ids
            .iter()
            .copied()
            .filter(|&id| !touched[id as usize])
            .collect();
        for &id in reembedded {
            touched[id as usize] = true;
            if self.slot(id).is_none() {
                new_ids.push(id);
            }
        }
        new_ids.sort_unstable();
        new_ids.dedup();

        // Take the old rows; untouched ones are edited and moved over.
        let old_ids = std::mem::take(&mut self.ids);
        let mut old_rows = std::mem::take(&mut self.rows);
        let old_slot_of = std::mem::replace(&mut self.slot_of, vec![ABSENT; self.universe]);

        self.ids = new_ids;
        for (slot, &id) in self.ids.iter().enumerate() {
            self.slot_of[id as usize] = slot as u32;
        }

        let mut rebuilt = 0u64;
        let mut rows = Vec::with_capacity(self.ids.len());
        // Sorted delta entries are re-derived per row (distances differ
        // per owner); the scratch buffer is reused across rows.
        let mut delta: Vec<(f64, u32)> = Vec::with_capacity(reembedded.len());
        for &owner in &self.ids {
            if touched[owner as usize] {
                // A re-embedded member: its whole row is stale. Re-sort.
                rebuilt += 1;
                rows.push(build_row(owner, &self.ids, &mut dist));
                continue;
            }
            let old_slot = old_slot_of[owner as usize];
            debug_assert!(old_slot != ABSENT, "untouched member must pre-exist");
            let old = std::mem::take(&mut old_rows[old_slot as usize]);
            delta.clear();
            for &c in reembedded {
                delta.push((dist(owner, c), c));
            }
            delta.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            rows.push(strip_and_merge(&old, &touched, &delta));
        }
        drop(old_ids);
        self.rows = rows;
        self.rebuild_digests();
        self.stats.rows_rebuilt += rebuilt;
        bcc_obs::add!("core.index.rows_rebuilt", rebuilt);
        Ok(())
    }

    fn rebuild_digests(&mut self) {
        self.row_digest = self
            .ids
            .iter()
            .zip(&self.rows)
            .map(|(&owner, row)| row.digest(owner))
            .collect();
        self.digest = self.row_digest.iter().fold(0, |acc, &h| acc ^ h);
    }
}

/// Builds one sorted row from scratch: `O(m log m)`.
fn build_row(owner: u32, ids: &[u32], dist: &mut impl FnMut(u32, u32) -> f64) -> Row {
    let mut entries: Vec<(f64, u32)> = ids.iter().map(|&x| (dist(owner, x), x)).collect();
    entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    Row {
        d: entries.iter().map(|e| e.0).collect(),
        id: entries.iter().map(|e| e.1).collect(),
    }
}

/// One merge pass over an untouched row: drop `touched` entries, weave in
/// the pre-sorted `delta` entries. `O(len + |delta|)`, no sort.
fn strip_and_merge(old: &Row, touched: &[bool], delta: &[(f64, u32)]) -> Row {
    let target = old.d.len() + delta.len();
    let mut d = Vec::with_capacity(target);
    let mut id = Vec::with_capacity(target);
    let mut di = 0usize;
    for (&od, &oid) in old.d.iter().zip(&old.id) {
        if touched[oid as usize] {
            continue;
        }
        while di < delta.len()
            && delta[di]
                .0
                .total_cmp(&od)
                .then(delta[di].1.cmp(&oid))
                .is_lt()
        {
            d.push(delta[di].0);
            id.push(delta[di].1);
            di += 1;
        }
        d.push(od);
        id.push(oid);
    }
    for &(dd, did) in &delta[di..] {
        d.push(dd);
        id.push(did);
    }
    Row { d, id }
}

/// `|S*_pq|` — the exact pair-bounded count Algorithm 1 computes, as a
/// plain sweep. Runs only for pairs that survive the ball-size bounds.
fn pair_count<M: FiniteMetric>(metric: &M, p: usize, q: usize, dpq: f64) -> usize {
    let mut count = 0;
    for x in 0..metric.len() {
        if metric.distance(x, p) <= dpq && metric.distance(x, q) <= dpq {
            count += 1;
        }
    }
    count
}

/// Indexed Algorithm 1: bit-identical to [`crate::find_cluster`] over the
/// same metric, with whole rows and individual pairs pruned through the
/// index's ball-size bounds before any membership sweep runs.
///
/// `index` must be built over exactly this metric (slots = positions);
/// the kernels assume `index.count_within` and `metric.distance` agree.
/// The scan preserves the serial row-major order, and every surviving pair
/// runs the identical membership test, so the returned cluster (members
/// *and* order) matches the brute-force sweep on any symmetric metric —
/// pruning exploits tree structure for speed, never for correctness.
///
/// # Panics
///
/// Panics when `index.len() != metric.len()`.
pub fn find_cluster_indexed<M: FiniteMetric>(
    metric: &M,
    index: &ClusterIndex,
    k: usize,
    l: f64,
) -> Option<Vec<usize>> {
    let _span = bcc_obs::span!("core.find_cluster_indexed");
    bcc_obs::inc!("core.index.probes");
    assert_eq!(metric.len(), index.len(), "index does not cover the metric");
    let n = metric.len();
    if k > n || k == 0 {
        return None;
    }
    if k == 1 {
        return Some(vec![0]);
    }
    let mut scratch = Vec::with_capacity(k);
    let mut rows_pruned = 0u64;
    let mut candidates = 0u64;
    let mut found = None;
    'search: for p in 0..n {
        // Row bound: S*_pq ⊆ B(p, d(p,q)) ⊆ B(p, l) for every q with
        // d(p,q) ≤ l, so a row whose l-ball is small can never satisfy k.
        let reach = index.count_within(p, l);
        bcc_obs::observe!("core.index.probe_range_len", reach as u64);
        if reach < k {
            rows_pruned += 1;
            continue;
        }
        for q in (p + 1)..n {
            let dpq = metric.distance(p, q);
            if dpq <= l && index.count_within(p, dpq) >= k && index.count_within(q, dpq) >= k {
                candidates += 1;
                if check_pair(metric, p, q, dpq, k, &mut scratch) {
                    found = Some(scratch);
                    break 'search;
                }
            }
        }
    }
    bcc_obs::add!("core.index.rows_pruned", rows_pruned);
    bcc_obs::add!("core.index.pair_candidates", candidates);
    found
}

/// Parallel [`find_cluster_indexed`] on the `bcc-par` pool: rows are
/// scanned concurrently with deterministic lowest-row early exit, so the
/// result is bit-identical to the serial indexed (and brute-force) scan
/// for any thread count. Small spaces delegate to the serial kernel
/// outright (see [`PAR_SERIAL_CUTOFF`]).
///
/// # Panics
///
/// Panics when `index.len() != metric.len()`.
pub fn find_cluster_indexed_par<M: FiniteMetric>(
    metric: &M,
    index: &ClusterIndex,
    k: usize,
    l: f64,
) -> Option<Vec<usize>> {
    let n = metric.len();
    if n * n.saturating_sub(1) / 2 <= PAR_SERIAL_CUTOFF {
        return find_cluster_indexed(metric, index, k, l);
    }
    let _span = bcc_obs::span!("core.find_cluster_indexed");
    bcc_obs::inc!("core.index.probes");
    assert_eq!(metric.len(), index.len(), "index does not cover the metric");
    if k > n || k == 0 {
        return None;
    }
    if k == 1 {
        return Some(vec![0]);
    }
    let d = metric.to_matrix();
    bcc_par::par_find_first_with(
        n,
        || Vec::with_capacity(k),
        |scratch, p| {
            if index.count_within(p, l) < k {
                return None;
            }
            let row_p = &d.row(p)[..n];
            for (q, &dpq) in row_p.iter().enumerate().skip(p + 1) {
                if dpq <= l
                    && index.count_within(p, dpq) >= k
                    && index.count_within(q, dpq) >= k
                    && check_pair_rows(&d, p, q, dpq, k, scratch)
                {
                    return Some(scratch.clone());
                }
            }
            None
        },
    )
}

/// Indexed [`crate::max_cluster_size`]: the same exact maximum, with rows
/// visited in descending `|B(p, l)|` order so the running best tightens
/// early, rows cut off once their ball bound can no longer beat it, and
/// pairs pruned through both endpoint bounds before the exact count runs.
///
/// Equals the pair-sweep result on any symmetric metric: every pruned pair
/// provably satisfies `|S*_pq| ≤ best` at prune time, and surviving pairs
/// are counted exactly.
///
/// # Panics
///
/// Panics when `index.len() != metric.len()`.
pub fn max_cluster_size_indexed<M: FiniteMetric>(
    metric: &M,
    index: &ClusterIndex,
    l: f64,
) -> usize {
    let _span = bcc_obs::span!("core.max_cluster_size_indexed");
    bcc_obs::inc!("core.index.probes");
    assert_eq!(metric.len(), index.len(), "index does not cover the metric");
    let n = metric.len();
    if n == 0 {
        return 0;
    }
    let order = rows_by_reach(index, n, l);
    let mut best = 1usize;
    for &(reach, p) in &order {
        if reach <= best {
            // Descending order: every remaining row is bounded too.
            break;
        }
        best = scan_row_max(metric, index, p, reach, best);
    }
    best
}

/// Parallel [`max_cluster_size_indexed`]: the strongest row is scanned
/// serially to seed a high lower bound, then the remaining candidate rows
/// are chunked across the `bcc-par` pool. `max` reduces exactly and every
/// prune is sound against the chunk-local bound, so the result equals the
/// serial scan's for any thread count. Small spaces delegate to the
/// serial kernel (see [`PAR_SERIAL_CUTOFF`]).
///
/// # Panics
///
/// Panics when `index.len() != metric.len()`.
pub fn max_cluster_size_indexed_par<M: FiniteMetric>(
    metric: &M,
    index: &ClusterIndex,
    l: f64,
) -> usize {
    let n = metric.len();
    if n * n.saturating_sub(1) / 2 <= PAR_SERIAL_CUTOFF {
        return max_cluster_size_indexed(metric, index, l);
    }
    let _span = bcc_obs::span!("core.max_cluster_size_indexed");
    bcc_obs::inc!("core.index.probes");
    assert_eq!(metric.len(), index.len(), "index does not cover the metric");
    if n == 0 {
        return 0;
    }
    let d = metric.to_matrix();
    let order = rows_by_reach(index, n, l);
    let mut seed = 1usize;
    if let Some(&(reach, p)) = order.first() {
        if reach > seed {
            seed = scan_row_max(&d, index, p, reach, seed);
        }
    }
    let candidates: Vec<(usize, usize)> = order
        .into_iter()
        .skip(1)
        .take_while(|&(reach, _)| reach > seed)
        .collect();
    if candidates.is_empty() {
        return seed;
    }
    let chunk = (candidates.len() / (bcc_par::current_threads() * 8)).clamp(1, 4096);
    bcc_par::par_chunks(candidates.len(), chunk, |range| {
        let mut best = seed;
        for &(reach, p) in &candidates[range] {
            if reach > best {
                best = scan_row_max(&d, index, p, reach, best);
            }
        }
        best
    })
    .into_iter()
    .fold(seed, usize::max)
}

/// Rows paired with their `l`-ball size, sorted descending by reach (ties
/// broken by ascending slot — deterministic).
fn rows_by_reach(index: &ClusterIndex, n: usize, l: f64) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..n).map(|p| (index.count_within(p, l), p)).collect();
    order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    order
}

/// Scans row `p`'s `l`-prefix descending by distance, tightening `best`
/// with exact pair counts; `reach` is `|B(p, l)|`. Both endpoint ball
/// bounds are applied before counting, and the walk stops as soon as the
/// row's own bound can no longer beat `best`.
fn scan_row_max<M: FiniteMetric>(
    metric: &M,
    index: &ClusterIndex,
    p: usize,
    reach: usize,
    mut best: usize,
) -> usize {
    let (ds, qids) = index.row(p);
    // `ub_p` = |B(p, ds[pos])|: within a tie run it is the run's end.
    let mut ub_p = reach;
    for pos in (0..reach).rev() {
        if pos + 1 < reach && ds[pos] < ds[pos + 1] {
            ub_p = pos + 1;
        }
        if ub_p <= best {
            break;
        }
        let q = index
            .slot(qids[pos])
            .expect("row entries are index members");
        if q == p {
            continue;
        }
        let dpq = ds[pos];
        if index.count_within(q, dpq) <= best {
            continue;
        }
        let count = pair_count(metric, p, q, dpq);
        if count > best {
            best = count;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_cluster::{find_cluster, max_cluster_size};
    use bcc_metric::DistanceMatrix;

    fn line(pos: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(pos.len(), |i, j| (pos[i] - pos[j]).abs())
    }

    fn star(radii: &[f64]) -> DistanceMatrix {
        DistanceMatrix::from_fn(radii.len(), |i, j| radii[i] + radii[j])
    }

    #[test]
    fn count_within_matches_linear_scan() {
        let d = line(&[0.0, 1.0, 2.5, 2.5, 7.0]);
        let idx = ClusterIndex::from_metric(&d);
        for p in 0..d.len() {
            for l in [0.0, 0.5, 1.0, 2.5, 3.0, 7.0, 100.0] {
                let linear = (0..d.len()).filter(|&x| d.get(p, x) <= l).count();
                assert_eq!(idx.count_within(p, l), linear, "p={p} l={l}");
            }
        }
    }

    #[test]
    fn rows_are_sorted_canonically() {
        // Equal distances must tie-break by ascending id.
        let d = star(&[1.0, 1.0, 1.0, 5.0]);
        let idx = ClusterIndex::from_metric(&d);
        let (ds, ids) = idx.row(0);
        assert_eq!(ids[0], 0, "self entry first at distance 0");
        assert_eq!(ds[0], 0.0);
        assert_eq!(&ids[1..3], &[1, 2], "ties in ascending id order");
    }

    #[test]
    fn indexed_find_cluster_matches_sweep() {
        let spaces = [
            line(&[0.0, 2.0, 3.0, 7.0, 8.0, 8.5, 15.0]),
            star(&[1.0, 1.0, 1.0, 50.0, 2.0]),
            line(&[0.0, 10.0, 20.0, 30.0]),
        ];
        for d in &spaces {
            let idx = ClusterIndex::from_metric(d);
            for k in 1..=d.len() + 1 {
                for l in [0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 20.0, 100.0] {
                    assert_eq!(
                        find_cluster_indexed(d, &idx, k, l),
                        find_cluster(d, k, l),
                        "k={k} l={l}"
                    );
                    assert_eq!(
                        find_cluster_indexed_par(d, &idx, k, l),
                        find_cluster(d, k, l),
                        "par k={k} l={l}"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_max_cluster_size_matches_sweep() {
        let spaces = [
            line(&[0.0, 1.0, 2.0, 3.0, 10.0]),
            line(&[0.0, 2.0, 3.0, 7.0, 8.0, 8.5, 15.0]),
            star(&[1.0, 1.0, 1.0, 5.0, 2.0, 2.0]),
        ];
        for d in &spaces {
            let idx = ClusterIndex::from_metric(d);
            for l in [0.1, 0.5, 1.0, 1.5, 3.0, 4.0, 6.5, 15.0, 100.0] {
                assert_eq!(
                    max_cluster_size_indexed(d, &idx, l),
                    max_cluster_size(d, l),
                    "l={l}"
                );
                assert_eq!(
                    max_cluster_size_indexed_par(d, &idx, l),
                    max_cluster_size(d, l),
                    "par l={l}"
                );
            }
        }
    }

    #[test]
    fn indexed_edge_cases() {
        let empty = DistanceMatrix::new(0);
        let idx = ClusterIndex::from_metric(&empty);
        assert_eq!(find_cluster_indexed(&empty, &idx, 2, 1.0), None);
        assert_eq!(max_cluster_size_indexed(&empty, &idx, 1.0), 0);

        let single = DistanceMatrix::new(1);
        let idx = ClusterIndex::from_metric(&single);
        assert_eq!(find_cluster_indexed(&single, &idx, 1, 1.0), Some(vec![0]));
        assert_eq!(max_cluster_size_indexed(&single, &idx, 1.0), 1);

        let d = star(&[1.0, 1.0]);
        let idx = ClusterIndex::from_metric(&d);
        assert_eq!(find_cluster_indexed(&d, &idx, 3, 100.0), None);
        assert_eq!(find_cluster_indexed(&d, &idx, 0, 1.0), None);
        assert_eq!(max_cluster_size_indexed(&d, &idx, 0.5), 1);
    }

    #[test]
    fn incremental_insert_matches_rebuild() {
        let pos = [0.0f64, 2.0, 3.0, 7.0, 8.0];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let mut idx = ClusterIndex::empty(pos.len());
        for i in 0..pos.len() as u32 {
            idx.apply_churn(&[], &[i], dist).unwrap();
            let members: Vec<u32> = (0..=i).collect();
            let fresh = ClusterIndex::build(pos.len(), &members, dist);
            assert_eq!(idx.digest(), fresh.digest(), "after inserting {i}");
        }
        assert_eq!(idx.stats().full_builds, 0, "grown purely incrementally");
        assert_eq!(idx.stats().incremental_updates, pos.len() as u64);
    }

    #[test]
    fn incremental_remove_and_update_match_rebuild() {
        let pos = [0.0f64, 2.0, 3.0, 7.0, 8.0, 8.5];
        let base = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let all: Vec<u32> = (0..pos.len() as u32).collect();
        let mut idx = ClusterIndex::build(pos.len(), &all, base);

        // Remove host 2; membership {0,1,3,4,5}.
        idx.apply_churn(&[2], &[], base).unwrap();
        let fresh = ClusterIndex::build(pos.len(), &[0, 1, 3, 4, 5], base);
        assert_eq!(idx.digest(), fresh.digest());
        assert_eq!(idx.ids(), &[0, 1, 3, 4, 5]);
        assert!(idx.slot(2).is_none());

        // Host 4 "re-embeds" to a new position; host 2 rejoins, both in
        // one delta — the shape a leave-with-orphans produces.
        let moved = [0.0f64, 2.0, 3.5, 7.0, 1.0, 8.5];
        let shifted = |a: u32, b: u32| (moved[a as usize] - moved[b as usize]).abs();
        idx.apply_churn(&[], &[2, 4], shifted).unwrap();
        let fresh = ClusterIndex::build(pos.len(), &all, shifted);
        assert_eq!(idx.digest(), fresh.digest());

        // The edited index answers queries identically to one built fresh.
        let d = DistanceMatrix::from_fn(pos.len(), |i, j| shifted(i as u32, j as u32));
        for l in [0.5, 1.5, 3.0, 9.0] {
            assert_eq!(
                max_cluster_size_indexed(&d, &idx, l),
                max_cluster_size(&d, l),
                "l={l}"
            );
        }
    }

    #[test]
    fn digest_is_history_independent() {
        let pos = [0.0f64, 1.0, 4.0, 4.5, 9.0];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        // Path A: build {0,1,2,3,4} then remove 3.
        let mut a = ClusterIndex::build(pos.len(), &[0, 1, 2, 3, 4], dist);
        a.apply_churn(&[3], &[], dist).unwrap();
        // Path B: grow {0,2} then {1,4} incrementally.
        let mut b = ClusterIndex::empty(pos.len());
        b.apply_churn(&[], &[0, 2], dist).unwrap();
        b.apply_churn(&[], &[4, 1], dist).unwrap();
        // Path C: from scratch.
        let c = ClusterIndex::build(pos.len(), &[0, 1, 2, 4], dist);
        assert_eq!(a.digest(), c.digest());
        assert_eq!(b.digest(), c.digest());
        // Different membership digests differ.
        let other = ClusterIndex::build(pos.len(), &[0, 1, 2, 3], dist);
        assert_ne!(c.digest(), other.digest());
    }

    #[test]
    fn from_parts_round_trips_digest_without_builds() {
        let pos = [0.0f64, 2.0, 3.0, 7.0, 8.0, 8.5];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let mut idx = ClusterIndex::build(pos.len(), &[0, 1, 2, 3, 4, 5], dist);
        idx.apply_churn(&[2], &[], dist).unwrap();

        let parts: Vec<(Vec<f64>, Vec<u32>)> = (0..idx.len())
            .map(|s| {
                let (d, id) = idx.row(s);
                (d.to_vec(), id.to_vec())
            })
            .collect();
        let restored = ClusterIndex::from_parts(idx.universe(), idx.ids().to_vec(), parts).unwrap();
        assert_eq!(restored.digest(), idx.digest());
        assert_eq!(restored.ids(), idx.ids());
        assert_eq!(restored.stats().full_builds, 0, "a restore is not a build");
        assert_eq!(restored.stats().incremental_updates, 0);
        // Restored index keeps answering incrementally.
        let mut restored = restored;
        restored.apply_churn(&[], &[2], dist).unwrap();
        let mut live = idx;
        live.apply_churn(&[], &[2], dist).unwrap();
        assert_eq!(restored.digest(), live.digest());
    }

    #[test]
    fn from_parts_rejects_malformed_rows() {
        let mk = || {
            let pos = [0.0f64, 2.0, 5.0];
            let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
            let idx = ClusterIndex::build(3, &[0, 1, 2], dist);
            let parts: Vec<(Vec<f64>, Vec<u32>)> = (0..idx.len())
                .map(|s| {
                    let (d, id) = idx.row(s);
                    (d.to_vec(), id.to_vec())
                })
                .collect();
            (idx.ids().to_vec(), parts)
        };

        let (ids, parts) = mk();
        assert!(ClusterIndex::from_parts(3, ids, parts).is_ok());

        // Unsorted ids.
        let (_, parts) = mk();
        assert!(ClusterIndex::from_parts(3, vec![1, 0, 2], parts).is_err());

        // Entry order violation.
        let (ids, mut parts) = mk();
        parts[0].0.swap(1, 2);
        parts[0].1.swap(1, 2);
        let err = ClusterIndex::from_parts(3, ids, parts).unwrap_err();
        assert!(err.contains("canonical"), "{err}");

        // Non-member reference.
        let (ids, mut parts) = mk();
        parts[1].1[2] = 9;
        assert!(ClusterIndex::from_parts(16, ids, parts).is_err());

        // Duplicate member in a row.
        let (ids, mut parts) = mk();
        parts[2].1[1] = parts[2].1[0];
        parts[2].0[1] = parts[2].0[0];
        assert!(ClusterIndex::from_parts(3, ids, parts).is_err());

        // Row count mismatch.
        let (ids, mut parts) = mk();
        parts.pop();
        assert!(ClusterIndex::from_parts(3, ids, parts).is_err());

        // NaN distance.
        let (ids, mut parts) = mk();
        parts[0].0[2] = f64::NAN;
        assert!(ClusterIndex::from_parts(3, ids, parts).is_err());
    }

    #[test]
    fn invalid_churn_is_rejected_without_mutation() {
        let pos = [0.0f64, 2.0, 5.0];
        let dist = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let mut idx = ClusterIndex::build(3, &[0, 1, 2], dist);
        let digest = idx.digest();
        let stats = idx.stats();

        // Removing a non-member (in-universe but never joined a 4-universe
        // sibling, and plain absent here).
        let mut empty = ClusterIndex::empty(4);
        assert_eq!(
            empty.apply_churn(&[1], &[], |_, _| 1.0),
            Err(IndexError::NotAMember(1))
        );
        assert_eq!(empty.stats(), IndexStats::default(), "rejection is free");

        // Out-of-universe ids on either side of the delta.
        assert_eq!(
            idx.apply_churn(&[7], &[], dist),
            Err(IndexError::OutOfUniverse { id: 7, universe: 3 })
        );
        assert_eq!(
            idx.apply_churn(&[], &[3], dist),
            Err(IndexError::OutOfUniverse { id: 3, universe: 3 })
        );
        // An Err leaves the index bit-identical: digest, membership, stats.
        assert_eq!(idx.digest(), digest);
        assert_eq!(idx.stats(), stats);
        assert_eq!(idx.ids(), &[0, 1, 2]);

        let shown = format!("{}", IndexError::NotAMember(1));
        assert!(shown.contains("not an index member"), "{shown}");
        let shown = format!("{}", IndexError::OutOfUniverse { id: 3, universe: 3 });
        assert!(shown.contains("outside universe"), "{shown}");
    }

    #[test]
    fn removal_and_reembedding_in_one_delta_keeps_existing_members() {
        // A leave with orphans produces removed = [x] plus reembedded ids
        // that are *already members*: the survivor filter must not confuse
        // the two classes of touched ids and drop the re-embedded hosts.
        let pos = [0.0f64, 2.0, 3.0, 7.0, 8.0];
        let base = |a: u32, b: u32| (pos[a as usize] - pos[b as usize]).abs();
        let all: Vec<u32> = (0..pos.len() as u32).collect();
        let mut idx = ClusterIndex::build(pos.len(), &all, base);

        let moved = [0.0f64, 2.0, 3.5, 6.0, 8.0];
        let shifted = |a: u32, b: u32| (moved[a as usize] - moved[b as usize]).abs();
        idx.apply_churn(&[4], &[2, 3], shifted).unwrap();
        assert_eq!(idx.ids(), &[0, 1, 2, 3], "re-embedded members survive");
        let fresh = ClusterIndex::build(pos.len(), &[0, 1, 2, 3], shifted);
        assert_eq!(idx.digest(), fresh.digest());
    }

    #[test]
    #[should_panic(expected = "index does not cover the metric")]
    fn mismatched_index_is_rejected() {
        let d = line(&[0.0, 1.0, 2.0]);
        let idx = ClusterIndex::from_metric(&line(&[0.0, 1.0]));
        let _ = find_cluster_indexed(&d, &idx, 2, 1.0);
    }
}
