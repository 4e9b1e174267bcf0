//! Query-scoped extraction plans — the reservoir hot path.
//!
//! Sinew's performance argument (paper §4.1, Appendix B Table 5) is that a
//! virtual-column read is "nearly free" relative to a physical column
//! scan. The naive extraction path re-resolves the dotted path through the
//! catalog **per tuple**: an `ids_for_name` clone behind the catalog
//! `RwLock`, a fresh `split('.')`, and a growing prefix `String` for every
//! descent level. This module hoists all of that to *plan time*, the same
//! way a SQL planner resolves names and costs once and then executes
//! against immutable resolved state:
//!
//! * [`ResolvedPath`] — the path pre-split, the `Object` attribute id for
//!   every descent prefix, and the leaf's typed candidate list, all
//!   resolved through the catalog exactly once;
//! * [`ExtractionPlan`] — a `ResolvedPath` plus the [`Want`] type and the
//!   catalog **epoch** it was built at. Per-tuple execution touches no
//!   locks and performs no heap allocation for path resolution: one
//!   [`RawDoc`] header parse per nesting level, binary-search probes, and
//!   a typed decode of the leaf value.
//! * [`PlanCache`] — the process-wide plan store keyed by `(path, want)`.
//!   The query rewriter warms it whenever it rewrites a virtual-column
//!   reference; the extraction UDFs hit it per tuple (a read lock on the
//!   *cache*, never on the catalog).
//!
//! **Invalidation.** The catalog bumps a lock-free epoch counter on every
//! schema-affecting change (new attribute, materialization flag flip, new
//! per-table state). `PlanCache::get` revalidates the cached plan's epoch
//! against the catalog before returning it, so a background materializer
//! promoting a column mid-workload yields a rebuilt plan on the very next
//! tuple rather than stale results.

use crate::catalog::{AttrId, Catalog};
use crate::extract::{self, Want};
use crate::metrics::Metrics;
use crate::types::AttrType;
use parking_lot::RwLock;
use sinew_rdbms::{Datum, DbResult};
use sinew_serial::sinew::RawDoc;
use sinew_serial::DecodeError;
use std::collections::HashMap;
use std::sync::Arc;

/// A dotted path with every catalog decision pre-resolved.
#[derive(Debug, Clone)]
pub struct ResolvedPath {
    /// The dotted path as written in the query.
    pub path: String,
    /// Number of `.`-separated segments.
    pub depth: usize,
    /// The `Object` attribute id of each strict prefix (`a`, `a.b`, … for
    /// `a.b.c`), or `None` where no such object is registered — descent
    /// through that level can only succeed via a direct (full-dotted) hit.
    pub descend: Vec<Option<AttrId>>,
    /// Every `(id, type)` registered for the full path, in catalog
    /// registration order (`AnyText` takes the first present variant,
    /// matching the unplanned path).
    pub leaf: Vec<(AttrId, AttrType)>,
}

impl ResolvedPath {
    /// Resolve `path` through the catalog once.
    pub fn resolve(cat: &Catalog, path: &str) -> ResolvedPath {
        let depth = path.split('.').count();
        let mut descend = Vec::with_capacity(depth.saturating_sub(1));
        let mut prefix = String::with_capacity(path.len());
        for seg in path.split('.').take(depth.saturating_sub(1)) {
            if !prefix.is_empty() {
                prefix.push('.');
            }
            prefix.push_str(seg);
            descend.push(cat.lookup(&prefix, AttrType::Object));
        }
        ResolvedPath {
            path: path.to_string(),
            depth,
            descend,
            leaf: cat.ids_for_name(path),
        }
    }

    /// Walk `bytes` to the document level holding the path's leaf,
    /// *direct-first* like [`extract`]'s descent: any level that carries a
    /// full-dotted leaf variant is the holder (materialized ancestor
    /// columns and literal-dot keys both rely on this). Allocation-free.
    fn descend<'a>(&self, bytes: &'a [u8]) -> Result<Option<RawDoc<'a>>, DecodeError> {
        let mut cur = RawDoc::parse(bytes)?;
        for level in 0..self.depth {
            if level == self.depth - 1 {
                // leaf-parent level: the typed pick below probes the leaf
                // ids itself, so a direct-hit rescan here is pure waste
                return Ok(Some(cur));
            }
            if self.leaf.iter().any(|(id, _)| cur.contains(*id)) {
                return Ok(Some(cur));
            }
            let Some(child) = self.descend[level] else { return Ok(None) };
            match cur.get(child)? {
                Some(raw) => cur = RawDoc::parse(raw)?,
                None => return Ok(None),
            }
        }
        Ok(Some(cur))
    }

    /// Descend from an already-parsed root, sharing sub-document parses
    /// across paths through `cache`: each entry maps a descended `Object`
    /// attribute id to its parsed child document. The id names a full
    /// dotted prefix globally, so the mapping is path-independent — the
    /// per-path direct-hit checks still run against every level.
    fn descend_from<'a>(
        &self,
        root: RawDoc<'a>,
        cache: &mut Vec<(AttrId, RawDoc<'a>)>,
    ) -> Result<Option<RawDoc<'a>>, DecodeError> {
        let mut cur = root;
        for level in 0..self.depth {
            if level == self.depth - 1 {
                // leaf-parent level: the typed pick below probes the leaf
                // ids itself, so a direct-hit rescan here is pure waste
                return Ok(Some(cur));
            }
            if self.leaf.iter().any(|(id, _)| cur.contains(*id)) {
                return Ok(Some(cur));
            }
            let Some(child) = self.descend[level] else { return Ok(None) };
            if let Some((_, doc)) = cache.iter().find(|(id, _)| *id == child) {
                cur = *doc;
                continue;
            }
            match cur.get(child)? {
                Some(raw) => {
                    cur = RawDoc::parse(raw)?;
                    cache.push((child, cur));
                }
                None => return Ok(None),
            }
        }
        Ok(Some(cur))
    }
}

/// A `(path, want)` extraction compiled against one catalog epoch.
#[derive(Debug, Clone)]
pub struct ExtractionPlan {
    pub want: Want,
    pub resolved: ResolvedPath,
    /// Catalog epoch this plan snapshots; stale ⇒ re-resolve before use.
    pub epoch: u64,
}

impl ExtractionPlan {
    /// Build a plan now. The epoch is read *before* resolution: a
    /// concurrent schema change makes the plan look stale (and rebuilt on
    /// next cache hit) rather than silently current.
    pub fn build(cat: &Catalog, path: &str, want: Want) -> ExtractionPlan {
        let epoch = cat.epoch();
        ExtractionPlan { want, resolved: ResolvedPath::resolve(cat, path), epoch }
    }

    /// Is this plan still valid against the catalog?
    pub fn is_current(&self, cat: &Catalog) -> bool {
        self.epoch == cat.epoch()
    }

    /// Per-tuple extraction. No catalog locks; no allocation until the
    /// leaf value itself is materialized as a [`Datum`]. The catalog is
    /// consulted only for the rare `AnyText`-over-object/array render
    /// (JSON text needs attribute names).
    pub fn extract(&self, cat: &Catalog, bytes: &[u8]) -> Datum {
        match self.try_extract(cat, bytes) {
            Ok(d) => d,
            Err(_) => Datum::Null, // corrupt docs surface as NULL
        }
    }

    fn try_extract(&self, cat: &Catalog, bytes: &[u8]) -> DbResult<Datum> {
        if self.resolved.leaf.is_empty() {
            return Ok(Datum::Null);
        }
        let Some(cur) = self.resolved.descend(bytes).map_err(decode_err)? else {
            return Ok(Datum::Null);
        };
        self.pick_from(cat, &cur)
    }

    /// One item of a fused extraction: descend from the shared parsed root
    /// (through the shared sub-document cache) and decode the leaf. Errors
    /// surface as NULL, exactly like a standalone [`Self::extract`].
    fn extract_from<'a>(
        &self,
        cat: &Catalog,
        root: RawDoc<'a>,
        cache: &mut Vec<(AttrId, RawDoc<'a>)>,
    ) -> Datum {
        if self.resolved.leaf.is_empty() {
            return Datum::Null;
        }
        match self.resolved.descend_from(root, cache) {
            Ok(Some(cur)) => self.pick_from(cat, &cur).unwrap_or(Datum::Null),
            _ => Datum::Null,
        }
    }

    /// Typed decode of the leaf out of its (already located) holder doc.
    fn pick_from(&self, cat: &Catalog, cur: &RawDoc<'_>) -> DbResult<Datum> {
        let pick = |want_ty: AttrType| -> DbResult<Option<Datum>> {
            for (id, ty) in &self.resolved.leaf {
                if *ty == want_ty {
                    if let Some(raw) = cur.get(*id).map_err(decode_err)? {
                        return Ok(Some(extract::raw_to_datum(
                            cat,
                            raw,
                            *ty,
                            &self.resolved.path,
                        )?));
                    }
                }
            }
            Ok(None)
        };
        Ok(match self.want {
            Want::Bool => pick(AttrType::Bool)?.unwrap_or(Datum::Null),
            Want::Int => pick(AttrType::Int)?.unwrap_or(Datum::Null),
            Want::Float => pick(AttrType::Float)?.unwrap_or(Datum::Null),
            Want::Num => pick(AttrType::Int)?
                .or(pick(AttrType::Float)?)
                .unwrap_or(Datum::Null),
            Want::Text => pick(AttrType::Text)?.unwrap_or(Datum::Null),
            Want::Object => pick(AttrType::Object)?.unwrap_or(Datum::Null),
            Want::Array => pick(AttrType::Array)?.unwrap_or(Datum::Null),
            Want::AnyText => {
                for (id, ty) in &self.resolved.leaf {
                    if let Some(raw) = cur.get(*id).map_err(decode_err)? {
                        let d = extract::raw_to_datum(cat, raw, *ty, &self.resolved.path)?;
                        return Ok(Datum::Text(extract::datum_to_text(
                            cat,
                            &d,
                            *ty,
                            &self.resolved.path,
                        )));
                    }
                }
                Datum::Null
            }
        })
    }

    /// Does the key exist under any type? Same descent, no value decode.
    pub fn exists(&self, bytes: &[u8]) -> bool {
        if self.resolved.leaf.is_empty() {
            return false;
        }
        match self.resolved.descend(bytes) {
            Ok(Some(cur)) => self.resolved.leaf.iter().any(|(id, _)| cur.contains(*id)),
            _ => false,
        }
    }
}

/// A fused multi-key extraction: k `(path, want)` items compiled against
/// one catalog epoch, executed with **one** root document parse per tuple
/// and sub-document parses shared across items with a common dotted prefix
/// (`user.id` and `user.geo.lat` parse `user` once).
///
/// This is the execution half of the rewriter's `extract_keys` fusion: a
/// query touching k virtual columns performs one descent pass instead of k
/// independent `extract_key_*` calls.
#[derive(Debug, Clone)]
pub struct MultiExtractionPlan {
    pub items: Vec<ExtractionPlan>,
    /// Catalog epoch the whole bundle snapshots; stale ⇒ rebuild.
    pub epoch: u64,
}

impl MultiExtractionPlan {
    /// Build a fused plan now. Epoch read *before* resolution, like
    /// [`ExtractionPlan::build`].
    pub fn build(cat: &Catalog, specs: &[(&str, Want)]) -> MultiExtractionPlan {
        let epoch = cat.epoch();
        let items =
            specs.iter().map(|(path, want)| ExtractionPlan::build(cat, path, *want)).collect();
        MultiExtractionPlan { items, epoch }
    }

    /// Is this plan still valid against the catalog? The streaming
    /// executor's block bracketing (`ScalarFn::begin_block`) lets
    /// `extract_keys` amortize this check to once per block instead of
    /// once per row — see the block-generation scheme in `udfs.rs`.
    pub fn is_current(&self, cat: &Catalog) -> bool {
        self.epoch == cat.epoch()
    }

    /// Does this plan cover exactly `specs`, in order? (Cache-collision
    /// guard: the multi cache is keyed by a 64-bit hash of the specs.)
    pub fn matches(&self, specs: &[(&str, Want)]) -> bool {
        self.items.len() == specs.len()
            && self
                .items
                .iter()
                .zip(specs)
                .all(|(item, (path, want))| item.want == *want && item.resolved.path == *path)
    }

    /// Extract every item in one pass: one root parse, shared prefix
    /// descent. Per-item failures (corrupt sub-document, type mismatch)
    /// yield NULL for that item only — element i always equals what the
    /// standalone plan for `specs[i]` would have produced.
    pub fn extract_all(&self, cat: &Catalog, bytes: &[u8]) -> Vec<Datum> {
        let Ok(root) = RawDoc::parse(bytes) else {
            return vec![Datum::Null; self.items.len()];
        };
        let mut cache: Vec<(AttrId, RawDoc<'_>)> = Vec::new();
        self.items.iter().map(|item| item.extract_from(cat, root, &mut cache)).collect()
    }
}

/// [`Want`] → dense cache slot. Kept here (not on `Want`) so the extract
/// module stays ignorant of the cache layout.
fn want_slot(w: Want) -> usize {
    match w {
        Want::Bool => 0,
        Want::Int => 1,
        Want::Float => 2,
        Want::Num => 3,
        Want::Text => 4,
        Want::AnyText => 5,
        Want::Object => 6,
        Want::Array => 7,
    }
}

const WANT_SLOTS: usize = 8;

/// Process-wide plan store: path → one plan slot per [`Want`] variant.
/// Keyed by `String` but probed by `&str`, so a per-tuple hit allocates
/// nothing. The lock guards the *cache map*, never the catalog.
pub struct PlanCache {
    plans: RwLock<HashMap<String, [Option<Arc<ExtractionPlan>>; WANT_SLOTS]>>,
    /// Fused plans, keyed by an FNV-64 hash over the ordered spec list so a
    /// per-tuple probe allocates nothing; [`MultiExtractionPlan::matches`]
    /// guards against hash collisions.
    multi: RwLock<HashMap<u64, Arc<MultiExtractionPlan>>>,
    metrics: Arc<Metrics>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    pub fn new() -> PlanCache {
        PlanCache::with_metrics(Arc::new(Metrics::default()))
    }

    /// A cache feeding the given metrics sink (the owning `Sinew` shares
    /// its instance-wide [`Metrics`] here).
    pub fn with_metrics(metrics: Arc<Metrics>) -> PlanCache {
        PlanCache {
            plans: RwLock::new(HashMap::new()),
            multi: RwLock::new(HashMap::new()),
            metrics,
        }
    }

    /// Fetch the current plan for `(path, want)`, building or rebuilding
    /// it when absent or stale. The common case is one read-locked probe
    /// plus one atomic epoch load.
    pub fn get(&self, cat: &Catalog, path: &str, want: Want) -> Arc<ExtractionPlan> {
        let slot = want_slot(want);
        {
            let plans = self.plans.read();
            match plans.get(path).and_then(|row| row[slot].as_ref()) {
                Some(plan) if plan.is_current(cat) => {
                    self.metrics.plan_cache_hits.inc();
                    return plan.clone();
                }
                Some(_) => self.metrics.plan_cache_stale_rebuilds.inc(),
                None => self.metrics.plan_cache_misses.inc(),
            }
        }
        let fresh = Arc::new(ExtractionPlan::build(cat, path, want));
        let mut plans = self.plans.write();
        let row = plans.entry(path.to_string()).or_default();
        // Another thread may have raced us here; prefer whichever plan is
        // current (both are if the epoch held — identical contents then).
        match &row[slot] {
            Some(existing) if existing.is_current(cat) && !fresh.is_current(cat) => {
                existing.clone()
            }
            _ => {
                row[slot] = Some(fresh.clone());
                fresh
            }
        }
    }

    /// Warm the cache for a path the rewriter is about to reference.
    pub fn prepare(&self, cat: &Catalog, path: &str, want: Want) {
        let _ = self.get(cat, path, want);
    }

    /// Fetch the current fused plan for the ordered spec list, building or
    /// rebuilding when absent, stale, or hash-collided. The common case is
    /// one read-locked probe, one hash, zero allocations.
    pub fn get_multi(&self, cat: &Catalog, specs: &[(&str, Want)]) -> Arc<MultiExtractionPlan> {
        let key = multi_key(specs);
        {
            let multi = self.multi.read();
            match multi.get(&key) {
                Some(plan) if plan.matches(specs) && plan.is_current(cat) => {
                    self.metrics.plan_cache_hits.inc();
                    return plan.clone();
                }
                Some(plan) if plan.matches(specs) => {
                    self.metrics.plan_cache_stale_rebuilds.inc()
                }
                _ => self.metrics.plan_cache_misses.inc(),
            }
        }
        let fresh = Arc::new(MultiExtractionPlan::build(cat, specs));
        let mut multi = self.multi.write();
        // Racing builder: prefer whichever plan is still current.
        match multi.get(&key) {
            Some(existing)
                if existing.matches(specs)
                    && existing.is_current(cat)
                    && !fresh.is_current(cat) =>
            {
                existing.clone()
            }
            _ => {
                multi.insert(key, fresh.clone());
                fresh
            }
        }
    }

    /// Warm the fused-plan cache for a spec list the rewriter just fused.
    pub fn prepare_multi(&self, cat: &Catalog, specs: &[(&str, Want)]) {
        let _ = self.get_multi(cat, specs);
    }

    /// Drop every stale plan (memory hygiene; the background materializer
    /// calls this after moving data so a long-lived process doesn't keep
    /// dead resolutions around). Correctness never depends on it — `get`
    /// revalidates per call.
    pub fn sweep(&self, cat: &Catalog) {
        let epoch = cat.epoch();
        let mut swept = 0u64;
        let mut plans = self.plans.write();
        for row in plans.values_mut() {
            for slot in row.iter_mut() {
                if slot.as_ref().is_some_and(|p| p.epoch != epoch) {
                    *slot = None;
                    swept += 1;
                }
            }
        }
        plans.retain(|_, row| row.iter().any(|s| s.is_some()));
        drop(plans);
        let mut multi = self.multi.write();
        multi.retain(|_, p| {
            let keep = p.epoch == epoch;
            if !keep {
                swept += 1;
            }
            keep
        });
        drop(multi);
        self.metrics.plan_cache_swept.add(swept);
    }

    /// Number of live cached plans, fused bundles included (tests, stats).
    pub fn len(&self) -> usize {
        let singles: usize = self
            .plans
            .read()
            .values()
            .map(|row| row.iter().filter(|s| s.is_some()).count())
            .sum();
        singles + self.multi.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a over the ordered spec list. Allocation-free.
fn multi_key(specs: &[(&str, Want)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for (path, want) in specs {
        for &b in path.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        // Separator + want tag: keeps ("ab", Int), ("a", ...) distinct
        // from ("a", ...), ("b", ...) style concatenations.
        h = (h ^ 0xff).wrapping_mul(PRIME);
        h = (h ^ (want_slot(*want) as u64 + 1)).wrapping_mul(PRIME);
    }
    h
}

fn decode_err(e: DecodeError) -> sinew_rdbms::DbError {
    sinew_rdbms::DbError::Eval(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::serialize_doc;
    use sinew_json::parse;
    use sinew_rdbms::Database;

    fn setup() -> (Database, Catalog) {
        let db = Database::in_memory();
        let cat = Catalog::load(&db, Default::default()).unwrap();
        (db, cat)
    }

    fn doc(db: &Database, cat: &Catalog, json: &str) -> Vec<u8> {
        serialize_doc(db, cat, &parse(json).unwrap()).unwrap().0
    }

    #[test]
    fn planned_extraction_matches_unplanned() {
        let (db, cat) = setup();
        let bytes = doc(
            &db,
            &cat,
            r#"{"hits": 22, "url": "x.com", "ok": true, "r": 0.5,
                "user": {"id": 7, "geo": {"lat": 1.5}},
                "tags": [1, "x"], "obj": {"a": 1}}"#,
        );
        let cases: &[(&str, Want)] = &[
            ("hits", Want::Int),
            ("hits", Want::Num),
            ("hits", Want::AnyText),
            ("url", Want::Text),
            ("url", Want::Int), // mismatch → NULL both ways
            ("ok", Want::Bool),
            ("r", Want::Float),
            ("user.id", Want::Int),
            ("user.geo.lat", Want::Float),
            ("user.geo.lat", Want::AnyText),
            ("user.nope", Want::Int),
            ("nope.id", Want::Int),
            ("missing", Want::Int),
            ("tags", Want::Array),
            ("obj", Want::AnyText),
        ];
        for (path, want) in cases {
            let plan = ExtractionPlan::build(&cat, path, *want);
            assert_eq!(
                plan.extract(&cat, &bytes),
                extract::extract_path(&cat, &bytes, path, *want),
                "path={path} want={want:?}"
            );
        }
    }

    #[test]
    fn planned_exists_matches_unplanned() {
        let (db, cat) = setup();
        let bytes = doc(&db, &cat, r#"{"a": 1, "user": {"geo": {"lat": 1.5}}}"#);
        for path in ["a", "user.geo.lat", "user.geo.lon", "nope", "user"] {
            let plan = ExtractionPlan::build(&cat, path, Want::AnyText);
            assert_eq!(
                plan.exists(&bytes),
                extract::exists_path(&cat, &bytes, path),
                "path={path}"
            );
        }
    }

    #[test]
    fn plan_handles_literal_dot_keys_via_direct_hit() {
        let (db, cat) = setup();
        // {"a": {"b.c": 1}} registers attribute "a.b.c" directly inside
        // doc("a") — no "a.b" object exists, only the direct hit resolves.
        let bytes = doc(&db, &cat, r#"{"a": {"b.c": 1}}"#);
        let plan = ExtractionPlan::build(&cat, "a.b.c", Want::Int);
        assert_eq!(plan.extract(&cat, &bytes), Datum::Int(1));
        assert_eq!(
            extract::extract_path(&cat, &bytes, "a.b.c", Want::Int),
            Datum::Int(1)
        );
    }

    #[test]
    fn plan_extracts_from_materialized_parent_doc() {
        let (db, cat) = setup();
        let root = doc(&db, &cat, r#"{"user": {"id": 7}}"#);
        // simulate the rewriter handing us the parent object's column value
        let parent = extract::extract_path(&cat, &root, "user", Want::Object);
        let Datum::Bytea(parent_bytes) = parent else { panic!() };
        let plan = ExtractionPlan::build(&cat, "user.id", Want::Int);
        assert_eq!(plan.extract(&cat, &parent_bytes), Datum::Int(7));
    }

    #[test]
    fn stale_plan_detected_and_cache_rebuilds() {
        let (db, cat) = setup();
        let _ = doc(&db, &cat, r#"{"a": 1}"#);
        let cache = PlanCache::new();
        let p1 = cache.get(&cat, "fresh", Want::Int);
        assert!(p1.resolved.leaf.is_empty());
        assert!(p1.is_current(&cat));
        // schema change: "fresh" appears
        let bytes = doc(&db, &cat, r#"{"fresh": 9}"#);
        assert!(!p1.is_current(&cat), "intern bumps the epoch");
        // a stale plan held by a reader gives a *stale-schema* answer …
        assert_eq!(p1.extract(&cat, &bytes), Datum::Null);
        // … but the cache hands back a rebuilt, current plan
        let p2 = cache.get(&cat, "fresh", Want::Int);
        assert!(p2.is_current(&cat));
        assert_eq!(p2.extract(&cat, &bytes), Datum::Int(9));
    }

    #[test]
    fn fused_extraction_matches_per_item_plans() {
        let (db, cat) = setup();
        let bytes = doc(
            &db,
            &cat,
            r#"{"hits": 22, "url": "x.com", "ok": true,
                "user": {"id": 7, "geo": {"lat": 1.5, "lon": -2.0}},
                "tags": [1, "x"]}"#,
        );
        let specs: &[(&str, Want)] = &[
            ("hits", Want::Int),
            ("url", Want::Text),
            ("user.id", Want::Int),
            ("user.geo.lat", Want::Float),
            ("user.geo.lon", Want::Float),
            ("user.nope", Want::Int),
            ("missing", Want::Int),
            ("hits", Want::Text), // type mismatch → NULL for this item only
            ("tags", Want::Array),
        ];
        let fused = MultiExtractionPlan::build(&cat, specs);
        let got = fused.extract_all(&cat, &bytes);
        assert_eq!(got.len(), specs.len());
        for (i, (path, want)) in specs.iter().enumerate() {
            let single = ExtractionPlan::build(&cat, path, *want);
            assert_eq!(
                got[i],
                single.extract(&cat, &bytes),
                "item {i}: path={path} want={want:?}"
            );
        }
    }

    #[test]
    fn multi_cache_revalidates_on_epoch_bump() {
        let (db, cat) = setup();
        let _ = doc(&db, &cat, r#"{"a": 1}"#);
        let cache = PlanCache::new();
        let specs: &[(&str, Want)] = &[("a", Want::Int), ("b", Want::Int)];
        let p1 = cache.get_multi(&cat, specs);
        assert!(p1.is_current(&cat));
        assert!(Arc::ptr_eq(&p1, &cache.get_multi(&cat, specs)), "hit returns same plan");
        let bytes = doc(&db, &cat, r#"{"b": 5}"#); // epoch bump: "b" appears
        assert!(!p1.is_current(&cat));
        let p2 = cache.get_multi(&cat, specs);
        assert!(p2.is_current(&cat));
        assert_eq!(p2.extract_all(&cat, &bytes), vec![Datum::Null, Datum::Int(5)]);
    }

    #[test]
    fn sweep_drops_only_stale_plans() {
        let (db, cat) = setup();
        let _ = doc(&db, &cat, r#"{"a": 1, "b": 2}"#);
        let cache = PlanCache::new();
        cache.prepare(&cat, "a", Want::Int);
        cache.prepare(&cat, "b", Want::Int);
        assert_eq!(cache.len(), 2);
        cache.sweep(&cat);
        assert_eq!(cache.len(), 2, "current plans survive a sweep");
        let _ = doc(&db, &cat, r#"{"c": 3}"#); // epoch bump
        cache.sweep(&cat);
        assert_eq!(cache.len(), 0, "stale plans are dropped");
        // and get() transparently rebuilds afterwards
        assert!(cache.get(&cat, "a", Want::Int).is_current(&cat));
    }
}
