//! Extraction plans — the reservoir hot path.
//!
//! Sinew's performance argument (paper §4.1, Appendix B Table 5) is that a
//! virtual-column read is "nearly free" relative to a physical column
//! scan. The naive extraction path re-resolves the dotted path through the
//! catalog **per tuple**: an `ids_for_name` clone behind the catalog
//! `RwLock`, a fresh `split('.')`, and a growing prefix `String` for every
//! descent level. This module hoists all of that to *bind time*, the same
//! way a SQL binder resolves names once and then executes against
//! immutable resolved state:
//!
//! * [`ResolvedPath`] — the path pre-split, the `Object` attribute id for
//!   every descent prefix, and the leaf's typed candidate list, all
//!   resolved through the catalog exactly once;
//! * [`ExtractionPlan`] — a `ResolvedPath` plus the [`Want`] type.
//!   Per-tuple execution touches no locks and performs no heap allocation
//!   for path resolution: one [`RawDoc`] header parse per nesting level,
//!   binary-search probes, and a typed decode of the leaf value.
//!
//! **Ownership.** A plan is built by the extraction UDF's bind hook
//! (`udfs.rs`, `ScalarFn::bind`) when the statement's binder meets the call
//! site, and lives inside the bound call, which lives as long as the
//! prepared statement holding it (DESIGN.md §23): nothing looks a plan up
//! per row.
//!
//! **Why a kept plan never re-resolves.** A plan reads only the attribute
//! dictionary — `(name, type) → id`, append-only, ids never reassigned —
//! so the only way a resolution goes out of date is by *missing an id
//! interned after it was built*. Interning bumps the plan epoch before any
//! row carrying the id commits, and a run compares its preparation's epoch
//! with the current one after it has taken its snapshot (DESIGN.md §8), so
//! a run whose rows may hold a key its plans do not know is prepared again
//! first. Materialization flags are the rewriter's business (column vs
//! `COALESCE` vs extraction), not a plan's.

use crate::catalog::{AttrId, Catalog};
use crate::extract::{self, Want};
use crate::types::{array_contains, AttrType};
use sinew_rdbms::{Datum, DbResult, ValueTest};
use sinew_serial::sinew::RawDoc;
use sinew_serial::DecodeError;

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

    /// The ids a document's top level must hold for this path to reach a
    /// value in it: every leaf variant (a direct hit) and, below the top,
    /// the first descent prefix's object. Empty when the path resolved to
    /// nothing.
    pub fn top_level_ids(&self) -> Vec<AttrId> {
        let descend = self.descend.first().copied().flatten();
        self.leaf.iter().map(|(id, _)| *id).chain(descend).collect()
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
}

/// A `(path, want)` extraction resolved against the dictionary as it
/// stood when the plan was built.
#[derive(Debug, Clone)]
pub struct ExtractionPlan {
    pub want: Want,
    pub resolved: ResolvedPath,
}

impl ExtractionPlan {
    /// Resolve `path` now.
    pub fn build(cat: &Catalog, path: &str, want: Want) -> ExtractionPlan {
        ExtractionPlan { want, resolved: ResolvedPath::resolve(cat, path) }
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

    /// The raw bytes of the leaf's `ty` variant in its holder doc, if the
    /// document carries it: `pick_from`'s lookup, for the value tests.
    fn leaf_raw<'a>(&self, cur: &RawDoc<'a>, ty: AttrType) -> DbResult<Option<&'a [u8]>> {
        for (id, t) in &self.resolved.leaf {
            if *t == ty {
                if let Some(raw) = cur.get(*id).map_err(decode_err)? {
                    return Ok(Some(raw));
                }
            }
        }
        Ok(None)
    }

    /// Typed decode of the leaf out of its (already located) holder doc.
    /// The hot path of every projected virtual column: its lookup loop is
    /// written out here rather than shared with [`Self::leaf_raw`], which
    /// measured ≈ 5–10 % slower on a projection-only scan.
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

    /// Can [`ExtractionPlan::test`] evaluate `test` for this plan's want?
    /// Not for `AnyText` (its value is a rendering) or `Object` (a nested
    /// document); array containment only over an array, and an array
    /// compared only with literals that are not arrays (SQL has none).
    pub(crate) fn can_test(&self, test: &ValueTest) -> bool {
        let array = |d: &Datum| matches!(d, Datum::Array(_));
        match (self.want, test) {
            (Want::AnyText | Want::Object, _) => false,
            (Want::Array, ValueTest::Cmp(_, lit)) => !array(lit),
            (Want::Array, ValueTest::Between { lo, hi, .. }) => !array(lo) && !array(hi),
            (Want::Array, _) => true,
            (_, test) => !matches!(test, ValueTest::Contains(_)),
        }
    }

    /// `test` over the value [`ExtractionPlan::extract`] returns, read in
    /// place: the same descent and variant pick, then scalars compare on
    /// the stack through [`Datum::sql_cmp`], text as a `&str` borrowed
    /// from the document (UTF-8 checked, not copied), arrays element by
    /// element in their encoding. A missing key, a type mismatch and a
    /// corrupt value are the NULL value, as for `extract`. Only for a test
    /// [`ExtractionPlan::can_test`] accepts.
    pub(crate) fn test(&self, cat: &Catalog, bytes: &[u8], test: &ValueTest) -> Datum {
        self.try_test(cat, bytes, test).unwrap_or_else(|_| test.on_null())
    }

    fn try_test(&self, cat: &Catalog, bytes: &[u8], test: &ValueTest) -> DbResult<Datum> {
        if self.resolved.leaf.is_empty() {
            return Ok(test.on_null());
        }
        let Some(cur) = self.resolved.descend(bytes).map_err(decode_err)? else {
            return Ok(test.on_null());
        };
        let scalar = |ty: AttrType| -> DbResult<Option<Datum>> {
            self.leaf_raw(&cur, ty)?
                .map(|raw| extract::raw_to_datum(cat, raw, ty, &self.resolved.path))
                .transpose()
        };
        let value = match self.want {
            Want::Bool => scalar(AttrType::Bool)?,
            Want::Int => scalar(AttrType::Int)?,
            Want::Float => scalar(AttrType::Float)?,
            // both variants read, as `pick_from` reads them
            Want::Num => {
                let int = scalar(AttrType::Int)?;
                int.or(scalar(AttrType::Float)?)
            }
            Want::Text => {
                let Some(raw) = self.leaf_raw(&cur, AttrType::Text)? else {
                    return Ok(test.on_null());
                };
                let Ok(s) = std::str::from_utf8(raw) else { return Ok(test.on_null()) };
                let cmp = |d: &Datum| match d {
                    Datum::Text(lit) => Some(s.cmp(lit.as_str())),
                    _ => None,
                };
                return Ok(test.on_value(cmp, |_| false));
            }
            Want::Array => {
                let Some(raw) = self.leaf_raw(&cur, AttrType::Array)? else {
                    return Ok(test.on_null());
                };
                let needle = match test {
                    ValueTest::Contains(needle) => needle,
                    _ => &Datum::Null,
                };
                let Some(found) = array_contains(raw, needle) else {
                    return Ok(test.on_null());
                };
                // an array compares with no literal `can_test` lets through
                return Ok(test.on_value(|_| None, |_| found));
            }
            Want::AnyText | Want::Object => unreachable!("declined by can_test"),
        };
        Ok(match value {
            Some(v) => test.on_value(|d| v.sql_cmp(d), |_| false),
            None => test.on_null(),
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
}
