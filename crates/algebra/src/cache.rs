//! A shared cache of compiled content models.
//!
//! Compiling a [`GroupDefinition`] to its [`ContentModel`] automaton is
//! the only super-linear step of the validator's setup; the seed code
//! cached compilations per *load* (keyed by group address), so every
//! [`crate::load_document`] call — and every re-validation — recompiled
//! the same automata from scratch. [`ContentModelCache`] hoists the
//! cache to the lifetime of a database: it is keyed by a structural
//! fingerprint of the group (not its address, so it survives schema
//! reconstruction and never aliases a freed definition), guarded by a
//! mutex, and hands out [`Arc`]s, so any number of loader threads can
//! share one cache — the bulk-validation API of the `xsdb` crate does
//! exactly that.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xsmodel::{
    CombinationFactor, ComplexTypeDefinition, ContentModel, ContentModelError, GroupDefinition,
    Maximum, Particle, RepetitionFactor, Type,
};

/// A process-wide (or database-wide) cache of compiled content models,
/// keyed by the structural fingerprint of the group definition.
///
/// Cloning an `Arc<ContentModelCache>` shares the cache; the cache
/// itself is `Sync`, so concurrent loaders only contend on the brief
/// map lookups, never on compilation (which runs outside the lock —
/// a racing thread may compile the same group twice, but the second
/// result is discarded and the entry stays canonical).
///
/// Lookup traffic is mirrored into an [`xsobs::Registry`]
/// (`validate.cm_cache.*`): the process-global one by default, or an
/// injected one via [`ContentModelCache::with_registry`].
#[derive(Debug)]
pub struct ContentModelCache {
    map: Mutex<HashMap<String, Arc<ContentModel>>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    obs: Arc<xsobs::Registry>,
}

impl Default for ContentModelCache {
    fn default() -> Self {
        ContentModelCache::with_registry(xsobs::global_arc())
    }
}

impl ContentModelCache {
    /// An empty cache reporting to the process-global registry.
    pub fn new() -> Self {
        ContentModelCache::default()
    }

    /// An empty cache reporting to `obs` instead of the global registry.
    pub fn with_registry(obs: Arc<xsobs::Registry>) -> Self {
        ContentModelCache {
            map: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            obs,
        }
    }

    /// The compiled automaton for `group`, compiling on first sight.
    pub fn get_or_compile(
        &self,
        group: &GroupDefinition,
    ) -> Result<Arc<ContentModel>, ContentModelError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.obs.incr(xsobs::CounterId::CmCacheLookups);
        let key = fingerprint(group);
        // One lock across lookup and compile: racing first sights of a
        // group must count (and pay for) exactly one miss.
        let mut map = self.map.lock().expect("content-model cache lock");
        if let Some(cm) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.incr(xsobs::CounterId::CmCacheHits);
            return Ok(Arc::clone(cm));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.obs.incr(xsobs::CounterId::CmCacheMisses);
        let cm = Arc::new(ContentModel::compile(group)?);
        map.insert(key, Arc::clone(&cm));
        Ok(cm)
    }

    /// Number of distinct content models cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("content-model cache lock").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups (`hits() + misses()`).
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A canonical, injective encoding of a group definition. Every field
/// that influences compilation (combination, repetition, particle
/// structure, element names, types, nillability) is written with
/// length-prefixed strings, so distinct groups cannot collide.
fn fingerprint(group: &GroupDefinition) -> String {
    let mut out = String::new();
    encode_group(group, &mut out);
    out
}

fn encode_str(s: &str, out: &mut String) {
    write!(out, "{}:{s}", s.len()).expect("write to String");
}

fn encode_rep(rf: &RepetitionFactor, out: &mut String) {
    match rf.max {
        Maximum::Bounded(m) => write!(out, "[{},{m}]", rf.min),
        Maximum::Unbounded => write!(out, "[{},*]", rf.min),
    }
    .expect("write to String");
}

fn encode_group(g: &GroupDefinition, out: &mut String) {
    out.push('G');
    out.push(match g.combination {
        CombinationFactor::Sequence => 's',
        CombinationFactor::Choice => 'c',
        CombinationFactor::All => 'a',
    });
    encode_rep(&g.repetition, out);
    out.push('(');
    for p in &g.particles {
        match p {
            Particle::Element(e) => {
                out.push('E');
                encode_str(&e.name, out);
                encode_rep(&e.repetition, out);
                out.push(if e.nillable { '!' } else { '.' });
                encode_type(&e.ty, out);
            }
            Particle::Group(sub) => encode_group(sub, out),
        }
    }
    out.push(')');
}

fn encode_type(ty: &Type, out: &mut String) {
    match ty {
        Type::Named(n) => {
            out.push('N');
            encode_str(n, out);
        }
        Type::AnonymousComplex(ctd) => {
            out.push('C');
            encode_ctd(ctd, out);
        }
        Type::AnonymousSimple(st) => {
            // Anonymous simple types have no name to reference; their
            // derived Debug form is a deterministic full rendering of
            // the variety and facets.
            out.push('S');
            encode_str(&format!("{st:?}"), out);
        }
    }
}

fn encode_ctd(ctd: &ComplexTypeDefinition, out: &mut String) {
    match ctd {
        ComplexTypeDefinition::SimpleContent { base, attributes } => {
            out.push('x');
            encode_str(base, out);
            for (k, v) in attributes {
                encode_str(k, out);
                encode_str(v, out);
            }
            out.push(';');
        }
        ComplexTypeDefinition::ComplexContent { mixed, content, attributes } => {
            out.push('y');
            out.push(if *mixed { '1' } else { '0' });
            for (k, v) in attributes {
                encode_str(k, out);
                encode_str(v, out);
            }
            out.push(';');
            encode_group(content, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsmodel::ElementDeclaration;

    fn eld(name: &str) -> ElementDeclaration {
        ElementDeclaration::new(name, "xs:string")
    }

    #[test]
    fn identical_groups_share_one_automaton() {
        let cache = ContentModelCache::new();
        let g1 = GroupDefinition::sequence(vec![eld("B"), eld("C")]);
        let g2 = GroupDefinition::sequence(vec![eld("B"), eld("C")]);
        let a = cache.get_or_compile(&g1).unwrap();
        let b = cache.get_or_compile(&g2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_groups_get_distinct_entries() {
        let cache = ContentModelCache::new();
        let seq = GroupDefinition::sequence(vec![eld("B"), eld("C")]);
        let choice = GroupDefinition::choice(vec![eld("B"), eld("C")]);
        let renamed = GroupDefinition::sequence(vec![eld("B"), eld("D")]);
        let a = cache.get_or_compile(&seq).unwrap();
        let b = cache.get_or_compile(&choice).unwrap();
        let c = cache.get_or_compile(&renamed).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
        assert!(a.accepts(&["B", "C"]));
        assert!(b.accepts(&["C"]));
        assert!(c.accepts(&["B", "D"]));
    }

    #[test]
    fn fingerprint_length_prefixes_prevent_name_splicing() {
        // ("ab", "c") vs ("a", "bc") must not collide.
        let g1 = GroupDefinition::sequence(vec![eld("ab"), eld("c")]);
        let g2 = GroupDefinition::sequence(vec![eld("a"), eld("bc")]);
        assert_ne!(fingerprint(&g1), fingerprint(&g2));
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = ContentModelCache::new();
        let bad = GroupDefinition::all(vec![eld("a")]).with_repetition(RepetitionFactor::new(2, 2));
        assert!(cache.get_or_compile(&bad).is_err());
        assert!(cache.is_empty());
    }
}
