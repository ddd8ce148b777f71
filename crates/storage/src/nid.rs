//! The numbering scheme (§9.3).
//!
//! Every node descriptor carries a *numbering label* (`nid`) encoding its
//! position in the document. The scheme is Dewey-based (§9.3, [19]) with
//! the Sedna enhancement: labels are sequences of *components*, each a
//! non-empty string over a finite ordered alphabet Ω, and new components
//! can always be generated **between** two existing ones — so insertions
//! never force relabeling of other nodes (Proposition 1).
//!
//! Representation: Ω = bytes `1..=255`; a label is stored flattened with
//! `0` as component separator (0 < Ω_min, which makes a plain byte
//! comparison of flattened labels realize the §9.3 document-order rule:
//! a label that is a proper component-prefix of another sorts first).
//!
//! The three §9.3 relationship checks:
//!
//! * `x << y` in document order ⇔ flattened(x) < flattened(y);
//! * `x = y` ⇔ flattened equality;
//! * `x` is the parent of `y` ⇔ components(x) = components(y) minus the
//!   last one (and ancestor ⇔ proper component-prefix).

use std::cmp::Ordering;
use std::fmt;

/// Separator between components in the flattened form (below Ω_min).
const SEP: u8 = 0;
/// Smallest alphabet symbol.
pub const OMEGA_MIN: u8 = 1;
/// Largest alphabet symbol.
pub const OMEGA_MAX: u8 = 255;

/// A numbering label.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nid {
    /// Flattened components separated by [`SEP`].
    bytes: Vec<u8>,
}

impl fmt::Debug for Nid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nid(")?;
        for (i, c) in self.components().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            for (j, b) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, "-")?;
                }
                write!(f, "{b}")?;
            }
        }
        write!(f, ")")
    }
}

impl Nid {
    /// The root label: a single mid-alphabet component, leaving room on
    /// both sides (document nodes of other trees, if any, get their own
    /// roots from [`between_components`]).
    pub fn root() -> Nid {
        Nid { bytes: vec![128] }
    }

    /// A label from explicit components (test/bench helper).
    ///
    /// # Panics
    /// If any component is empty or contains 0.
    pub fn from_components<'a>(components: impl IntoIterator<Item = &'a [u8]>) -> Nid {
        let mut bytes = Vec::new();
        for (i, c) in components.into_iter().enumerate() {
            assert!(!c.is_empty(), "components are non-empty");
            assert!(!c.contains(&SEP), "components use the alphabet 1..=255");
            if i > 0 {
                bytes.push(SEP);
            }
            bytes.extend_from_slice(c);
        }
        assert!(!bytes.is_empty(), "a label has at least one component");
        Nid { bytes }
    }

    /// The flattened form, for on-page serialization.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuild a label from its flattened form (untrusted disk bytes):
    /// non-empty, and no empty components — no leading, trailing, or
    /// doubled separators.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Nid, crate::error::StorageError> {
        let ok = !bytes.is_empty() && bytes.split(|&b| b == SEP).all(|c| !c.is_empty());
        if ok {
            Ok(Nid { bytes: bytes.to_vec() })
        } else {
            Err(crate::error::StorageError::Corrupt(format!("malformed nid bytes {bytes:?}")))
        }
    }

    /// The label's components.
    pub fn components(&self) -> impl Iterator<Item = &[u8]> {
        self.bytes.split(|&b| b == SEP)
    }

    /// Number of components (= 1 + tree depth of the labeled node).
    pub fn level(&self) -> usize {
        self.components().count()
    }

    /// Total bytes of the flattened form (label-size metric for E6).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Extend with a child component.
    pub fn child(&self, component: &[u8]) -> Nid {
        assert!(!component.is_empty() && !component.contains(&SEP));
        let mut bytes = Vec::with_capacity(self.bytes.len() + 1 + component.len());
        bytes.extend_from_slice(&self.bytes);
        bytes.push(SEP);
        bytes.extend_from_slice(component);
        Nid { bytes }
    }

    /// The parent's label (`None` for a root label).
    pub fn parent(&self) -> Option<Nid> {
        self.parent_bytes().map(|bytes| Nid { bytes: bytes.to_vec() })
    }

    /// The parent's flattened label: everything before the last
    /// separator, borrowed.
    fn parent_bytes(&self) -> Option<&[u8]> {
        let cut = self.bytes.iter().rposition(|&b| b == SEP)?;
        Some(&self.bytes[..cut])
    }

    /// The last component.
    pub fn last_component(&self) -> &[u8] {
        self.components().last().expect("non-empty")
    }

    /// §9.3 rule 1: document-order comparison.
    pub fn cmp_doc_order(&self, other: &Nid) -> Ordering {
        self.bytes.cmp(&other.bytes)
    }

    /// §9.3 rule 3: is `self` the parent of `other`?
    pub fn is_parent_of(&self, other: &Nid) -> bool {
        other.parent_bytes() == Some(&self.bytes[..])
    }

    /// Ancestor check ("other relationships easily outcome from the
    /// presented ones"): proper component-prefix.
    pub fn is_ancestor_of(&self, other: &Nid) -> bool {
        other.bytes.len() > self.bytes.len()
            && other.bytes[self.bytes.len()] == SEP
            && other.bytes.starts_with(&self.bytes)
    }
}

/// Generate a component strictly between `a` and `b` (`a < c < b` in
/// byte-lexicographic order over Ω).
///
/// Always succeeds for `a < b` — the kernel of Proposition 1: because a
/// component may be *extended*, the space between any two distinct
/// components is never empty. The shortest available component is chosen
/// to bound label growth.
///
/// Pass `None` for an absent bound: `(None, Some(b))` yields a component
/// below `b`, `(Some(a), None)` above `a`, `(None, None)` a fresh middle
/// component.
pub fn between_components(a: Option<&[u8]>, b: Option<&[u8]>) -> Vec<u8> {
    match (a, b) {
        (None, None) => vec![128],
        (Some(a), None) => after_component(a),
        (None, Some(b)) => before_component(b),
        (Some(a), Some(b)) => {
            debug_assert!(a < b, "between requires a < b");
            strictly_between(a, b)
        }
    }
}

/// A component strictly greater than `a`, keeping headroom by stepping to
/// the midpoint of the remaining space at the first free position.
fn after_component(a: &[u8]) -> Vec<u8> {
    // Find the first byte that can be increased; step halfway to Ω_MAX.
    for (i, &byte) in a.iter().enumerate() {
        if byte < OMEGA_MAX {
            let mut out = a[..=i].to_vec();
            out[i] = byte + (OMEGA_MAX - byte).div_ceil(2);
            return out;
        }
    }
    // All bytes are Ω_MAX: extend.
    let mut out = a.to_vec();
    out.push(128);
    out
}

/// A component strictly less than `b`.
///
/// Requires `b` to honour the no-trailing-Ω_min invariant (see
/// [`strictly_between`]); then some byte of `b` exceeds Ω_min and the
/// halving step below always finds room.
fn before_component(b: &[u8]) -> Vec<u8> {
    for (i, &byte) in b.iter().enumerate() {
        if byte > OMEGA_MIN {
            let mut out = b[..=i].to_vec();
            out[i] = OMEGA_MIN + (byte - OMEGA_MIN) / 2;
            return fix_trailing_min(out);
        }
    }
    unreachable!("components never end with Ω_min, so some byte exceeds it")
}

/// Components must never end with Ω_min: the interval `([x], [x, Ω_min])`
/// is empty in byte order, so a trailing Ω_min would create a gap no
/// future insert could land in — exactly what Proposition 1 forbids.
/// Appending a mid symbol preserves every strict bound already
/// established at an earlier byte.
fn fix_trailing_min(mut out: Vec<u8>) -> Vec<u8> {
    if out.last() == Some(&OMEGA_MIN) {
        out.push(128);
    }
    out
}

/// Shortest component strictly between `a < b` (both honouring the
/// no-trailing-Ω_min invariant; the result honours it too).
fn strictly_between(a: &[u8], b: &[u8]) -> Vec<u8> {
    debug_assert!(a < b, "between requires a < b");
    let mut out: Vec<u8> = Vec::new();
    let mut i = 0usize;
    loop {
        // Virtual digit 0 (< Ω_min) once `a` is exhausted.
        let x = a.get(i).copied().unwrap_or(0);
        let y = b
            .get(i)
            .copied()
            .expect("b cannot be exhausted while the prefix still matches (a < b)");
        if x == y {
            out.push(x);
            i += 1;
            continue;
        }
        debug_assert!(x < y);
        if y - x >= 2 {
            // Room at this position: midpoint, strictly between.
            out.push(x + (y - x) / 2);
            break;
        }
        if x == 0 {
            // a exhausted and b continues with Ω_min: follow b downward;
            // the invariant guarantees b eventually has a byte > Ω_min.
            out.push(y);
            i += 1;
            continue;
        }
        // Adjacent symbols (y = x + 1): descend on the a-side — anything
        // extending a[..=i] is still < b — and pick a suffix > a[i+1..].
        out.push(x);
        i += 1;
        out.extend_from_slice(&after_component_suffix(&a[i..]));
        break;
    }
    let out = fix_trailing_min(out);
    debug_assert!(a < out.as_slice() && out.as_slice() < b.to_vec().as_slice());
    out
}

/// A byte string strictly greater than `rest` but with no upper bound.
fn after_component_suffix(rest: &[u8]) -> Vec<u8> {
    if rest.is_empty() {
        // Any extension works; stay low to leave room.
        return vec![128];
    }
    after_component(rest)
}

/// Allocator for sibling components within one parent, leaving gaps so
/// future inserts stay short. Components are handed out as single bytes
/// `2, 6, 10, …` while they last, then extended.
#[derive(Debug, Clone, Default)]
pub struct ComponentAllocator {
    last: Option<Vec<u8>>,
}

/// Gap between consecutive bulk-allocated sibling components.
const STRIDE: u8 = 4;

impl ComponentAllocator {
    /// A fresh allocator (first component will be `[2]`).
    pub fn new() -> Self {
        ComponentAllocator::default()
    }

    /// Next component, strictly greater than everything allocated before.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Vec<u8> {
        let next = match &self.last {
            None => vec![OMEGA_MIN + 1],
            Some(prev) => {
                // Bump the last byte by the stride when possible.
                let mut out = prev.clone();
                let last = *out.last().expect("non-empty");
                if last <= OMEGA_MAX - STRIDE {
                    *out.last_mut().unwrap() = last + STRIDE;
                    out
                } else {
                    after_component(prev)
                }
            }
        };
        self.last = Some(next.clone());
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(parts: &[&[u8]]) -> Nid {
        Nid::from_components(parts.iter().copied())
    }

    #[test]
    fn document_order_rule_1() {
        // Same-length divergence.
        assert_eq!(nid(&[&[5], &[3]]).cmp_doc_order(&nid(&[&[5], &[7]])), Ordering::Less);
        // Prefix precedes extension (ancestor before descendant).
        assert_eq!(nid(&[&[5]]).cmp_doc_order(&nid(&[&[5], &[1]])), Ordering::Less);
        // Rule 2: equality.
        assert_eq!(nid(&[&[5], &[3]]).cmp_doc_order(&nid(&[&[5], &[3]])), Ordering::Equal);
    }

    #[test]
    fn multi_byte_components_order_correctly() {
        // Component [5,10] vs component [6]: [5,10] < [6].
        let a = nid(&[&[5, 10]]);
        let b = nid(&[&[6]]);
        assert_eq!(a.cmp_doc_order(&b), Ordering::Less);
        // And the child of the earlier sibling still precedes the later sibling.
        assert_eq!(a.child(&[200]).cmp_doc_order(&b), Ordering::Less);
    }

    #[test]
    fn parent_rule_3() {
        let p = nid(&[&[5], &[3]]);
        let c = p.child(&[9, 9]);
        assert!(p.is_parent_of(&c));
        assert!(!c.is_parent_of(&p));
        assert!(!p.is_parent_of(&p));
        let gc = c.child(&[1]);
        assert!(!p.is_parent_of(&gc)); // grandchild, not child
        assert_eq!(c.parent(), Some(p));
        assert_eq!(Nid::root().parent(), None);
    }

    #[test]
    fn ancestor_descendant() {
        let a = nid(&[&[5]]);
        let d = a.child(&[3]).child(&[7]);
        assert!(a.is_ancestor_of(&d));
        assert!(!d.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&a));
        // [5] is not an ancestor of [5,1] — single component whose bytes
        // extend is a *sibling-space* label, not a descendant.
        let sib = nid(&[&[5, 1]]);
        assert!(!a.is_ancestor_of(&sib));
    }

    proptest::proptest! {
        /// The slice comparison agrees with the allocating definition
        /// (§9.3 rule 3 read off `parent()`) on arbitrary labels.
        #[test]
        fn relationship_checks_match_the_parent_label(
            a in proptest::collection::vec(proptest::collection::vec(1u8..=255, 1..3), 1..4),
            b in proptest::collection::vec(proptest::collection::vec(1u8..=255, 1..3), 1..4),
            shared in 0usize..4,
        ) {
            // Graft `b` under a prefix of `a`, so related pairs occur often.
            let cut = shared.min(a.len());
            let x = nid_of(&a);
            let y = nid_of(&[&a[..cut], &b[..]].concat());
            for (p, q) in [(&x, &y), (&y, &x), (&x, &x)] {
                proptest::prop_assert_eq!(p.is_parent_of(q), q.parent().as_ref() == Some(p));
            }
        }
    }

    fn nid_of(parts: &[Vec<u8>]) -> Nid {
        Nid::from_components(parts.iter().map(Vec::as_slice))
    }

    #[test]
    fn level_and_sizes() {
        let n = Nid::root().child(&[2]).child(&[3, 4]);
        assert_eq!(n.level(), 3);
        assert_eq!(n.byte_len(), 1 + 1 + 1 + 1 + 2); // 128 . 2 . 3-4
        assert_eq!(n.last_component(), &[3, 4]);
    }

    #[test]
    fn between_generates_strictly_between() {
        let cases: &[(&[u8], &[u8])] = &[
            (&[10], &[20]),
            (&[10], &[11]),
            (&[10], &[10, 1, 1, 5]),
            (&[10, 255], &[11]),
            (&[255], &[255, 255]),
            (&[1, 128], &[2]),
            (&[2], &[2, 2]),
            (&[128, 3], &[128, 4]),
        ];
        for (a, b) in cases {
            let c = between_components(Some(a), Some(b));
            assert!(*a < c.as_slice() && c.as_slice() < *b, "{a:?} < {c:?} < {b:?} violated");
            assert_ne!(c.last(), Some(&OMEGA_MIN), "no trailing Ω_min in {c:?}");
        }
    }

    #[test]
    fn generated_components_never_end_with_omega_min() {
        // The invariant that keeps every gap insertable (Proposition 1).
        let mut hi: Vec<u8> = vec![3];
        for _ in 0..200 {
            let c = between_components(Some(&[2]), Some(&hi));
            assert_ne!(c.last(), Some(&OMEGA_MIN), "{c:?}");
            hi = c;
        }
    }

    #[test]
    fn between_open_ended() {
        let after = between_components(Some(&[200]), None);
        assert!(after.as_slice() > &[200][..]);
        let before = between_components(None, Some(&[2]));
        assert!(before.as_slice() < &[2][..]);
        assert!(!between_components(None, None).is_empty());
    }

    #[test]
    fn repeated_front_insertion_never_fails_and_grows_logarithmically() {
        // Adversarial: always insert before the current smallest.
        let mut smallest: Vec<u8> = vec![128];
        let mut max_len = 0;
        for _ in 0..1000 {
            let c = between_components(None, Some(&smallest));
            assert!(c < smallest);
            max_len = max_len.max(c.len());
            smallest = c;
        }
        // Binary-halving: ~7 inserts per byte of headroom; 1000 inserts
        // fit in ~1000/7 ≈ 143 bytes. The important property is that it
        // *never* fails (Proposition 1); the bound documents growth.
        assert!(max_len <= 160, "label grew to {max_len} bytes");
    }

    #[test]
    fn repeated_same_gap_insertion_never_fails() {
        // Always insert between the same two neighbors — worst case.
        let lo: Vec<u8> = vec![10];
        let mut hi: Vec<u8> = vec![11];
        for _ in 0..1000 {
            let c = between_components(Some(&lo), Some(&hi));
            assert!(lo < c && c < hi, "{lo:?} < {c:?} < {hi:?}");
            hi = c;
        }
    }

    #[test]
    fn allocator_is_strictly_increasing() {
        let mut alloc = ComponentAllocator::new();
        let mut prev = alloc.next();
        for _ in 0..10_000 {
            let next = alloc.next();
            assert!(next > prev, "{prev:?} !< {next:?}");
            prev = next;
        }
    }

    #[test]
    fn allocator_leaves_gaps() {
        let mut alloc = ComponentAllocator::new();
        let a = alloc.next();
        let b = alloc.next();
        // Insertion between two freshly allocated siblings succeeds with
        // a single-byte component (the gap is real).
        let c = between_components(Some(&a), Some(&b));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn debug_format_is_readable() {
        let n = Nid::root().child(&[2]).child(&[3, 4]);
        assert_eq!(format!("{n:?}"), "Nid(128.2.3-4)");
    }

    #[test]
    fn flattened_order_equals_component_order() {
        // Exhaustive-ish: generate labels and verify the flattened byte
        // comparison equals component-wise lexicographic comparison.
        let labels: Vec<Nid> = vec![
            nid(&[&[5]]),
            nid(&[&[5], &[1]]),
            nid(&[&[5], &[1, 1]]),
            nid(&[&[5], &[2]]),
            nid(&[&[5, 1]]),
            nid(&[&[6]]),
            nid(&[&[6], &[255]]),
        ];
        for a in &labels {
            for b in &labels {
                let by_bytes = a.cmp_doc_order(b);
                let by_components =
                    a.components().collect::<Vec<_>>().cmp(&b.components().collect::<Vec<_>>());
                assert_eq!(by_bytes, by_components, "{a:?} vs {b:?}");
            }
        }
    }
}
