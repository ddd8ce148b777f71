//! Content-model compilation: a [`GroupDefinition`] becomes a finite
//! automaton over element names.
//!
//! The paper's §6.2 items 5.4.2.3 define validity of an element sequence
//! against a group definition declaratively (subsequences `ss_1 … ss_k`,
//! one per group repetition, each split per the combination factor). The
//! executable counterpart is a Thompson-style NFA:
//!
//! * an element declaration with repetition `(min, max)` compiles to
//!   `min` mandatory copies followed by `max − min` optional ones (or a
//!   Kleene loop when `max` is `unbounded`);
//! * a `sequence` group concatenates its particles, a `choice` group
//!   alternates them; the group's own repetition wraps the fragment;
//! * matching is NFA simulation — linear in input, no backtracking — and
//!   reconstructs *which element declaration matched each child*, which
//!   the validator needs to recurse with the right type (§6.2 item
//!   5.4.2.3: "…satisfies the requirements starting from item 4, assuming
//!   that el = el_q and T = T_q").

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;

use crate::ast::{ElementDeclaration, GroupDefinition, Maximum, Particle};

/// A compiled content model.
#[derive(Debug, Clone)]
pub struct ContentModel {
    pub(crate) program: Vec<Inst>,
    decls: Vec<ElementDeclaration>,
    /// For an `xsd:all` content model (footnote 2): per-member
    /// `(name, decl index, min, max)` matched by counting, since the NFA
    /// encoding of all permutations would be factorial.
    pub(crate) all_members: Option<Vec<AllMember>>,
    /// `minOccurs="0"` on the all-group itself: the empty child sequence
    /// is accepted even when members have non-zero minimums.
    pub(crate) all_optional: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct AllMember {
    pub(crate) name: String,
    pub(crate) decl: usize,
    pub(crate) min: u32,
    pub(crate) max: crate::ast::Maximum,
}

#[derive(Debug, Clone)]
pub(crate) enum Inst {
    /// Consume one child element with this name; `decl` indexes
    /// [`ContentModel::decls`]. Falls through to `pc + 1`.
    Elem {
        name: String,
        decl: usize,
    },
    Split(usize, usize),
    Jump(usize),
    Match,
}

/// Content models whose bounded-repetition expansion exceeds this limit
/// are rejected at compile time rather than silently truncated.
const MAX_PROGRAM: usize = 1_000_000;

/// Error compiling a content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentModelError {
    /// Explanation.
    pub reason: String,
}

impl fmt::Display for ContentModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compile content model: {}", self.reason)
    }
}

impl std::error::Error for ContentModelError {}

/// A violation of the *Unique Particle Attribution* constraint (weak
/// determinism): after reading `prefix`, two distinct particles of the
/// content model compete for the next child named `symbol`, so a
/// one-symbol-lookahead validator cannot attribute that child to a unique
/// element declaration.
///
/// `prefix` followed by `symbol` is a minimal counterexample word: no
/// shorter child sequence exhibits the ambiguity (the search is
/// breadth-first over the determinized automaton).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpaConflict {
    /// The shortest child-name sequence leading to the ambiguous state.
    pub prefix: Vec<String>,
    /// The element name both particles accept next.
    pub symbol: String,
    /// Indices (into [`ContentModel::declarations`]) of two competing
    /// element declarations.
    pub decls: (usize, usize),
}

impl fmt::Display for UpaConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "after [{}], element {:?} is claimable by two particles (UPA violation)",
            self.prefix.join(", "),
            self.symbol
        )
    }
}

/// The outcome of matching a child-element sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The sequence is valid; `assignments[i]` is the index (into
    /// [`ContentModel::declarations`]) of the element declaration that
    /// licensed child `i`.
    Accept {
        /// Declaration index per input child.
        assignments: Vec<usize>,
    },
    /// The sequence is invalid.
    Reject {
        /// Index of the first child that could not be matched (equal to
        /// the input length when the input is a valid prefix that ends
        /// too early).
        position: usize,
        /// Element names that would have been acceptable at `position`.
        expected: Vec<String>,
    },
}

/// Where an incremental match stands: the live threads of the compiled
/// automaton (or, for an `xsd:all` model, the per-member counts), plus
/// scratch buffers reused from step to step. Drive it with
/// [`ContentModel::start`], [`ContentModel::step`] and
/// [`ContentModel::finish`]; [`ContentModel::restart`] reuses one state
/// for another element.
#[derive(Debug, Clone, Default)]
pub struct MatchState {
    /// Live `Elem`/`Match` program counters, in priority order.
    threads: Vec<usize>,
    /// The next step's threads (scratch).
    next: Vec<usize>,
    /// Per-instruction visited marks of the closure being computed; all
    /// `false` between calls.
    seen: Vec<bool>,
    /// The instructions marked in `seen`, to clear them afterwards.
    marked: Vec<usize>,
    /// The closure's work list (scratch).
    stack: Vec<usize>,
    /// Per-member occurrence counts of an `xsd:all` model.
    counts: Vec<u32>,
    /// Children consumed so far.
    consumed: usize,
}

impl MatchState {
    /// How many children the state has consumed.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

/// Append to `out` the ε-closure of `pc`: the `Elem` and `Match`
/// instructions reachable through `Split`/`Jump`, depth-first with a
/// `Split`'s first branch first, skipping instructions already marked.
fn closure_into(
    program: &[Inst],
    pc: usize,
    out: &mut Vec<usize>,
    seen: &mut [bool],
    stack: &mut Vec<usize>,
    marked: &mut Vec<usize>,
) {
    stack.push(pc);
    while let Some(pc) = stack.pop() {
        if seen[pc] {
            continue;
        }
        seen[pc] = true;
        marked.push(pc);
        match program[pc] {
            Inst::Jump(t) => stack.push(t),
            Inst::Split(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            _ => out.push(pc),
        }
    }
}

fn reset_marks(seen: &mut [bool], marked: &mut Vec<usize>) {
    for pc in marked.drain(..) {
        seen[pc] = false;
    }
}

impl ContentModel {
    /// Compile a group definition.
    pub fn compile(group: &GroupDefinition) -> Result<ContentModel, ContentModelError> {
        let mut cm = ContentModel {
            program: Vec::new(),
            decls: Vec::new(),
            all_members: None,
            all_optional: false,
        };
        if group.combination == crate::ast::CombinationFactor::All && !group.is_empty_content() {
            cm.compile_all(group)?;
            xsobs::global().incr(xsobs::CounterId::AutomatonCompilations);
            return Ok(cm);
        }
        cm.emit_group(group)?;
        cm.program.push(Inst::Match);
        xsobs::global().incr(xsobs::CounterId::AutomatonCompilations);
        Ok(cm)
    }

    /// Compile an `xsd:all` group (XSD 1.0 restrictions: the all-group is
    /// the whole content, members are element declarations, the group
    /// itself occurs at most once).
    fn compile_all(&mut self, group: &GroupDefinition) -> Result<(), ContentModelError> {
        if matches!(group.repetition.max, crate::ast::Maximum::Bounded(m) if m > 1)
            || matches!(group.repetition.max, crate::ast::Maximum::Unbounded)
        {
            return Err(ContentModelError {
                reason: "an all-group may occur at most once (XSD 1.0)".to_string(),
            });
        }
        let group_optional = group.repetition.min == 0;
        let mut members = Vec::new();
        for particle in &group.particles {
            let Particle::Element(decl) = particle else {
                return Err(ContentModelError {
                    reason: "all-groups may contain only element declarations".to_string(),
                });
            };
            let idx = self.decls.len();
            self.decls.push(decl.clone());
            members.push(AllMember {
                name: decl.name.clone(),
                decl: idx,
                // An optional all-group makes every member optional when
                // absent; we model that in match_children.
                min: decl.repetition.min,
                max: decl.repetition.max,
            });
        }
        self.all_optional = group_optional;
        self.all_members = Some(members);
        Ok(())
    }

    /// The element declarations referenced by match assignments.
    pub fn declarations(&self) -> &[ElementDeclaration] {
        &self.decls
    }

    /// Number of compiled instructions (for size/ablation reporting).
    pub fn program_len(&self) -> usize {
        self.program.len()
    }

    fn guard(&self) -> Result<(), ContentModelError> {
        if self.program.len() > MAX_PROGRAM {
            Err(ContentModelError {
                reason: format!("expansion exceeds {MAX_PROGRAM} instructions"),
            })
        } else {
            Ok(())
        }
    }

    fn emit_group(&mut self, group: &GroupDefinition) -> Result<(), ContentModelError> {
        if group.is_empty_content() {
            return Ok(()); // empty content matches only the empty sequence
        }
        let rf = group.repetition;
        self.emit_repeated(rf.min, rf.max, &mut |cm| cm.emit_body(group))
    }

    fn emit_body(&mut self, group: &GroupDefinition) -> Result<(), ContentModelError> {
        match group.combination {
            crate::ast::CombinationFactor::All => Err(ContentModelError {
                reason: "an all-group must be the whole content model (XSD 1.0)".to_string(),
            }),
            crate::ast::CombinationFactor::Sequence => {
                for p in &group.particles {
                    self.emit_particle(p)?;
                }
                Ok(())
            }
            crate::ast::CombinationFactor::Choice => {
                let mut jump_sites = Vec::new();
                let n = group.particles.len();
                for (i, p) in group.particles.iter().enumerate() {
                    let last = i + 1 == n;
                    if last {
                        self.emit_particle(p)?;
                    } else {
                        let split_at = self.program.len();
                        self.program.push(Inst::Split(0, 0));
                        let body = self.program.len();
                        self.emit_particle(p)?;
                        jump_sites.push(self.program.len());
                        self.program.push(Inst::Jump(0));
                        let next = self.program.len();
                        self.program[split_at] = Inst::Split(body, next);
                    }
                }
                let end = self.program.len();
                for site in jump_sites {
                    self.program[site] = Inst::Jump(end);
                }
                Ok(())
            }
        }
    }

    fn emit_particle(&mut self, particle: &Particle) -> Result<(), ContentModelError> {
        match particle {
            Particle::Element(decl) => {
                let idx = self.decls.len();
                self.decls.push(decl.clone());
                let name = decl.name.clone();
                let rf = decl.repetition;
                self.emit_repeated(rf.min, rf.max, &mut |cm| {
                    cm.program.push(Inst::Elem { name: name.clone(), decl: idx });
                    Ok(())
                })
            }
            Particle::Group(sub) => self.emit_group(sub),
        }
    }

    /// Emit `min` mandatory copies of `body`, then `max − min` optional
    /// ones (bounded) or an optional Kleene loop (unbounded).
    fn emit_repeated(
        &mut self,
        min: u32,
        max: Maximum,
        body: &mut dyn FnMut(&mut Self) -> Result<(), ContentModelError>,
    ) -> Result<(), ContentModelError> {
        for _ in 0..min {
            body(self)?;
            self.guard()?;
        }
        match max {
            Maximum::Bounded(max) => {
                let mut split_sites = Vec::new();
                for _ in min..max {
                    let at = self.program.len();
                    split_sites.push(at);
                    self.program.push(Inst::Split(0, 0));
                    let b = self.program.len();
                    body(self)?;
                    self.program[at] = Inst::Split(b, 0); // end patched below
                    self.guard()?;
                }
                let end = self.program.len();
                for site in split_sites {
                    if let Inst::Split(b, _) = self.program[site] {
                        self.program[site] = Inst::Split(b, end);
                    }
                }
                Ok(())
            }
            Maximum::Unbounded => {
                let split_at = self.program.len();
                self.program.push(Inst::Split(0, 0));
                let b = self.program.len();
                body(self)?;
                self.program.push(Inst::Jump(split_at));
                let end = self.program.len();
                self.program[split_at] = Inst::Split(b, end);
                self.guard()
            }
        }
    }

    /// True when the name sequence is in the content model's language.
    pub fn accepts(&self, names: &[&str]) -> bool {
        matches!(self.match_children(names), MatchOutcome::Accept { .. })
    }

    /// Match a child-name sequence, reconstructing per-child declaration
    /// assignments on success and the failure frontier on rejection: a
    /// fold of [`ContentModel::step`] closed by [`ContentModel::finish`].
    pub fn match_children(&self, names: &[&str]) -> MatchOutcome {
        let mut state = self.start();
        let mut assignments = Vec::with_capacity(names.len());
        for (position, name) in names.iter().enumerate() {
            match self.step(&mut state, name) {
                Ok(decl) => assignments.push(decl),
                Err(expected) => return MatchOutcome::Reject { position, expected },
            }
        }
        match self.finish(&state) {
            Ok(()) => MatchOutcome::Accept { assignments },
            Err(expected) => MatchOutcome::Reject { position: names.len(), expected },
        }
    }

    /// A fresh match state: no child consumed yet.
    pub fn start(&self) -> MatchState {
        let mut state = MatchState::default();
        self.restart(&mut state);
        state
    }

    /// Reset `state` to the start of this model, reusing its buffers
    /// (a state may have served another model before).
    pub fn restart(&self, state: &mut MatchState) {
        state.consumed = 0;
        state.threads.clear();
        state.counts.clear();
        if let Some(members) = &self.all_members {
            state.counts.resize(members.len(), 0);
            return;
        }
        state.seen.clear();
        state.seen.resize(self.program.len(), false);
        let MatchState { threads, seen, stack, marked, .. } = state;
        closure_into(&self.program, 0, threads, seen, stack, marked);
        reset_marks(seen, marked);
    }

    /// Consume the next child, named `name`. On success, the index (into
    /// [`ContentModel::declarations`]) of the declaration that licenses
    /// it; on rejection, the names acceptable instead — `state` is then
    /// spent.
    ///
    /// The declaration is decided when the child is read, as a streaming
    /// validator must: the first live particle (in the model's priority
    /// order) that accepts `name`. A model satisfying Unique Particle
    /// Attribution ([`ContentModel::upa_conflict`] is `None`) has exactly
    /// one such particle, so the choice is forced. In an ambiguous model
    /// the particles a name could take carry the same type and
    /// nillability when the schema passes [`crate::check`] (Element
    /// Declarations Consistent), so the choice never changes a verdict;
    /// the live threads still follow every particle, so acceptance is
    /// exact either way.
    pub fn step(&self, state: &mut MatchState, name: &str) -> Result<usize, Vec<String>> {
        if let Some(members) = &self.all_members {
            return self.step_all(members, state, name);
        }
        let MatchState { threads, next, seen, stack, marked, .. } = state;
        next.clear();
        let mut decl = None;
        for &pc in threads.iter() {
            if let Inst::Elem { name: want, decl: d } = &self.program[pc] {
                if want == name {
                    decl.get_or_insert(*d);
                    closure_into(&self.program, pc + 1, next, seen, stack, marked);
                }
            }
        }
        reset_marks(seen, marked);
        match decl {
            Some(d) => {
                std::mem::swap(threads, next);
                state.consumed += 1;
                Ok(d)
            }
            None => {
                let mut expected: Vec<String> =
                    self.thread_names(threads).map(str::to_string).collect();
                expected.sort();
                expected.dedup();
                Err(expected)
            }
        }
    }

    /// Counting step for `xsd:all`: any order, each member within its
    /// own occurrence bounds.
    fn step_all(
        &self,
        members: &[AllMember],
        state: &mut MatchState,
        name: &str,
    ) -> Result<usize, Vec<String>> {
        let counts = &mut state.counts;
        let admitted = |counts: &[u32]| -> Vec<String> {
            members
                .iter()
                .enumerate()
                .filter(|(i, m)| m.max.admits(counts[*i] + 1))
                .map(|(_, m)| m.name.clone())
                .collect()
        };
        let Some(i) = members.iter().position(|m| m.name == name) else {
            return Err(admitted(counts));
        };
        counts[i] += 1;
        if !members[i].max.admits(counts[i]) {
            return Err(admitted(counts));
        }
        state.consumed += 1;
        Ok(members[i].decl)
    }

    /// Whether the children consumed so far form a complete word of the
    /// model. On rejection, the names that could still follow.
    pub fn finish(&self, state: &MatchState) -> Result<(), Vec<String>> {
        if let Some(members) = &self.all_members {
            // Empty content satisfies an optional all-group trivially; a
            // non-empty prefix must satisfy every member's minimum.
            let unmet: Vec<String> = members
                .iter()
                .enumerate()
                .filter(|(i, m)| state.counts[*i] < m.min)
                .map(|(_, m)| m.name.clone())
                .collect();
            if !unmet.is_empty() && state.consumed > 0 {
                return Err(unmet);
            }
            if state.consumed == 0 && !self.all_optional && members.iter().any(|m| m.min > 0) {
                // An absent optional all-group is fine; a *required* one
                // with required members rejects the empty sequence.
                return Err(members.iter().filter(|m| m.min > 0).map(|m| m.name.clone()).collect());
            }
            return Ok(());
        }
        if state.threads.iter().any(|&pc| matches!(self.program[pc], Inst::Match)) {
            Ok(())
        } else {
            Err(self.thread_names(&state.threads).map(str::to_string).collect())
        }
    }

    /// The element names the `Elem` threads among `threads` accept, in
    /// thread order.
    fn thread_names<'a>(&'a self, threads: &'a [usize]) -> impl Iterator<Item = &'a str> {
        threads.iter().filter_map(|&pc| match &self.program[pc] {
            Inst::Elem { name, .. } => Some(name.as_str()),
            _ => None,
        })
    }

    /// The set of element names acceptable after consuming `prefix`.
    pub fn expected_after(&self, prefix: &[&str]) -> Vec<String> {
        if let Some(members) = &self.all_members {
            let mut counts = vec![0u32; members.len()];
            for name in prefix {
                if let Some(i) = members.iter().position(|m| m.name == *name) {
                    counts[i] += 1;
                }
            }
            let mut out: Vec<String> = members
                .iter()
                .enumerate()
                .filter(|(i, m)| m.max.admits(counts[*i] + 1))
                .map(|(_, m)| m.name.clone())
                .collect();
            out.sort();
            out
        } else {
            self.expected_after_nfa(prefix)
        }
    }

    fn expected_after_nfa(&self, prefix: &[&str]) -> Vec<String> {
        let mut current = self.closure_of(&[0]);
        for name in prefix {
            let seeds: Vec<usize> = current
                .iter()
                .filter(|&&pc| matches!(&self.program[pc], Inst::Elem { name: want, .. } if want == name))
                .map(|&pc| pc + 1)
                .collect();
            current = self.closure_of(&seeds);
        }
        let mut expected: Vec<String> = self.thread_names(&current).map(str::to_string).collect();
        expected.sort();
        expected.dedup();
        expected
    }

    /// The ε-closure of `seeds` as a sorted, deduplicated set of
    /// non-ε program counters (`Elem` and `Match` instructions).
    pub(crate) fn closure_of(&self, seeds: &[usize]) -> Vec<usize> {
        let (mut out, mut stack, mut marked) = (Vec::new(), Vec::new(), Vec::new());
        let mut seen = vec![false; self.program.len()];
        for &pc in seeds {
            closure_into(&self.program, pc, &mut out, &mut seen, &mut stack, &mut marked);
        }
        out.sort_unstable();
        out
    }

    /// Bound on determinized states explored by [`upa_conflict`]; models
    /// this large without a conflict are reported as conflict-free.
    ///
    /// [`upa_conflict`]: ContentModel::upa_conflict
    const MAX_UPA_STATES: usize = 16_384;

    /// Check the *Unique Particle Attribution* constraint (weak
    /// determinism): breadth-first subset construction over the compiled
    /// automaton, looking for a reachable state in which two distinct
    /// `Elem` instructions accept the same element name. Returns the
    /// first (therefore minimal-witness) conflict, or `None` when the
    /// content model is deterministic.
    pub fn upa_conflict(&self) -> Option<UpaConflict> {
        if let Some(members) = &self.all_members {
            // The counting matcher is deterministic iff member names are
            // distinct (§2 requires this; report it as UPA if violated).
            for (i, m) in members.iter().enumerate() {
                if let Some(first) = members[..i].iter().find(|o| o.name == m.name) {
                    return Some(UpaConflict {
                        prefix: Vec::new(),
                        symbol: m.name.clone(),
                        decls: (first.decl, m.decl),
                    });
                }
            }
            return None;
        }
        let start = self.closure_of(&[0]);
        let mut visited: HashSet<Vec<usize>> = HashSet::new();
        visited.insert(start.clone());
        xsobs::global().incr(xsobs::CounterId::UpaSubsetStates);
        let mut queue: VecDeque<(Vec<usize>, Vec<String>)> = VecDeque::new();
        queue.push_back((start, Vec::new()));
        while let Some((state, prefix)) = queue.pop_front() {
            let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for &pc in &state {
                if let Inst::Elem { name, .. } = &self.program[pc] {
                    by_name.entry(name).or_default().push(pc);
                }
            }
            for (name, pcs) in &by_name {
                if let [first, second, ..] = pcs[..] {
                    let decl_of = |pc: usize| match &self.program[pc] {
                        Inst::Elem { decl, .. } => *decl,
                        _ => 0,
                    };
                    return Some(UpaConflict {
                        prefix,
                        symbol: (*name).to_string(),
                        decls: (decl_of(first), decl_of(second)),
                    });
                }
            }
            for (name, pcs) in by_name {
                let seeds: Vec<usize> = pcs.iter().map(|&pc| pc + 1).collect();
                let next = self.closure_of(&seeds);
                if visited.len() >= Self::MAX_UPA_STATES {
                    return None;
                }
                if visited.insert(next.clone()) {
                    xsobs::global().incr(xsobs::CounterId::UpaSubsetStates);
                    let mut p = prefix.clone();
                    p.push(name.to_string());
                    queue.push_back((next, p));
                }
            }
        }
        None
    }

    /// The declaration indices of every particle that could consume an
    /// element named `symbol` after the child sequence `prefix`. Two or
    /// more entries reproduce a [`UpaConflict`] independently of the
    /// subset construction, which is what diagnostic-witness tests use.
    pub fn competing_decls(&self, prefix: &[&str], symbol: &str) -> Vec<usize> {
        if let Some(members) = &self.all_members {
            let mut counts = vec![0u32; members.len()];
            for name in prefix {
                if let Some(i) = members.iter().position(|m| m.name == *name) {
                    counts[i] += 1;
                }
            }
            return members
                .iter()
                .enumerate()
                .filter(|(i, m)| m.name == symbol && m.max.admits(counts[*i] + 1))
                .map(|(_, m)| m.decl)
                .collect();
        }
        let mut current = self.closure_of(&[0]);
        for name in prefix {
            let seeds: Vec<usize> = current
                .iter()
                .filter(|&&pc| matches!(&self.program[pc], Inst::Elem { name: want, .. } if want == name))
                .map(|&pc| pc + 1)
                .collect();
            current = self.closure_of(&seeds);
        }
        current
            .iter()
            .filter_map(|&pc| match &self.program[pc] {
                Inst::Elem { name, decl } if name == symbol => Some(*decl),
                _ => None,
            })
            .collect()
    }

    /// True when the content model's language is empty — no child
    /// sequence at all is accepted. (Never true for models built by
    /// [`ContentModel::compile`] from the paper's constructors, but
    /// checkable so analyses need not assume it.)
    pub fn is_language_empty(&self) -> bool {
        if self.all_members.is_some() {
            return false; // counting matcher always admits some word
        }
        !self.match_reachable_from(0)
    }

    /// Whether a `Match` instruction is reachable from `pc` through any
    /// sequence of transitions (consuming arbitrarily many children).
    fn match_reachable_from(&self, pc: usize) -> bool {
        let mut seen = vec![false; self.program.len()];
        let mut stack = vec![pc];
        while let Some(pc) = stack.pop() {
            if seen[pc] {
                continue;
            }
            seen[pc] = true;
            match self.program[pc] {
                Inst::Match => return true,
                Inst::Jump(t) => stack.push(t),
                Inst::Split(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Inst::Elem { .. } => stack.push(pc + 1),
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CombinationFactor, ElementDeclaration, GroupDefinition, RepetitionFactor};

    fn eld(name: &str) -> ElementDeclaration {
        ElementDeclaration::new(name, "xs:string")
    }

    fn compile(g: &GroupDefinition) -> ContentModel {
        ContentModel::compile(g).unwrap()
    }

    #[test]
    fn example_2_sequence() {
        // <xsd:sequence><B/><C/></xsd:sequence>
        let cm = compile(&GroupDefinition::sequence(vec![eld("B"), eld("C")]));
        assert!(cm.accepts(&["B", "C"]));
        assert!(!cm.accepts(&["C", "B"]));
        assert!(!cm.accepts(&["B"]));
        assert!(!cm.accepts(&["B", "C", "C"]));
        assert!(!cm.accepts(&[]));
    }

    #[test]
    fn example_3_choice_repeated() {
        // <xsd:choice minOccurs="0" maxOccurs="unbounded"><zero/><one/></xsd:choice>
        let g = GroupDefinition::choice(vec![eld("zero"), eld("one")])
            .with_repetition(RepetitionFactor::at_least(0));
        let cm = compile(&g);
        assert!(cm.accepts(&[]));
        assert!(cm.accepts(&["zero"]));
        assert!(cm.accepts(&["one", "zero", "one", "one"]));
        assert!(!cm.accepts(&["two"]));
    }

    #[test]
    fn empty_content_matches_only_empty() {
        let cm = compile(&GroupDefinition::empty());
        assert!(cm.accepts(&[]));
        assert!(!cm.accepts(&["X"]));
    }

    #[test]
    fn element_repetition_bounds() {
        let g =
            GroupDefinition::sequence(vec![eld("A").with_repetition(RepetitionFactor::new(2, 4))]);
        let cm = compile(&g);
        assert!(!cm.accepts(&["A"]));
        assert!(cm.accepts(&["A", "A"]));
        assert!(cm.accepts(&["A", "A", "A", "A"]));
        assert!(!cm.accepts(&["A", "A", "A", "A", "A"]));
    }

    #[test]
    fn optional_element_in_sequence() {
        let g = GroupDefinition::sequence(vec![
            eld("A"),
            eld("B").with_repetition(RepetitionFactor::OPTIONAL),
            eld("C"),
        ]);
        let cm = compile(&g);
        assert!(cm.accepts(&["A", "C"]));
        assert!(cm.accepts(&["A", "B", "C"]));
        assert!(!cm.accepts(&["A", "B", "B", "C"]));
    }

    #[test]
    fn group_repetition_wraps_sequence() {
        // (A B){2,3}
        let g = GroupDefinition::sequence(vec![eld("A"), eld("B")])
            .with_repetition(RepetitionFactor::new(2, 3));
        let cm = compile(&g);
        assert!(!cm.accepts(&["A", "B"]));
        assert!(cm.accepts(&["A", "B", "A", "B"]));
        assert!(cm.accepts(&["A", "B", "A", "B", "A", "B"]));
        assert!(!cm.accepts(&["A", "B", "A"]));
    }

    #[test]
    fn nested_groups() {
        // head (zero | one)+
        let inner = GroupDefinition::choice(vec![eld("zero"), eld("one")])
            .with_repetition(RepetitionFactor::at_least(1));
        let g = GroupDefinition {
            particles: vec![Particle::Element(eld("head")), Particle::Group(inner)],
            combination: CombinationFactor::Sequence,
            repetition: RepetitionFactor::ONCE,
        };
        let cm = compile(&g);
        assert!(cm.accepts(&["head", "zero"]));
        assert!(cm.accepts(&["head", "one", "zero"]));
        assert!(!cm.accepts(&["head"]));
        assert!(!cm.accepts(&["zero"]));
    }

    #[test]
    fn assignments_identify_declarations() {
        let g = GroupDefinition::choice(vec![eld("zero"), eld("one")])
            .with_repetition(RepetitionFactor::at_least(0));
        let cm = compile(&g);
        match cm.match_children(&["one", "zero", "one"]) {
            MatchOutcome::Accept { assignments } => {
                let names: Vec<_> =
                    assignments.iter().map(|&i| cm.declarations()[i].name.as_str()).collect();
                assert_eq!(names, ["one", "zero", "one"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reject_reports_position_and_expectations() {
        let cm = compile(&GroupDefinition::sequence(vec![eld("B"), eld("C")]));
        match cm.match_children(&["B", "X"]) {
            MatchOutcome::Reject { position, expected } => {
                assert_eq!(position, 1);
                assert_eq!(expected, ["C"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Premature end: position == len, expected lists the next names.
        match cm.match_children(&["B"]) {
            MatchOutcome::Reject { position, expected } => {
                assert_eq!(position, 1);
                assert_eq!(expected, ["C"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expected_at_start() {
        let g = GroupDefinition::sequence(vec![
            eld("A").with_repetition(RepetitionFactor::OPTIONAL),
            eld("B"),
        ]);
        let cm = compile(&g);
        assert_eq!(cm.expected_after(&[]), ["A", "B"]);
    }

    #[test]
    fn large_bounded_repetition_compiles() {
        // The paper's Example 6 uses maxOccurs="1000".
        let g = GroupDefinition::sequence(vec![
            eld("Book").with_repetition(RepetitionFactor::new(0, 1000))
        ]);
        let cm = compile(&g);
        let thousand: Vec<&str> = std::iter::repeat_n("Book", 1000).collect();
        assert!(cm.accepts(&thousand));
        let over: Vec<&str> = std::iter::repeat_n("Book", 1001).collect();
        assert!(!cm.accepts(&over));
    }

    #[test]
    fn absurd_expansion_is_rejected_at_compile_time() {
        // 100000 × 100000 copies.
        let inner = GroupDefinition::sequence(vec![
            eld("X").with_repetition(RepetitionFactor::new(100_000, 100_000))
        ])
        .with_repetition(RepetitionFactor::new(100_000, 100_000));
        assert!(ContentModel::compile(&inner).is_err());
    }

    #[test]
    fn upa_optional_then_required_same_name() {
        // (A?, A): reading "A" could be the optional or the required one.
        let g = GroupDefinition::sequence(vec![
            eld("A").with_repetition(RepetitionFactor::OPTIONAL),
            eld("A"),
        ]);
        let conflict = compile(&g).upa_conflict().expect("ambiguous");
        assert_eq!(conflict.prefix, Vec::<String>::new());
        assert_eq!(conflict.symbol, "A");
        assert_ne!(conflict.decls.0, conflict.decls.1);
    }

    #[test]
    fn upa_choice_of_groups_with_common_prefix() {
        // (A B) | (A C): after zero children, "A" is claimable twice.
        let g = GroupDefinition {
            particles: vec![
                Particle::Group(GroupDefinition::sequence(vec![eld("A"), eld("B")])),
                Particle::Group(GroupDefinition::sequence(vec![eld("A"), eld("C")])),
            ],
            combination: CombinationFactor::Choice,
            repetition: RepetitionFactor::ONCE,
        };
        let cm = compile(&g);
        let conflict = cm.upa_conflict().expect("ambiguous");
        assert_eq!(conflict.symbol, "A");
        // The witness reproduces: two particles really compete there.
        let prefix: Vec<&str> = conflict.prefix.iter().map(String::as_str).collect();
        assert!(cm.competing_decls(&prefix, &conflict.symbol).len() >= 2);
    }

    #[test]
    fn upa_conflict_deeper_in_the_word() {
        // head then (A?, A): minimal witness prefix is ["head"].
        let inner = GroupDefinition::sequence(vec![
            eld("A").with_repetition(RepetitionFactor::OPTIONAL),
            eld("A"),
        ]);
        let g = GroupDefinition {
            particles: vec![Particle::Element(eld("head")), Particle::Group(inner)],
            combination: CombinationFactor::Sequence,
            repetition: RepetitionFactor::ONCE,
        };
        let conflict = compile(&g).upa_conflict().expect("ambiguous");
        assert_eq!(conflict.prefix, ["head"]);
        assert_eq!(conflict.symbol, "A");
    }

    #[test]
    fn deterministic_models_have_no_upa_conflict() {
        for g in [
            GroupDefinition::sequence(vec![eld("B"), eld("C")]),
            GroupDefinition::choice(vec![eld("zero"), eld("one")])
                .with_repetition(RepetitionFactor::at_least(0)),
            GroupDefinition::sequence(vec![eld("A").with_repetition(RepetitionFactor::new(2, 4))]),
            GroupDefinition::empty(),
        ] {
            assert_eq!(compile(&g).upa_conflict(), None, "{g:?}");
        }
    }

    #[test]
    fn competing_decls_is_singleton_on_deterministic_models() {
        let cm = compile(&GroupDefinition::sequence(vec![eld("B"), eld("C")]));
        assert_eq!(cm.competing_decls(&[], "B").len(), 1);
        assert_eq!(cm.competing_decls(&["B"], "C").len(), 1);
        assert!(cm.competing_decls(&[], "C").is_empty());
    }

    #[test]
    fn compiled_languages_are_never_empty() {
        let cm = compile(&GroupDefinition::sequence(vec![eld("B"), eld("C")]));
        assert!(!cm.is_language_empty());
        assert!(!compile(&GroupDefinition::empty()).is_language_empty());
    }

    #[test]
    fn choice_between_groups_sharing_names() {
        // (A B) | (A C) — same first element in both alternatives.
        let g = GroupDefinition {
            particles: vec![
                Particle::Group(GroupDefinition::sequence(vec![eld("A"), eld("B")])),
                Particle::Group(GroupDefinition::sequence(vec![eld("A"), eld("C")])),
            ],
            combination: CombinationFactor::Choice,
            repetition: RepetitionFactor::ONCE,
        };
        let cm = compile(&g);
        assert!(cm.accepts(&["A", "B"]));
        assert!(cm.accepts(&["A", "C"]));
        assert!(!cm.accepts(&["A"]));
    }
}

#[cfg(test)]
mod all_group_tests {
    use super::*;
    use crate::ast::{ElementDeclaration, GroupDefinition, RepetitionFactor};

    fn eld(name: &str) -> ElementDeclaration {
        ElementDeclaration::new(name, "xs:string")
    }

    #[test]
    fn all_group_accepts_any_permutation() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b"), eld("c")]))
            .unwrap();
        for perm in [
            ["a", "b", "c"],
            ["a", "c", "b"],
            ["b", "a", "c"],
            ["b", "c", "a"],
            ["c", "a", "b"],
            ["c", "b", "a"],
        ] {
            assert!(cm.accepts(&perm), "{perm:?}");
        }
    }

    #[test]
    fn all_group_rejects_duplicates_and_missing() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b")])).unwrap();
        assert!(!cm.accepts(&["a", "a"]));
        assert!(!cm.accepts(&["a"]));
        assert!(!cm.accepts(&["a", "b", "b"]));
        assert!(!cm.accepts(&["x"]));
    }

    #[test]
    fn all_group_optional_members() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![
            eld("a"),
            eld("b").with_repetition(RepetitionFactor::OPTIONAL),
        ]))
        .unwrap();
        assert!(cm.accepts(&["a"]));
        assert!(cm.accepts(&["a", "b"]));
        assert!(cm.accepts(&["b", "a"]));
        assert!(!cm.accepts(&["b"]));
        assert!(!cm.accepts(&[]));
    }

    #[test]
    fn all_group_assignments_track_declarations() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b")])).unwrap();
        match cm.match_children(&["b", "a"]) {
            MatchOutcome::Accept { assignments } => {
                let names: Vec<_> =
                    assignments.iter().map(|&i| cm.declarations()[i].name.as_str()).collect();
                assert_eq!(names, ["b", "a"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_group_reject_reports_expectations() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b")])).unwrap();
        match cm.match_children(&["a"]) {
            MatchOutcome::Reject { position, expected } => {
                assert_eq!(position, 1);
                assert_eq!(expected, ["b"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match cm.match_children(&["a", "a"]) {
            MatchOutcome::Reject { position, expected } => {
                assert_eq!(position, 1);
                assert_eq!(expected, ["b"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expected_after_respects_consumed_members() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b"), eld("c")]))
            .unwrap();
        assert_eq!(cm.expected_after(&[]), ["a", "b", "c"]);
        assert_eq!(cm.expected_after(&["b"]), ["a", "c"]);
        assert_eq!(cm.expected_after(&["b", "a"]), ["c"]);
    }

    #[test]
    fn all_group_upa_flags_duplicate_member_names() {
        let cm = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("a")])).unwrap();
        let conflict = cm.upa_conflict().expect("duplicate members are ambiguous");
        assert_eq!(conflict.symbol, "a");
        assert!(cm.competing_decls(&[], "a").len() >= 2);
        let clean = ContentModel::compile(&GroupDefinition::all(vec![eld("a"), eld("b")])).unwrap();
        assert_eq!(clean.upa_conflict(), None);
        assert!(!clean.is_language_empty());
    }

    #[test]
    fn repeated_all_group_is_rejected_at_compile_time() {
        let g = GroupDefinition::all(vec![eld("a")]).with_repetition(RepetitionFactor::at_least(0));
        assert!(ContentModel::compile(&g).is_err());
        let g2 = GroupDefinition::all(vec![eld("a")]).with_repetition(RepetitionFactor::new(2, 2));
        assert!(ContentModel::compile(&g2).is_err());
    }

    #[test]
    fn nested_all_group_is_rejected() {
        let inner = GroupDefinition::all(vec![eld("a")]);
        let outer = GroupDefinition {
            particles: vec![Particle::Group(inner)],
            combination: crate::ast::CombinationFactor::Sequence,
            repetition: RepetitionFactor::ONCE,
        };
        assert!(ContentModel::compile(&outer).is_err());
    }
}
