//! Cost-based query planning over the DataGuide and its cardinalities.
//!
//! XPath steps are executed by two physical operators, one per access
//! path §9 gives the storage, and they are *language-equivalent* — a
//! step returns the same node set whichever operator runs (Fletcher et
//! al.'s expressiveness results ground why this must hold, and the
//! differential plan-equivalence harness proves it on this
//! implementation):
//!
//! * **guided descent** ([`Strategy::Guided`]) — navigate from each
//!   context node: a child, attribute or `text()` name step walks only
//!   its §9.2 first-child-by-schema slot, any other step the §5
//!   accessors; a child or attribute step whose first predicate is
//!   `[k]` stops after k matches per context; always applicable;
//! * **schema-path scan** ([`Strategy::SchemaPath`]) — for the leading
//!   run of `child` / `descendant` / `descendant-or-self` steps. The
//!   DataGuide is exact on downward paths (§9.1: a node lives in the
//!   list of the schema node its root path names), so the run resolves
//!   at plan time to a set of schema nodes, and execution is a k-way
//!   merge by label of their descriptor lists (§9.2) — O(result · log k)
//!   and in document order by construction. A positional predicate
//!   (`[k]`, `[last()]`) counts per context node and ends the run before
//!   its step; the first step with any other predicate ends the run
//!   after it, and that predicate filters each merged node.
//!
//! Every step's output is the document-order union of its per-context
//! results ([`xpath::doc_order_union`]): concatenated, and sorted only
//! when two contexts' results interleave — so a plan returns the XPath
//! 2.0 path-expression order (§7 order, no duplicates), exactly as the
//! naive evaluator does.
//!
//! The planner prices each step as guided descent using estimates from
//! the storage's per-schema-node cardinalities
//! ([`XmlStorage::cardinality`]) and fixed predicate selectivities, in
//! the same work-unit constants the executor counts with, so an
//! estimated cost and an actual cost are in one currency and `EXPLAIN`
//! can print them side by side. The schema-path scan is costed per run
//! and wins when it beats the guided steps it replaces. A predicate's
//! selectivity cannot sway that choice: the run ends at its first
//! predicate, whose estimate enters both totals alike. A plan carries
//! the storage tick it was costed against and refuses (loudly) to
//! execute against a mutated store — the same staleness discipline as
//! `xdm::DocumentOrderIndex`.

use std::fmt;
use std::fmt::Write as _;

use storage::{DescPtr, DescriptiveSchema, SchemaNodeId, XmlStorage};
use xdm::NodeKind;
use xpath::{
    axis_candidates, doc_order_union, merge_scans, test_matches, Axis, NodeTest, Path, Predicate,
    Step,
};

use crate::relative::{Hop, Pred};

/// Work units charged per node visited by pointer navigation (block
/// hops through parent/child/sibling pointers).
pub const W_NAV: u64 = 10;
/// Work units charged per node touched by the schema-path merge.
pub const W_SCAN: u64 = 4;
/// Work units charged per node emitted into a step's result.
pub const W_OUT: u64 = 1;

/// A physical operator for one XPath step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Navigate from each context node through the accessors.
    Guided,
    /// Merge the descriptor lists of the schema nodes a leading
    /// downward run of steps resolves to on the DataGuide.
    SchemaPath,
}

impl Strategy {
    /// All strategies, in display order.
    pub const ALL: [Strategy; 2] = [Strategy::Guided, Strategy::SchemaPath];

    /// Stable lower-case name (used by `EXPLAIN` and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Guided => "guided",
            Strategy::SchemaPath => "schema-path",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs for [`plan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOptions {
    /// Force one strategy (benchmarks, the differential harness):
    /// `Guided` descends every step; `SchemaPath` scans the leading run
    /// and descends guided after it.
    pub force: Option<Strategy>,
    /// The caller's static analysis (xsanalyze's `PathBackend`) proved
    /// the whole path selects nothing — the plan prunes every step and
    /// executes zero operators.
    pub statically_empty: bool,
}

/// The planned execution of one step.
#[derive(Debug, Clone)]
pub struct StepPlan {
    /// The step in XPath syntax.
    pub display: String,
    /// The chosen physical operator.
    pub strategy: Strategy,
    /// Estimated result cardinality (after predicates).
    pub est_rows: f64,
    /// Estimated cost in work units (a schema-path scan charges its
    /// whole run to the run's last step).
    pub est_cost: f64,
}

/// A costed physical plan for one XPath path over one storage.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    path: Path,
    steps: Vec<StepPlan>,
    /// Per step: its hop on the DataGuide (child, attribute and `text()`
    /// name steps) and its compiled predicates.
    compiled: Vec<CompiledStep>,
    /// The schema-path scan answering the path's leading steps, if the
    /// plan uses one.
    scan: Option<SchemaScan>,
    /// First step index proven empty (statically by the caller, or
    /// schema-impossible by the DataGuide); everything from it on
    /// executes zero operators.
    pruned_from: Option<usize>,
    /// The statistics generation (= storage tick) this plan was costed
    /// against.
    generation: u64,
    est_total: f64,
}

/// A schema-path scan, resolved on the DataGuide at plan time.
#[derive(Debug, Clone)]
struct SchemaScan {
    /// How many leading steps of the path the scan answers.
    steps: usize,
    /// The schema nodes the run's last step lands on.
    targets: Vec<SchemaNodeId>,
    /// Row counts of the run's earlier steps: their schema nodes'
    /// storage cardinalities, exact because the DataGuide is exact on a
    /// predicate-free downward prefix (reported by `EXPLAIN`; nothing
    /// is materialised for them).
    prefix_rows: Vec<u64>,
}

/// One step resolved on the DataGuide at plan time.
#[derive(Debug, Clone)]
struct CompiledStep {
    /// The first-child slot a guided name step walks, per context
    /// schema node ([`crate::relative`]).
    hop: Option<Hop>,
    /// How many matches per context a guided walk needs
    /// ([`first_k`]); `None`: all of them.
    stop: Option<usize>,
    /// The step's predicates, relative paths compiled and literals
    /// classified.
    preds: Vec<Pred>,
}

/// What actually happened when a plan ran.
#[derive(Debug, Clone)]
pub struct PlanExecution {
    /// The result node set (identical to the naive evaluator's).
    pub nodes: Vec<DescPtr>,
    /// Total work units spent.
    pub work: u64,
    /// Actual rows out of each step.
    pub step_rows: Vec<u64>,
    /// Actual work units spent in each step.
    pub step_work: Vec<u64>,
}

impl QueryPlan {
    /// The per-step plans.
    pub fn steps(&self) -> &[StepPlan] {
        &self.steps
    }

    /// The statistics generation (storage tick) the plan is valid for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// First pruned step index, if the plan is provably empty.
    pub fn pruned_from(&self) -> Option<usize> {
        self.pruned_from
    }

    /// Total estimated cost in work units.
    pub fn est_total(&self) -> f64 {
        self.est_total
    }

    /// Render the plan — with estimated vs. actual cardinalities when an
    /// execution is supplied.
    pub fn explain(&self, exec: Option<&PlanExecution>) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan {} @ stats generation {} (est cost {:.0})",
            self.path, self.generation, self.est_total
        );
        if let Some(i) = self.pruned_from {
            let _ = writeln!(
                out,
                "  pruned from step {}: statically empty, zero operators execute",
                i + 1
            );
        }
        for (i, sp) in self.steps.iter().enumerate() {
            let pruned = self.pruned_from.is_some_and(|p| i >= p);
            let _ = write!(
                out,
                "  step {}: {:<24} strategy={:<11} est_rows={:<8.1}",
                i + 1,
                sp.display,
                if pruned { "pruned" } else { sp.strategy.name() },
                sp.est_rows,
            );
            match exec {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        " est_cost={:<8.0} actual_rows={:<8} actual_work={}",
                        sp.est_cost,
                        e.step_rows.get(i).copied().unwrap_or(0),
                        e.step_work.get(i).copied().unwrap_or(0),
                    );
                }
                None => {
                    let _ = writeln!(out, " est_cost={:.0}", sp.est_cost);
                }
            }
        }
        if let Some(e) = exec {
            let _ = writeln!(out, "  total: rows={} work={}", e.nodes.len(), e.work);
        }
        out
    }

    /// Run the plan. The result node set is identical to
    /// [`xpath::eval_naive`] over the same storage, node for node and in
    /// document order (the differential harness proves it per
    /// strategy).
    ///
    /// # Panics
    /// When the storage has been mutated since the plan was costed —
    /// stale cardinalities must never drive an execution silently.
    pub fn execute(&self, storage: &XmlStorage) -> PlanExecution {
        assert!(
            self.generation == storage.tick(),
            "stale query plan: planned against storage tick {} but the store is now at tick {}; \
             re-plan after mutating",
            self.generation,
            storage.tick(),
        );
        let mut exec = PlanExecution {
            nodes: Vec::new(),
            work: 0,
            step_rows: vec![0; self.steps.len()],
            step_work: vec![0; self.steps.len()],
        };
        if self.pruned_from.is_some() {
            return exec; // provably empty: zero operators execute
        }
        let mut work = 0;
        let tree = &storage;
        let (start, mut current) = match &self.scan {
            Some(scan) => {
                let last = scan.steps - 1;
                exec.step_rows[..last].copy_from_slice(&scan.prefix_rows);
                let mut nodes = merge_scans(storage, &scan.targets);
                work += W_SCAN * nodes.len() as u64;
                // The run holds no positional predicate, so the merged
                // list filters as one.
                for pred in &self.compiled[last].preds {
                    pred.filter_tail(storage, &mut nodes, 0);
                }
                work += W_OUT * nodes.len() as u64;
                exec.step_rows[last] = nodes.len() as u64;
                exec.step_work[last] = work;
                (scan.steps, nodes)
            }
            None => (0, vec![storage.root()]),
        };
        // Every step after the scan's run descends guided.
        let steps = self.path.steps.iter().zip(&self.compiled);
        for (i, (step, compiled)) in steps.enumerate().skip(start) {
            let before = work;
            let next = doc_order_union(
                tree,
                current.iter().map(|&ctx| {
                    let mut cands = guided(storage, ctx, step, compiled, &mut work);
                    for pred in &compiled.preds {
                        pred.filter_tail(storage, &mut cands, 0);
                    }
                    // Output is charged after predicate filtering,
                    // matching the estimate's post-predicate `est_rows`.
                    work += W_OUT * cands.len() as u64;
                    cands
                }),
            );
            exec.step_rows[i] = next.len() as u64;
            exec.step_work[i] = work - before;
            current = next;
        }
        exec.work = work;
        exec.nodes = current;
        exec
    }
}

// ------------------------------------------------------------- executor

/// Guided descent: the naive evaluator's candidates, charged [`W_NAV`]
/// per node walked. A name step with a hop walks only its first-child
/// slot, any other step the accessor candidates; either walk ends at the
/// step's `stop`-th match.
fn guided(
    st: &XmlStorage,
    ctx: DescPtr,
    step: &Step,
    compiled: &CompiledStep,
    work: &mut u64,
) -> Vec<DescPtr> {
    let stop = compiled.stop.unwrap_or(usize::MAX);
    if let Some(slot) = compiled.hop.as_ref().and_then(|h| h.slot(st.schema_node_of(ctx))) {
        let out: Vec<DescPtr> =
            slot.into_iter().flat_map(|slot| st.children_in(ctx, slot)).take(stop).collect();
        *work += W_NAV * out.len() as u64;
        return out;
    }
    let mut out = Vec::new();
    for c in axis_candidates(&st, ctx, step.axis) {
        if out.len() == stop {
            break;
        }
        *work += W_NAV;
        if test_matches(&st, c, step.axis, &step.test) {
            out.push(c);
        }
    }
    out
}

// -------------------------------------------------------------- planner

/// Estimates for one step.
struct StepEst {
    /// Schema nodes the step can land on.
    targets: Vec<SchemaNodeId>,
    /// Whether a guided walk of the step hops through one first-child
    /// slot (else it walks every node on the axis).
    hop: bool,
    /// Estimated context rows coming in.
    est_in: f64,
    /// Fraction of the frontier's instances that are actual contexts.
    sel_in: f64,
    /// Estimated rows out, after predicates.
    est_rows: f64,
}

/// Walk the path over the DataGuide, estimating each step's targets and
/// cardinalities.
fn estimate_steps(storage: &XmlStorage, path: &Path, compiled: &[CompiledStep]) -> Vec<StepEst> {
    let schema = storage.schema();
    let root = [schema.root()];
    let mut ests: Vec<StepEst> = Vec::with_capacity(path.steps.len());
    for (step, compiled) in path.steps.iter().zip(compiled) {
        let (frontier, est_in) = match ests.last() {
            Some(e) => (&e.targets[..], e.est_rows),
            None => (&root[..], 1.0),
        };
        let targets = step_targets(schema, frontier, step);
        let ctx_card = card_sum(storage, frontier).max(1.0);
        let sel_in = (est_in / ctx_card).min(1.0);
        let mut est_rows = card_sum(storage, &targets) * sel_in;
        for pred in &step.predicates {
            est_rows = match predicate_selectivity(pred) {
                PredSel::Fraction(f) => est_rows * f,
                PredSel::OnePerContext => est_rows.min(est_in),
            };
        }
        ests.push(StepEst { targets, hop: compiled.hop.is_some(), est_in, sel_in, est_rows });
    }
    ests
}

/// How many leading steps a schema-path scan can answer: downward steps
/// without a positional predicate, up to and including the first one
/// carrying any predicate.
fn schema_path_run(path: &Path) -> usize {
    let mut run = 0;
    for step in &path.steps {
        let downward = matches!(step.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf);
        if !downward
            || step.predicates.iter().any(|p| matches!(p, Predicate::Position(_) | Predicate::Last))
        {
            break;
        }
        run += 1;
        if !step.predicates.is_empty() {
            break;
        }
    }
    run
}

/// Cost a path over a storage: every step priced as guided descent from
/// the cardinalities, or a schema-path scan for the leading run when
/// it is cheaper than the guided steps it replaces.
/// `opts.statically_empty` (from xsanalyze's `PathBackend`) prunes the
/// whole plan before costing; steps whose schema frontier comes up
/// empty are pruned by the DataGuide itself.
pub fn plan(storage: &XmlStorage, path: &Path, opts: &PlanOptions) -> QueryPlan {
    let schema = storage.schema();
    let compiled: Vec<CompiledStep> = path
        .steps
        .iter()
        .map(|step| CompiledStep {
            hop: Hop::compile(schema, step),
            stop: first_k(step),
            preds: step.predicates.iter().map(|p| Pred::compile(schema, p)).collect(),
        })
        .collect();
    let ests = estimate_steps(storage, path, &compiled);
    let pruned_from = if opts.statically_empty {
        Some(0)
    } else {
        ests.iter().position(|e| e.targets.is_empty())
    };
    let live_until = pruned_from.unwrap_or(path.steps.len());
    let total = |choice: &[(Strategy, f64)]| -> f64 {
        // `+ 0.0`: an empty float sum is negative zero.
        choice.iter().take(live_until).map(|&(_, c)| c).sum::<f64>() + 0.0
    };

    let root = [schema.root()];
    let guided: Vec<(Strategy, f64)> = path
        .steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let frontier = if i == 0 { &root[..] } else { &ests[i - 1].targets[..] };
            (Strategy::Guided, est_cost(storage, frontier, step, &ests[i]))
        })
        .collect();
    let run = schema_path_run(path);
    let scanned = (run > 0).then(|| {
        let last = &ests[run - 1];
        let cost = card_sum(storage, &last.targets) * W_SCAN as f64 + last.est_rows * W_OUT as f64;
        let mut choice = vec![(Strategy::SchemaPath, 0.0); run - 1];
        choice.push((Strategy::SchemaPath, cost));
        choice.extend_from_slice(&guided[run..]);
        choice
    });
    let (choice, scan) = match scanned {
        Some(choice)
            if opts.force == Some(Strategy::SchemaPath)
                || (opts.force.is_none()
                    && pruned_from.is_none()
                    && total(&choice) <= total(&guided)) =>
        {
            let prefix_rows = ests[..run - 1]
                .iter()
                .map(|e| e.targets.iter().map(|&sn| storage.cardinality(sn) as u64).sum())
                .collect();
            let targets = ests[run - 1].targets.clone();
            (choice, Some(SchemaScan { steps: run, targets, prefix_rows }))
        }
        _ => (guided, None),
    };
    let steps = path
        .steps
        .iter()
        .zip(&ests)
        .zip(&choice)
        .map(|((step, e), &(strategy, cost))| StepPlan {
            display: step.to_string(),
            strategy,
            // `+ 0.0` normalizes IEEE negative zero out of the display.
            est_rows: e.est_rows + 0.0,
            est_cost: cost + 0.0,
        })
        .collect();
    QueryPlan {
        path: path.clone(),
        steps,
        compiled,
        scan,
        pruned_from,
        generation: storage.tick(),
        est_total: total(&choice),
    }
}

/// Plan and execute in one call (the common path in `Database::query`).
pub fn plan_and_execute(
    storage: &XmlStorage,
    path: &Path,
    opts: &PlanOptions,
) -> (QueryPlan, PlanExecution) {
    let p = plan(storage, path, opts);
    let e = p.execute(storage);
    (p, e)
}

fn card_sum(storage: &XmlStorage, sns: &[SchemaNodeId]) -> f64 {
    sns.iter().map(|&sn| storage.cardinality(sn) as f64).sum()
}

/// A child or attribute step whose first predicate is `[k]` keeps only
/// the k-th match per context, so a guided walk stops at it. Both axes
/// run forward, so their k-th match is the k-th in document order.
fn first_k(step: &Step) -> Option<usize> {
    match (step.axis, step.predicates.first()) {
        (Axis::Child | Axis::Attribute, Some(&Predicate::Position(k))) => Some(k as usize),
        _ => None,
    }
}

/// Estimated cost of running `step` by guided descent from `frontier`,
/// in the same work units the executor counts.
fn est_cost(storage: &XmlStorage, frontier: &[SchemaNodeId], step: &Step, e: &StepEst) -> f64 {
    let schema = storage.schema();
    let visited = match step.axis {
        Axis::Child | Axis::Attribute => {
            // A hop walks the step's own slot; any other test every node
            // on the axis.
            let matches = card_sum(storage, &e.targets);
            let attrs = step.axis == Axis::Attribute;
            let walked = if e.hop {
                matches
            } else {
                card_sum(storage, &children_of(schema, frontier, attrs))
            };
            match first_k(step) {
                // Each context stops at its k-th match.
                Some(k) if matches > 0.0 => {
                    (e.sel_in * walked).min(k as f64 * e.est_in * walked / matches)
                }
                _ => e.sel_in * walked,
            }
        }
        Axis::SelfAxis | Axis::Parent => e.est_in,
        Axis::Descendant | Axis::DescendantOrSelf => {
            let with_self = step.axis == Axis::DescendantOrSelf;
            e.sel_in * card_sum(storage, &schema_descendants(schema, frontier, with_self))
        }
        Axis::Ancestor | Axis::AncestorOrSelf => e.est_in * avg_depth(schema, frontier),
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let parents = parent_set(schema, frontier);
            e.sel_in * card_sum(storage, &children_of(schema, &parents, false))
        }
    };
    visited * W_NAV as f64 + e.est_rows * W_OUT as f64
}

// ------------------------------------------------- schema-level targets

/// Does a schema node pass a step's node test (the schema-level mirror
/// of [`xpath::test_matches`])?
fn schema_test_matches(
    schema: &DescriptiveSchema,
    sn: SchemaNodeId,
    axis: Axis,
    test: &NodeTest,
) -> bool {
    let n = schema.node(sn);
    let principal = if axis == Axis::Attribute { NodeKind::Attribute } else { NodeKind::Element };
    match test {
        NodeTest::Node => true,
        NodeTest::Text => n.kind == NodeKind::Text,
        NodeTest::Any => n.kind == principal,
        NodeTest::Name(want) => n.kind == principal && n.name.as_deref() == Some(want.as_str()),
    }
}

/// The schema nodes a step can possibly land on from `frontier` — a
/// superset of the actual result's schema nodes, so an empty answer
/// proves the step empty (the DataGuide's §9.1 path-equivalence).
fn step_targets(
    schema: &DescriptiveSchema,
    frontier: &[SchemaNodeId],
    step: &Step,
) -> Vec<SchemaNodeId> {
    let filtered = |sns: Vec<SchemaNodeId>| -> Vec<SchemaNodeId> {
        sns.into_iter()
            .filter(|&sn| schema_test_matches(schema, sn, step.axis, &step.test))
            .collect()
    };
    match step.axis {
        Axis::Child => filtered(children_of(schema, frontier, false)),
        Axis::Attribute => filtered(children_of(schema, frontier, true)),
        Axis::SelfAxis => filtered(frontier.to_vec()),
        Axis::Parent => filtered(parent_set(schema, frontier)),
        Axis::Descendant => filtered(schema_descendants(schema, frontier, false)),
        Axis::DescendantOrSelf => filtered(schema_descendants(schema, frontier, true)),
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut seen = vec![false; schema.len()];
            let mut out = Vec::new();
            for &sn in frontier {
                let mut cur = if step.axis == Axis::AncestorOrSelf {
                    Some(sn)
                } else {
                    schema.node(sn).parent
                };
                while let Some(a) = cur {
                    if !seen[a.index()] {
                        seen[a.index()] = true;
                        out.push(a);
                    }
                    cur = schema.node(a).parent;
                }
            }
            filtered(out)
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            filtered(children_of(schema, &parent_set(schema, frontier), false))
        }
    }
}

/// Distinct children of the frontier (attributes only when asked).
fn children_of(
    schema: &DescriptiveSchema,
    frontier: &[SchemaNodeId],
    attrs: bool,
) -> Vec<SchemaNodeId> {
    let mut seen = vec![false; schema.len()];
    let mut out = Vec::new();
    for &sn in frontier {
        for &c in &schema.node(sn).children {
            let is_attr = schema.node(c).kind == NodeKind::Attribute;
            if is_attr == attrs && !seen[c.index()] {
                seen[c.index()] = true;
                out.push(c);
            }
        }
    }
    out
}

/// Distinct parents of the frontier.
fn parent_set(schema: &DescriptiveSchema, frontier: &[SchemaNodeId]) -> Vec<SchemaNodeId> {
    let mut seen = vec![false; schema.len()];
    let mut out = Vec::new();
    for &sn in frontier {
        if let Some(p) = schema.node(sn).parent {
            if !seen[p.index()] {
                seen[p.index()] = true;
                out.push(p);
            }
        }
    }
    out
}

/// Distinct schema descendants of the frontier, attributes excluded as
/// the descendant axes exclude them (`include_self` adds the frontier
/// itself).
fn schema_descendants(
    schema: &DescriptiveSchema,
    frontier: &[SchemaNodeId],
    include_self: bool,
) -> Vec<SchemaNodeId> {
    // Without `self` the walk starts at the frontier's children, so a
    // frontier node that is also a schema descendant of another one (a
    // recursive schema) is still reached and emitted.
    let mut stack: Vec<SchemaNodeId> = if include_self {
        frontier.to_vec()
    } else {
        frontier.iter().flat_map(|&sn| schema.node(sn).children.iter().copied()).collect()
    };
    let mut seen = vec![false; schema.len()];
    let mut out = Vec::new();
    while let Some(sn) = stack.pop() {
        if seen[sn.index()] {
            continue;
        }
        seen[sn.index()] = true;
        if schema.node(sn).kind != NodeKind::Attribute {
            out.push(sn);
        }
        stack.extend(schema.node(sn).children.iter().filter(|c| !seen[c.index()]));
    }
    out
}

/// Average schema depth of the frontier (ancestor-axis cost proxy).
fn avg_depth(schema: &DescriptiveSchema, frontier: &[SchemaNodeId]) -> f64 {
    if frontier.is_empty() {
        return 0.0;
    }
    let total: usize = frontier
        .iter()
        .map(|&sn| {
            let mut d = 0;
            let mut cur = schema.node(sn).parent;
            while let Some(p) = cur {
                d += 1;
                cur = schema.node(p).parent;
            }
            d
        })
        .sum();
    total as f64 / frontier.len() as f64
}

// -------------------------------------------------------- selectivities

enum PredSel {
    /// Keep this fraction of the rows.
    Fraction(f64),
    /// Positional: at most one row per context node.
    OnePerContext,
}

/// Estimated selectivity of one predicate: a fixed fraction per kind,
/// as no plan choice turns on it.
fn predicate_selectivity(pred: &Predicate) -> PredSel {
    match pred {
        Predicate::Position(_) | Predicate::Last => PredSel::OnePerContext,
        Predicate::Exists(_) => PredSel::Fraction(0.5),
        Predicate::Compare { .. } => PredSel::Fraction(0.3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use xdm::NodeStore;
    use xpath::{eval_naive, parse};

    fn library() -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        for i in 0..6 {
            let book = s.new_element(lib, "book");
            s.new_attribute(book, "id", format!("b{i}"));
            let t = s.new_element(book, "title");
            s.new_text(t, format!("title {i}"));
            let y = s.new_element(book, "year");
            s.new_text(y, format!("{}", 1990 + i));
        }
        for i in 0..2 {
            let paper = s.new_element(lib, "paper");
            let t = s.new_element(paper, "title");
            s.new_text(t, format!("paper {i}"));
        }
        XmlStorage::from_tree(&s, doc)
    }

    const QUERIES: [&str; 10] = [
        "/library/book/title",
        "//title",
        "//book/@id",
        "/library/book[2]/title",
        "/library/book[year>\"1992\"]/title",
        "/library/*/title/text()",
        "/library/descendant::title",
        "/library/book/title/..",
        "/library/paper/ancestor::library",
        "/library/book[1]/following-sibling::book",
    ];

    fn strictly_increasing(xs: &XmlStorage, nodes: &[DescPtr]) -> bool {
        nodes.windows(2).all(|w| xs.cmp_doc_order(w[0], w[1]) == Ordering::Less)
    }

    #[test]
    fn every_strategy_agrees_with_naive() {
        let xs = library();
        for q in QUERIES {
            let path = parse(q).expect("parses");
            let naive = eval_naive(&&xs, &path);
            let forced = Strategy::ALL.into_iter().map(Some);
            for force in std::iter::once(None).chain(forced) {
                let opts = PlanOptions { force, statically_empty: false };
                let (_, exec) = plan_and_execute(&xs, &path, &opts);
                assert_eq!(exec.nodes, naive, "{q} forced {force:?}");
                assert!(strictly_increasing(&xs, &exec.nodes), "{q} forced {force:?}");
            }
        }
    }

    /// `<a>` holding `x` elements at three DataGuide paths (`/a/x`, one
    /// nested in a `w` under that `x`'s `y`, one under a `b`), `c`
    /// elements under every `b`, ids on two of the `x` paths, and text
    /// under the outer `y`s.
    fn nested() -> XmlStorage {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let a = s.new_element(doc, "a");
        for i in 0..3 {
            let x = s.new_element(a, "x");
            s.new_attribute(x, "id", format!("x{i}"));
            let y = s.new_element(x, "y");
            s.new_text(y, format!("y{i}"));
            s.new_element(y, "z");
            let w = s.new_element(y, "w");
            let inner = s.new_element(w, "x");
            s.new_attribute(inner, "id", format!("inner{i}"));
            let iy = s.new_element(inner, "y");
            s.new_element(iy, "z");
            s.new_element(x, "z");
            let b = s.new_element(a, "b");
            s.new_element(b, "c");
            let bx = s.new_element(b, "x");
            s.new_element(bx, "c");
        }
        XmlStorage::from_tree(&s, doc)
    }

    /// Plan `q` over the nested corpus, check the chosen plan against
    /// the oracle, and return the chosen strategies plus the scan's run.
    fn chosen(q: &str) -> (Vec<Strategy>, usize) {
        let xs = nested();
        let path = parse(q).expect("parses");
        let (p, exec) = plan_and_execute(&xs, &path, &PlanOptions::default());
        assert_eq!(exec.nodes, eval_naive(&&xs, &path), "{q}");
        assert!(!exec.nodes.is_empty(), "{q} selects something");
        let strategies = p.steps().iter().map(|sp| sp.strategy).collect();
        (strategies, p.scan.as_ref().map_or(0, |scan| scan.steps))
    }

    #[test]
    fn schema_path_scans_a_descendant_name_step() {
        use Strategy::SchemaPath as S;
        assert_eq!(chosen("//x"), (vec![S, S], 2));
        assert_eq!(chosen("//x/y//z"), (vec![S; 5], 5));
    }

    #[test]
    fn non_positional_predicate_ends_the_run_after_its_step() {
        let (strategies, run) = chosen("//x[y]/z");
        assert_eq!(run, 2, "{strategies:?}");
        assert_eq!(strategies[..2], [Strategy::SchemaPath; 2]);
        assert_ne!(strategies[2], Strategy::SchemaPath);
    }

    #[test]
    fn positional_predicate_ends_the_run_before_its_step() {
        let (strategies, run) = chosen("/a/b[2]//c");
        assert_eq!(run, 1, "{strategies:?}");
        assert_eq!(strategies[0], Strategy::SchemaPath);
        assert!(strategies[1..].iter().all(|&s| s != Strategy::SchemaPath), "{strategies:?}");
    }

    #[test]
    fn attribute_step_ends_the_run_and_text_step_joins_it() {
        let (strategies, run) = chosen("//x/@id");
        assert_eq!(run, 2, "{strategies:?}");
        assert_ne!(strategies[2], Strategy::SchemaPath);
        assert_eq!(chosen("//y/text()"), (vec![Strategy::SchemaPath; 3], 3));
    }

    #[test]
    fn schema_path_scan_returns_document_order_across_schema_nodes() {
        // `//x` lands on two schema nodes (`/a/x` and `/a/x/y/w/x`) whose
        // instances interleave; the merge must return document order.
        let xs = nested();
        let path = parse("//x").expect("parses");
        let opts = PlanOptions { force: Some(Strategy::SchemaPath), statically_empty: false };
        let (p, exec) = plan_and_execute(&xs, &path, &opts);
        let scan = p.scan.as_ref().expect("a forced scan");
        assert_eq!(scan.targets.len(), 3, "three x paths in the DataGuide");
        assert_eq!(exec.nodes.len(), 9);
        assert!(strictly_increasing(&xs, &exec.nodes));
        assert_eq!(exec.work, (W_SCAN + W_OUT) * 9, "one scan and one output unit per node");
    }

    #[test]
    fn statically_empty_executes_zero_operators() {
        let xs = library();
        let path = parse("/library/dvd/title").expect("parses");
        let (p, exec) =
            plan_and_execute(&xs, &path, &PlanOptions { force: None, statically_empty: true });
        assert_eq!(p.pruned_from(), Some(0));
        assert!(exec.nodes.is_empty());
        assert_eq!(exec.work, 0, "pruned plans must execute zero operators");
        // Schema-impossible paths prune themselves even without the
        // caller's static analysis.
        let (p, exec) = plan_and_execute(&xs, &path, &PlanOptions::default());
        assert_eq!(p.pruned_from(), Some(1), "dvd is not a schema child of library");
        assert_eq!(exec.work, 0);
    }

    #[test]
    fn chosen_plan_work_is_at_most_best_forced() {
        let xs = library();
        for q in QUERIES {
            let path = parse(q).expect("parses");
            let chosen = plan_and_execute(&xs, &path, &PlanOptions::default()).1.work;
            let best = Strategy::ALL
                .into_iter()
                .map(|s| {
                    plan_and_execute(
                        &xs,
                        &path,
                        &PlanOptions { force: Some(s), statically_empty: false },
                    )
                    .1
                    .work
                })
                .min()
                .unwrap_or(0);
            assert!(
                chosen as f64 <= best as f64 * 1.1,
                "{q}: chosen {chosen} > 1.1 × best forced {best}"
            );
        }
    }

    #[test]
    fn positional_guided_step_stops_at_k_and_is_priced_so() {
        let xs = library();
        let walk = |k: u64| (k * W_NAV + W_OUT) as f64;
        // `book[2]` hops the `book` slot and stops at the second book;
        // `*[7]` walks the accessor candidates to the first paper.
        for (q, k) in [("/library/book[2]/title", 2), ("/library/*[7]", 7)] {
            let path = parse(q).expect("parses");
            let (p, exec) = plan_and_execute(&xs, &path, &PlanOptions::default());
            assert_eq!(p.steps()[1].strategy, Strategy::Guided, "{q}");
            assert_eq!(exec.step_work[1] as f64, walk(k), "{q}: actual");
            assert_eq!(p.steps()[1].est_cost, walk(k), "{q}: estimate");
            assert_eq!(exec.nodes, eval_naive(&&xs, &path), "{q}");
        }
    }

    #[test]
    fn explain_prints_estimates_and_actuals() {
        let xs = library();
        let path = parse("/library/book/title").expect("parses");
        let (p, exec) = plan_and_execute(&xs, &path, &PlanOptions::default());
        let text = p.explain(Some(&exec));
        assert!(text.contains("strategy="), "{text}");
        assert!(text.contains("actual_rows="), "{text}");
        assert!(text.contains("est_rows="), "{text}");
    }

    #[test]
    fn stale_plan_refuses_to_execute() {
        let mut xs = library();
        let path = parse("/library/book/title").expect("parses");
        let p = plan(&xs, &path, &PlanOptions::default());
        let lib = xs.children(xs.root())[0];
        xs.insert_element(lib, None, "book").expect("insert");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.execute(&xs)))
            .expect_err("stale plan must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("stale query plan"), "panic message: {msg}");
    }
}
