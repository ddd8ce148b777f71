//! The §6.2 core: requirements 1–7 checked over a push stream of
//! document events, with no tree in between.
//!
//! [`PushValidator`] takes `start / text / end` events in document order
//! and keeps an explicit stack of frames, never recursing, so its stack
//! use does not grow with the document's depth. A frame holds the open
//! element's incremental content-model state ([`MatchState`]), its
//! pending character data (the facet obligation checked when the
//! element closes), and what it needs to render an error path, which is
//! rendered only when an error is reported. `xs:ID` values and
//! `xs:IDREF` references are collected and resolved at document end.
//!
//! While the document is valid, the nodes §6.2 calls for go to an
//! [`InstanceSink`] in document order: `()` drops them (validation
//! alone), and the database's sink builds §9 block storage. Four drivers
//! feed it: the pull parser alone ([`validate_text`]) and with the
//! storage builder ([`ingest_text`]), the database's walk of a stored
//! document's descriptors, and the update recheck. The recheck opens
//! the ancestors of each edited element as trusted frames
//! ([`PushValidator::enter`]), feeds the element's own start tag and
//! text, and passes over its untouched child elements with
//! [`PushValidator::skip`], so the rules it applies are these.
//!
//! The errors — rule, path, message and order — are those of the
//! tree-building [`crate::load_document`], the oracle the core is tested
//! against. The loader checks an element's child sequence before it
//! visits any child; the core visits each child as it arrives, so when
//! an element's content is refused it drops what that content reported
//! and skips the rest of the element, which the loader never looked at.
//! Identity errors come only when nothing else failed, in
//! [`crate::check_identity`]'s order, and a parse error wins over
//! violations found before it.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Arc;

use xmlparse::{Event, EventReader, ParseLimits, QName};
use xsmodel::{
    AttributeDeclarations, ComplexTypeDefinition, ContentModel, DocumentSchema, ElementDeclaration,
    GroupDefinition, MatchState, Type,
};
use xstypes::{AtomicValue, Builtin, SimpleType};

use crate::cache::ContentModelCache;
use crate::error::{Rule, ValidationError};
use crate::load::{is_reserved_attribute, is_whitespace, LoadOptions};

/// Receives a valid instance's nodes in document order: an element, its
/// attributes, its children, its end, named and typed as `f` names and
/// types them (§6.2 item 4). The core stops calling it at the first
/// violation.
pub trait InstanceSink {
    /// Why the sink refused a node.
    type Error;
    /// Open an element node.
    fn start_element(&mut self, name: &str, ty: &str, nilled: bool) -> Result<(), Self::Error>;
    /// An attribute of the open element, before its children.
    fn attribute(&mut self, name: &str, ty: &str, value: &str) -> Result<(), Self::Error>;
    /// A text node, the open element's next child.
    fn text(&mut self, value: &str) -> Result<(), Self::Error>;
    /// Close the open element.
    fn end_element(&mut self) -> Result<(), Self::Error>;
}

/// Validation alone: the nodes are dropped.
impl InstanceSink for () {
    type Error = Infallible;
    fn start_element(&mut self, _: &str, _: &str, _: bool) -> Result<(), Infallible> {
        Ok(())
    }
    fn attribute(&mut self, _: &str, _: &str, _: &str) -> Result<(), Infallible> {
        Ok(())
    }
    fn text(&mut self, _: &str) -> Result<(), Infallible> {
        Ok(())
    }
    fn end_element(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

/// Why a run of the core produced no instance.
#[derive(Debug)]
pub enum IngestError<E> {
    /// Malformed text, or text over a [`ParseLimits`] bound.
    Xml(xmlparse::Error),
    /// §6.2 (or identity-constraint) violations.
    Invalid(Vec<ValidationError>),
    /// The sink refused a node.
    Sink(E),
}

/// Parse `xml` under `limits`, validate it against `schema` and hand the
/// valid instance's nodes to `sink`, which is returned. Content models
/// are shared through `cache` when one is given.
///
/// # Errors
/// [`IngestError::Xml`] (counted under `parse.errors_total`), else
/// [`IngestError::Invalid`], else the sink's failure.
pub fn ingest_text<S: InstanceSink>(
    schema: &DocumentSchema,
    xml: &str,
    options: &LoadOptions,
    limits: &ParseLimits,
    cache: Option<&ContentModelCache>,
    sink: S,
) -> Result<S, IngestError<S::Error>> {
    let mut core = PushValidator::new(schema, options, cache, sink);
    let mut reader = EventReader::with_limits(xml, limits.clone());
    loop {
        match reader.next_event() {
            Err(e) => {
                xsobs::global().incr(xsobs::CounterId::ParseErrors);
                return Err(IngestError::Xml(e));
            }
            Ok(Event::StartElement { name, attributes, self_closing }) => {
                core.start(&name, &attributes);
                if self_closing {
                    core.end();
                }
            }
            Ok(Event::EndElement { .. }) => core.end(),
            Ok(Event::Text(t)) => core.text(&t),
            Ok(Event::Comment(_) | Event::ProcessingInstruction { .. }) => core.boundary(),
            Ok(Event::Eof) => return core.finish(),
        }
    }
}

/// Validate `xml` against `schema` in one streaming pass, building no
/// tree. Returns the violations (empty = valid).
///
/// # Errors
/// The parse error, for malformed or over-limit text.
pub fn validate_text(
    schema: &DocumentSchema,
    xml: &str,
    options: &LoadOptions,
    limits: &ParseLimits,
    cache: Option<&ContentModelCache>,
) -> Result<Vec<ValidationError>, xmlparse::Error> {
    match ingest_text(schema, xml, options, limits, cache, ()) {
        Ok(()) => Ok(Vec::new()),
        Err(IngestError::Invalid(errors)) => Ok(errors),
        Err(IngestError::Xml(e)) => Err(e),
        Err(IngestError::Sink(never)) => match never {},
    }
}

/// How an open element's content is checked.
#[derive(Debug, Default)]
enum Content {
    /// Not checked: an error covers the element, or the frame is closed.
    #[default]
    Skipped,
    /// Simple type or simple content (§6.2 items 5.1.1, 6.1).
    Simple(Arc<SimpleType>),
    /// The empty group (item 5.4.1).
    Empty { mixed: bool },
    /// Nilled complex content (item 6.3).
    Nilled,
    /// A content model (items 5.4.2.*).
    Group { cm: Arc<ContentModel>, mixed: bool },
    /// Not checked, but a child is resolved by name in the model
    /// ([`PushValidator::enter`]).
    Trusted(Arc<ContentModel>),
}

/// One open element; closed frames are kept for reuse.
#[derive(Debug, Default)]
struct Frame {
    /// The model whose declaration `decl` this element matched (`None`:
    /// the root, matching the global declaration).
    owner: Option<Arc<ContentModel>>,
    decl: usize,
    /// Position among the parent's same-named element children.
    pos: u32,
    /// Preorder number: the order identity constraints are checked in.
    seq: u64,
    content: Content,
    nilled: bool,
    /// Character data not yet accounted for: all of it in simple, empty
    /// and nilled content, the pending text node in mixed content, the
    /// current text node (present when `run`) in element-only content.
    text: String,
    /// Whether a text event came: since the last boundary in element-only
    /// content, at all in simple content.
    run: bool,
    state: MatchState,
    /// Same-named children so far: a declaration standing for the name,
    /// and the count.
    siblings: Vec<(usize, u32)>,
    /// How many errors were reported before this element's content.
    mark: usize,
}

impl Frame {
    fn declaration<'a>(&'a self, schema: &'a DocumentSchema) -> &'a ElementDeclaration {
        self.owner.as_ref().map_or(&schema.root, |cm| &cm.declarations()[self.decl])
    }

    /// Count a child matching declaration `decl` of `cm`: its position
    /// among the same-named children so far.
    fn sibling(&mut self, cm: &ContentModel, decl: usize) -> u32 {
        let named = |d: usize| &cm.declarations()[d].name;
        match self.siblings.iter_mut().find(|e| named(e.0) == named(decl)) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                self.siblings.push((decl, 1));
                1
            }
        }
    }
}

/// The declaration of the child `local` in `cm`, found by name.
fn declared(cm: &Arc<ContentModel>, local: &str) -> Option<(Arc<ContentModel>, usize)> {
    let decl = cm.declarations().iter().position(|d| d.name == local)?;
    Some((Arc::clone(cm), decl))
}

/// The push-style §6.2 core. Feed it [`PushValidator::start`],
/// [`PushValidator::text`], [`PushValidator::boundary`] and
/// [`PushValidator::end`] in document order, then call
/// [`PushValidator::finish`].
pub struct PushValidator<'s, S: InstanceSink> {
    schema: &'s DocumentSchema,
    options: &'s LoadOptions,
    shared: Option<&'s ContentModelCache>,
    /// This run's models by group address (stable: every group lives in
    /// the schema or in a model held here), in front of `shared`.
    cm_cache: HashMap<usize, Arc<ContentModel>>,
    sink: S,
    sink_error: Option<S::Error>,
    errors: Vec<ValidationError>,
    /// `frames[..depth]` are open.
    frames: Vec<Frame>,
    depth: usize,
    /// Elements still open inside skipped content.
    skip: usize,
    seq: u64,
    /// `(preorder number, value, path)` of each `xs:ID`, and of each
    /// `xs:IDREF`.
    ids: Vec<(u64, String, String)>,
    idrefs: Vec<(u64, String, String)>,
}

/// The type annotation `f` gives an element declared with type `ty`.
fn type_annotation(ty: &Type) -> &str {
    match ty {
        Type::Named(n) => n,
        Type::AnonymousComplex(_) => "xs:anyType",
        Type::AnonymousSimple(st) => st.name.as_deref().unwrap_or("xs:anyType"),
    }
}

/// The 5.4.2.3 message, as the loader words it.
fn group_mismatch(position: usize, found: &str, expected: &[String]) -> String {
    let expected = if expected.is_empty() { "nothing".to_string() } else { expected.join(", ") };
    format!("at child {position}: found {found}, expected one of {{{expected}}}")
}

impl<'s, S: InstanceSink> PushValidator<'s, S> {
    /// A core at the start of a document.
    pub fn new(
        schema: &'s DocumentSchema,
        options: &'s LoadOptions,
        shared: Option<&'s ContentModelCache>,
        sink: S,
    ) -> Self {
        PushValidator {
            schema,
            options,
            shared,
            cm_cache: HashMap::new(),
            sink,
            sink_error: None,
            errors: Vec::new(),
            frames: Vec::new(),
            depth: 0,
            skip: 0,
            seq: 0,
            ids: Vec::new(),
            idrefs: Vec::new(),
        }
    }

    /// Report a violation of `rule` by open frame `i`.
    fn fail(&mut self, i: usize, rule: Rule, message: impl Into<String>) {
        let path = self.path(i, false);
        self.errors.push(ValidationError::new(rule, path, message));
    }

    /// Report that open frame `i`'s content breaks `rule`. The loader
    /// checks an element's content before it visits any of it, so this
    /// replaces whatever the content reported so far.
    fn reject(&mut self, i: usize, rule: Rule, message: impl Into<String>) {
        self.errors.truncate(self.frames[i].mark);
        self.fail(i, rule, message);
    }

    /// Hand a node to the sink while the document is still valid.
    fn emit(&mut self, node: impl FnOnce(&mut S) -> Result<(), S::Error>) {
        if self.errors.is_empty() && self.sink_error.is_none() {
            self.sink_error = node(&mut self.sink).err();
        }
    }

    /// The path of open frame `i`: the loader's `/doc/item[n]/…`, or
    /// with `identity` [`crate::check_identity`]'s `/doc[1]/item[n]/…`.
    fn path(&self, i: usize, identity: bool) -> String {
        let mut out = String::new();
        for (k, f) in self.frames[..=i].iter().enumerate() {
            out.push('/');
            out.push_str(&f.declaration(self.schema).name);
            if k > 0 || identity {
                out.push_str(&format!("[{}]", f.pos));
            }
        }
        out
    }

    /// Collect the `xs:ID` / `xs:IDREF` values among `values`, carried by
    /// node `seq`: open frame `i`, or its attribute `attr`.
    fn note_identity(&mut self, seq: u64, values: &[AtomicValue], i: usize, attr: Option<&str>) {
        for v in values.iter().filter(|_| self.options.check_identity) {
            let AtomicValue::String(value, kind @ (Builtin::Id | Builtin::IdRef)) = v else {
                continue;
            };
            let mut path = self.path(i, true);
            if let Some(name) = attr {
                path = format!("{path}/@{name}");
            }
            let list = if *kind == Builtin::Id { &mut self.ids } else { &mut self.idrefs };
            list.push((seq, value.clone(), path));
        }
    }

    /// The compiled model of `group`: from this run's cache, the shared
    /// cache, or compiled now.
    fn content_model(
        &mut self,
        group: &GroupDefinition,
    ) -> Result<Arc<ContentModel>, xsmodel::ContentModelError> {
        let key = group as *const GroupDefinition as usize;
        if let Some(cm) = self.cm_cache.get(&key) {
            return Ok(Arc::clone(cm));
        }
        let cm = match self.shared {
            Some(shared) => shared.get_or_compile(group)?,
            None => Arc::new(ContentModel::compile(group)?),
        };
        self.cm_cache.insert(key, Arc::clone(&cm));
        Ok(cm)
    }

    /// An element start tag with its attributes.
    pub fn start(&mut self, name: &QName, attributes: &[(QName, String)]) {
        if self.skip > 0 {
            self.skip += 1;
            return;
        }
        let local = name.local();
        if self.depth == 0 {
            if local == self.schema.root.name {
                return self.open(None, 0, 1, attributes);
            }
            let message = format!(
                "root element is <{local}>, the schema declares <{}>",
                self.schema.root.name
            );
            self.errors.push(ValidationError::new(Rule::RootName, "/", message));
            self.skip = 1;
            return;
        }
        match self.child(local) {
            Some((cm, decl, pos)) => self.open(Some(cm), decl, pos, attributes),
            None => self.skip = 1,
        }
    }

    /// A child element of the open element whose own subtree is known to
    /// be valid: the open element's content check reads it exactly as
    /// [`PushValidator::start`] does, but no frame is opened for it, so
    /// nothing inside it is looked at.
    pub fn skip(&mut self, name: &QName) {
        if self.skip == 0 && self.depth > 0 {
            self.child(name.local());
        }
    }

    /// Open a *trusted* frame for `name`, an ancestor of a part of a
    /// stored document being rechecked. Its declaration is resolved by
    /// name in the open trusted frame's content model (the global
    /// declaration at the root); registration's Element Declarations
    /// Consistent rule (XSA007) makes that one declaration. Nothing about
    /// the element is checked (attributes, content, identity values),
    /// and its `end` checks nothing. A child the trusted element does not
    /// declare opens no frame and reports nothing, so a driver checks
    /// that element's own content where a new child may stand (the
    /// update recheck does: a new element's parent is a site too). Its
    /// position among its siblings is not counted, so an error path
    /// through it reads `name[1]`.
    pub fn enter(&mut self, name: &QName) {
        if self.skip > 0 {
            self.skip += 1;
            return;
        }
        let local = name.local();
        let found = match self.depth.checked_sub(1) {
            None => (local == self.schema.root.name).then_some((None, 0)),
            Some(top) => match &self.frames[top].content {
                Content::Trusted(cm) => declared(cm, local).map(|(cm, d)| (Some(cm), d)),
                _ => None,
            },
        };
        let Some((owner, decl)) = found else {
            self.skip = 1;
            return;
        };
        let i = self.push_frame(owner.clone(), decl, 1);
        let decl = owner.as_ref().map_or(&self.schema.root, |cm| &cm.declarations()[decl]);
        // Without a content model no child can be resolved.
        self.frames[i].content = match self.schema.complex_of(&decl.ty) {
            Some(ComplexTypeDefinition::ComplexContent { content, .. }) => {
                self.content_model(content).map_or(Content::Skipped, Content::Trusted)
            }
            _ => Content::Skipped,
        };
    }

    /// Open frame `top`'s content check reads the child element `local`:
    /// the child's declaration in the model and its position among its
    /// same-named siblings, or `None` when it opens no frame — the
    /// content refuses it, or is not checked — and the rest of the open
    /// element is skipped.
    fn child(&mut self, local: &str) -> Option<(Arc<ContentModel>, usize, u32)> {
        let top = self.depth - 1;
        self.end_text_node(top, true);
        let frame = &mut self.frames[top];
        let refusal = match &frame.content {
            Content::Skipped => None,
            Content::Trusted(cm) => {
                if let Some((cm, decl)) = declared(cm, local) {
                    let pos = frame.sibling(&cm, decl);
                    return Some((cm, decl, pos));
                }
                None
            }
            Content::Simple(_) => Some((
                Rule::R511SimpleValue,
                format!("element <{local}> inside simple-typed content"),
            )),
            Content::Empty { .. } => Some((
                Rule::R541EmptyContent,
                format!("element <{local}> in a type with empty content"),
            )),
            Content::Nilled => Some((Rule::R6Nil, "nilled element must have no content".into())),
            Content::Group { cm, .. } => {
                let position = frame.state.consumed();
                match cm.step(&mut frame.state, local) {
                    Ok(decl) => {
                        let cm = Arc::clone(cm);
                        let pos = frame.sibling(&cm, decl);
                        return Some((cm, decl, pos));
                    }
                    Err(expected) => Some((
                        Rule::R5423GroupMatch,
                        group_mismatch(position, &format!("<{local}>"), &expected),
                    )),
                }
            }
        };
        // Skip the rest of this element: the child, its later siblings
        // and any text.
        frame.content = Content::Skipped;
        if let Some((rule, message)) = refusal {
            self.reject(top, rule, message);
        }
        None
    }

    /// Open a frame at the next depth for an element matching declaration
    /// `decl` of `owner` at position `pos`, and return its index.
    fn push_frame(&mut self, owner: Option<Arc<ContentModel>>, decl: usize, pos: u32) -> usize {
        let i = self.depth;
        if self.frames.len() == i {
            self.frames.push(Frame::default());
        }
        self.seq += 1;
        let frame = &mut self.frames[i];
        (frame.owner, frame.decl, frame.pos, frame.seq) = (owner, decl, pos, self.seq);
        frame.text.clear();
        frame.siblings.clear();
        frame.run = false;
        self.depth += 1;
        i
    }

    /// §6.2 items 2–6: open a frame for an element matching declaration
    /// `decl` of `owner` (the global one when `None`), check its
    /// attributes and set up its content check.
    fn open(
        &mut self,
        owner: Option<Arc<ContentModel>>,
        decl: usize,
        pos: u32,
        attributes: &[(QName, String)],
    ) {
        let schema = self.schema;
        let i = self.push_frame(owner.clone(), decl, pos);
        let decl = owner.as_ref().map_or(&schema.root, |cm| &cm.declarations()[decl]);

        // Item 6: nil handling.
        let nil_requested = attributes.iter().any(|(n, v)| {
            n.prefix() == Some("xsi") && n.local() == "nil" && matches!(v.as_str(), "true" | "1")
        });
        if nil_requested && !decl.nillable {
            let message = "xsi:nil=\"true\" on an element whose declaration is not nillable";
            self.fail(i, Rule::R6Nil, message);
        }
        let nilled = nil_requested && decl.nillable;
        self.frames[i].nilled = nilled;
        // Item 4: node-name = el, type = T.
        self.emit(|s| s.start_element(&decl.name, type_annotation(&decl.ty), nilled));

        let content = if let Some(ctd) = schema.complex_of(&decl.ty) {
            // 5.3.1 first: attributes are validated in both content
            // variants, and item 6.2/6.3 keeps them even when nilled.
            self.attributes(i, ctd.attributes(), attributes);
            match ctd {
                ComplexTypeDefinition::SimpleContent { base, .. } => {
                    let st = schema.simple_types.get(base);
                    if st.is_none() {
                        self.fail(i, Rule::TypeUsage, format!("simple type {base:?} not defined"));
                    }
                    st.map_or(Content::Skipped, Content::Simple)
                }
                ComplexTypeDefinition::ComplexContent { .. } if nilled => Content::Nilled,
                ComplexTypeDefinition::ComplexContent { mixed, content, .. } => {
                    if content.is_empty_content() {
                        Content::Empty { mixed: *mixed }
                    } else {
                        match self.content_model(content) {
                            Ok(cm) => {
                                cm.restart(&mut self.frames[i].state);
                                Content::Group { cm, mixed: *mixed }
                            }
                            Err(e) => {
                                self.fail(i, Rule::R5423GroupMatch, e.to_string());
                                Content::Skipped
                            }
                        }
                    }
                }
            }
        } else if let Some(st) = schema.simple_of(&decl.ty) {
            // Items 5.1, 7: an element of simple type has no attributes.
            for (name, _) in attributes.iter().filter(|(n, _)| !is_reserved_attribute(n)) {
                let message =
                    format!("attribute {:?} on an element of simple type", name.lexical());
                self.fail(i, Rule::R7NoOtherNodes, message);
            }
            Content::Simple(st)
        } else {
            let name = decl.ty.name().unwrap_or("<anonymous>");
            self.fail(i, Rule::TypeUsage, format!("type {name:?} is not defined"));
            Content::Skipped
        };
        self.frames[i].content = content;
        self.frames[i].mark = self.errors.len();
    }

    /// §6.2 item 5.3.1 (+ item 7): open frame `i`'s attribute nodes
    /// correspond to `declared` up to a permutation.
    fn attributes(
        &mut self,
        i: usize,
        declared: &AttributeDeclarations,
        attrs: &[(QName, String)],
    ) {
        let mut seen: Vec<&str> = Vec::new();
        for (name, value) in attrs.iter().filter(|(n, _)| !is_reserved_attribute(n)) {
            let lex = name.lexical();
            let Some(ty) = declared.get(lex.as_ref()) else {
                self.fail(i, Rule::R7NoOtherNodes, format!("attribute {lex:?} is not declared"));
                continue;
            };
            seen.push(name.local());
            self.seq += 1;
            let seq = self.seq;
            self.emit(|s| s.attribute(&lex, ty, value));
            match self.schema.simple_types.get(ty).map(|st| st.validate(value)) {
                Some(Ok(values)) => self.note_identity(seq, &values, i, Some(&lex)),
                Some(Err(e)) => {
                    self.fail(i, Rule::R531Attributes, format!("attribute {lex:?}: {e}"))
                }
                None => self.fail(i, Rule::TypeUsage, format!("attribute type {ty:?} not defined")),
            }
        }
        if self.options.require_all_attributes {
            for name in declared.keys().filter(|n| !seen.contains(&n.as_str())) {
                self.fail(
                    i,
                    Rule::R531Attributes,
                    format!("declared attribute {name:?} is missing"),
                );
            }
        }
    }

    /// Character data.
    pub fn text(&mut self, text: &str) {
        if let (0, Some(frame)) =
            (self.skip, self.depth.checked_sub(1).map(|t| &mut self.frames[t]))
        {
            if !matches!(frame.content, Content::Skipped) {
                frame.text.push_str(text);
                frame.run = true;
            }
        }
    }

    /// A comment or processing instruction: no content, but it ends a
    /// text node.
    pub fn boundary(&mut self) {
        if let (0, Some(top)) = (self.skip, self.depth.checked_sub(1)) {
            self.end_text_node(top, false);
        }
    }

    /// End the text node at hand in open frame `top`'s group content —
    /// at a comment, or (`element`) at a child element or the end tag,
    /// which alone end a mixed element's pending text (item 5.4.2.2: the
    /// text between two element children is one node). Element-only
    /// content admits only ignorable whitespace (item 5.4.2.1).
    fn end_text_node(&mut self, top: usize, element: bool) {
        let frame = &mut self.frames[top];
        let Content::Group { mixed, .. } = frame.content else {
            return;
        };
        if mixed && !element {
            return;
        }
        let text = std::mem::take(&mut frame.text);
        if mixed && !text.is_empty() {
            self.emit(|s| s.text(&text));
        } else if !mixed
            && std::mem::take(&mut frame.run)
            && !(self.options.ignore_ignorable_whitespace && is_whitespace(&text))
        {
            self.fail(
                top,
                Rule::R5421NoText,
                format!("text {text:?} in non-mixed element content"),
            );
        }
        self.frames[top].text = text;
        self.frames[top].text.clear();
    }

    /// An element end tag.
    pub fn end(&mut self) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let Some(top) = self.depth.checked_sub(1) else {
            return;
        };
        self.end_text_node(top, true);
        let frame = &mut self.frames[top];
        let (text, nilled, run) = (std::mem::take(&mut frame.text), frame.nilled, frame.run);
        match std::mem::take(&mut frame.content) {
            Content::Skipped | Content::Trusted(_) => {}
            // 6.1: a nilled element has no children — not even an empty
            // text node, which only a stored document can hold.
            Content::Simple(_) if nilled && run => {
                self.fail(top, Rule::R6Nil, "nilled element must have no content")
            }
            Content::Simple(_) if nilled => {}
            // 5.1.1: one text node whose value is in the lexical space.
            Content::Simple(st) => match st.validate(&text) {
                Ok(values) => {
                    self.emit(|s| s.text(&text));
                    self.note_identity(self.frames[top].seq, &values, top, None);
                }
                Err(e) => self.fail(top, Rule::R511SimpleValue, e.to_string()),
            },
            // 5.4.1.1: no children, or one text node.
            Content::Empty { mixed: true } if !text.is_empty() => self.emit(|s| s.text(&text)),
            Content::Empty { mixed: true } => {}
            // 5.4.1.2: no text node.
            Content::Empty { mixed: false } => {
                if !(text.is_empty()
                    || (self.options.ignore_ignorable_whitespace && is_whitespace(&text)))
                {
                    let message = format!("text {text:?} in empty non-mixed content");
                    self.fail(top, Rule::R5421NoText, message);
                }
            }
            // 6.3: a nilled element has no children.
            Content::Nilled if !is_whitespace(&text) => {
                self.fail(top, Rule::R6Nil, "nilled element must have no content")
            }
            Content::Nilled => {}
            // 5.4.2.3: the child sequence is a word of the group.
            Content::Group { cm, .. } => {
                let state = &self.frames[top].state;
                if let Err(expected) = cm.finish(state) {
                    let message = group_mismatch(state.consumed(), "end of content", &expected);
                    self.reject(top, Rule::R5423GroupMatch, message);
                }
            }
        }
        self.frames[top].text = text;
        self.emit(|s| s.end_element());
        self.depth = top;
    }

    /// Close the document: resolve the identity constraints when nothing
    /// else failed, and return the sink.
    ///
    /// # Errors
    /// [`IngestError::Invalid`] with every violation, else the sink's
    /// failure. Never [`IngestError::Xml`].
    pub fn finish(mut self) -> Result<S, IngestError<S::Error>> {
        if self.errors.is_empty() && self.options.check_identity {
            // [`crate::check_identity`]: IDs unique in document order,
            // then every reference resolved.
            self.ids.sort_by_key(|v| v.0);
            self.idrefs.sort_by_key(|v| v.0);
            let mut declared: HashMap<&str, &str> = HashMap::new();
            for (_, value, path) in &self.ids {
                if let Some(first) = declared.insert(value, path) {
                    let message = format!("ID {value:?} already declared at {first}");
                    self.errors.push(ValidationError::new(Rule::IdUnique, path, message));
                    declared.insert(value, first);
                }
            }
            for (_, value, path) in self.idrefs.iter().filter(|r| !declared.contains_key(&*r.1)) {
                let message = format!("IDREF {value:?} matches no ID in the document");
                self.errors.push(ValidationError::new(Rule::IdRefTarget, path, message));
            }
        }
        match (self.errors.is_empty(), self.sink_error) {
            (false, _) => Err(IngestError::Invalid(self.errors)),
            (true, Some(e)) => Err(IngestError::Sink(e)),
            (true, None) => Ok(self.sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsmodel::parse_schema_text;

    const SCHEMA: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="year" type="xs:gYear"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:NCName"/>
  </xs:complexType>
  <xs:element name="lib">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" type="Book" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

    fn run(schema: &DocumentSchema, xml: &str) -> Result<Vec<ValidationError>, xmlparse::Error> {
        validate_text(schema, xml, &LoadOptions::default(), &ParseLimits::default(), None)
    }

    fn loader(schema: &DocumentSchema, xml: &str) -> Vec<ValidationError> {
        let doc = xmlparse::Document::parse(xml).unwrap();
        crate::load::load_document(schema, &doc).err().unwrap_or_default()
    }

    #[test]
    fn valid_documents_stream_clean() {
        let schema = parse_schema_text(SCHEMA).unwrap();
        for xml in
            [r#"<lib><book id="b1"><title>T</title><year>2004</year></book></lib>"#, "<lib/>"]
        {
            assert_eq!(run(&schema, xml).unwrap(), []);
        }
    }

    #[test]
    fn rule_violations_match_the_tree_validator() {
        let schema = parse_schema_text(SCHEMA).unwrap();
        let cases = [
            r#"<lib><book id="b"><year>2004</year><title>T</title></book></lib>"#, // order
            r#"<lib><book id="b"><title>T</title><year>MMXX</year></book></lib>"#, // value
            r#"<lib><book id="two words"><title>T</title><year>2004</year></book></lib>"#, // attr value
            r#"<lib><book><title>T</title><year>2004</year></book></lib>"#, // missing attr
            r#"<lib><book id="b" extra="1"><title>T</title><year>2004</year></book></lib>"#, // extra attr
            r#"<lib>text here</lib>"#,                                                       // text
            r#"<lib><book id="b"><title>T</title></book></lib>"#, // too short
            r#"<shop/>"#,                                         // root
        ];
        for xml in cases {
            let streamed = run(&schema, xml).unwrap();
            assert!(!streamed.is_empty(), "stream missed: {xml}");
            // One violation each: the same error, path and message.
            assert_eq!(streamed, loader(&schema, xml), "{xml}");
        }
    }

    #[test]
    fn malformed_xml_is_reported() {
        let schema = parse_schema_text(SCHEMA).unwrap();
        let err = run(&schema, "<lib><book></lib>").unwrap_err();
        assert!(matches!(err.kind, xmlparse::ErrorKind::MismatchedTag { .. }), "{err:?}");
        // A parse error wins over a violation found before it.
        assert!(run(&schema, "<lib>stray<book></lib>").is_err());
    }

    #[test]
    fn nil_handling() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
                 <xs:element name="c" type="xs:string" nillable="true"/>
               </xs:schema>"#,
        )
        .unwrap();
        assert_eq!(run(&schema, r#"<c xsi:nil="true"/>"#).unwrap(), []);
        let errs = run(&schema, r#"<c xsi:nil="true">x</c>"#).unwrap();
        assert_eq!(errs[0].rule, Rule::R6Nil);
        assert_eq!(errs, loader(&schema, r#"<c xsi:nil="true">x</c>"#));
    }

    #[test]
    fn streaming_agrees_with_tree_on_generated_corpora() {
        let schema = parse_schema_text(SCHEMA).unwrap();
        let mut xml = String::from("<lib>");
        for i in 0..50 {
            xml.push_str(&format!(
                r#"<book id="b{i}"><title>t{i}</title><year>19{:02}</year></book>"#,
                i % 100
            ));
        }
        xml.push_str("</lib>");
        assert_eq!(run(&schema, &xml).unwrap(), []);
    }

    /// Records the nodes it is handed, one line each.
    #[derive(Default)]
    struct Trace(Vec<String>);

    impl InstanceSink for Trace {
        type Error = Infallible;
        fn start_element(&mut self, name: &str, ty: &str, nilled: bool) -> Result<(), Infallible> {
            self.0.push(format!("<{name}:{ty}{}>", if nilled { " nil" } else { "" }));
            Ok(())
        }
        fn attribute(&mut self, name: &str, ty: &str, value: &str) -> Result<(), Infallible> {
            self.0.push(format!("@{name}:{ty}={value}"));
            Ok(())
        }
        fn text(&mut self, value: &str) -> Result<(), Infallible> {
            self.0.push(format!("{value:?}"));
            Ok(())
        }
        fn end_element(&mut self) -> Result<(), Infallible> {
            self.0.push("/".to_string());
            Ok(())
        }
    }

    #[test]
    fn the_sink_sees_the_instance_in_document_order() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="note">
    <xs:complexType mixed="true">
      <xs:sequence>
        <xs:element name="b" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
      <xs:attribute name="lang" type="xs:language"/>
    </xs:complexType>
  </xs:element>
</xs:schema>"#,
        )
        .unwrap();
        let xml = r#"<note lang="en">x<!--c-->y<b>bold</b><b/> end</note>"#;
        let opts = LoadOptions::default();
        let trace =
            ingest_text(&schema, xml, &opts, &ParseLimits::default(), None, Trace::default())
                .unwrap();
        assert_eq!(
            trace.0,
            [
                "<note:xs:anyType>",
                "@lang:xs:language=en",
                "\"xy\"",
                "<b:xs:string>",
                "\"bold\"",
                "/",
                "<b:xs:string>",
                "\"\"",
                "/",
                "\" end\"",
                "/"
            ]
        );
    }

    #[test]
    fn a_rejected_child_skips_the_rest_of_its_parent() {
        let schema = parse_schema_text(SCHEMA).unwrap();
        // <bogus> is refused: its content and later siblings are not
        // looked at, and what the earlier <book> reported is dropped —
        // the loader refuses <lib>'s child sequence before visiting it.
        for xml in [
            r#"<lib><bogus><year>x</year></bogus><book id="?"/></lib>"#,
            r#"<lib><book id="b">?<title>T</title><year>x</year></book><bogus/></lib>"#,
            r#"<lib><book id="b"><title>T</title>?</book></lib>"#,
        ] {
            let errs = run(&schema, xml).unwrap();
            assert_eq!(errs, loader(&schema, xml));
            assert_eq!(errs.len(), 1, "{errs:?}");
            assert_eq!(errs[0].rule, Rule::R5423GroupMatch);
        }
    }

    #[test]
    fn identity_errors_follow_check_identity() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="Refs"><xs:list itemType="xs:IDREF"/></xs:simpleType>
  <xs:complexType name="Chapter">
    <xs:sequence>
      <xs:element name="key" type="xs:ID"/>
      <xs:element name="see" type="Refs" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:ID"/>
  </xs:complexType>
  <xs:element name="report">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="chapter" type="Chapter" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#,
        )
        .unwrap();
        for xml in [
            r#"<report><chapter id="a"><key>k</key><see>a k</see></chapter></report>"#,
            r#"<report><chapter id="a"><key>a</key></chapter><chapter id="k"><key>k</key><see>ghost a</see><see>nope</see></chapter></report>"#,
            r#"<report><chapter id="d"><key>x</key></chapter><chapter id="d"><key>x</key></chapter></report>"#,
        ] {
            assert_eq!(run(&schema, xml).unwrap(), loader(&schema, xml), "{xml}");
        }
        // Any other violation hides the identity errors.
        let both =
            r#"<report><chapter id="d" bad="1"><key>d</key><see>ghost</see></chapter></report>"#;
        let errs = run(&schema, both).unwrap();
        assert_eq!(errs.iter().map(|e| e.rule).collect::<Vec<_>>(), [Rule::R7NoOtherNodes]);
        let opts = LoadOptions { check_identity: false, ..LoadOptions::default() };
        let dup = r#"<report><chapter id="d"><key>d</key></chapter></report>"#;
        assert_eq!(validate_text(&schema, dup, &opts, &ParseLimits::default(), None).unwrap(), []);
    }

    #[test]
    fn depth_costs_no_stack() {
        let schema = parse_schema_text(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="s" type="S"/>
  <xs:complexType name="S">
    <xs:sequence><xs:element name="s" type="S" minOccurs="0"/></xs:sequence>
  </xs:complexType>
</xs:schema>"#,
        )
        .unwrap();
        let depth = 100_000;
        let xml = format!("{}{}", "<s>".repeat(depth), "</s>".repeat(depth));
        let limits = ParseLimits::unlimited();
        // A 64 KiB stack would not hold a frame per level of recursion.
        let verdict = std::thread::Builder::new()
            .stack_size(64 << 10)
            .spawn(move || {
                validate_text(&schema, &xml, &LoadOptions::default(), &limits, None)
                    .map(|e| e.len())
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(verdict.unwrap(), 0);
    }
}
