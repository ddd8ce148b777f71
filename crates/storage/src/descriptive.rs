//! The descriptive schema (§9.1) — a DataGuide.
//!
//! The descriptive schema X′ of a document tree X is a tree over pairs
//! `E = (name, node-type)` such that every path of the document has
//! exactly one path in X′ and vice versa. The construction also yields
//! the *surjective* mapping from document nodes to schema nodes that the
//! block storage (§9.2) hangs its descriptor lists on.

use std::collections::HashMap;
use std::fmt;

use xdm::{NodeId, NodeKind, NodeStore};

/// Identifier of a schema node within a [`DescriptiveSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemaNodeId(pub(crate) u32);

impl SchemaNodeId {
    /// Index into the schema's node arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SchemaNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One schema node: the pair `E = (name, type)` of §9.1 plus tree links.
#[derive(Debug, Clone)]
pub struct SchemaNode {
    /// The node name (`None` for document and text schema nodes).
    pub name: Option<String>,
    /// The node kind component of `E`.
    pub kind: NodeKind,
    /// Parent in the schema tree.
    pub parent: Option<SchemaNodeId>,
    /// Children in first-encountered order.
    pub children: Vec<SchemaNodeId>,
    /// The schema-type annotation shared by the instances (taken from the
    /// first instance encountered; schema-valid documents agree on it).
    pub type_name: Option<String>,
}

/// The descriptive schema of a document tree.
#[derive(Debug, Clone)]
pub struct DescriptiveSchema {
    nodes: Vec<SchemaNode>,
}

impl DescriptiveSchema {
    /// Build the descriptive schema of the tree rooted at `doc`, together
    /// with the surjective node → schema-node mapping (indexed by
    /// `NodeId::index()`, `None` for store nodes outside the tree).
    pub fn build(store: &NodeStore, doc: NodeId) -> (DescriptiveSchema, Vec<Option<SchemaNodeId>>) {
        let mut schema = DescriptiveSchema { nodes: Vec::new() };
        let mut mapping = vec![None; store.len()];
        let root = schema.push(SchemaNode {
            name: None,
            kind: store.kind(doc),
            parent: None,
            children: Vec::new(),
            type_name: None,
        });
        mapping[doc.index()] = Some(root);
        // Memoized (parent schema node, name, kind) → child schema node.
        let mut edge: HashMap<(SchemaNodeId, Option<String>, NodeKind), SchemaNodeId> =
            HashMap::new();
        schema.descend(store, doc, root, &mut mapping, &mut edge);
        (schema, mapping)
    }

    fn descend(
        &mut self,
        store: &NodeStore,
        node: NodeId,
        schema_node: SchemaNodeId,
        mapping: &mut [Option<SchemaNodeId>],
        edge: &mut HashMap<(SchemaNodeId, Option<String>, NodeKind), SchemaNodeId>,
    ) {
        let kids: Vec<NodeId> =
            store.attributes(node).iter().chain(store.children(node)).copied().collect();
        for child in kids {
            let name = store.node_name(child).map(str::to_string);
            let kind = store.kind(child);
            let key = (schema_node, name.clone(), kind);
            let sn = match edge.get(&key) {
                Some(&sn) => sn,
                None => {
                    let sn = self.push(SchemaNode {
                        name,
                        kind,
                        parent: Some(schema_node),
                        children: Vec::new(),
                        type_name: store.type_name(child).map(str::to_string),
                    });
                    self.nodes[schema_node.index()].children.push(sn);
                    edge.insert(key, sn);
                    sn
                }
            };
            mapping[child.index()] = Some(sn);
            self.descend(store, child, sn, mapping, edge);
        }
    }

    /// Add a child schema node (used when an update introduces a path
    /// the document never had — the schema stays a DataGuide).
    pub fn add_child(
        &mut self,
        parent: SchemaNodeId,
        name: Option<String>,
        kind: NodeKind,
    ) -> SchemaNodeId {
        let sn = self.push(SchemaNode {
            name,
            kind,
            parent: Some(parent),
            children: Vec::new(),
            type_name: None,
        });
        self.nodes[parent.index()].children.push(sn);
        sn
    }

    /// Set the schema-type annotation of a node created by
    /// [`DescriptiveSchema::add_child`] (the first instance's type).
    pub(crate) fn set_type_name(&mut self, id: SchemaNodeId, type_name: &str) {
        self.nodes[id.index()].type_name = Some(type_name.to_string());
    }

    fn push(&mut self, node: SchemaNode) -> SchemaNodeId {
        let id = SchemaNodeId(u32::try_from(self.nodes.len()).expect("schema arena overflow"));
        self.nodes.push(node);
        id
    }

    /// Reassemble a schema from decoded nodes ([`crate::paged`] load);
    /// the caller validates the parent/children cross-references.
    pub(crate) fn from_nodes(nodes: Vec<SchemaNode>) -> DescriptiveSchema {
        DescriptiveSchema { nodes }
    }

    /// The schema root (mapped from the document node).
    pub fn root(&self) -> SchemaNodeId {
        SchemaNodeId(0)
    }

    /// Access a schema node.
    pub fn node(&self, id: SchemaNodeId) -> &SchemaNode {
        &self.nodes[id.index()]
    }

    /// Number of schema nodes (the DataGuide size, experiment E7).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the schema is empty (never after [`build`]).
    ///
    /// [`build`]: DescriptiveSchema::build
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All schema node ids.
    pub fn ids(&self) -> impl Iterator<Item = SchemaNodeId> {
        (0..self.nodes.len() as u32).map(SchemaNodeId)
    }

    /// Resolve a root-relative element path, e.g. `["library", "book",
    /// "title"]`, to the schema node it denotes (§9.1: every document
    /// path has exactly one schema path).
    pub fn resolve_path(&self, path: &[&str]) -> Option<SchemaNodeId> {
        let mut cur = self.root();
        for step in path {
            cur = *self.node(cur).children.iter().find(|&&c| {
                let n = self.node(c);
                n.kind == NodeKind::Element && n.name.as_deref() == Some(*step)
            })?;
        }
        Some(cur)
    }

    /// The child schema node for an attribute of `parent`.
    pub fn attribute_child(&self, parent: SchemaNodeId, name: &str) -> Option<SchemaNodeId> {
        self.node(parent).children.iter().copied().find(|&c| {
            let n = self.node(c);
            n.kind == NodeKind::Attribute && n.name.as_deref() == Some(name)
        })
    }

    /// The root-relative path of a schema node (debug/reporting helper).
    pub fn path_of(&self, id: SchemaNodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            match (&n.name, n.kind) {
                (Some(name), NodeKind::Attribute) => parts.push(format!("@{name}")),
                (Some(name), _) => parts.push(name.clone()),
                (None, NodeKind::Document) => {}
                (None, NodeKind::Text) => parts.push("text()".to_string()),
                (None, _) => parts.push("?".to_string()),
            }
            cur = n.parent;
        }
        parts.reverse();
        format!("/{}", parts.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 8 library document (structure only).
    fn library() -> (NodeStore, NodeId) {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let lib = s.new_element(doc, "library");
        for (title, authors) in [
            ("Foundations of Databases", vec!["Abiteboul", "Hull", "Vianu"]),
            ("An Introduction to Database Systems", vec!["Date"]),
        ] {
            let book = s.new_element(lib, "book");
            let t = s.new_element(book, "title");
            s.new_text(t, title);
            for a in authors {
                let an = s.new_element(book, "author");
                s.new_text(an, a);
            }
        }
        // Second book also has an issue/publisher/year.
        let book2 = s.child_elements(lib)[1];
        let issue = s.new_element(book2, "issue");
        let publisher = s.new_element(issue, "publisher");
        s.new_text(publisher, "Addison-Wesley");
        let year = s.new_element(issue, "year");
        s.new_text(year, "2004");
        for (title, author) in [
            ("A Relational Model for Large Shared Data Banks", "Codd"),
            ("The Complexity of Relational Query Languages", "Codd"),
        ] {
            let paper = s.new_element(lib, "paper");
            let t = s.new_element(paper, "title");
            s.new_text(t, title);
            let a = s.new_element(paper, "author");
            s.new_text(a, author);
        }
        (s, doc)
    }

    #[test]
    fn example_8_schema_shape() {
        let (s, doc) = library();
        let (schema, _) = DescriptiveSchema::build(&s, doc);
        // Example 8's descriptive schema: library has exactly two element
        // children — book and paper — regardless of instance counts.
        let lib = schema.resolve_path(&["library"]).unwrap();
        let element_children: Vec<&str> = schema
            .node(lib)
            .children
            .iter()
            .filter(|&&c| schema.node(c).kind == NodeKind::Element)
            .map(|&c| schema.node(c).name.as_deref().unwrap())
            .collect();
        assert_eq!(element_children, ["book", "paper"]);
        // book: title, author, issue (merged across instances).
        let book = schema.resolve_path(&["library", "book"]).unwrap();
        let book_children: Vec<&str> = schema
            .node(book)
            .children
            .iter()
            .map(|&c| schema.node(c).name.as_deref().unwrap_or("text()"))
            .collect();
        assert_eq!(book_children, ["title", "author", "issue"]);
        assert!(schema.resolve_path(&["library", "book", "issue", "publisher"]).is_some());
        assert!(schema.resolve_path(&["library", "paper", "title"]).is_some());
        assert!(schema.resolve_path(&["library", "nosuch"]).is_none());
    }

    #[test]
    fn mapping_is_total_on_the_tree_and_surjective() {
        let (s, doc) = library();
        let (schema, mapping) = DescriptiveSchema::build(&s, doc);
        // Total: every tree node maps.
        for n in s.subtree(doc) {
            assert!(mapping[n.index()].is_some(), "{n} unmapped");
        }
        // Surjective: every schema node has a preimage.
        let mut hit = vec![false; schema.len()];
        for sn in mapping.iter().flatten() {
            hit[sn.index()] = true;
        }
        assert!(hit.iter().all(|&h| h), "unreached schema node");
    }

    #[test]
    fn paths_agree_in_both_directions() {
        // Every document path exists in the schema and vice versa (§9.1).
        let (s, doc) = library();
        let (schema, mapping) = DescriptiveSchema::build(&s, doc);
        for n in s.subtree(doc) {
            let sn = mapping[n.index()].unwrap();
            // Name/kind match.
            assert_eq!(schema.node(sn).kind, s.kind(n));
            assert_eq!(schema.node(sn).name.as_deref(), s.node_name(n));
            // Parents map to parents.
            if let Some(p) = s.parent(n) {
                assert_eq!(schema.node(sn).parent, mapping[p.index()]);
            }
        }
    }

    #[test]
    fn schema_is_much_smaller_than_the_document() {
        let (s, doc) = library();
        let (schema, _) = DescriptiveSchema::build(&s, doc);
        let doc_nodes = s.subtree(doc).len();
        assert!(schema.len() < doc_nodes, "{} !< {doc_nodes}", schema.len());
        // Adding more books does not grow the schema.
        let (mut s2, doc2) = library();
        let lib = s2.child_elements(s2.children(doc2)[0])[0];
        let parent = s2.parent(lib).unwrap();
        for _ in 0..50 {
            let book = s2.new_element(parent, "book");
            let t = s2.new_element(book, "title");
            s2.new_text(t, "More");
        }
        let (schema2, _) = DescriptiveSchema::build(&s2, doc2);
        assert_eq!(schema2.len(), schema.len());
    }

    #[test]
    fn attributes_get_schema_nodes() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let e = s.new_element(doc, "e");
        s.new_attribute(e, "id", "1");
        let (schema, _) = DescriptiveSchema::build(&s, doc);
        let en = schema.resolve_path(&["e"]).unwrap();
        let attr = schema.attribute_child(en, "id").unwrap();
        assert_eq!(schema.node(attr).kind, NodeKind::Attribute);
        assert_eq!(schema.path_of(attr), "/e/@id");
    }

    #[test]
    fn path_of_text_nodes() {
        let mut s = NodeStore::new();
        let doc = s.new_document(None);
        let e = s.new_element(doc, "e");
        s.new_text(e, "x");
        let (schema, mapping) = DescriptiveSchema::build(&s, doc);
        let text = s.children(e)[0];
        let sn = mapping[text.index()].unwrap();
        assert_eq!(schema.path_of(sn), "/e/text()");
    }
}
