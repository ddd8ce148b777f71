//! XML serialization.
//!
//! This is the concrete half of the paper's function `g` (Section 8): a
//! document tree is turned back into XML text. Two modes are provided:
//! *compact* (no inserted whitespace — content-preserving, used for the
//! round-trip theorem) and *pretty* (indented, for human consumption).

use crate::dom::{Document, Element, Node};
use crate::escape::{escape_attribute, escape_text};

/// Serialization options.
#[derive(Debug, Clone)]
pub struct WriteOptions {
    /// Indentation string per depth level; `None` means compact output.
    pub indent: Option<String>,
    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    pub declaration: bool,
}

impl WriteOptions {
    /// Compact output: no whitespace that is not in the data.
    pub fn compact() -> Self {
        WriteOptions { indent: None, declaration: false }
    }

    /// Two-space indented output with an XML declaration.
    pub fn pretty() -> Self {
        WriteOptions { indent: Some("  ".to_string()), declaration: true }
    }
}

/// A buffer-backed XML writer.
///
/// Besides whole trees ([`Writer::write_element`]) it writes a stream of
/// events — [`Writer::start`], [`Writer::attribute`], [`Writer::text`],
/// [`Writer::end`] — into the same buffer, compactly and with the
/// escaping `write_element` applies, so a caller that reads nodes from
/// elsewhere serializes them without building an [`Element`] first.
pub struct Writer {
    options: WriteOptions,
    out: String,
    /// A streamed start tag is open: attributes may still follow.
    open: bool,
}

impl Writer {
    /// Create a writer with the given options.
    pub fn new(options: WriteOptions) -> Self {
        Writer { options, out: String::new(), open: false }
    }

    /// Stream: begin element `name`. Its attributes follow, then its
    /// content, then [`Writer::end`].
    pub fn start(&mut self, name: &str) {
        self.close_start_tag();
        self.out.push('<');
        self.out.push_str(name);
        self.open = true;
    }

    /// Stream: an attribute of the element just started.
    pub fn attribute(&mut self, name: &str, value: &str) {
        debug_assert!(self.open, "attribute outside a start tag");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        self.out.push_str(&escape_attribute(value));
        self.out.push('"');
    }

    /// Stream: a text node, escaped. Even an empty one is content, so
    /// its element is written `<a></a>`, as `write_element` writes an
    /// element holding an empty text child.
    pub fn text(&mut self, text: &str) {
        self.close_start_tag();
        self.out.push_str(&escape_text(text));
    }

    /// Stream: end element `name` — `/>` when it got no content.
    pub fn end(&mut self, name: &str) {
        if self.open {
            self.open = false;
            self.out.push_str("/>");
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }

    /// Stream: text written as is, unescaped (a fragment's top-level
    /// text item).
    pub fn raw(&mut self, text: &str) {
        self.close_start_tag();
        self.out.push_str(text);
    }

    fn close_start_tag(&mut self) {
        if self.open {
            self.open = false;
            self.out.push('>');
        }
    }

    /// Serialize a whole document.
    pub fn write_document(&mut self, doc: &Document) {
        if self.options.declaration {
            self.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
            self.newline();
        }
        self.write_element(doc.root(), 0);
    }

    /// Serialize a single element subtree at the given depth.
    pub fn write_element(&mut self, elem: &Element, depth: usize) {
        self.close_start_tag();
        self.indent(depth);
        self.out.push('<');
        self.push_name(elem);
        for attr in &elem.attributes {
            self.out.push(' ');
            self.out.push_str(&attr.name.lexical());
            self.out.push_str("=\"");
            self.out.push_str(&escape_attribute(&attr.value));
            self.out.push('"');
        }
        if elem.children.is_empty() {
            self.out.push_str("/>");
            return;
        }
        self.out.push('>');
        // In pretty mode, elements whose children include text are written
        // inline to avoid perturbing their string value.
        let mixed = elem.children.iter().any(|c| matches!(c, Node::Text(_)));
        let pretty_children = self.options.indent.is_some() && !mixed;
        for child in &elem.children {
            match child {
                Node::Element(e) => {
                    if pretty_children {
                        self.newline();
                        self.write_element(e, depth + 1);
                    } else {
                        self.write_element_inline(e);
                    }
                }
                Node::Text(t) => self.out.push_str(&escape_text(t)),
                Node::Comment(c) => {
                    if pretty_children {
                        self.newline();
                        self.indent(depth + 1);
                    }
                    self.out.push_str("<!--");
                    self.out.push_str(c);
                    self.out.push_str("-->");
                }
                Node::ProcessingInstruction { target, data } => {
                    if pretty_children {
                        self.newline();
                        self.indent(depth + 1);
                    }
                    self.out.push_str("<?");
                    self.out.push_str(target);
                    if !data.is_empty() {
                        self.out.push(' ');
                        self.out.push_str(data);
                    }
                    self.out.push_str("?>");
                }
            }
        }
        if pretty_children {
            self.newline();
            self.indent(depth);
        }
        self.out.push_str("</");
        self.push_name(elem);
        self.out.push('>');
    }

    fn write_element_inline(&mut self, elem: &Element) {
        let saved = self.options.indent.take();
        self.write_element(elem, 0);
        self.options.indent = saved;
    }

    fn push_name(&mut self, elem: &Element) {
        let name = elem.name.lexical();
        self.out.push_str(&name);
    }

    fn indent(&mut self, depth: usize) {
        if let Some(unit) = &self.options.indent {
            // Only indent at line starts (write_element is called after newline).
            if self.out.ends_with('\n') {
                for _ in 0..depth {
                    self.out.push_str(unit);
                }
            }
        }
    }

    fn newline(&mut self) {
        if self.options.indent.is_some() {
            self.out.push('\n');
        }
    }

    /// Take the produced text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {

    use crate::dom::Document;

    #[test]
    fn compact_output_adds_no_whitespace() {
        let doc = Document::parse("<a><b>x</b><c/></a>").unwrap();
        assert_eq!(doc.to_xml(), "<a><b>x</b><c/></a>");
    }

    #[test]
    fn attributes_are_escaped() {
        let doc = Document::parse(r#"<a x="a&amp;b&quot;c"/>"#).unwrap();
        assert_eq!(doc.to_xml(), r#"<a x="a&amp;b&quot;c"/>"#);
    }

    #[test]
    fn text_is_escaped() {
        let doc = Document::parse("<a>1 &lt; 2 &amp; 3</a>").unwrap();
        assert_eq!(doc.to_xml(), "<a>1 &lt; 2 &amp; 3</a>");
    }

    #[test]
    fn pretty_output_indents_element_only_content() {
        let doc = Document::parse("<a><b><c/></b></a>").unwrap();
        let pretty = doc.to_xml_pretty();
        assert!(pretty.starts_with("<?xml"));
        assert!(pretty.contains("\n  <b>"));
        assert!(pretty.contains("\n    <c/>"));
    }

    #[test]
    fn pretty_output_keeps_mixed_content_inline() {
        let doc = Document::parse("<a>x<b/>y</a>").unwrap();
        let pretty = doc.to_xml_pretty();
        assert!(pretty.contains("<a>x<b/>y</a>"));
    }

    #[test]
    fn pretty_round_trips_modulo_layout() {
        let src = "<a><b>text</b><c><d/></c></a>";
        let doc = Document::parse(src).unwrap();
        let again = Document::parse(&doc.to_xml_pretty()).unwrap();
        // Texts inside <b> are preserved exactly; layout whitespace appears
        // only between element-only children.
        assert_eq!(again.root().child("b").unwrap().text_content(), "text");
    }

    #[test]
    fn streamed_events_write_what_write_element_writes() {
        use super::{WriteOptions, Writer};
        let mut doc = Document::parse(r#"<a x="1&amp;&quot;"><b/><c/>t&lt;u<d>v</d></a>"#).unwrap();
        // The parser drops empty text; an element holding one is `<b></b>`.
        if let Some(crate::dom::Node::Element(b)) = doc.root_mut().children.first_mut() {
            b.children.push(crate::dom::Node::Text(String::new()));
        }
        let mut w = Writer::new(WriteOptions::compact());
        w.start("a");
        w.attribute("x", "1&\"");
        w.start("b");
        w.text("");
        w.end("b");
        w.start("c");
        w.end("c");
        w.text("t<u");
        w.start("d");
        w.text("v");
        w.end("d");
        w.end("a");
        w.raw("<top>");
        w.write_element(doc.root(), 0);
        let streamed = w.finish();
        let whole = doc.to_xml();
        assert_eq!(streamed, format!("{whole}<top>{whole}"));
        assert_eq!(whole, r#"<a x="1&amp;&quot;"><b></b><c/>t&lt;u<d>v</d></a>"#);
    }

    #[test]
    fn comments_and_pis_survive_serialization() {
        let src = "<a><!--note--><?app run?></a>";
        let doc = Document::parse(src).unwrap();
        assert_eq!(doc.to_xml(), src);
    }
}
