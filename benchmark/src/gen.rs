//! Schemas and document models.
//!
//! Every document the benchmark sends is emitted from a model kept on
//! the generator's side, and every expected answer is computed from
//! that model — never by asking the code under test. A model knows two
//! things: its XML text and the string values of the nodes a query
//! template selects. Text is lower-case words, digits and spaces only,
//! so no escaping is involved and no value parses as a number unless it
//! is meant to.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::rng::Rng;

/// The five schema families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `library/book*` records (Example 7 shape).
    Flat,
    /// Recursive `section`s.
    Deep,
    /// Mixed content: text interleaved with `b` elements.
    Mixed,
    /// A repeated choice group (Example 3 shape).
    Choice,
    /// Facet-heavy `orders`: pattern, enumeration, totalDigits, dateTime.
    Orders,
}

impl Family {
    /// All five, in the order `ingest` cycles through them.
    pub const ALL: [Family; 5] =
        [Family::Flat, Family::Deep, Family::Mixed, Family::Choice, Family::Orders];

    /// The name the schema is registered under.
    pub fn schema_name(self) -> &'static str {
        match self {
            Family::Flat => "flat",
            Family::Deep => "deep",
            Family::Mixed => "mixed",
            Family::Choice => "choice",
            Family::Orders => "orders",
        }
    }

    /// The XSD text.
    pub fn xsd(self) -> &'static str {
        match self {
            Family::Flat => FLAT_XSD,
            Family::Deep => DEEP_XSD,
            Family::Mixed => MIXED_XSD,
            Family::Choice => CHOICE_XSD,
            Family::Orders => ORDERS_XSD,
        }
    }

    /// The query selecting the root element's children — the per-document
    /// checksum query of the restart check, because their string values
    /// cover every text node of the document.
    pub fn top_query(self) -> &'static str {
        match self {
            Family::Flat => "/library/*",
            Family::Deep => "/doc/section",
            Family::Mixed => "/notes/note",
            Family::Choice => "/stream/*",
            Family::Orders => "/orders/*",
        }
    }
}

// `year` and `status` are nillable so that `replace value of node` on
// them is statically undecidable (XSA505) and takes the Recheck path.
const FLAT_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:complexType name="Book">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
      <xs:element name="year" type="xs:gYear" nillable="true"/>
      <xs:element name="publisher" type="xs:string"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:string"/>
  </xs:complexType>
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" type="Book" minOccurs="0" maxOccurs="unbounded"/>
        <xs:element name="tag" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const DEEP_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="doc">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="section" type="Section" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:complexType name="Section">
    <xs:sequence>
      <xs:element name="heading" type="xs:string"/>
      <xs:element name="section" type="Section" minOccurs="0" maxOccurs="unbounded"/>
      <xs:element name="para" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
</xs:schema>"#;

const MIXED_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="notes">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="note" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType mixed="true">
            <xs:sequence>
              <xs:element name="b" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const CHOICE_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="stream">
    <xs:complexType>
      <xs:choice minOccurs="0" maxOccurs="unbounded">
        <xs:element name="zero" type="xs:string"/>
        <xs:element name="one" type="xs:string"/>
        <xs:element name="pair">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="lo" type="xs:integer"/>
              <xs:element name="hi" type="xs:integer"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:choice>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

const ORDERS_XSD: &str = r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:simpleType name="OrderId"><xs:restriction base="xs:string"><xs:pattern value="ORD-[0-9]{6}"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Sku"><xs:restriction base="xs:string"><xs:pattern value="[A-Z]{3}-[0-9]{4}"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Status"><xs:restriction base="xs:string">
    <xs:enumeration value="new"/><xs:enumeration value="paid"/><xs:enumeration value="shipped"/><xs:enumeration value="cancelled"/>
  </xs:restriction></xs:simpleType>
  <xs:simpleType name="Money"><xs:restriction base="xs:decimal"><xs:totalDigits value="10"/><xs:fractionDigits value="2"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Qty"><xs:restriction base="xs:positiveInteger"><xs:maxInclusive value="999"/></xs:restriction></xs:simpleType>
  <xs:simpleType name="Label"><xs:restriction base="xs:string"><xs:minLength value="3"/><xs:maxLength value="40"/></xs:restriction></xs:simpleType>
  <xs:complexType name="Item">
    <xs:sequence>
      <xs:element name="sku" type="Sku"/>
      <xs:element name="qty" type="Qty"/>
      <xs:element name="price" type="Money"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="Order">
    <xs:sequence>
      <xs:element name="customer" type="Label"/>
      <xs:element name="status" type="Status" nillable="true"/>
      <xs:element name="placed" type="xs:dateTime"/>
      <xs:element name="item" type="Item" maxOccurs="unbounded"/>
      <xs:element name="total" type="Money"/>
    </xs:sequence>
    <xs:attribute name="id" type="OrderId"/>
  </xs:complexType>
  <xs:element name="orders">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="order" type="Order" minOccurs="0" maxOccurs="unbounded"/>
        <xs:element name="note" type="Label" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

/// The leaf elements of the orders schema with the named simple type
/// each is declared with — what the `xstypes` adapter of the traced run
/// validates values against.
pub const ORDERS_LEAF_TYPES: [(&str, &str); 8] = [
    ("customer", "Label"),
    ("status", "Status"),
    ("placed", "xs:dateTime"),
    ("sku", "Sku"),
    ("qty", "Qty"),
    ("price", "Money"),
    ("total", "Money"),
    ("note", "Label"),
];

// No word parses as an f64 ("inf", "nan"), so string comparisons in
// predicates and `order by` stay string comparisons.
const WORDS: [&str; 24] = [
    "database",
    "schema",
    "algebra",
    "node",
    "accessor",
    "document",
    "order",
    "tree",
    "label",
    "block",
    "storage",
    "query",
    "element",
    "attribute",
    "model",
    "state",
    "sort",
    "axiom",
    "value",
    "space",
    "group",
    "choice",
    "factor",
    "type",
];

pub const AUTHORS: [&str; 32] = [
    "abiteboul",
    "bayer",
    "codd",
    "date",
    "eswaran",
    "fagin",
    "gray",
    "hull",
    "ioannidis",
    "jagadish",
    "kanellakis",
    "lorie",
    "maier",
    "naughton",
    "ozsu",
    "papadimitriou",
    "quass",
    "ramakrishnan",
    "stonebraker",
    "traiger",
    "ullman",
    "vianu",
    "widom",
    "xu",
    "yannakakis",
    "zaniolo",
    "astrahan",
    "bernstein",
    "chamberlin",
    "dewitt",
    "elmasri",
    "florescu",
];

pub const PUBLISHERS: [&str; 8] =
    ["addison", "springer", "morgan", "elsevier", "wiley", "pearson", "oxford", "mit"];

/// The four values of the `Status` enumeration.
pub const STATUSES: [&str; 4] = ["new", "paid", "shipped", "cancelled"];

fn word(rng: &mut Rng) -> &'static str {
    rng.pick(&WORDS)
}

/// The §6.2 rule a seeded violation breaks, as the server cites it.
pub const RULE_SIMPLE_VALUE: &str = "§6.2 item 5.1.1";
/// See [`RULE_SIMPLE_VALUE`].
pub const RULE_GROUP_MATCH: &str = "§6.2 item 5.4.2.3";

// ------------------------------------------------------------------ flat

/// One `book` record.
#[derive(Debug, Clone)]
pub struct Book {
    /// The `id` attribute, `b<n>`.
    pub id: String,
    /// `title` text.
    pub title: String,
    /// One to three `author` texts.
    pub authors: Vec<&'static str>,
    /// `year` text (a gYear).
    pub year: String,
    /// `publisher` text.
    pub publisher: &'static str,
}

impl Book {
    /// The string value of the `book` element.
    pub fn string_value(&self) -> String {
        let mut s = self.title.clone();
        for a in &self.authors {
            s.push_str(a);
        }
        s.push_str(&self.year);
        s.push_str(self.publisher);
        s
    }
}

/// A `library` document.
#[derive(Debug, Clone)]
pub struct Library {
    /// The books, in document order.
    pub books: Vec<Book>,
    /// Trailing `tag` elements; updates append at the back and delete
    /// at the front.
    pub tags: VecDeque<String>,
}

impl Library {
    /// About `target_nodes` tree nodes (12 per book). Authors are drawn
    /// from the first `author_pool` names, so a smaller pool makes
    /// `[author="…"]` match more books.
    pub fn generate(rng: &mut Rng, target_nodes: usize, author_pool: usize, tags: usize) -> Self {
        let n = (target_nodes / 12).max(1);
        let books = (1..=n)
            .map(|i| Book {
                id: format!("b{i}"),
                title: format!("{} {} vol {i}", word(rng), word(rng)),
                authors: (0..rng.range(1, 3)).map(|_| rng.pick(&AUTHORS[..author_pool])).collect(),
                year: (1950 + rng.below(70)).to_string(),
                publisher: rng.pick(&PUBLISHERS),
            })
            .collect();
        Library { books, tags: (0..tags).map(|i| format!("seed tag {i}")).collect() }
    }

    /// The XML text. `violate` corrupts one book so that exactly one
    /// §6.2 rule breaks; the rule is returned.
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        let mut out = String::with_capacity(self.books.len() * 140);
        let mut rule = None;
        out.push_str("<library>");
        for (i, b) in self.books.iter().enumerate() {
            let bad = violate.map(|v| v % self.books.len()) == Some(i);
            let _ = write!(out, "<book id=\"{}\"><title>{}</title>", b.id, b.title);
            for a in &b.authors {
                let _ = write!(out, "<author>{a}</author>");
            }
            if bad && i % 2 == 0 {
                // Not in the lexical space of xs:gYear.
                out.push_str("<year>19x7</year>");
                rule = Some(RULE_SIMPLE_VALUE);
            } else {
                let _ = write!(out, "<year>{}</year>", b.year);
            }
            if bad && i % 2 == 1 {
                // The required trailing publisher is missing.
                rule = Some(RULE_GROUP_MATCH);
            } else {
                let _ = write!(out, "<publisher>{}</publisher>", b.publisher);
            }
            out.push_str("</book>");
        }
        for t in &self.tags {
            let _ = write!(out, "<tag>{t}</tag>");
        }
        out.push_str("</library>");
        (out, rule)
    }

    /// String values of `/library/*`.
    pub fn top_values(&self) -> Vec<String> {
        self.books.iter().map(Book::string_value).chain(self.tags.iter().cloned()).collect()
    }
}

// ---------------------------------------------------------------- orders

/// One `item` of an order.
#[derive(Debug, Clone)]
pub struct Item {
    /// `sku` text, `[A-Z]{3}-[0-9]{4}`.
    pub sku: String,
    /// `qty` text.
    pub qty: String,
    /// `price` text, two fraction digits.
    pub price: String,
}

/// One `order` record.
#[derive(Debug, Clone)]
pub struct Order {
    /// The `id` attribute, `ORD-<6 digits>`.
    pub id: String,
    /// `customer` text.
    pub customer: String,
    /// `status` text, one of [`STATUSES`].
    pub status: &'static str,
    /// `placed` text, an xs:dateTime.
    pub placed: String,
    /// One to three items.
    pub items: Vec<Item>,
    /// `total` text.
    pub total: String,
}

impl Order {
    /// The string value of the `order` element.
    pub fn string_value(&self) -> String {
        let mut s = format!("{}{}{}", self.customer, self.status, self.placed);
        for it in &self.items {
            s.push_str(&it.sku);
            s.push_str(&it.qty);
            s.push_str(&it.price);
        }
        s.push_str(&self.total);
        s
    }
}

fn money(cents: usize) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// An `orders` document.
#[derive(Debug, Clone)]
pub struct Orders {
    /// The orders, in document order.
    pub orders: Vec<Order>,
    /// Trailing `note` elements (see [`Library::tags`]).
    pub notes: VecDeque<String>,
}

impl Orders {
    /// About `target_nodes` tree nodes (24 per order).
    pub fn generate(rng: &mut Rng, target_nodes: usize, notes: usize) -> Self {
        let n = (target_nodes / 24).max(1);
        let orders = (1..=n)
            .map(|i| {
                let mut sum = 0;
                let items = (0..rng.range(1, 3))
                    .map(|_| {
                        let letters: String =
                            (0..3).map(|_| (b'A' + rng.below(26) as u8) as char).collect();
                        let (qty, cents) = (rng.range(1, 999), rng.range(1, 99_999));
                        sum += qty * cents;
                        Item {
                            sku: format!("{letters}-{:04}", rng.below(10_000)),
                            qty: qty.to_string(),
                            price: money(cents),
                        }
                    })
                    .collect();
                Order {
                    id: format!("ORD-{i:06}"),
                    customer: format!("{} {}", word(rng), word(rng)),
                    status: rng.pick(&STATUSES),
                    placed: format!(
                        "20{:02}-{:02}-{:02}T{:02}:{:02}:{:02}Z",
                        rng.range(10, 24),
                        rng.range(1, 12),
                        rng.range(1, 28),
                        rng.below(24),
                        rng.below(60),
                        rng.below(60)
                    ),
                    items,
                    total: money(sum),
                }
            })
            .collect();
        Orders { orders, notes: (0..notes).map(|i| format!("seed note {i}")).collect() }
    }

    /// The XML text; `violate` as in [`Library::to_xml`].
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        let mut out = String::with_capacity(self.orders.len() * 330);
        let mut rule = None;
        out.push_str("<orders>");
        for (i, o) in self.orders.iter().enumerate() {
            let bad = violate.map(|v| v % self.orders.len()) == Some(i);
            let _ = write!(out, "<order id=\"{}\"><customer>{}</customer>", o.id, o.customer);
            if bad && i % 3 == 0 {
                // Outside the enumeration facet.
                out.push_str("<status>lost</status>");
                rule = Some(RULE_SIMPLE_VALUE);
            } else {
                let _ = write!(out, "<status>{}</status>", o.status);
            }
            let _ = write!(out, "<placed>{}</placed>", o.placed);
            for (j, it) in o.items.iter().enumerate() {
                if bad && i % 3 == 1 && j == 0 {
                    // Breaks the pattern facet of Sku.
                    let _ = write!(out, "<item><sku>{}</sku>", it.sku.to_lowercase());
                    rule = Some(RULE_SIMPLE_VALUE);
                } else {
                    let _ = write!(out, "<item><sku>{}</sku>", it.sku);
                }
                let _ = write!(out, "<qty>{}</qty><price>{}</price></item>", it.qty, it.price);
            }
            if bad && i % 3 == 2 {
                // Three fraction digits: breaks fractionDigits of Money.
                let _ = write!(out, "<total>{}5</total>", o.total);
                rule = Some(RULE_SIMPLE_VALUE);
            } else {
                let _ = write!(out, "<total>{}</total>", o.total);
            }
            out.push_str("</order>");
        }
        for n in &self.notes {
            let _ = write!(out, "<note>{n}</note>");
        }
        out.push_str("</orders>");
        (out, rule)
    }

    /// String values of `/orders/*`.
    pub fn top_values(&self) -> Vec<String> {
        self.orders.iter().map(Order::string_value).chain(self.notes.iter().cloned()).collect()
    }

    /// Every leaf element's `(name, text)` in document order, for the
    /// `xstypes` facet adapter.
    pub fn leaf_values(&self) -> Vec<(&'static str, &str)> {
        let mut out = Vec::new();
        for o in &self.orders {
            out.push(("customer", o.customer.as_str()));
            out.push(("status", o.status));
            out.push(("placed", o.placed.as_str()));
            for it in &o.items {
                out.push(("sku", it.sku.as_str()));
                out.push(("qty", it.qty.as_str()));
                out.push(("price", it.price.as_str()));
            }
            out.push(("total", o.total.as_str()));
        }
        out.extend(self.notes.iter().map(|n| ("note", n.as_str())));
        out
    }
}

// ------------------------------------------------------------------ deep

/// One `section`: a heading, nested sections, then paragraphs.
#[derive(Debug, Clone)]
pub struct Section {
    /// `heading` text.
    pub heading: String,
    /// Nested sections.
    pub subs: Vec<Section>,
    /// `para` texts (after the nested sections, as the schema orders them).
    pub paras: Vec<String>,
}

/// A `doc` document of recursive sections.
#[derive(Debug, Clone)]
pub struct DeepDoc {
    /// Top-level sections.
    pub sections: Vec<Section>,
}

impl DeepDoc {
    /// About `target_nodes` tree nodes, nesting at most 10 deep.
    pub fn generate(rng: &mut Rng, target_nodes: usize) -> Self {
        fn section(rng: &mut Rng, depth: usize, budget: &mut isize, serial: &mut usize) -> Section {
            *serial += 1;
            let heading = format!("{} {} h{}", word(rng), word(rng), *serial);
            *budget -= 3;
            let mut subs = Vec::new();
            while *budget > 0 && depth < 10 && rng.unit() < 0.55 {
                subs.push(section(rng, depth + 1, budget, serial));
            }
            let paras: Vec<String> = (0..rng.below(3))
                .map(|_| format!("{} {} {}", word(rng), word(rng), word(rng)))
                .collect();
            *budget -= 2 * paras.len() as isize;
            Section { heading, subs, paras }
        }
        let mut budget = target_nodes as isize;
        let mut serial = 0;
        let mut sections = Vec::new();
        while budget > 0 {
            sections.push(section(rng, 1, &mut budget, &mut serial));
        }
        DeepDoc { sections }
    }

    /// The XML text; `violate` drops one top-level section's heading.
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        fn emit(s: &Section, skip_heading: bool, out: &mut String) {
            out.push_str("<section>");
            if !skip_heading {
                let _ = write!(out, "<heading>{}</heading>", s.heading);
            }
            for sub in &s.subs {
                emit(sub, false, out);
            }
            for p in &s.paras {
                let _ = write!(out, "<para>{p}</para>");
            }
            out.push_str("</section>");
        }
        let mut out = String::from("<doc>");
        for (i, s) in self.sections.iter().enumerate() {
            emit(s, violate.map(|v| v % self.sections.len()) == Some(i), &mut out);
        }
        out.push_str("</doc>");
        (out, violate.map(|_| RULE_GROUP_MATCH))
    }

    /// Visit every section in document order with its depth (top = 1).
    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Section, usize, Visit)) {
        fn go<'a>(s: &'a Section, depth: usize, f: &mut impl FnMut(&'a Section, usize, Visit)) {
            f(s, depth, Visit::Enter);
            for sub in &s.subs {
                go(sub, depth + 1, f);
            }
            f(s, depth, Visit::Leave);
        }
        for s in &self.sections {
            go(s, 1, f);
        }
    }

    /// `//heading`, or with `min_depth` 2, `//section/section/heading`.
    pub fn headings(&self, min_depth: usize) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |s, depth, v| {
            if v == Visit::Enter && depth >= min_depth {
                out.push(s.heading.clone());
            }
        });
        out
    }

    /// `//section[para]/heading`.
    pub fn headings_with_para(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |s, _, v| {
            if v == Visit::Enter && !s.paras.is_empty() {
                out.push(s.heading.clone());
            }
        });
        out
    }

    /// `//para` (equally `/doc/section//para`): a section's paragraphs
    /// follow its nested sections in document order.
    pub fn paras(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |s, _, v| {
            if v == Visit::Leave {
                out.extend(s.paras.iter().cloned());
            }
        });
        out
    }

    /// String values of `/doc/section`.
    pub fn top_values(&self) -> Vec<String> {
        fn text(s: &Section, out: &mut String) {
            out.push_str(&s.heading);
            for sub in &s.subs {
                text(sub, out);
            }
            for p in &s.paras {
                out.push_str(p);
            }
        }
        self.sections
            .iter()
            .map(|s| {
                let mut v = String::new();
                text(s, &mut v);
                v
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    Enter,
    Leave,
}

// ----------------------------------------------------------------- mixed

/// A `notes` document: each note is text runs around `b` elements.
#[derive(Debug, Clone)]
pub struct Notes {
    /// Per note, the `(text before, b text, text after)` runs.
    pub notes: Vec<Vec<(String, String, String)>>,
}

impl Notes {
    /// About `target_nodes` tree nodes (10 per note).
    pub fn generate(rng: &mut Rng, target_nodes: usize) -> Self {
        let n = (target_nodes / 10).max(1);
        let notes = (0..n)
            .map(|_| {
                (0..rng.range(1, 3))
                    .map(|_| {
                        (
                            format!("{} ", word(rng)),
                            word(rng).to_string(),
                            format!(" {}", word(rng)),
                        )
                    })
                    .collect()
            })
            .collect();
        Notes { notes }
    }

    /// The XML text; `violate` puts an undeclared `i` element in a note.
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        let mut out = String::from("<notes>");
        for (i, note) in self.notes.iter().enumerate() {
            out.push_str("<note>");
            for (pre, b, post) in note {
                let _ = write!(out, "{pre}<b>{b}</b>{post}");
            }
            if violate.map(|v| v % self.notes.len()) == Some(i) {
                out.push_str("<i>x</i>");
            }
            out.push_str("</note>");
        }
        out.push_str("</notes>");
        (out, violate.map(|_| RULE_GROUP_MATCH))
    }

    /// `//b`.
    pub fn bolds(&self) -> Vec<String> {
        self.notes.iter().flatten().map(|(_, b, _)| b.clone()).collect()
    }

    /// String values of `/notes/note`.
    pub fn top_values(&self) -> Vec<String> {
        self.notes
            .iter()
            .map(|note| note.iter().map(|(pre, b, post)| format!("{pre}{b}{post}")).collect())
            .collect()
    }
}

// ---------------------------------------------------------------- choice

/// One item of a `stream` document.
#[derive(Debug, Clone, Copy)]
pub enum ChoiceItem {
    /// `<zero>z</zero>`
    Zero,
    /// `<one>o</one>`
    One,
    /// `<pair><lo>…</lo><hi>…</hi></pair>`
    Pair(usize, usize),
}

/// A `stream` document: a repeated choice of `zero`, `one` and `pair`.
#[derive(Debug, Clone)]
pub struct Choices {
    /// The items, in document order.
    pub items: Vec<ChoiceItem>,
}

impl Choices {
    /// About `target_nodes` tree nodes (3 per item).
    pub fn generate(rng: &mut Rng, target_nodes: usize) -> Self {
        let n = (target_nodes / 3).max(1);
        let items = (0..n)
            .map(|_| match rng.below(3) {
                0 => ChoiceItem::Zero,
                1 => ChoiceItem::One,
                _ => ChoiceItem::Pair(rng.below(100), rng.range(100, 199)),
            })
            .collect();
        Choices { items }
    }

    /// The XML text; `violate` makes one item a `pair` whose `lo` is
    /// not an integer.
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        let mut out = String::from("<stream>");
        for (i, item) in self.items.iter().enumerate() {
            if violate.map(|v| v % self.items.len()) == Some(i) {
                out.push_str("<pair><lo>low</lo><hi>100</hi></pair>");
                continue;
            }
            match item {
                ChoiceItem::Zero => out.push_str("<zero>z</zero>"),
                ChoiceItem::One => out.push_str("<one>o</one>"),
                ChoiceItem::Pair(lo, hi) => {
                    let _ = write!(out, "<pair><lo>{lo}</lo><hi>{hi}</hi></pair>");
                }
            }
        }
        out.push_str("</stream>");
        (out, violate.map(|_| RULE_SIMPLE_VALUE))
    }

    /// String values of `/stream/*`.
    pub fn top_values(&self) -> Vec<String> {
        self.items
            .iter()
            .map(|item| match item {
                ChoiceItem::Zero => "z".to_string(),
                ChoiceItem::One => "o".to_string(),
                ChoiceItem::Pair(lo, hi) => format!("{lo}{hi}"),
            })
            .collect()
    }
}

// ----------------------------------------------------------------- model

/// A document of any family.
#[derive(Debug, Clone)]
pub enum Model {
    /// See [`Library`].
    Flat(Library),
    /// See [`DeepDoc`].
    Deep(DeepDoc),
    /// See [`Notes`].
    Mixed(Notes),
    /// See [`Choices`].
    Choice(Choices),
    /// See [`Orders`].
    Orders(Orders),
}

impl Model {
    /// A document of `family` with about `target_nodes` nodes.
    /// `author_pool` and `trailers` (preloaded `tag`/`note` elements)
    /// matter to the flat and orders families only.
    pub fn generate(
        family: Family,
        rng: &mut Rng,
        target_nodes: usize,
        author_pool: usize,
        trailers: usize,
    ) -> Model {
        match family {
            Family::Flat => {
                Model::Flat(Library::generate(rng, target_nodes, author_pool, trailers))
            }
            Family::Deep => Model::Deep(DeepDoc::generate(rng, target_nodes)),
            Family::Mixed => Model::Mixed(Notes::generate(rng, target_nodes)),
            Family::Choice => Model::Choice(Choices::generate(rng, target_nodes)),
            Family::Orders => Model::Orders(Orders::generate(rng, target_nodes, trailers)),
        }
    }

    /// The family.
    pub fn family(&self) -> Family {
        match self {
            Model::Flat(_) => Family::Flat,
            Model::Deep(_) => Family::Deep,
            Model::Mixed(_) => Family::Mixed,
            Model::Choice(_) => Family::Choice,
            Model::Orders(_) => Family::Orders,
        }
    }

    /// The XML text, optionally with one seeded §6.2 violation whose
    /// rule citation is returned.
    pub fn to_xml(&self, violate: Option<usize>) -> (String, Option<&'static str>) {
        match self {
            Model::Flat(m) => m.to_xml(violate),
            Model::Deep(m) => m.to_xml(violate),
            Model::Mixed(m) => m.to_xml(violate),
            Model::Choice(m) => m.to_xml(violate),
            Model::Orders(m) => m.to_xml(violate),
        }
    }

    /// The expected answer to [`Family::top_query`].
    pub fn top_values(&self) -> Vec<String> {
        match self {
            Model::Flat(m) => m.top_values(),
            Model::Deep(m) => m.top_values(),
            Model::Mixed(m) => m.top_values(),
            Model::Choice(m) => m.top_values(),
            Model::Orders(m) => m.top_values(),
        }
    }
}
