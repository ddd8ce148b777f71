//! FLWOR abstract syntax.
//!
//! The paper closes (§11) by noting that its semantics "may help in
//! defining a simple semantics of a data manipulation language like
//! XQuery. We intend to proceed with this work." This crate is that
//! continuation: a FLWOR subset whose semantics is *defined entirely in
//! terms of the paper's accessors* — every evaluation step reads the
//! document through `children` / `attributes` / `string-value` / …, so
//! the state algebra really is the "abstract implementation" the paper
//! promises.
//!
//! Grammar:
//!
//! ```text
//! query   := flwor | PATH
//! flwor   := 'for' '$'NAME 'in' PATH
//!            ('let' '$'NAME ':=' varpath)*
//!            ('where' cond ('and' cond)*)?
//!            ('order' 'by' varpath 'descending'?)?
//!            'return' item
//! varpath := '$'NAME ('/' relative-path)?
//! cond    := varpath (op literal)?          op ∈ {=, !=, <, <=, >, >=}
//! item    := constructor | varpath | STRING-LITERAL
//! constructor := '<'NAME (NAME'='tmpl)*'>' content* '</'NAME'>'
//!              | '<'NAME (NAME'='tmpl)* '/>'
//! tmpl    := '"' (chars | '{'varpath'}')* '"'
//! content := chars | '{'varpath'}' | constructor
//! ```

use xpath::Path;

/// A complete query: either a bare path or a FLWOR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A plain absolute path (results are copied nodes).
    Path(Path),
    /// A FLWOR expression.
    Flwor(Flwor),
}

/// `for … let … where … order by … return …`.
#[derive(Debug, Clone, PartialEq)]
pub struct Flwor {
    /// The bound variable (without `$`).
    pub var: String,
    /// The binding sequence (absolute path).
    pub source: Path,
    /// `let` bindings, evaluated per iteration in order.
    pub lets: Vec<(String, VarPath)>,
    /// Conjunction of `where` conditions.
    pub conditions: Vec<Condition>,
    /// Sort key and direction.
    pub order: Option<OrderBy>,
    /// The return item, instantiated once per surviving binding.
    pub ret: Item,
}

/// `$var` optionally followed by a relative path.
#[derive(Debug, Clone, PartialEq)]
pub struct VarPath {
    /// Variable name (without `$`).
    pub var: String,
    /// Steps applied from the variable's binding (empty = the binding).
    pub path: Option<Path>,
}

/// One `where` condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// `$v/path` — true when non-empty.
    Exists(VarPath),
    /// `$v/path op "literal"` — true when *some* selected node compares
    /// as stated (XPath general-comparison semantics).
    Compare {
        /// Left-hand side.
        lhs: VarPath,
        /// Operator.
        op: xpath::CompareOp,
        /// Right-hand literal.
        literal: String,
    },
}

/// `order by` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Sort key: the string value of the first selected node (`""` when
    /// none). Keys sort by [`xpath::Value::sort_cmp`]: numerals by value
    /// first, then every other key by code point.
    pub key: VarPath,
    /// Descending order.
    pub descending: bool,
}

/// A return item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A direct element constructor.
    Constructor(Constructor),
    /// Copies of the nodes selected by the var-path.
    VarPath(VarPath),
    /// A string literal.
    Literal(String),
}

/// `<name attr="…">content</name>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constructor {
    /// The element name.
    pub name: String,
    /// Attribute templates.
    pub attributes: Vec<(String, Vec<TemplatePart>)>,
    /// Child content.
    pub content: Vec<Content>,
}

/// A piece of an attribute-value template.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplatePart {
    /// Literal characters.
    Literal(String),
    /// `{$v/path}` — the string values of the selected nodes, joined by
    /// single spaces (XQuery attribute-content rule).
    Expr(VarPath),
}

/// A piece of element content.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// Literal text.
    Text(String),
    /// `{$v/path}` — deep copies of the selected nodes (elements copy
    /// subtrees; attributes and texts become text).
    Expr(VarPath),
    /// A nested constructor.
    Element(Constructor),
}
