//! Schema well-formedness: the static requirements the paper places on a
//! document schema (§2–3), checked before any document validation.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ast::{
    ComplexTypeDefinition, DocumentSchema, ElementDeclaration, GroupDefinition, Particle, Type,
};

/// One well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaIssue {
    /// §3 type-usage requirement: a used type name is neither in the
    /// complex type definition set nor a known simple type.
    UnknownType {
        /// The unresolved name.
        name: String,
        /// Where it was used (element or attribute path).
        used_by: String,
    },
    /// §2: element names in a sequence of local group definitions must be
    /// different.
    DuplicateElementName {
        /// The repeated name.
        name: String,
        /// The type or context containing the group.
        context: String,
    },
    /// A repetition factor with `min > max`.
    IncoherentRepetition {
        /// Element or group description.
        context: String,
        /// minOccurs found.
        min: u32,
        /// maxOccurs found.
        max: u32,
    },
    /// The base of a simple-content complex type is not a simple type.
    SimpleContentBaseNotSimple {
        /// The base name.
        base: String,
        /// The complex type using it.
        context: String,
    },
    /// An attribute's type is not a simple type (paper §2: "the type of an
    /// attribute is always a simple type").
    AttributeTypeNotSimple {
        /// The attribute name.
        attribute: String,
        /// The type name used.
        type_name: String,
        /// The complex type declaring it.
        context: String,
    },
    /// A choice group with no alternatives can never be satisfied when
    /// required.
    EmptyChoice {
        /// The complex type containing the group.
        context: String,
    },
    /// XSD's Element Declarations Consistent rule: one content model,
    /// nested groups included, declares a name with two different types
    /// or nillabilities.
    InconsistentDeclarations {
        /// The name declared inconsistently.
        name: String,
        /// The complex type containing the content model.
        context: String,
    },
}

impl SchemaIssue {
    /// The stable diagnostic code for this issue, shared with the
    /// `xsanalyze` diagnostics engine (`XSA001`–`XSA007`). Codes are part
    /// of the public contract: tools may match on them, so a variant's
    /// code never changes and retired codes are never reused.
    pub fn code(&self) -> &'static str {
        match self {
            SchemaIssue::UnknownType { .. } => "XSA001",
            SchemaIssue::DuplicateElementName { .. } => "XSA002",
            SchemaIssue::IncoherentRepetition { .. } => "XSA003",
            SchemaIssue::SimpleContentBaseNotSimple { .. } => "XSA004",
            SchemaIssue::AttributeTypeNotSimple { .. } => "XSA005",
            SchemaIssue::EmptyChoice { .. } => "XSA006",
            SchemaIssue::InconsistentDeclarations { .. } => "XSA007",
        }
    }

    /// The declaration path the issue is anchored at (the `used_by` /
    /// `context` of the variant). Every well-formedness issue is an
    /// error: a schema carrying one cannot validate documents reliably.
    pub fn path(&self) -> &str {
        match self {
            SchemaIssue::UnknownType { used_by, .. } => used_by,
            SchemaIssue::DuplicateElementName { context, .. }
            | SchemaIssue::IncoherentRepetition { context, .. }
            | SchemaIssue::SimpleContentBaseNotSimple { context, .. }
            | SchemaIssue::AttributeTypeNotSimple { context, .. }
            | SchemaIssue::EmptyChoice { context }
            | SchemaIssue::InconsistentDeclarations { context, .. } => context,
        }
    }
}

impl fmt::Display for SchemaIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaIssue::UnknownType { name, used_by } => {
                write!(f, "type {name:?} used by {used_by} is not defined (§3 type usage)")
            }
            SchemaIssue::DuplicateElementName { name, context } => {
                write!(f, "element name {name:?} repeated within a group in {context} (§2)")
            }
            SchemaIssue::IncoherentRepetition { context, min, max } => {
                write!(f, "{context}: minOccurs {min} exceeds maxOccurs {max}")
            }
            SchemaIssue::SimpleContentBaseNotSimple { base, context } => {
                write!(f, "{context}: simple-content base {base:?} is not a simple type")
            }
            SchemaIssue::AttributeTypeNotSimple { attribute, type_name, context } => {
                write!(f, "{context}/@{attribute}: type {type_name:?} is not a simple type (§2)")
            }
            SchemaIssue::EmptyChoice { context } => {
                write!(f, "{context}: required choice group has no alternatives")
            }
            SchemaIssue::InconsistentDeclarations { name, context } => write!(
                f,
                "element name {name:?} declared with different types or nillability \
                 in one content model in {context} (Element Declarations Consistent)"
            ),
        }
    }
}

impl std::error::Error for SchemaIssue {}

/// Check a document schema; an empty result means well-formed.
pub fn check(schema: &DocumentSchema) -> Vec<SchemaIssue> {
    let mut issues = Vec::new();
    check_element(schema, &schema.root, "global element", &mut issues);
    for (name, def) in &schema.complex_types {
        check_complex(schema, def, &format!("complexType {name:?}"), &mut issues);
    }
    issues
}

fn is_simple(schema: &DocumentSchema, name: &str) -> bool {
    !schema.complex_types.contains_key(name) && schema.simple_types.contains(name)
}

fn check_element(
    schema: &DocumentSchema,
    decl: &ElementDeclaration,
    context: &str,
    issues: &mut Vec<SchemaIssue>,
) {
    let here = format!("{context}/element {:?}", decl.name);
    if !decl.repetition.is_coherent() {
        if let crate::ast::Maximum::Bounded(max) = decl.repetition.max {
            issues.push(SchemaIssue::IncoherentRepetition {
                context: here.clone(),
                min: decl.repetition.min,
                max,
            });
        }
    }
    match &decl.ty {
        Type::Named(name) => {
            if !schema.complex_types.contains_key(name) && !schema.simple_types.contains(name) {
                issues.push(SchemaIssue::UnknownType { name: name.clone(), used_by: here });
            }
        }
        Type::AnonymousComplex(def) => check_complex(schema, def, &here, issues),
        Type::AnonymousSimple(_) => {}
    }
}

fn check_complex(
    schema: &DocumentSchema,
    def: &ComplexTypeDefinition,
    context: &str,
    issues: &mut Vec<SchemaIssue>,
) {
    for (attr, ty) in def.attributes() {
        if !is_simple(schema, ty) {
            issues.push(SchemaIssue::AttributeTypeNotSimple {
                attribute: attr.clone(),
                type_name: ty.clone(),
                context: context.to_string(),
            });
        }
    }
    match def {
        ComplexTypeDefinition::SimpleContent { base, .. } => {
            if !schema.simple_types.contains(base) {
                if schema.complex_types.contains_key(base) {
                    issues.push(SchemaIssue::SimpleContentBaseNotSimple {
                        base: base.clone(),
                        context: context.to_string(),
                    });
                } else {
                    issues.push(SchemaIssue::UnknownType {
                        name: base.clone(),
                        used_by: context.to_string(),
                    });
                }
            }
        }
        ComplexTypeDefinition::ComplexContent { content, .. } => {
            check_group(schema, content, context, issues);
            check_consistent(content, context, issues);
        }
    }
}

/// Element Declarations Consistent: same-named declarations anywhere in
/// one content model have the same type and nillability. A validator
/// reading children one at a time fixes a child's declaration when it
/// reads the child (the first particle accepting the name,
/// [`crate::ContentModel::step`]); under this rule every particle it
/// could have taken licenses the child alike, so the choice never
/// changes a verdict.
fn check_consistent(content: &GroupDefinition, context: &str, issues: &mut Vec<SchemaIssue>) {
    fn collect<'a>(group: &'a GroupDefinition, out: &mut Vec<&'a ElementDeclaration>) {
        for particle in &group.particles {
            match particle {
                Particle::Element(decl) => out.push(decl),
                Particle::Group(sub) => collect(sub, out),
            }
        }
    }
    let mut decls = Vec::new();
    collect(content, &mut decls);
    let mut first: BTreeMap<&str, &ElementDeclaration> = BTreeMap::new();
    let mut reported = BTreeSet::new();
    for decl in decls {
        let seen = *first.entry(&decl.name).or_insert(decl);
        // Types have no equality; their derived `Debug` rendering is a
        // full, deterministic one.
        let alike = std::ptr::eq(seen, decl)
            || (seen.nillable == decl.nillable
                && format!("{:?}", seen.ty) == format!("{:?}", decl.ty));
        if !alike && reported.insert(&decl.name) {
            issues.push(SchemaIssue::InconsistentDeclarations {
                name: decl.name.clone(),
                context: context.to_string(),
            });
        }
    }
}

fn check_group(
    schema: &DocumentSchema,
    group: &GroupDefinition,
    context: &str,
    issues: &mut Vec<SchemaIssue>,
) {
    if !group.repetition.is_coherent() {
        if let crate::ast::Maximum::Bounded(max) = group.repetition.max {
            issues.push(SchemaIssue::IncoherentRepetition {
                context: format!("{context}/group"),
                min: group.repetition.min,
                max,
            });
        }
    }
    if group.particles.is_empty()
        && group.combination == crate::ast::CombinationFactor::Choice
        && group.repetition.min > 0
    {
        issues.push(SchemaIssue::EmptyChoice { context: context.to_string() });
    }
    // §2: element names within one group level must be distinct.
    let mut seen = BTreeSet::new();
    for particle in &group.particles {
        match particle {
            Particle::Element(decl) => {
                if !seen.insert(decl.name.clone()) {
                    issues.push(SchemaIssue::DuplicateElementName {
                        name: decl.name.clone(),
                        context: context.to_string(),
                    });
                }
                check_element(schema, decl, context, issues);
            }
            Particle::Group(sub) => check_group(schema, sub, context, issues),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn bookstore_schema() -> DocumentSchema {
        // The paper's Example 7.
        let book_type = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition::sequence(vec![
                ElementDeclaration::new("Title", "xs:string"),
                ElementDeclaration::new("Author", "xs:string"),
                ElementDeclaration::new("Date", "xs:string"),
                ElementDeclaration::new("ISBN", "xs:string"),
                ElementDeclaration::new("Publisher", "xs:string"),
            ]),
            attributes: AttributeDeclarations::new(),
        };
        let root_type = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition::sequence(vec![ElementDeclaration::new(
                "Book",
                "BookPublication",
            )
            .with_repetition(RepetitionFactor::at_least(0))]),
            attributes: AttributeDeclarations::new(),
        };
        DocumentSchema::new(ElementDeclaration {
            name: "BookStore".into(),
            ty: Type::AnonymousComplex(Box::new(root_type)),
            repetition: RepetitionFactor::ONCE,
            nillable: false,
        })
        .with_complex_type("BookPublication", book_type)
    }

    #[test]
    fn example_7_is_well_formed() {
        assert!(check(&bookstore_schema()).is_empty());
    }

    #[test]
    fn unknown_type_is_reported() {
        let schema = DocumentSchema::new(ElementDeclaration::new("Root", "NoSuchType"));
        let issues = check(&schema);
        assert_eq!(issues.len(), 1);
        assert!(
            matches!(&issues[0], SchemaIssue::UnknownType { name, .. } if name == "NoSuchType")
        );
    }

    #[test]
    fn duplicate_group_names_are_reported() {
        let t = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition::sequence(vec![
                ElementDeclaration::new("X", "xs:string"),
                ElementDeclaration::new("X", "xs:int"),
            ]),
            attributes: AttributeDeclarations::new(),
        };
        let schema =
            DocumentSchema::new(ElementDeclaration::new("Root", "T")).with_complex_type("T", t);
        let issues = check(&schema);
        assert!(issues
            .iter()
            .any(|i| matches!(i, SchemaIssue::DuplicateElementName { name, .. } if name == "X")));
    }

    #[test]
    fn same_name_in_sibling_groups_is_allowed() {
        let t = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition {
                particles: vec![
                    Particle::Group(GroupDefinition::sequence(vec![ElementDeclaration::new(
                        "X",
                        "xs:string",
                    )])),
                    Particle::Group(GroupDefinition::sequence(vec![ElementDeclaration::new(
                        "X",
                        "xs:string",
                    )])),
                ],
                combination: CombinationFactor::Choice,
                repetition: RepetitionFactor::ONCE,
            },
            attributes: AttributeDeclarations::new(),
        };
        let schema =
            DocumentSchema::new(ElementDeclaration::new("Root", "T")).with_complex_type("T", t);
        assert!(check(&schema).is_empty());
    }

    /// `choice(seq(A, B), seq(A, C))` with the two `A`s declared as
    /// `a_type` and `xs:string`.
    fn ambiguous(a_type: &str, nillable: bool) -> DocumentSchema {
        let mut second = ElementDeclaration::new("A", "xs:string");
        second.nillable = nillable;
        let t = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition {
                particles: vec![
                    Particle::Group(GroupDefinition::sequence(vec![
                        ElementDeclaration::new("A", a_type),
                        ElementDeclaration::new("B", "xs:string"),
                    ])),
                    Particle::Group(GroupDefinition::sequence(vec![
                        second,
                        ElementDeclaration::new("C", "xs:string"),
                    ])),
                ],
                combination: CombinationFactor::Choice,
                repetition: RepetitionFactor::ONCE,
            },
            attributes: AttributeDeclarations::new(),
        };
        DocumentSchema::new(ElementDeclaration::new("Root", "T")).with_complex_type("T", t)
    }

    #[test]
    fn same_names_in_one_content_model_need_one_type_and_nillability() {
        assert!(check(&ambiguous("xs:string", false)).is_empty());
        for schema in [ambiguous("xs:int", false), ambiguous("xs:string", true)] {
            let issues = check(&schema);
            assert_eq!(issues.len(), 1, "{issues:?}");
            assert!(matches!(
                &issues[0],
                SchemaIssue::InconsistentDeclarations { name, context }
                    if name == "A" && context == "complexType \"T\""
            ));
            assert_eq!(issues[0].code(), "XSA007");
        }
        // As in XSD, an unambiguous model is held to the rule too.
        let t = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition {
                particles: vec![
                    Particle::Group(GroupDefinition::sequence(vec![
                        ElementDeclaration::new("A", "xs:int"),
                        ElementDeclaration::new("B", "xs:string"),
                    ])),
                    Particle::Element(ElementDeclaration::new("A", "xs:string")),
                ],
                combination: CombinationFactor::Sequence,
                repetition: RepetitionFactor::ONCE,
            },
            attributes: AttributeDeclarations::new(),
        };
        let schema =
            DocumentSchema::new(ElementDeclaration::new("Root", "T")).with_complex_type("T", t);
        let codes: Vec<&str> = check(&schema).iter().map(SchemaIssue::code).collect();
        assert_eq!(codes, ["XSA007"]);
    }

    #[test]
    fn incoherent_repetition_is_reported() {
        let schema = DocumentSchema::new(
            ElementDeclaration::new("Root", "xs:string")
                .with_repetition(RepetitionFactor::new(5, 2)),
        );
        let issues = check(&schema);
        assert!(issues.iter().any(|i| matches!(i, SchemaIssue::IncoherentRepetition { .. })));
    }

    #[test]
    fn simple_content_base_must_be_simple() {
        let sc = ComplexTypeDefinition::SimpleContent {
            base: "Other".into(),
            attributes: AttributeDeclarations::new(),
        };
        let schema = DocumentSchema::new(ElementDeclaration::new("Root", "T"))
            .with_complex_type("T", sc)
            .with_complex_type("Other", ComplexTypeDefinition::empty());
        let issues = check(&schema);
        assert!(issues.iter().any(
            |i| matches!(i, SchemaIssue::SimpleContentBaseNotSimple { base, .. } if base == "Other")
        ));
    }

    #[test]
    fn attribute_types_must_be_simple() {
        let mut attrs = AttributeDeclarations::new();
        attrs.insert("a".into(), "T".into()); // T is complex
        let t = ComplexTypeDefinition::ComplexContent {
            mixed: false,
            content: GroupDefinition::empty(),
            attributes: attrs,
        };
        let schema =
            DocumentSchema::new(ElementDeclaration::new("Root", "T")).with_complex_type("T", t);
        let issues = check(&schema);
        assert!(issues.iter().any(
            |i| matches!(i, SchemaIssue::AttributeTypeNotSimple { attribute, .. } if attribute == "a")
        ));
    }

    #[test]
    fn issue_display_cites_paper_sections() {
        let issue = SchemaIssue::UnknownType { name: "X".into(), used_by: "root".into() };
        assert!(issue.to_string().contains("§3"));
    }
}
