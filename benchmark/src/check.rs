//! What a response must look like. The generator fills these in from
//! its own document models when it emits an op; the drivers only
//! compare.

use xsserver::{Opcode, Status};

/// FNV-1a over the fields, each closed by a byte no UTF-8 text holds,
/// so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn checksum<S: AsRef<str>>(fields: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in fields {
        for &b in f.as_ref().as_bytes().iter().chain(&[0xFF]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn multiset_checksum<S: AsRef<str>>(fields: &[S]) -> u64 {
    fields.iter().fold(0u64, |acc, f| acc.wrapping_add(checksum(&[f.as_ref()])))
}

/// The expected response fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// This many fields with this [`checksum`].
    Exact {
        /// Result cardinality.
        count: usize,
        /// Checksum of the expected string values.
        checksum: u64,
    },
    /// These fields in any order: count and an order-free checksum (the
    /// wrapping sum of each field's own [`checksum`]).
    Multiset {
        /// Result cardinality.
        count: usize,
        /// Order-free checksum of the expected string values.
        checksum: u64,
    },
    /// Exactly one violation, citing this §6.2 rule.
    Violation(&'static str),
    /// Only the status is specified (error message wording is not).
    StatusOnly,
}

/// The expected status and answer of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// The response status.
    pub status: Status,
    /// The response fields.
    pub answer: Answer,
}

impl Expect {
    /// `OK` with exactly these fields.
    pub fn fields<S: AsRef<str>>(fields: &[S]) -> Expect {
        Expect {
            status: Status::Ok,
            answer: Answer::Exact { count: fields.len(), checksum: checksum(fields) },
        }
    }

    /// `OK` with these fields in any order.
    pub fn multiset<S: AsRef<str>>(fields: &[S]) -> Expect {
        Expect {
            status: Status::Ok,
            answer: Answer::Multiset { count: fields.len(), checksum: multiset_checksum(fields) },
        }
    }

    /// `OK` with no fields (PUT_DOC, DEL_DOC, SAVE, a valid VALIDATE).
    pub fn empty() -> Expect {
        Expect::fields::<&str>(&[])
    }

    /// A non-OK status.
    pub fn status(status: Status) -> Expect {
        Expect { status, answer: Answer::StatusOnly }
    }

    /// Compare a response; the error says what differed.
    pub fn verify(&self, status: Status, fields: &[String]) -> Result<(), String> {
        if status != self.status {
            let detail = fields.first().map(String::as_str).unwrap_or("");
            return Err(format!(
                "expected status {}, got {} ({})",
                self.status.name(),
                status.name(),
                clip(detail)
            ));
        }
        match &self.answer {
            Answer::StatusOnly => Ok(()),
            Answer::Violation(rule) => match fields {
                [one] if one.contains(rule) => Ok(()),
                _ => Err(format!(
                    "expected one violation citing {rule}, got {} field(s): {}",
                    fields.len(),
                    clip(&fields.join(" | "))
                )),
            },
            Answer::Exact { count, checksum: want }
            | Answer::Multiset { count, checksum: want } => {
                let got = match self.answer {
                    Answer::Multiset { .. } => multiset_checksum(fields),
                    _ => checksum(fields),
                };
                if fields.len() == *count && got == *want {
                    Ok(())
                } else {
                    Err(format!(
                        "expected {count} field(s) with checksum {want:016x}, got {} with {got:016x}: {}",
                        fields.len(),
                        clip(&fields.join(" | "))
                    ))
                }
            }
        }
    }
}

/// The op classes latency is split by (`client.<class>_p50_ms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `PUT_DOC`
    PutDoc,
    /// `VALIDATE`
    Validate,
    /// `DEL_DOC`
    DelDoc,
    /// `QUERY`
    Query,
    /// `XQUERY`
    Xquery,
    /// Accepted `UPDATE` on a small document.
    UpdateSmall,
    /// Accepted `UPDATE` on a large document.
    UpdateLarge,
    /// `UPDATE` the static analysis must reject.
    UpdateReject,
}

impl Class {
    /// Every class.
    pub const ALL: [Class; 8] = [
        Class::PutDoc,
        Class::Validate,
        Class::DelDoc,
        Class::Query,
        Class::Xquery,
        Class::UpdateSmall,
        Class::UpdateLarge,
        Class::UpdateReject,
    ];

    /// The name inside `client.<name>_p50_ms`.
    pub fn name(self) -> &'static str {
        match self {
            Class::PutDoc => "put_doc",
            Class::Validate => "validate",
            Class::DelDoc => "del_doc",
            Class::Query => "query",
            Class::Xquery => "xquery",
            Class::UpdateSmall => "update_small",
            Class::UpdateLarge => "update_large",
            Class::UpdateReject => "update_reject",
        }
    }
}

/// One request with its expected response.
#[derive(Debug, Clone)]
pub struct Op {
    /// Latency class.
    pub class: Class,
    /// Wire opcode.
    pub opcode: Opcode,
    /// Request fields.
    pub fields: Vec<String>,
    /// What the server must answer.
    pub expect: Expect,
}

impl Op {
    /// A new op.
    pub fn new(class: Class, opcode: Opcode, fields: Vec<String>, expect: Expect) -> Op {
        Op { class, opcode, fields, expect }
    }

    /// The op as error messages name it: opcode and clipped fields.
    pub fn describe(&self) -> String {
        let args: Vec<String> = self.fields.iter().map(|f| clip(f)).collect();
        format!("{} [{}]", self.opcode.name(), args.join(", "))
    }
}

/// Attempts and failures of a run, with the first few failures by name.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops whose answer was checked (or that were never sent).
    pub attempted: u64,
    /// Ops that failed, were never sent, or were answered wrongly.
    pub failed: u64,
    named: Vec<String>,
}

impl Tally {
    /// How many failures are kept by name.
    const NAMED: usize = 10;

    /// Check one answer; `who` says which program or instance gave it.
    pub fn check(&mut self, who: &str, op: &Op, status: Status, fields: &[String]) {
        self.attempted += 1;
        if let Err(why) = op.expect.verify(status, fields) {
            self.fail(format!("({who}) {}: {why}", op.describe()));
        }
    }

    /// Count an op that got no answer at all.
    pub fn unanswered(&mut self, op: &Op, why: &str) {
        self.attempted += 1;
        self.fail(format!("{}: {why}", op.describe()));
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.named.len() < Tally::NAMED {
            self.named.push(what);
        }
    }

    /// Fold another tally (a thread's, a round's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Tally::NAMED.saturating_sub(self.named.len());
        self.named.extend(other.named.into_iter().take(room));
    }

    /// Name the failures on stderr.
    pub fn report(&self) {
        for failure in &self.named {
            eprintln!("WRONG ANSWER  {failure}");
        }
    }
}

fn clip(s: &str) -> String {
    const MAX: usize = 96;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes)", &s[..end], s.len())
}
