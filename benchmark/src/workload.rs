//! The four workloads: what is preloaded and which ops each connection
//! issues, with the answer to every op.
//!
//! A [`Session`] is a pure function of `(workload, seed, scale)`. It
//! holds two [`Stream`]s, one per closed-loop connection. On the write
//! workloads each stream owns half the documents, so the server's
//! answer to every op is determined by that stream's own history and
//! the generator can predict it exactly; on the query workloads both
//! streams read all documents.
//!
//! Within a round the *count* of each op kind is exact and only the
//! order is shuffled, and every categorical choice below a kind (which
//! template, which document) goes round-robin, so the latency
//! percentiles of a round do not depend on how many ops of a cheap or
//! dear sort a seed happened to draw. The seed decides document
//! contents, op order and template parameters.

use std::collections::VecDeque;

use xsserver::{Opcode, Status};

use crate::check::{Class, Expect, Op};
use crate::gen::{Family, Library, Model, Orders, STATUSES};
use crate::rng::{Rng, Zipf};

/// The workloads, by their fixed names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Validated ingest: `PUT_DOC`, `VALIDATE`, `DEL_DOC`.
    Ingest,
    /// Small child-axis `QUERY`/`XQUERY` drawn Zipf(1) from a pool.
    PointQuery,
    /// Descendant scans, value predicates and FLWOR over large documents.
    ScanQuery,
    /// Typed `UPDATE`s beside point reads, on small and large documents.
    MixedRw,
}

impl Workload {
    /// All four.
    pub const ALL: [Workload; 4] =
        [Workload::Ingest, Workload::PointQuery, Workload::ScanQuery, Workload::MixedRw];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::PointQuery => "point_query",
            Workload::ScanQuery => "scan_query",
            Workload::MixedRw => "mixed_rw",
        }
    }

    /// Parse a name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the op mix mutates the database.
    pub fn writes(self) -> bool {
        matches!(self, Workload::Ingest | Workload::MixedRw)
    }
}

// Frozen sizes (tree nodes per document, documents per workload). The
// self-test divides node counts by `scale`.
const INGEST_NODES: usize = 2_000;
const INGEST_LIVE_PER_STREAM: usize = 32;
const POINT_DOCS: usize = 16;
const POINT_NODES: usize = 1_024;
const POINT_PATH_POOL: usize = 64;
const POINT_FLWOR_POOL: usize = 16;
const SCAN_NODES: usize = 16_384;
const MIXED_SMALL_NODES: usize = 256;
const MIXED_LARGE_NODES: usize = 16_384;
const MIXED_TRAILERS: usize = 16;
/// Authors are drawn from this many names where `[author="…"]` should
/// match hundreds of books, and from all 32 elsewhere.
const SCAN_AUTHOR_POOL: usize = 8;

/// A frozen node count at the run's scale (the self-test's 1/20).
fn scaled(nodes: usize, scale: usize) -> usize {
    (nodes / scale).max(48)
}

/// A stored document the generator keeps a full model of.
#[derive(Debug, Clone)]
struct Doc {
    name: String,
    model: Model,
    large: bool,
    /// Bytes of XML it was ingested as.
    xml_bytes: usize,
}

/// A stored `ingest` document: only what the restart check needs.
#[derive(Debug, Clone)]
struct LiveDoc {
    name: String,
    family: Family,
    xml_bytes: usize,
    top: Expect,
}

/// One point query template with its parameter.
#[derive(Debug, Clone)]
enum PointPath {
    FlatTitleAt(usize),
    FlatAuthorsOf(usize),
    FlatYearAt(usize),
    FlatPublisherOf(usize),
    OrdersStatusAt(usize),
    OrdersSkusOf(usize),
    OrdersTotalAt(usize),
    OrdersFirstQtyAt(usize),
}

impl PointPath {
    fn family(&self) -> Family {
        match self {
            PointPath::FlatTitleAt(_)
            | PointPath::FlatAuthorsOf(_)
            | PointPath::FlatYearAt(_)
            | PointPath::FlatPublisherOf(_) => Family::Flat,
            _ => Family::Orders,
        }
    }

    /// The `template`-th template of `family` with a 1-based position
    /// below the record count as its parameter.
    fn draw(rng: &mut Rng, family: Family, template: usize, records: usize) -> PointPath {
        let k = rng.range(1, records);
        match (family, template % 4) {
            (Family::Flat, 0) => PointPath::FlatTitleAt(k),
            (Family::Flat, 1) => PointPath::FlatAuthorsOf(k),
            (Family::Flat, 2) => PointPath::FlatYearAt(k),
            (Family::Flat, _) => PointPath::FlatPublisherOf(k),
            (_, 0) => PointPath::OrdersStatusAt(k),
            (_, 1) => PointPath::OrdersSkusOf(k),
            (_, 2) => PointPath::OrdersTotalAt(k),
            (_, _) => PointPath::OrdersFirstQtyAt(k),
        }
    }

    fn text(&self) -> String {
        match self {
            PointPath::FlatTitleAt(k) => format!("/library/book[{k}]/title"),
            PointPath::FlatAuthorsOf(k) => format!("/library/book[@id=\"b{k}\"]/author"),
            PointPath::FlatYearAt(k) => format!("/library/book[{k}]/year"),
            PointPath::FlatPublisherOf(k) => format!("/library/book[@id=\"b{k}\"]/publisher"),
            PointPath::OrdersStatusAt(k) => format!("/orders/order[{k}]/status"),
            PointPath::OrdersSkusOf(k) => format!("/orders/order[@id=\"ORD-{k:06}\"]/item/sku"),
            PointPath::OrdersTotalAt(k) => format!("/orders/order[{k}]/total"),
            PointPath::OrdersFirstQtyAt(k) => format!("/orders/order[{k}]/item[1]/qty"),
        }
    }

    fn answer(&self, model: &Model) -> Vec<String> {
        match (self, model) {
            (PointPath::FlatTitleAt(k), Model::Flat(m)) => vec![m.books[k - 1].title.clone()],
            (PointPath::FlatAuthorsOf(k), Model::Flat(m)) => {
                m.books[k - 1].authors.iter().map(|a| a.to_string()).collect()
            }
            (PointPath::FlatYearAt(k), Model::Flat(m)) => vec![m.books[k - 1].year.clone()],
            (PointPath::FlatPublisherOf(k), Model::Flat(m)) => {
                vec![m.books[k - 1].publisher.to_string()]
            }
            (PointPath::OrdersStatusAt(k), Model::Orders(m)) => {
                vec![m.orders[k - 1].status.to_string()]
            }
            (PointPath::OrdersSkusOf(k), Model::Orders(m)) => {
                m.orders[k - 1].items.iter().map(|i| i.sku.clone()).collect()
            }
            (PointPath::OrdersTotalAt(k), Model::Orders(m)) => vec![m.orders[k - 1].total.clone()],
            (PointPath::OrdersFirstQtyAt(k), Model::Orders(m)) => {
                vec![m.orders[k - 1].items[0].qty.clone()]
            }
            _ => unreachable!("a path is only asked of its own family"),
        }
    }
}

/// One small FLWOR template with its parameter.
#[derive(Debug, Clone)]
enum PointFlwor {
    FlatTitleById(usize),
    FlatIdsByYear(usize),
    OrdersTotalById(usize),
    OrdersIdsByStatusAbove(&'static str, usize),
}

impl PointFlwor {
    fn family(&self) -> Family {
        match self {
            PointFlwor::FlatTitleById(_) | PointFlwor::FlatIdsByYear(_) => Family::Flat,
            _ => Family::Orders,
        }
    }

    fn draw(rng: &mut Rng, family: Family, template: usize, records: usize) -> PointFlwor {
        match (family, template % 2) {
            (Family::Flat, 0) => PointFlwor::FlatTitleById(rng.range(1, records)),
            (Family::Flat, _) => PointFlwor::FlatIdsByYear(1950 + rng.below(70)),
            (_, 0) => PointFlwor::OrdersTotalById(rng.range(1, records)),
            (_, _) => PointFlwor::OrdersIdsByStatusAbove(
                rng.pick(&STATUSES),
                1_000 * rng.range(200, 1_500),
            ),
        }
    }

    fn text(&self) -> String {
        match self {
            PointFlwor::FlatTitleById(k) => format!(
                "for $b in /library/book where $b/@id = \"b{k}\" return <hit>{{$b/title/text()}}</hit>"
            ),
            PointFlwor::FlatIdsByYear(y) => {
                format!("for $b in /library/book where $b/year = \"{y}\" return $b/@id")
            }
            PointFlwor::OrdersTotalById(k) => format!(
                "for $o in /orders/order where $o/@id = \"ORD-{k:06}\" return <t>{{$o/total/text()}}</t>"
            ),
            PointFlwor::OrdersIdsByStatusAbove(s, t) => format!(
                "for $o in /orders/order where $o/status = \"{s}\" and $o/total > \"{t}\" return $o/@id"
            ),
        }
    }

    /// The serialized result sequence (one response field).
    fn answer(&self, model: &Model) -> String {
        match (self, model) {
            (PointFlwor::FlatTitleById(k), Model::Flat(m)) => {
                format!("<hit>{}</hit>", m.books[k - 1].title)
            }
            (PointFlwor::FlatIdsByYear(y), Model::Flat(m)) => {
                let y = y.to_string();
                m.books.iter().filter(|b| b.year == y).map(|b| b.id.as_str()).collect()
            }
            (PointFlwor::OrdersTotalById(k), Model::Orders(m)) => {
                format!("<t>{}</t>", m.orders[k - 1].total)
            }
            (PointFlwor::OrdersIdsByStatusAbove(s, t), Model::Orders(m)) => m
                .orders
                .iter()
                .filter(|o| o.status == *s && o.total.parse::<f64>().is_ok_and(|v| v > *t as f64))
                .map(|o| o.id.as_str())
                .collect(),
            _ => unreachable!("a query is only asked of its own family"),
        }
    }
}

/// Round-robin slots of [`Stream::turn`]: one per family for
/// `doc_of`, then five for the choices below an op kind.
const TURN_KIND: usize = 5;

/// The shared pools of `point_query`: how much work inputs share is the
/// pool size, which a plan cache keyed on query text would exploit.
#[derive(Debug, Clone)]
struct Pools {
    paths: Vec<PointPath>,
    flwors: Vec<PointFlwor>,
    path_zipf: Zipf,
    flwor_zipf: Zipf,
}

/// The op source of one closed-loop connection.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    id: usize,
    scale: usize,
    rng: Rng,
    docs: Vec<Doc>,
    live: VecDeque<LiveDoc>,
    serial: usize,
    /// Round-robin positions, one per categorical choice.
    turns: [usize; 10],
    pools: Option<Pools>,
}

/// Everything one run sends: schemas, preload, and the two streams.
#[derive(Debug, Clone)]
pub struct Session {
    /// The workload.
    pub workload: Workload,
    /// Schemas to register, in order.
    pub schemas: Vec<Family>,
    /// `PUT_DOC`s to send before the first round.
    pub preload: Vec<Op>,
    /// One op source per closed-loop connection.
    pub streams: Vec<Stream>,
}

fn put_op(name: &str, family: Family, xml: String) -> Op {
    Op::new(
        Class::PutDoc,
        Opcode::PutDoc,
        vec![name.to_string(), family.schema_name().to_string(), xml],
        Expect::empty(),
    )
}

fn query_op(doc: &str, path: String, answer: &[String]) -> Op {
    Op::new(Class::Query, Opcode::Query, vec![doc.to_string(), path], Expect::fields(answer))
}

/// `n` split into parts proportional to `shares`, summing to `n`.
fn split(n: usize, shares: &[f64]) -> Vec<usize> {
    let mut parts: Vec<usize> = shares.iter().map(|s| (n as f64 * s) as usize).collect();
    let assigned: usize = parts.iter().sum();
    parts[0] += n - assigned;
    parts
}

impl Session {
    /// The session of `(workload, seed)`. `scale` divides document
    /// sizes (1 for measurement, 20 for the self-test).
    pub fn new(workload: Workload, seed: u64, scale: usize) -> Session {
        let nodes = |n: usize| scaled(n, scale);
        let mut rng = Rng::new(seed, 1_000);
        let mut preload = Vec::new();
        let mut streams: Vec<Stream> = (0..2)
            .map(|id| Stream {
                workload,
                id,
                scale,
                rng: Rng::new(seed, id as u64),
                docs: Vec::new(),
                live: VecDeque::new(),
                serial: 0,
                turns: [0; 10],
                pools: None,
            })
            .collect();
        let add = |streams: &mut Vec<Stream>,
                   preload: &mut Vec<Op>,
                   owners: &[usize],
                   name: String,
                   model: Model,
                   large: bool| {
            let (xml, _) = model.to_xml(None);
            let doc = Doc { name, model, large, xml_bytes: xml.len() };
            preload.push(put_op(&doc.name, doc.model.family(), xml));
            for &o in owners {
                streams[o].docs.push(doc.clone());
            }
        };
        let schemas = match workload {
            Workload::Ingest => {
                for s in &mut streams {
                    for _ in 0..INGEST_LIVE_PER_STREAM {
                        preload.push(s.ingest_put());
                    }
                }
                Family::ALL.to_vec()
            }
            Workload::PointQuery => {
                for i in 0..POINT_DOCS {
                    let family = if i % 2 == 0 { Family::Flat } else { Family::Orders };
                    let model = Model::generate(family, &mut rng, nodes(POINT_NODES), 32, 0);
                    add(&mut streams, &mut preload, &[0, 1], format!("p{i}"), model, false);
                }
                let mut prng = Rng::new(seed, 2_000);
                let records = |f: Family| match f {
                    Family::Flat => (nodes(POINT_NODES) / 12).max(1),
                    _ => (nodes(POINT_NODES) / 24).max(1),
                };
                let families = [Family::Flat, Family::Orders];
                let pools = Pools {
                    // Rank r of the Zipf draw is always family r % 2 and
                    // template r / 2, so the popular ranks are the same
                    // templates under every seed.
                    paths: (0..POINT_PATH_POOL)
                        .map(|i| {
                            PointPath::draw(
                                &mut prng,
                                families[i % 2],
                                i / 2,
                                records(families[i % 2]),
                            )
                        })
                        .collect(),
                    flwors: (0..POINT_FLWOR_POOL)
                        .map(|i| {
                            PointFlwor::draw(
                                &mut prng,
                                families[i % 2],
                                i / 2,
                                records(families[i % 2]),
                            )
                        })
                        .collect(),
                    path_zipf: Zipf::new(POINT_PATH_POOL),
                    flwor_zipf: Zipf::new(POINT_FLWOR_POOL),
                };
                for s in &mut streams {
                    s.pools = Some(pools.clone());
                }
                families.to_vec()
            }
            Workload::ScanQuery => {
                let families = [Family::Flat, Family::Flat, Family::Deep, Family::Mixed];
                for (i, family) in families.into_iter().enumerate() {
                    let model =
                        Model::generate(family, &mut rng, nodes(SCAN_NODES), SCAN_AUTHOR_POOL, 0);
                    add(&mut streams, &mut preload, &[0, 1], format!("s{i}"), model, false);
                }
                vec![Family::Flat, Family::Deep, Family::Mixed]
            }
            Workload::MixedRw => {
                // Per stream: 2+2 small and 1+1 large, flat + orders.
                for owner in 0..2 {
                    for i in 0..6 {
                        let family = if i % 2 == 0 { Family::Flat } else { Family::Orders };
                        let large = i >= 4;
                        let n = nodes(if large { MIXED_LARGE_NODES } else { MIXED_SMALL_NODES });
                        let model = Model::generate(family, &mut rng, n, 32, MIXED_TRAILERS);
                        let name = format!("{}{owner}-{i}", if large { "l" } else { "s" });
                        add(&mut streams, &mut preload, &[owner], name, model, large);
                    }
                }
                vec![Family::Flat, Family::Orders]
            }
        };
        Session { workload, schemas, preload, streams }
    }

    /// Every stream's documents at this moment: the expected `LIST`
    /// answer and one checksum query per document (the restart check).
    pub fn restart_checks(&self) -> (Expect, Vec<Op>) {
        let mut names: Vec<String> = Vec::new();
        let mut ops = Vec::new();
        for (i, s) in self.streams.iter().enumerate() {
            // On the query workloads both streams hold the same documents.
            if i > 0 && !self.workload.writes() {
                break;
            }
            for d in &s.docs {
                names.push(d.name.clone());
                ops.push(query_op(
                    &d.name,
                    d.model.family().top_query().to_string(),
                    &d.model.top_values(),
                ));
            }
            for d in &s.live {
                names.push(d.name.clone());
                ops.push(Op::new(
                    Class::Query,
                    Opcode::Query,
                    vec![d.name.clone(), d.family.top_query().to_string()],
                    d.top.clone(),
                ));
            }
        }
        // LIST answers schemas then documents, each in name order.
        let mut schemas: Vec<&str> = self.schemas.iter().map(|f| f.schema_name()).collect();
        schemas.sort_unstable();
        names.sort_unstable();
        let list: Vec<String> = schemas
            .iter()
            .map(|s| format!("schema:{s}"))
            .chain(names.iter().map(|n| format!("doc:{n}")))
            .collect();
        (Expect::fields(&list), ops)
    }

    /// An orders document at this workload's (largest) size, if the
    /// workload stores any — the traced run's facet-check probe.
    pub fn orders_sample(&self) -> Option<Orders> {
        let stored = self.streams[0].docs.iter().filter_map(|d| match &d.model {
            Model::Orders(m) => Some(m),
            _ => None,
        });
        match self.workload {
            Workload::Ingest => {
                let nodes = scaled(INGEST_NODES, self.streams[0].scale);
                Some(Orders::generate(&mut Rng::new(0, 3_000), nodes, 0))
            }
            _ => stored.max_by_key(|m| m.orders.len()).cloned(),
        }
    }

    /// Bytes of XML the currently stored documents were ingested as.
    pub fn user_bytes(&self) -> usize {
        let per_stream = |s: &Stream| {
            s.docs.iter().map(|d| d.xml_bytes).sum::<usize>()
                + s.live.iter().map(|d| d.xml_bytes).sum::<usize>()
        };
        if self.workload.writes() {
            self.streams.iter().map(per_stream).sum()
        } else {
            per_stream(&self.streams[0])
        }
    }
}

impl Stream {
    /// The next `n` ops of this connection.
    pub fn round(&mut self, n: usize) -> Vec<Op> {
        match self.workload {
            Workload::Ingest => self.ingest_round(n),
            Workload::PointQuery => self.point_round(n),
            Workload::ScanQuery => self.scan_round(n),
            Workload::MixedRw => self.mixed_round(n),
        }
    }

    // ------------------------------------------------------------ ingest

    fn ingest_model(&mut self) -> Model {
        let family = Family::ALL[self.serial % Family::ALL.len()];
        self.serial += 1;
        Model::generate(family, &mut self.rng, scaled(INGEST_NODES, self.scale), 32, 0)
    }

    fn ingest_put(&mut self) -> Op {
        let model = self.ingest_model();
        let name = format!("d{}-{}", self.id, self.serial);
        let (xml, _) = model.to_xml(None);
        self.live.push_back(LiveDoc {
            name: name.clone(),
            family: model.family(),
            xml_bytes: xml.len(),
            top: Expect::fields(&model.top_values()),
        });
        put_op(&name, model.family(), xml)
    }

    /// 15 % `VALIDATE` (every third seeded with one §6.2 violation); the
    /// rest alternates `PUT_DOC` with `DEL_DOC` of the oldest document,
    /// which is the only mix that holds the live set steady.
    fn ingest_round(&mut self, n: usize) -> Vec<Op> {
        let validates = split(n, &[0.85, 0.15])[1];
        let mut kinds: Vec<bool> = (0..n).map(|i| i < validates).collect();
        self.rng.shuffle(&mut kinds);
        let mut seen_validates = 0;
        kinds
            .into_iter()
            .map(|is_validate| {
                if is_validate {
                    seen_validates += 1;
                    let model = self.ingest_model();
                    let violate = (seen_validates % 3 == 0).then(|| self.rng.below(1 << 20));
                    let (xml, rule) = model.to_xml(violate);
                    let expect = match rule {
                        Some(rule) => Expect {
                            status: Status::Ok,
                            answer: crate::check::Answer::Violation(rule),
                        },
                        None => Expect::empty(),
                    };
                    let fields = vec![model.family().schema_name().to_string(), xml];
                    Op::new(Class::Validate, Opcode::Validate, fields, expect)
                } else if self.live.len() > INGEST_LIVE_PER_STREAM {
                    let oldest = self.live.pop_front().expect("live set is non-empty");
                    Op::new(Class::DelDoc, Opcode::DelDoc, vec![oldest.name], Expect::empty())
                } else {
                    self.ingest_put()
                }
            })
            .collect()
    }

    // ------------------------------------------------------- point_query

    /// The next position of round-robin choice `which`, below `of`.
    fn turn(&mut self, which: usize, of: usize) -> usize {
        self.turns[which] += 1;
        self.turns[which] % of
    }

    /// The documents of `family`, taken in turn.
    fn doc_of(&mut self, family: Family) -> usize {
        let candidates: Vec<usize> =
            (0..self.docs.len()).filter(|&i| self.docs[i].model.family() == family).collect();
        candidates[self.turn(family as usize, candidates.len())]
    }

    /// 80 % `QUERY`, 20 % `XQUERY`, both drawn Zipf(1) from the pools.
    fn point_round(&mut self, n: usize) -> Vec<Op> {
        let flwors = split(n, &[0.8, 0.2])[1];
        let mut kinds: Vec<bool> = (0..n).map(|i| i < flwors).collect();
        self.rng.shuffle(&mut kinds);
        let pools = self.pools.clone().expect("point_query has pools");
        kinds
            .into_iter()
            .map(|is_flwor| {
                if is_flwor {
                    let q = &pools.flwors[pools.flwor_zipf.draw(&mut self.rng)];
                    let d = self.doc_of(q.family());
                    let doc = &self.docs[d];
                    Op::new(
                        Class::Xquery,
                        Opcode::Xquery,
                        vec![doc.name.clone(), q.text()],
                        Expect::fields(&[q.answer(&doc.model)]),
                    )
                } else {
                    let q = &pools.paths[pools.path_zipf.draw(&mut self.rng)];
                    let d = self.doc_of(q.family());
                    let doc = &self.docs[d];
                    query_op(&doc.name, q.text(), &q.answer(&doc.model))
                }
            })
            .collect()
    }

    // -------------------------------------------------------- scan_query

    /// Descendant scans (30 %), value predicates (20 %), multi-step
    /// descendant paths (30 %), and FLWOR with `where` + `order by`
    /// (20 %). Not equal shares: the two descendant kinds cost tens of
    /// milliseconds and the other two about one, so with half of each
    /// the median would sit on the boundary between them and jump with
    /// the seed; at 60 % both p50 and p90 lie inside the dear kinds.
    fn scan_round(&mut self, n: usize) -> Vec<Op> {
        let parts = split(n, &[0.30, 0.20, 0.30, 0.20]);
        let mut kinds: Vec<usize> =
            parts.iter().enumerate().flat_map(|(k, &c)| std::iter::repeat_n(k, c)).collect();
        self.rng.shuffle(&mut kinds);
        kinds.into_iter().map(|k| self.scan_op(k)).collect()
    }

    fn scan_op(&mut self, kind: usize) -> Op {
        use crate::gen::{AUTHORS, PUBLISHERS};
        let choice = self.turn(TURN_KIND + kind, 12);
        let d = self.doc_of(match (kind, choice % 4) {
            (0, 2) | (2, _) => Family::Deep,
            (0, 3) => Family::Mixed,
            _ => Family::Flat,
        });
        let draw = self.rng.below(1 << 16);
        let doc = &self.docs[d];
        let titles = |keep: &dyn Fn(&crate::gen::Book) -> bool| -> Vec<String> {
            let Model::Flat(m) = &doc.model else { unreachable!("flat kinds ask flat documents") };
            m.books.iter().filter(|b| keep(b)).map(|b| b.title.clone()).collect()
        };
        match (kind, &doc.model) {
            // `//name` descendant scans over each family.
            (0, Model::Flat(_)) if choice.is_multiple_of(4) => {
                query_op(&doc.name, "//title".into(), &titles(&|_| true))
            }
            (0, Model::Flat(m)) => {
                let authors: Vec<String> =
                    m.books.iter().flat_map(|b| b.authors.iter().map(|a| a.to_string())).collect();
                query_op(&doc.name, "//author".into(), &authors)
            }
            (0, Model::Deep(m)) => query_op(&doc.name, "//heading".into(), &m.headings(1)),
            (0, Model::Mixed(m)) => query_op(&doc.name, "//b".into(), &m.bolds()),
            // Value predicates (the E5 1.2x row).
            (1, _) if choice.is_multiple_of(2) => {
                let a = AUTHORS[draw % SCAN_AUTHOR_POOL];
                let path = format!("/library/book[author=\"{a}\"]/title");
                query_op(&doc.name, path, &titles(&|b| b.authors.contains(&a)))
            }
            (1, _) => {
                let p = PUBLISHERS[draw % PUBLISHERS.len()];
                let path = format!("/library/book[publisher=\"{p}\"]/title");
                query_op(&doc.name, path, &titles(&|b| b.publisher == p))
            }
            // Multi-step descendant paths on the deep document. The
            // server answers these grouped by DataGuide path rather
            // than in document order, so they are checked as multisets.
            (2, Model::Deep(m)) => {
                let (path, answer) = match choice % 3 {
                    0 => ("//section/section/heading", m.headings(2)),
                    1 => ("//section[para]/heading", m.headings_with_para()),
                    _ => ("/doc/section//para", m.paras()),
                };
                let fields = vec![doc.name.clone(), path.to_string()];
                Op::new(Class::Query, Opcode::Query, fields, Expect::multiset(&answer))
            }
            // FLWOR with where + order by: numeric filter, stable sort.
            (_, Model::Flat(m)) => {
                let after = 1_990 + draw % 16;
                let descending = choice % 2 == 1;
                let mut hits: Vec<&crate::gen::Book> = m
                    .books
                    .iter()
                    .filter(|b| b.year.parse::<usize>().is_ok_and(|y| y > after))
                    .collect();
                hits.sort_by_key(|b| {
                    let y = b.year.parse::<i64>().unwrap_or(0);
                    if descending {
                        -y
                    } else {
                        y
                    }
                });
                let answer: String = hits.iter().map(|b| format!("<t>{}</t>", b.title)).collect();
                let query = format!(
                    "for $b in /library/book where $b/year > \"{after}\" order by $b/year{} return <t>{{$b/title/text()}}</t>",
                    if descending { " descending" } else { "" }
                );
                let fields = vec![doc.name.clone(), query];
                Op::new(Class::Xquery, Opcode::Xquery, fields, Expect::fields(&[answer]))
            }
            _ => unreachable!("each scan kind asks its own family"),
        }
    }

    // ---------------------------------------------------------- mixed_rw

    /// 25 % point `QUERY`; 70 % typed `UPDATE` in equal thirds of
    /// insert-into (Accept), delete of the oldest trailer (Accept) and
    /// replace-value on a nillable facet-typed leaf (Recheck); 5 %
    /// `UPDATE` the analysis must reject. Updates alternate small and
    /// large documents and, within a size, take the documents in turn.
    ///
    /// Why 25 and not 40 % reads: sorted by latency the mix is reads and
    /// rejects, then the few small-document updates that found the
    /// writer lock free, then the many that waited out the other
    /// connection's update (a smooth 1-11 ms), then large documents.
    /// With 40 % reads the median sits on the cliff between the second
    /// and third group and jumps by a factor of two from run to run;
    /// with 25 % it sits well inside the third, where it also measures
    /// what this workload is about - the cost of a large update, as the
    /// other connection feels it.
    fn mixed_round(&mut self, n: usize) -> Vec<Op> {
        let parts = split(n, &[0.25, 0.05, 0.70 / 3.0, 0.70 / 3.0, 0.70 / 3.0]);
        let mut kinds: Vec<usize> =
            parts.iter().enumerate().flat_map(|(k, &c)| std::iter::repeat_n(k, c)).collect();
        self.rng.shuffle(&mut kinds);
        kinds
            .into_iter()
            .map(|k| {
                if k == 0 {
                    let d = self.turn(TURN_KIND, self.docs.len());
                    return self.mixed_query(d);
                }
                let large = self.turn(TURN_KIND + 1, 2) == 1;
                let sized: Vec<usize> =
                    (0..self.docs.len()).filter(|&i| self.docs[i].large == large).collect();
                let d = sized[self.turn(TURN_KIND + if large { 2 } else { 3 }, sized.len())];
                self.mixed_update(d, k)
            })
            .collect()
    }

    fn mixed_query(&mut self, d: usize) -> Op {
        let pick = self.turn(TURN_KIND + 4, 3);
        let draw = self.rng.below(1 << 16);
        let doc = &self.docs[d];
        let (path, answer): (String, Vec<String>) = match &doc.model {
            Model::Flat(m) => {
                let k = 1 + draw % m.books.len();
                match pick {
                    0 => (format!("/library/book[{k}]/year"), vec![m.books[k - 1].year.clone()]),
                    1 => (format!("/library/book[{k}]/title"), vec![m.books[k - 1].title.clone()]),
                    _ => (
                        "/library/tag[last()]".into(),
                        m.tags.back().cloned().into_iter().collect(),
                    ),
                }
            }
            Model::Orders(m) => {
                let k = 1 + draw % m.orders.len();
                match pick {
                    0 => {
                        (format!("/orders/order[{k}]/status"), vec![m.orders[k - 1].status.into()])
                    }
                    1 => (format!("/orders/order[{k}]/total"), vec![m.orders[k - 1].total.clone()]),
                    _ => ("/orders/note[1]".into(), m.notes.front().cloned().into_iter().collect()),
                }
            }
            _ => unreachable!("mixed_rw holds flat and orders documents"),
        };
        query_op(&doc.name, path, &answer)
    }

    fn mixed_update(&mut self, d: usize, kind: usize) -> Op {
        self.serial += 1;
        let (serial, id) = (self.serial, self.id);
        let draw = self.rng.below(1 << 16);
        let year = (1950 + self.rng.below(70)).to_string();
        let status = self.rng.pick(&STATUSES);
        let doc = &mut self.docs[d];
        let class = if doc.large { Class::UpdateLarge } else { Class::UpdateSmall };
        let done = |verdict: &str, revalidated: usize| {
            Expect::fields(&[verdict.to_string(), "1".to_string(), revalidated.to_string()])
        };
        // The trailer list (tags or notes) with its element and parent,
        // and the record count the replace-value target is drawn below.
        let (trailers, elem, parent, records) = match &mut doc.model {
            Model::Flat(Library { tags, books }) => (tags, "tag", "/library", books.len()),
            Model::Orders(Orders { notes, orders }) => (notes, "note", "/orders", orders.len()),
            _ => unreachable!("mixed_rw holds flat and orders documents"),
        };
        let k = 1 + draw % records;
        // A delete with nothing to delete becomes an insert.
        let kind = if kind == 3 && trailers.is_empty() { 2 } else { kind };
        let (class, text, expect) = match kind {
            1 => {
                // Outside the lexical space of xs:gYear / the enumeration.
                let text = match elem {
                    "tag" => {
                        format!("replace value of node /library/book[{k}]/year with \"next year\"")
                    }
                    _ => format!("replace value of node /orders/order[{k}]/status with \"lost\""),
                };
                (Class::UpdateReject, text, Expect::status(Status::UpdateStaticallyInvalid))
            }
            2 => {
                let value = format!("{elem} {id} {serial}");
                trailers.push_back(value.clone());
                (
                    class,
                    format!("insert node <{elem}>{value}</{elem}> into {parent}"),
                    done("accept", 0),
                )
            }
            3 => {
                trailers.pop_front();
                (class, format!("delete node {parent}/{elem}[1]"), done("accept", 0))
            }
            _ => {
                let text = match &mut doc.model {
                    Model::Flat(m) => {
                        m.books[k - 1].year = year.clone();
                        format!("replace value of node /library/book[{k}]/year with \"{year}\"")
                    }
                    Model::Orders(m) => {
                        m.orders[k - 1].status = status;
                        format!("replace value of node /orders/order[{k}]/status with \"{status}\"")
                    }
                    _ => unreachable!("mixed_rw holds flat and orders documents"),
                };
                // Recheck revalidates the one element whose value changed.
                (class, text, done("recheck", 1))
            }
        };
        Op::new(class, Opcode::Update, vec![doc.name.clone(), text], expect)
    }
}
