//! Seeded input generation: the query pools each workload draws from,
//! the substrate edits churn applies, and the oracle that checks
//! generated leaves against a scan of the view store.
//!
//! Everything here derives from the run's `--seed` through [`Rng`], and
//! the vocabulary is read from the ingested dataspace itself (which the
//! same seed generated), so one seed always yields the same inputs.

use std::collections::{BTreeSet, HashMap};

use idm_core::prelude::{Timestamp, Value, Vid, ViewStore};
use idm_index::name::NamePattern;
use idm_index::tuple::CompareOp;
use idm_query::exec::resolve_attr;
use idm_query::ResultRows;

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The Table 4 queries, verbatim from the paper, with the index of the
/// planted count in [`idm_dataset::ExpectedResults`] order.
pub const TABLE4: [(&str, &str); 8] = [
    ("Q1", r#""database""#),
    ("Q2", r#""database tuning""#),
    ("Q3", r#"[size > 420000 and lastmodified < @12.06.2005]"#),
    ("Q4", r#"//papers//*Vision/*["Franklin"]"#),
    ("Q5", r#"//VLDB200?//?onclusion*/*["systems"]"#),
    (
        "Q6",
        r#"union( //VLDB2005//*["documents"], //VLDB2006//*["documents"])"#,
    ),
    (
        "Q7",
        r#"join( //VLDB2006//*[class="texref"] as A, //VLDB2006//*[class="environment"]//figure* as B, A.name=B.tuple.label)"#,
    ),
    (
        "Q8",
        r#"join ( //*[class="emailmessage"]//*.tex as A, //papers//*.tex as B, A.name = B.name )"#,
    ),
];

/// The standing-query shapes of the `livequery` bench bin: a relate
/// expansion, a keyword, a phrase and a predicate scan.
pub const STANDING: [&str; 4] = [
    r#"//papers//*["Franklin"]"#,
    r#""database""#,
    r#""database tuning""#,
    r#"[size > 420000]"#,
];

/// How a query's result is checked.
#[derive(Debug, Clone)]
pub enum Check {
    /// Not checked by the benchmark.
    None,
    /// Row count must equal this (verbatim Table 4: the planted count;
    /// ingest: the count the first recovered dataspace returned).
    Count(usize),
    /// Rows must equal this sorted vid list (from the store scan).
    Rows(Vec<Vid>),
}

impl Check {
    pub fn holds(&self, rows: &ResultRows) -> bool {
        match self {
            Check::None => true,
            Check::Count(n) => rows.len() == *n,
            Check::Rows(expected) => match rows {
                ResultRows::Views(v) => {
                    let mut got = v.clone();
                    got.sort();
                    got == *expected
                }
                ResultRows::Pairs(_) => false,
            },
        }
    }
}

/// One query of a pool.
#[derive(Debug, Clone)]
pub struct Query {
    pub iql: String,
    pub check: Check,
}

/// The shapes of generated lookup queries.
#[derive(Clone, Copy)]
enum Lookup {
    Keyword,
    Phrase,
    Size,
    SizeAndDate,
    Class,
    ExactName,
    ExactPath,
}

/// The lookup mix, one shape per pool slot in turn. Attribute
/// comparisons — the planner-heavy Q3 shapes — fill half the slots, so
/// the median query falls among them rather than on the edge between
/// the microsecond keyword and name lookups and the slower shapes.
const LOOKUP_ROTATION: [Lookup; 12] = [
    Lookup::Size,
    Lookup::Keyword,
    Lookup::SizeAndDate,
    Lookup::Size,
    Lookup::ExactName,
    Lookup::Class,
    Lookup::Size,
    Lookup::Keyword,
    Lookup::SizeAndDate,
    Lookup::Size,
    Lookup::ExactPath,
    Lookup::Phrase,
];

/// What a generated query's single leaf kind asks of the oracle.
enum Oracle {
    Name(NamePattern),
    Attrs(Vec<(String, CompareOp, Value)>),
}

/// Words, names and attribute values read from the ingested dataspace,
/// plus the per-view data the oracle scans.
pub struct Vocab {
    words: Vec<String>,
    phrases: Vec<String>,
    names: Vec<String>,
    folders: Vec<String>,
    exts: Vec<String>,
    classes: Vec<String>,
    sizes: Vec<i64>,
    dates: Vec<Timestamp>,
    by_name: HashMap<String, Vec<Vid>>,
    tuples: Vec<(Vid, Option<Value>, Option<Value>)>,
}

const SIZE: &str = "size";
const LASTMODIFIED: &str = "lastmodified";

/// Whether `name` can be written as a path step verbatim.
fn is_step_name(name: &str) -> bool {
    const KEYWORDS: [&str; 9] = [
        "and",
        "or",
        "not",
        "union",
        "join",
        "as",
        "yesterday",
        "today",
        "now",
    ];
    name.len() >= 3
        && name.len() <= 40
        && name.starts_with(|c: char| c.is_ascii_alphabetic())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && !KEYWORDS.contains(&name.to_ascii_lowercase().as_str())
}

fn date_literal(t: Timestamp) -> String {
    let (y, m, d) = t.to_ymd();
    format!("@{d:02}.{m:02}.{y}")
}

fn op_text(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

/// A suffix of `name` of `k` characters (or the whole name).
fn tail(name: &str, k: usize) -> &str {
    let start = name
        .char_indices()
        .rev()
        .nth(k.saturating_sub(1))
        .map_or(0, |(i, _)| i);
    &name[start..]
}

impl Vocab {
    /// One scan of the store: names, classes and the `size` /
    /// `last modified time` values of every view, and the content terms
    /// of a seeded sample of text views.
    pub fn scan(store: &ViewStore, rng: &mut Rng) -> Vocab {
        let mut vocab = Vocab {
            words: Vec::new(),
            phrases: Vec::new(),
            names: Vec::new(),
            folders: Vec::new(),
            exts: Vec::new(),
            classes: Vec::new(),
            sizes: Vec::new(),
            dates: Vec::new(),
            by_name: HashMap::new(),
            tuples: Vec::new(),
        };
        let mut vids = store.vids();
        vids.sort();
        let lastmodified = resolve_attr(LASTMODIFIED);
        let mut classes = BTreeSet::new();
        let mut exts = BTreeSet::new();
        let mut texty = Vec::new();
        for &vid in &vids {
            let name = store.name(vid).ok().flatten().unwrap_or_default();
            let class = store
                .class(vid)
                .ok()
                .flatten()
                .map(|c| store.classes().name(c));
            let tuple = store.tuple(vid).ok().flatten();
            let size = tuple.as_ref().and_then(|t| t.get(SIZE).cloned());
            let modified = tuple.as_ref().and_then(|t| t.get(&lastmodified).cloned());
            if let Some(Value::Integer(n)) = size {
                vocab.sizes.push(n);
            }
            if let Some(Value::Date(d)) = modified {
                vocab.dates.push(d);
            }
            vocab.tuples.push((vid, size, modified));
            if let Some(class) = &class {
                classes.insert(class.clone());
            }
            if !name.is_empty() {
                if is_step_name(&name) {
                    match class.as_deref() {
                        Some("folder") | Some("mailfolder") => vocab.folders.push(name.clone()),
                        _ => vocab.names.push(name.clone()),
                    }
                    if let Some((_, ext)) = name.rsplit_once('.') {
                        if (2..=4).contains(&ext.len())
                            && ext.chars().all(|c| c.is_ascii_alphanumeric())
                        {
                            exts.insert(ext.to_owned());
                        }
                    }
                }
                if matches!(
                    class.as_deref(),
                    Some("file") | Some("latexfile") | Some("xmlfile")
                ) {
                    texty.push(vid);
                }
                vocab.by_name.entry(name).or_default().push(vid);
            }
        }
        vocab.classes = classes.into_iter().collect();
        vocab.exts = exts.into_iter().collect();

        // Content terms from a seeded sample of file views.
        for _ in 0..texty.len().min(200) {
            let vid = *rng.pick(&texty);
            let Ok(content) = store.content(vid) else {
                continue;
            };
            if content.is_empty() || !content.is_finite() {
                continue;
            }
            let Ok(bytes) = content.bytes() else { continue };
            if bytes.len() > 1 << 16 || bytes.iter().take(512).any(|&b| b == 0) {
                continue;
            }
            let terms = idm_index::tokenizer::terms(&String::from_utf8_lossy(&bytes));
            for pair in terms.windows(2).step_by(7) {
                if pair[0].len() >= 4 && pair[0].chars().all(|c| c.is_ascii_alphabetic()) {
                    vocab.words.push(pair[0].clone());
                    if pair[1].chars().all(|c| c.is_ascii_alphanumeric()) {
                        vocab.phrases.push(format!("{} {}", pair[0], pair[1]));
                    }
                }
            }
        }
        assert!(
            !vocab.words.is_empty()
                && !vocab.phrases.is_empty()
                && !vocab.names.is_empty()
                && !vocab.folders.is_empty()
                && !vocab.sizes.is_empty()
                && !vocab.dates.is_empty(),
            "the generated dataspace yields a query vocabulary"
        );
        vocab
    }

    pub fn word(&self, rng: &mut Rng) -> String {
        rng.pick(&self.words).clone()
    }

    /// Rows the oracle expects for a generated leaf, sorted.
    fn expect(&self, oracle: &Oracle) -> Vec<Vid> {
        let mut out: Vec<Vid> = match oracle {
            Oracle::Name(pattern) => self
                .by_name
                .iter()
                .filter(|(name, _)| pattern.matches(name))
                .flat_map(|(_, vids)| vids.iter().copied())
                .collect(),
            Oracle::Attrs(conds) => self
                .tuples
                .iter()
                .filter(|(_, size, modified)| {
                    conds.iter().all(|(attr, op, constant)| {
                        let value = if attr == SIZE { size } else { modified };
                        value
                            .as_ref()
                            .and_then(|v| v.compare(constant))
                            .is_some_and(|ord| op.accepts(ord))
                    })
                })
                .map(|(vid, _, _)| *vid)
                .collect(),
        };
        out.sort();
        out.dedup();
        out
    }

    fn attr_cond(&self, rng: &mut Rng, attr: &str) -> (String, CompareOp, Value, String) {
        const OPS: [CompareOp; 4] = [CompareOp::Gt, CompareOp::Lt, CompareOp::Ge, CompareOp::Le];
        let op = *rng.pick(&OPS);
        if attr == SIZE {
            let n = *rng.pick(&self.sizes);
            let text = format!("{SIZE} {} {n}", op_text(op));
            (SIZE.to_owned(), op, Value::Integer(n), text)
        } else {
            let d = *rng.pick(&self.dates);
            // Literals carry day precision.
            let (y, m, day) = d.to_ymd();
            let d = Timestamp::from_ymd(y, m, day).expect("a valid calendar date");
            let text = format!("{LASTMODIFIED} {} {}", op_text(op), date_literal(d));
            (LASTMODIFIED.to_owned(), op, Value::Date(d), text)
        }
    }

    /// One generated index-bound query: the lookup shape at `slot` of
    /// the rotation.
    fn lookup_query(&self, rng: &mut Rng, slot: usize) -> (String, Option<Oracle>) {
        match LOOKUP_ROTATION[slot % LOOKUP_ROTATION.len()] {
            Lookup::Keyword => (format!("\"{}\"", self.word(rng)), None),
            Lookup::Phrase => (format!("\"{}\"", rng.pick(&self.phrases)), None),
            Lookup::Size => {
                let (attr, op, value, text) = self.attr_cond(rng, SIZE);
                (
                    format!("[{text}]"),
                    Some(Oracle::Attrs(vec![(attr, op, value)])),
                )
            }
            Lookup::SizeAndDate => {
                // Q3 shape: a size and a last-modified comparison.
                let (a1, o1, v1, t1) = self.attr_cond(rng, SIZE);
                let (a2, o2, v2, t2) = self.attr_cond(rng, LASTMODIFIED);
                (
                    format!("[{t1} and {t2}]"),
                    Some(Oracle::Attrs(vec![(a1, o1, v1), (a2, o2, v2)])),
                )
            }
            Lookup::Class => {
                let class = rng.pick(&self.classes).clone();
                (
                    format!("[class=\"{class}\" and \"{}\"]", self.word(rng)),
                    None,
                )
            }
            Lookup::ExactName => {
                let name = rng.pick(&self.names).clone();
                let oracle = Oracle::Name(NamePattern::new(name.clone()));
                (format!("//{name}"), Some(oracle))
            }
            Lookup::ExactPath => {
                // Q6/Q7 shape: exact-name context, then a keyword or an
                // exact file name below it.
                let folder = rng.pick(&self.folders);
                if rng.below(2) == 0 {
                    (format!("//{folder}//*[\"{}\"]", self.word(rng)), None)
                } else {
                    (format!("//{folder}//{}", rng.pick(&self.names)), None)
                }
            }
        }
    }

    fn suffix_pattern(&self, rng: &mut Rng) -> String {
        let name = rng.pick(&self.names);
        format!("*{}", tail(name, 3 + rng.below(3)))
    }

    fn infix_pattern(&self, rng: &mut Rng) -> String {
        let name = rng.pick(&self.names);
        let chars: Vec<char> = name.chars().collect();
        let end = (1 + 2 + rng.below(3)).min(chars.len());
        format!("?{}*", chars[1..end].iter().collect::<String>())
    }

    fn ext_pattern(&self, rng: &mut Rng) -> String {
        match self.exts.is_empty() {
            true => "*.tex".to_owned(),
            false => format!("*.{}", rng.pick(&self.exts)),
        }
    }

    /// One generated path query of the `navigate` shapes.
    fn navigate_query(&self, rng: &mut Rng, kind: usize) -> (String, Option<Oracle>) {
        match kind % 8 {
            0 => {
                let p = self.suffix_pattern(rng);
                (format!("//{p}"), Some(Oracle::Name(NamePattern::new(p))))
            }
            1 => {
                let p = self.infix_pattern(rng);
                (format!("//{p}"), Some(Oracle::Name(NamePattern::new(p))))
            }
            2 => {
                let p = self.ext_pattern(rng);
                (format!("//{p}"), Some(Oracle::Name(NamePattern::new(p))))
            }
            3 => (
                format!("//{}//{}", rng.pick(&self.folders), self.ext_pattern(rng)),
                None,
            ),
            4 => {
                // Q4 shape.
                let folder = rng.pick(&self.folders).clone();
                let suffix = self.suffix_pattern(rng);
                (
                    format!("//{folder}//{suffix}/*[\"{}\"]", self.word(rng)),
                    None,
                )
            }
            5 => {
                // Q5 shape: a `?` inside the context name.
                let folder: Vec<char> = rng.pick(&self.folders).chars().collect();
                let hole = 1 + rng.below(folder.len() - 1);
                let context: String = folder
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| if i == hole { '?' } else { c })
                    .collect();
                let infix = self.infix_pattern(rng);
                (
                    format!("//{context}//{infix}/*[\"{}\"]", self.word(rng)),
                    None,
                )
            }
            6 => {
                // Q8 shape: a name join of two descendant sets.
                let ext = self.ext_pattern(rng);
                (
                    format!(
                        "join( //{}//{ext} as A, //{}//{ext} as B, A.name = B.name )",
                        rng.pick(&self.folders),
                        rng.pick(&self.folders)
                    ),
                    None,
                )
            }
            _ => (
                format!("//{}//{}", rng.pick(&self.folders), self.infix_pattern(rng)),
                None,
            ),
        }
    }

    fn pool(
        &self,
        rng: &mut Rng,
        len: usize,
        generate: impl Fn(&Self, &mut Rng, usize) -> (String, Option<Oracle>),
    ) -> Vec<Query> {
        let mut expected: HashMap<String, Vec<Vid>> = HashMap::new();
        (0..len)
            .map(|kind| {
                let (iql, oracle) = generate(self, rng, kind);
                let check = match oracle {
                    Some(oracle) => Check::Rows(
                        expected
                            .entry(iql.clone())
                            .or_insert_with(|| self.expect(&oracle))
                            .clone(),
                    ),
                    None => Check::None,
                };
                Query { iql, check }
            })
            .collect()
    }

    /// `len` generated lookup queries, shapes in [`LOOKUP_ROTATION`] order.
    pub fn lookup_pool(&self, rng: &mut Rng, len: usize) -> Vec<Query> {
        self.pool(rng, len, Vocab::lookup_query)
    }

    /// `len` generated navigate queries, kinds in a fixed rotation.
    pub fn navigate_pool(&self, rng: &mut Rng, len: usize) -> Vec<Query> {
        self.pool(rng, len, Vocab::navigate_query)
    }
}

/// The verbatim Table 4 queries `ids` (1-based), checked against the
/// planted counts.
pub fn table4(ids: &[usize], expected: &idm_dataset::ExpectedResults) -> Vec<Query> {
    let counts = [
        expected.q1,
        expected.q2,
        expected.q3,
        expected.q4,
        expected.q5,
        expected.q6,
        expected.q7,
        expected.q8,
    ];
    ids.iter()
        .map(|&q| Query {
            iql: TABLE4[q - 1].1.to_owned(),
            check: Check::Count(counts[q - 1]),
        })
        .collect()
}

/// What a substrate edit does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    Create,
    Rewrite,
    Delete,
}

/// The file types churn writes: each goes through a different converter.
#[derive(Debug, Clone, Copy)]
pub enum FileKind {
    Xml,
    Latex,
    Text,
}

impl FileKind {
    pub fn ext(self) -> &'static str {
        match self {
            FileKind::Xml => "xml",
            FileKind::Latex => "tex",
            FileKind::Text => "txt",
        }
    }

    /// Seeded file content of this kind over the dataspace vocabulary.
    pub fn content(self, vocab: &Vocab, rng: &mut Rng) -> String {
        let mut words = |n: usize| -> String {
            (0..n)
                .map(|_| vocab.word(rng))
                .collect::<Vec<_>>()
                .join(" ")
        };
        match self {
            FileKind::Xml => {
                let mut out = String::from("<?xml version=\"1.0\"?><notes>");
                for i in 0..4 {
                    out.push_str(&format!("<note id=\"{i}\"><title>{}</title>{}</note>", words(2), words(8)));
                }
                out.push_str("</notes>");
                out
            }
            FileKind::Latex => format!(
                "\\documentclass{{article}}\n\\title{{{}}}\n\\begin{{document}}\n\\section{{{}}}\n{}\n\\section{{{}}}\n{}\n\\end{{document}}\n",
                words(3),
                words(2),
                words(40),
                words(2),
                words(40)
            ),
            FileKind::Text => words(60),
        }
    }
}

/// The fixed rotation of churn edits: creates and rewrites dominate,
/// deletes keep the live file population roughly level.
pub const EDIT_ROTATION: [EditKind; 5] = [
    EditKind::Create,
    EditKind::Rewrite,
    EditKind::Delete,
    EditKind::Rewrite,
    EditKind::Create,
];

pub const FILE_ROTATION: [FileKind; 3] = [FileKind::Text, FileKind::Latex, FileKind::Xml];
