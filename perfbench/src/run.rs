//! The four workloads and the phases they share.
//!
//! A run first brings its *home* dataspace up [`SETUP_REPS`] times
//! (generate → `index_all_bulk` into a fresh directory → `checkpoint`
//! → drop → `open_with`) and keeps the last one; `setup_s` is the
//! median bring-up. It then measures in rounds until `--seconds` have
//! passed and every percentile has enough samples: each round runs the
//! workload's foreground block on the home dataspace (reads for lookup
//! and navigate, edits with cached reads for churn) and then brings one
//! more durable dataspace up beside it, which feeds the ingest,
//! checkpoint and open metrics. On lookup, navigate and ingest the first
//! of these side dataspaces stays as the [`Editor`] and takes a block of
//! the churn edit rotation every round for the sync metrics, so the home
//! dataspace of the read workloads is never written. Spreading every
//! metric's samples over the whole run keeps the host's slow speed drift
//! out of any single metric.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idm_core::durability::{DurabilityManager, DurabilityOptions, SyncPolicy, WalStats};
use idm_core::prelude::{Timestamp, Vid};
use idm_dataset::{generate, DatasetConfig, GeneratedDataset};
use idm_index::tuple::CompareOp;
use idm_query::exec::resolve_attr;
use idm_query::{AccessKind, PlanNode, PlanOp, QueryResult, ResultRows};
use idm_system::{
    BulkIngestOptions, FsPlugin, ImapPlugin, LiveQuery, Pdsms, QueryRequest, SynchronizationManager,
};
use idm_vfs::{NodeId, VirtualFs};

use crate::gen::{
    self, Check, EditKind, FileKind, Query, Rng, Vocab, Zipf, EDIT_ROTATION, FILE_ROTATION,
    STANDING,
};
use crate::stats::{Samples, P99_MIN_SAMPLES};
use crate::trace::Tracer;

/// The flush policy of every durable dataspace the benchmark opens.
pub const SYNC_POLICY: SyncPolicy = SyncPolicy::Fsync;
/// Bring-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Rounds per run, at least.
const MIN_ROUNDS: usize = 4;
/// Wall time of one foreground block (lookup, navigate, churn).
const FOREGROUND_BLOCK: Duration = Duration::from_millis(2000);
/// Edits per round on lookup and navigate (ingest: half).
const EDITS_PER_ROUND: usize = 250;
/// Generated lookup queries read from each recovered side dataspace of
/// the ingest workload, besides Table 4 (whose Q4, Q5 and Q8 navigate).
const QUERIES_PER_CYCLE: usize = 152;
/// Ingest rotates its rounds over this many disjoint slices of
/// generated queries, so a run reads 4× as many distinct queries.
const INGEST_SLICES: usize = 4;
/// Standing subscriptions of the churn workload.
const SUBSCRIPTIONS: usize = 32;
/// Cached reads per churn edit.
const READS_PER_EDIT: usize = 4;
/// Churn's read pool: 4× the 256-entry result cache.
const CHURN_POOL: usize = 1024;
/// Every n-th cached churn read is also checked against an uncached run.
const CHURN_CHECK_EVERY: usize = 16;
/// Operations at the start of every block that run and are checked but
/// not timed: the first touches after a bring-up (cold caches, the first
/// sort of a tuple column) would otherwise set the tail percentiles.
const SETTLE_OPS: usize = 16;
/// A traced run alternates blocks of this many operations with and
/// without spans; the difference is the tracing overhead.
const TRACE_BLOCK: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Navigate,
    Churn,
    Ingest,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "lookup" => Some(Workload::Lookup),
            "navigate" => Some(Workload::Navigate),
            "churn" => Some(Workload::Churn),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Navigate => "navigate",
            Workload::Churn => "churn",
            Workload::Ingest => "ingest",
        }
    }

    /// The dataset scale factor the workload runs at.
    pub fn default_sf(self) -> f64 {
        match self {
            Workload::Ingest => 0.125,
            _ => 0.25,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Lookup => 0x100,
            Workload::Navigate => 0x200,
            Workload::Churn => 0x300,
            Workload::Ingest => 0x400,
        }
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sf: f64,
    pub out_dir: PathBuf,
}

/// A metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Reported with the run's metadata but not gated: sync p99, whose
    /// run-to-run spread on a shared host exceeds any usable bound.
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sample counts behind each reported statistic.
    pub samples: Vec<(&'static str, usize)>,
    pub views: usize,
    /// The spans of a traced run (empty when untraced).
    pub tracer: Tracer,
}

/// Operations attempted and failed (an error or a wrong result).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    fn query(&mut self, query: &Query, result: &idm_core::prelude::Result<QueryResult>) {
        match result {
            Ok(r) => self.record(query.check.holds(&r.rows), || {
                format!("wrong result ({} rows) for {}", r.rows.len(), query.iql)
            }),
            Err(e) => self.record(false, || format!("{} failed: {e}", query.iql)),
        }
    }
}

fn durability() -> DurabilityOptions {
    DurabilityOptions::new(SYNC_POLICY)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A brought-up durable dataspace plus the substrate it was built from.
struct Dataspace {
    dataset: GeneratedDataset,
    plugin: Arc<FsPlugin>,
    system: Pdsms,
}

/// What one bring-up (one ingest cycle) measured.
#[derive(Default, Clone)]
struct Cycle {
    /// Wall time of the bring-up, trace probes excluded.
    total_s: f64,
    views: usize,
    ingest_views_per_s: f64,
    checkpoint_s: f64,
    open_s: f64,
    disk_bytes_per_input_byte: f64,
    wal_group_mean: f64,
    wal_fsyncs_per_1k_views: f64,
    checkpoint_bytes: f64,
    artifact_bytes: f64,
    recover_s: f64,
    index_load_s: f64,
    records_replayed: f64,
    source_access_s: f64,
    conversion_s: f64,
    component_indexing_s: f64,
    catalog_insert_s: f64,
    segments: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Generate → durable bulk ingest → checkpoint → drop → reopen.
fn bring_up(
    sf: f64,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
    op: u64,
    tally: &mut Tally,
) -> (Dataspace, Cycle) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the dataspace directory");
    let start = Instant::now();
    let root = tracer.begin("op.bring_up", op);
    let dataset = tracer.span("dataset.generate", op, || {
        generate(DatasetConfig {
            scale: sf,
            seed,
            ..DatasetConfig::default()
        })
    });
    let plugin = Arc::new(FsPlugin::new(Arc::clone(&dataset.fs), NodeId::ROOT));
    let mut system = Pdsms::new();
    system.register_source(Arc::clone(&plugin) as _);
    system.register_source(Arc::new(ImapPlugin::new(Arc::clone(&dataset.imap))));
    tracer
        .span("system.make_durable_with", op, || {
            system.make_durable_with(dir, durability())
        })
        .expect("make the empty dataspace durable");

    let before = system.store().wal_telemetry().expect("a durable store");
    let t = Instant::now();
    let report = tracer
        .span("system.index_all_bulk", op, || {
            system.index_all_bulk(&BulkIngestOptions::default())
        })
        .expect("bulk ingest");
    let ingest = t.elapsed();
    let after = system.store().wal_telemetry().expect("a durable store");
    tally.record(report.failed.is_empty(), || {
        format!("bulk ingest quarantined sources: {:?}", report.failed)
    });

    let t = Instant::now();
    let checkpoint = tracer
        .span("system.checkpoint", op, || system.checkpoint())
        .expect("checkpoint");
    let checkpoint_s = secs(t.elapsed());
    let disk = dir_bytes(dir);
    let artifact = std::fs::metadata(dir.join("indexes.idm")).map_or(0, |m| m.len());
    drop(system);

    let mut cycle = Cycle::default();
    let mut probes = Duration::ZERO;
    if tracer.enabled() {
        // The two halves of `Pdsms::open_with`, each called directly on
        // the same directory before the system's own open.
        let t = Instant::now();
        let opened = tracer.span("core.DurabilityManager::open_with", op, || {
            DurabilityManager::open_with(dir, durability())
        });
        cycle.recover_s = secs(t.elapsed());
        drop(opened.expect("recover the store"));
        let t = Instant::now();
        let loaded = tracer.span("index.persist::load_with_epoch", op, || {
            idm_index::persist::load_with_epoch(&dir.join("indexes.idm"))
        });
        cycle.index_load_s = secs(t.elapsed());
        drop(loaded.expect("load the index artifact"));
        probes = Duration::from_secs_f64(cycle.recover_s + cycle.index_load_s);
    }

    let t = Instant::now();
    let (system, opened) = tracer
        .span("system.open_with", op, || {
            Pdsms::open_with(dir, durability())
        })
        .expect("reopen the dataspace");
    cycle.open_s = secs(t.elapsed());
    tracer.end(root);
    cycle.total_s = secs(start.elapsed().saturating_sub(probes));

    let net_input: u64 = report.stats.iter().map(|s| s.net_input_bytes).sum();
    cycle.views = report.total_views();
    cycle.ingest_views_per_s = cycle.views as f64 / secs(ingest);
    cycle.checkpoint_s = checkpoint_s;
    cycle.disk_bytes_per_input_byte = disk as f64 / net_input.max(1) as f64;
    wal_ingest(&mut cycle, &before, &after);
    cycle.checkpoint_bytes = checkpoint.bytes as f64;
    cycle.artifact_bytes = artifact as f64;
    cycle.records_replayed = opened.recovery.records_replayed as f64;
    for s in &report.stats {
        cycle.source_access_s += secs(s.data_source_access);
        cycle.conversion_s += secs(s.conversion);
        cycle.component_indexing_s += secs(s.component_indexing);
        cycle.catalog_insert_s += secs(s.catalog_insert);
    }
    cycle.segments = report.throughput.segments as f64;
    tally.record(opened.recovery.views == cycle.views, || {
        format!(
            "reopen recovered {} views of {} ingested",
            opened.recovery.views, cycle.views
        )
    });
    (
        Dataspace {
            dataset,
            plugin,
            system,
        },
        cycle,
    )
}

fn wal_ingest(cycle: &mut Cycle, before: &WalStats, after: &WalStats) {
    let frames = after.frames - before.frames;
    let groups = (after.groups - before.groups).max(1);
    cycle.wal_group_mean = frames as f64 / groups as f64;
    cycle.wal_fsyncs_per_1k_views =
        (after.syncs - before.syncs) as f64 * 1000.0 / cycle.views.max(1) as f64;
}

/// Per-query counters of the traced executions (`ExecStats`).
#[derive(Default)]
struct QueryLayer {
    executions: u64,
    nodes_expanded: u64,
    candidates: u64,
    rows: u64,
    ops: u64,
}

/// Runs one query through `Pdsms::run`, or — when tracing — through its
/// three public stages (`parse`, `QueryProcessor::plan`,
/// `QueryProcessor::execute_plan`) under spans.
fn exec_query(
    system: &Pdsms,
    iql: &str,
    tracer: &mut Tracer,
    op: u64,
    layer: &mut QueryLayer,
) -> (Duration, idm_core::prelude::Result<QueryResult>) {
    if !tracer.enabled() {
        let t = Instant::now();
        let result = system.run(&QueryRequest::new(iql)).map(|r| r.result);
        return (t.elapsed(), result);
    }
    let t = Instant::now();
    let root = tracer.begin("op.query", op);
    tracer.label(op, iql);
    let processor = system.query_processor();
    let result = (|| {
        let ast = tracer.span("query.parse", op, || idm_query::parse(iql))?;
        let plan = tracer.span("query.plan", op, || processor.plan(&ast))?;
        tracer.span("query.execute_plan", op, || processor.execute_plan(&plan))
    })();
    tracer.end(root);
    let elapsed = t.elapsed();
    if let Ok(r) = &result {
        layer.executions += 1;
        layer.nodes_expanded += r.stats.nodes_expanded as u64;
        layer.candidates += r.stats.candidates_examined as u64;
        layer.rows += r.rows.len() as u64;
        layer.ops += r.stats.ops.total() as u64;
    }
    (elapsed, result)
}

/// Query-latency samples plus the traced/untraced split.
#[derive(Default)]
struct Phase {
    latency: Samples,
    untraced: Samples,
    traced: Samples,
}

impl Phase {
    fn add(&mut self, d: Duration, traced: bool) {
        self.latency.push(d);
        match traced {
            true => self.traced.push(d),
            false => self.untraced.push(d),
        }
    }

    /// Mean traced op time over mean untraced op time, minus one, in %.
    fn overhead_pct(&self) -> f64 {
        match self.untraced.mean() {
            m if m > 0.0 && self.traced.len() > 0 => (self.traced.mean() / m - 1.0) * 100.0,
            _ => 0.0,
        }
    }
}

/// Whether operation `i` of a traced run falls in a traced block.
fn traced_block(trace: bool, i: usize) -> bool {
    trace && (i / TRACE_BLOCK) % 2 == 1
}

/// The lookup / navigate stream: the pool in order, with one verbatim
/// Table 4 query after every 16 generated ones.
fn interleave(pool: Vec<Query>, verbatim: &[Query]) -> Vec<Query> {
    let mut stream = Vec::with_capacity(pool.len() + pool.len() / 16 + 1);
    for (j, q) in pool.into_iter().enumerate() {
        stream.push(q);
        if j % 16 == 15 {
            stream.push(verbatim[(j / 16) % verbatim.len()].clone());
        }
    }
    stream
}

/// Applies seeded substrate edits under a few directories of its own.
struct Churner {
    dirs: Vec<NodeId>,
    live: Vec<(NodeId, String, FileKind)>,
    dead: Vec<String>,
    next: u64,
    prefix: String,
    rng: Rng,
}

impl Churner {
    fn new(fs: &VirtualFs, root: &str, prefix: &str, rng: Rng) -> Churner {
        let at = Timestamp::from_ymd(2006, 9, 12).expect("a valid date");
        let dirs = (0..4)
            .map(|d| {
                fs.mkdir_p(&format!("/{root}/d{d}"), at)
                    .expect("create an edit directory")
            })
            .collect();
        Churner {
            dirs,
            live: Vec::new(),
            dead: Vec::new(),
            next: 0,
            prefix: prefix.to_owned(),
            rng,
        }
    }

    /// Applies edit `step` to the substrate.
    fn apply(
        &mut self,
        fs: &VirtualFs,
        vocab: &Vocab,
        kind: EditKind,
        step: u64,
    ) -> idm_core::prelude::Result<()> {
        let at = Timestamp::from_ymd(2006, 9, 13)
            .expect("a valid date")
            .plus_secs(step as i64);
        let kind = if self.live.is_empty() {
            EditKind::Create
        } else {
            kind
        };
        match kind {
            EditKind::Create => {
                let file = FILE_ROTATION[(self.next % 3) as usize];
                let name = format!("{}{:05}.{}", self.prefix, self.next, file.ext());
                self.next += 1;
                let dir = self.dirs[self.rng.below(self.dirs.len())];
                let content = file.content(vocab, &mut self.rng);
                let node = fs.create_file(dir, &name, content, at)?;
                self.live.push((node, name, file));
            }
            EditKind::Rewrite => {
                let (node, _, file) = self.live[self.rng.below(self.live.len())];
                fs.write_file(node, file.content(vocab, &mut self.rng), at)?;
            }
            EditKind::Delete => {
                let (node, name, _) = self.live.swap_remove(self.rng.below(self.live.len()));
                fs.remove(node)?;
                self.dead.push(name);
            }
        }
        Ok(())
    }
}

/// Per-edit counters of the sync path.
#[derive(Default)]
struct EditLayer {
    edits: u64,
    views_touched: u64,
    records_applied: u64,
    frames: u64,
    fsyncs: u64,
}

#[allow(clippy::too_many_arguments)]
/// One edit → `sync_round` → `pump_subscriptions`, timed from the
/// substrate call until both return.
fn edit_and_sync(
    ds: &Dataspace,
    sync: &SynchronizationManager,
    churner: &mut Churner,
    vocab: &Vocab,
    kind: EditKind,
    step: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    layer: &mut EditLayer,
) -> Duration {
    let wal_before = ds.system.store().wal_telemetry();
    let live_before = ds.system.live_stats();
    let t = Instant::now();
    let root = tracer.begin("op.edit", step);
    let applied = tracer.span("vfs.edit", step, || {
        churner.apply(&ds.dataset.fs, vocab, kind, step)
    });
    let report = tracer.span("system.sync_round", step, || sync.sync_round());
    tracer.span("system.pump_subscriptions", step, || {
        ds.system.pump_subscriptions()
    });
    tracer.end(root);
    let elapsed = t.elapsed();
    tally.record(applied.is_ok(), || {
        format!("edit {step} failed: {applied:?}")
    });
    match report {
        Ok(r) => {
            layer.views_touched += (r.created + r.modified + r.removed) as u64;
            tally.record(r.quarantined.is_empty(), || {
                format!("sync round {step} quarantined {:?}", r.quarantined)
            });
        }
        Err(e) => tally.record(false, || format!("sync round {step} failed: {e}")),
    }
    if let (Some(b), Some(a)) = (wal_before, ds.system.store().wal_telemetry()) {
        layer.frames += a.frames - b.frames;
        layer.fsyncs += a.syncs - b.syncs;
    }
    layer.records_applied += ds.system.live_stats().records_applied - live_before.records_applied;
    layer.edits += 1;
    elapsed
}

fn sync_manager(ds: &Dataspace) -> SynchronizationManager {
    SynchronizationManager::attach(
        Arc::clone(&ds.plugin),
        Arc::clone(ds.system.store()),
        Arc::clone(ds.system.indexes()),
    )
    .expect("attach the synchronization manager")
}

/// Checks that `name` resolves to exactly `want` views by exact name.
fn check_name(system: &Pdsms, name: &str, want: usize, tally: &mut Tally) {
    let got = system
        .run(&QueryRequest::new(format!("//{name}")))
        .map(|r| r.result.rows.len());
    tally.record(matches!(got, Ok(n) if n == want), || {
        format!("//{name} resolved to {got:?} views, want {want}")
    });
}

/// Rows of a result as a sorted multiset key list.
fn row_keys(rows: &ResultRows) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = match rows {
        ResultRows::Views(v) => v.iter().map(|x| (x.as_u64(), u64::MAX)).collect(),
        ResultRows::Pairs(p) => p.iter().map(|(a, b)| (a.as_u64(), b.as_u64())).collect(),
    };
    keys.sort_unstable();
    keys
}

/// A subscription with the rows its delta stream has produced so far.
struct Standing {
    iql: &'static str,
    handle: LiveQuery,
    rows: BTreeMap<(u64, u64), i64>,
}

impl Standing {
    fn new(iql: &'static str, handle: LiveQuery) -> Standing {
        let mut rows = BTreeMap::new();
        for key in row_keys(&handle.initial().rows) {
            *rows.entry(key).or_insert(0) += 1;
        }
        Standing { iql, handle, rows }
    }

    fn drain(&mut self) {
        for delta in self.handle.poll() {
            for key in row_keys(&delta.added) {
                *self.rows.entry(key).or_insert(0) += 1;
            }
            for key in row_keys(&delta.removed) {
                *self.rows.entry(key).or_insert(0) -= 1;
            }
        }
        self.rows.retain(|_, n| *n != 0);
    }

    fn keys(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (key, &n) in &self.rows {
            for _ in 0..n.max(0) {
                out.push(*key);
            }
        }
        out
    }
}

fn subscribe_fleet(system: &Pdsms) -> Vec<Standing> {
    (0..SUBSCRIPTIONS)
        .map(|i| {
            let iql = STANDING[i % STANDING.len()];
            let handle = system
                .subscribe(&QueryRequest::new(iql))
                .expect("subscribe a standing query");
            Standing::new(iql, handle)
        })
        .collect()
}

/// Walks a plan tree and collects its index leaves.
fn collect_leaves(node: &PlanNode, out: &mut Vec<AccessKind>) {
    match &node.op {
        PlanOp::IndexAccess(access) => out.push(access.clone()),
        PlanOp::Scan => {}
        PlanOp::Intersect(inputs) | PlanOp::UnionOp(inputs) => {
            inputs.iter().for_each(|n| collect_leaves(n, out))
        }
        PlanOp::Complement(input) => collect_leaves(input, out),
        PlanOp::Relate {
            context,
            candidates,
            ..
        } => {
            collect_leaves(context, out);
            collect_leaves(candidates, out);
        }
        PlanOp::HashJoin { left, right, .. } => {
            collect_leaves(left, out);
            collect_leaves(right, out);
        }
    }
}

/// Times the index lookups directly, with the arguments the generated
/// queries' plan leaves use, and `remove_view` + `index_view` on a
/// seeded sample of views (each restored with its catalog source).
fn index_probe(
    system: &Pdsms,
    queries: &[Query],
    rng: &mut Rng,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let processor = system.query_processor();
    let now = processor.options().now;
    let mut leaves = Vec::new();
    for q in queries {
        if let Ok(plan) = processor.plan_iql(&q.iql) {
            collect_leaves(&plan.root, &mut leaves);
        }
    }
    let indexes = system.indexes();
    for (i, leaf) in leaves.iter().enumerate() {
        let op = i as u64;
        for _ in 0..3 {
            match leaf {
                AccessKind::Name(p) if p.is_exact() => {
                    tracer.span("index.NameIndex::exact", op, || {
                        indexes.name.exact(p.as_str())
                    });
                }
                AccessKind::Name(p) => {
                    tracer.span("index.NameIndex::matching", op, || indexes.name.matching(p));
                }
                AccessKind::Content(phrase) => {
                    tracer.span("index.FullTextIndex::phrase_query", op, || {
                        indexes.content.phrase_query(phrase)
                    });
                }
                AccessKind::Tuple {
                    attr,
                    op: cmp,
                    value,
                } => {
                    let attr = resolve_attr(attr);
                    let constant = match value {
                        idm_query::ast::Literal::Value(v) => v.clone(),
                        idm_query::ast::Literal::DateFn(f) => {
                            idm_core::prelude::Value::Date(f.eval(now))
                        }
                    };
                    let cmp: CompareOp = *cmp;
                    tracer.span("index.TupleIndex::compare", op, || {
                        indexes.tuple.compare(&attr, cmp, &constant)
                    });
                    tracer.span("index.TupleIndex::has_attribute", op, || {
                        indexes.tuple.has_attribute(&attr)
                    });
                }
                AccessKind::Catalog(_) => {}
            }
        }
    }

    let mut vids: Vec<Vid> = indexes.catalog.vids();
    vids.sort();
    for i in 0..64 {
        let vid = vids[rng.below(vids.len())];
        let Some(entry) = indexes.catalog.entry(vid) else {
            continue;
        };
        let op = i as u64;
        tracer.span("index.IndexBundle::remove_view", op, || {
            indexes.remove_view(vid)
        });
        let restored = tracer.span("index.IndexBundle::index_view", op, || {
            indexes.index_view(system.store(), vid, &entry.source)
        });
        let again = indexes.catalog.entry(vid);
        tally.record(restored.is_ok() && again.as_ref() == Some(&entry), || {
            format!("index_view did not restore view {vid:?}: {again:?} vs {entry:?}")
        });
    }
}

fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_of(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    let mut s = Samples::default();
    cycles.iter().for_each(|c| s.push_value(f(c)));
    s.median()
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

/// State of one run: the trace, the tallies and every sample so far.
struct Run<'a> {
    cfg: &'a Config,
    tracer: Tracer,
    tally: Tally,
    rng: Rng,
    work: PathBuf,
    bring_ups: usize,
    /// Foreground query latency: `Pdsms::run` reads (lookup, navigate),
    /// cached reads (churn), reads of each recovered side dataspace
    /// (ingest).
    queries: Phase,
    /// Edit → `sync_round` + `pump_subscriptions` latency.
    syncs: Phase,
    /// The unit whose traced/untraced split gives the tracing overhead.
    ops: Phase,
    query_layer: QueryLayer,
    edit_layer: EditLayer,
    cycles: Vec<Cycle>,
}

impl Run<'_> {
    /// Brings a dataspace up in a directory of its own.
    fn bring_up(&mut self) -> (Dataspace, Cycle, PathBuf) {
        let dir = self.work.join(format!("ds{}", self.bring_ups));
        let op = self.bring_ups as u64;
        self.bring_ups += 1;
        let (ds, cycle) = bring_up(
            self.cfg.sf,
            self.cfg.seed,
            &dir,
            &mut self.tracer,
            op,
            &mut self.tally,
        );
        self.cycles.push(cycle.clone());
        (ds, cycle, dir)
    }

    fn check_table4(&mut self, ds: &Dataspace) {
        for q in gen::table4(&[1, 2, 3, 4, 5, 6, 7, 8], &ds.dataset.expected) {
            let result = ds.system.run(&QueryRequest::new(&q.iql)).map(|r| r.result);
            self.tally.query(&q, &result);
        }
    }

    /// Reads `stream` from position `*pos` on for one foreground block.
    fn search_block(&mut self, system: &Pdsms, stream: &[Query], pos: &mut usize) {
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < FOREGROUND_BLOCK {
            let i = *pos;
            let q = &stream[i % stream.len()];
            let traced = traced_block(self.cfg.trace, i);
            self.tracer.set_enabled(traced);
            let (elapsed, result) = exec_query(
                system,
                &q.iql,
                &mut self.tracer,
                i as u64,
                &mut self.query_layer,
            );
            if n >= SETTLE_OPS {
                self.queries.add(elapsed, traced);
                self.ops.add(elapsed, traced);
            }
            self.tally.query(q, &result);
            *pos += 1;
            n += 1;
        }
        self.tracer.set_enabled(self.cfg.trace);
    }

    /// `n` edits of the churn rotation on the editor's dataspace,
    /// without subscriptions or reads, each synced.
    fn edits(&mut self, editor: &mut Editor, vocab: &Vocab, n: usize) {
        for i in 0..SETTLE_OPS + n {
            let step = self.syncs.latency.len();
            let traced = traced_block(self.cfg.trace, step);
            self.tracer.set_enabled(traced);
            let kind = EDIT_ROTATION[editor.edits % EDIT_ROTATION.len()];
            editor.edits += 1;
            let d = edit_and_sync(
                &editor.ds,
                &editor.sync,
                &mut editor.churner,
                vocab,
                kind,
                step as u64,
                &mut self.tracer,
                &mut self.tally,
                &mut self.edit_layer,
            );
            if i >= SETTLE_OPS {
                self.syncs.add(d, traced);
            }
        }
        self.tracer.set_enabled(self.cfg.trace);
    }

    fn done(&self, start: Instant, rounds: usize) -> bool {
        start.elapsed() >= Duration::from_secs(self.cfg.seconds)
            && rounds >= MIN_ROUNDS
            && self.queries.latency.len() >= P99_MIN_SAMPLES
            && self.syncs.latency.len() >= P99_MIN_SAMPLES
    }
}

/// The dataspace that takes the sync-measuring edits of lookup,
/// navigate and ingest: the run's first side bring-up, kept for the
/// whole run so its edits, like churn's, land on a long-lived dataspace
/// whose file population grows.
struct Editor {
    ds: Dataspace,
    dir: PathBuf,
    sync: SynchronizationManager,
    churner: Churner,
    edits: usize,
}

impl Editor {
    fn new(ds: Dataspace, dir: PathBuf, seed: u64) -> Editor {
        let sync = sync_manager(&ds);
        let churner = Churner::new(&ds.dataset.fs, "edits", "edit", Rng::new(seed ^ 0xF2E5));
        let _ = sync.sync_round();
        Editor {
            ds,
            dir,
            sync,
            churner,
            edits: 0,
        }
    }

    /// Every surviving edited file resolves to exactly one view by exact
    /// name, and every deleted one to none.
    fn check(&self, tally: &mut Tally) {
        for (_, name, _) in &self.churner.live {
            check_name(&self.ds.system, name, 1, tally);
        }
        for name in self.churner.dead.iter().take(64) {
            check_name(&self.ds.system, name, 0, tally);
        }
    }
}

/// The churn workload's state on the home dataspace.
struct Churn {
    sync: SynchronizationManager,
    churner: Churner,
    processor: idm_query::QueryProcessor,
    pool: Vec<Query>,
    zipf: Zipf,
    fleet: Vec<Standing>,
    step: usize,
    reads: usize,
}

impl Churn {
    fn new(run: &mut Run, home: &Dataspace, fleet: Vec<Standing>, vocab: &Vocab) -> Churn {
        let sync = sync_manager(home);
        let churner = Churner::new(
            &home.dataset.fs,
            "churn",
            "churn",
            Rng::new(run.cfg.seed ^ 0xC4A2),
        );
        let _ = sync.sync_round();
        home.system.pump_subscriptions();
        let mut pool = vocab.lookup_pool(&mut run.rng, CHURN_POOL);
        // Edits change what the set-up scan saw: reads are checked
        // against an uncached execution instead.
        pool.iter_mut().for_each(|q| q.check = Check::None);
        let zipf = Zipf::new(pool.len(), 1.0);
        Churn {
            sync,
            churner,
            processor: home.system.query_processor(),
            pool,
            zipf,
            fleet,
            step: 0,
            reads: 0,
        }
    }

    /// One foreground block of edit → sync → pump → cached reads.
    fn block(&mut self, run: &mut Run, home: &Dataspace, vocab: &Vocab) {
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < FOREGROUND_BLOCK {
            let timed = n >= SETTLE_OPS;
            n += 1;
            let traced = traced_block(run.cfg.trace, self.step);
            run.tracer.set_enabled(traced);
            let kind = EDIT_ROTATION[self.step % EDIT_ROTATION.len()];
            let mut step_time = edit_and_sync(
                home,
                &self.sync,
                &mut self.churner,
                vocab,
                kind,
                self.step as u64,
                &mut run.tracer,
                &mut run.tally,
                &mut run.edit_layer,
            );
            if timed {
                run.syncs.add(step_time, traced);
            }
            self.fleet.iter_mut().for_each(Standing::drain);
            for _ in 0..READS_PER_EDIT {
                let q = &self.pool[self.zipf.sample(&mut run.rng)];
                let request = QueryRequest::new(&q.iql).cached();
                let op = self.reads as u64;
                let t = Instant::now();
                let result = run
                    .tracer
                    .span("query.run_cached", op, || self.processor.run(&request));
                let elapsed = t.elapsed();
                if timed {
                    run.queries.add(elapsed, traced);
                }
                step_time += elapsed;
                if self.reads.is_multiple_of(CHURN_CHECK_EVERY) {
                    let (_, fresh) = exec_query(
                        &home.system,
                        &q.iql,
                        &mut run.tracer,
                        op,
                        &mut run.query_layer,
                    );
                    let same = matches!((&result, &fresh), (Ok(a), Ok(b)) if row_keys(&a.result.rows) == row_keys(&b.rows));
                    run.tally.record(same, || {
                        format!("cached read of {} differs from a fresh run", q.iql)
                    });
                } else {
                    run.tally.record(result.is_ok(), || {
                        format!("cached read of {} failed", q.iql)
                    });
                }
                self.reads += 1;
            }
            if timed {
                run.ops.add(step_time, traced);
            }
            self.step += 1;
        }
        run.tracer.set_enabled(run.cfg.trace);
    }

    /// Every subscription's maintained rows equal a fresh run, and every
    /// surviving churn file resolves to exactly one view.
    fn check(&mut self, run: &mut Run, home: &Dataspace) {
        home.system.pump_subscriptions();
        for standing in &mut self.fleet {
            standing.drain();
            let fresh = home.system.run(&QueryRequest::new(standing.iql));
            let same = matches!(&fresh, Ok(r) if row_keys(&r.result.rows) == standing.keys());
            run.tally.record(same, || {
                format!("subscription {} diverged from a fresh run", standing.iql)
            });
        }
        for (_, name, _) in &self.churner.live {
            check_name(&home.system, name, 1, &mut run.tally);
        }
        for name in self.churner.dead.iter().take(64) {
            check_name(&home.system, name, 0, &mut run.tally);
        }
    }
}

/// Runs one workload and returns its metrics.
pub fn run(cfg: &Config) -> Outcome {
    let mut run = Run {
        cfg,
        tracer: Tracer::new(cfg.trace),
        tally: Tally::default(),
        rng: Rng::new(cfg.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ cfg.workload.salt()),
        work: cfg.out_dir.join(format!(
            "work-{}-{}",
            cfg.workload.name(),
            std::process::id()
        )),
        bring_ups: 0,
        queries: Phase::default(),
        syncs: Phase::default(),
        ops: Phase::default(),
        query_layer: QueryLayer::default(),
        edit_layer: EditLayer::default(),
        cycles: Vec::new(),
    };

    // ---- set-up: bring the home dataspace up SETUP_REPS times ----------
    let mut setup = Samples::default();
    let mut kept: Option<(Dataspace, Vec<Standing>, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((ds, fleet, dir)) = kept.take() {
            drop(fleet);
            drop(ds);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let (ds, cycle, dir) = run.bring_up();
        let fleet = match cfg.workload {
            Workload::Churn => run.tracer.span("system.subscribe", rep as u64, || {
                subscribe_fleet(&ds.system)
            }),
            _ => Vec::new(),
        };
        setup.push_value(secs(t.elapsed()) - (cycle.recover_s + cycle.index_load_s));
        run.check_table4(&ds);
        kept = Some((ds, fleet, dir));
    }
    let (home, fleet, _) = kept.expect("at least one bring-up");
    let vocab = Vocab::scan(home.system.store(), &mut run.rng);
    let views = home.system.store().vids().len();

    // ---- the workload's inputs ------------------------------------------
    let mut stream = Vec::new();
    let mut slices: Vec<Vec<Query>> = Vec::new();
    let mut churn = None;
    match cfg.workload {
        Workload::Lookup => {
            let pool = vocab.lookup_pool(&mut run.rng, 1024);
            stream = interleave(pool, &gen::table4(&[1, 2, 3, 6, 7], &home.dataset.expected));
        }
        Workload::Navigate => {
            let pool = vocab.navigate_pool(&mut run.rng, 512);
            stream = interleave(pool, &gen::table4(&[4, 5, 8], &home.dataset.expected));
        }
        Workload::Churn => churn = Some(Churn::new(&mut run, &home, fleet, &vocab)),
        Workload::Ingest => {
            // Reads of each recovered side dataspace: Table 4 plus a slice
            // of generated ones, checked against what the home dataspace
            // (the same seed, hence the same dataspace) returns.
            let n = QUERIES_PER_CYCLE;
            let pool = vocab.lookup_pool(&mut run.rng, n * INGEST_SLICES);
            for s in 0..INGEST_SLICES {
                let mut slice = gen::table4(&[1, 2, 3, 4, 5, 6, 7, 8], &home.dataset.expected);
                slice.extend_from_slice(&pool[s * n..(s + 1) * n]);
                for q in &mut slice {
                    let result = home
                        .system
                        .run(&QueryRequest::new(&q.iql))
                        .map(|r| r.result);
                    run.tally.query(q, &result);
                    if let (Ok(r), false) = (&result, matches!(q.check, Check::Count(_))) {
                        q.check = Check::Count(r.rows.len());
                    }
                }
                slices.push(slice);
            }
        }
    }
    // ---- measured rounds -------------------------------------------------
    let start = Instant::now();
    let mut pos = 0usize;
    let mut rounds = 0usize;
    let mut editor: Option<Editor> = None;
    while !run.done(start, rounds) {
        match (&mut churn, cfg.workload) {
            (Some(c), _) => c.block(&mut run, &home, &vocab),
            (None, Workload::Ingest) => {}
            (None, _) => run.search_block(&home.system, &stream, &mut pos),
        }
        let traced_round = cfg.trace && (cfg.workload != Workload::Ingest || rounds % 2 == 1);
        run.tracer.set_enabled(traced_round);
        let (side, cycle, dir) = run.bring_up();
        run.tracer.set_enabled(cfg.trace);
        match cfg.workload {
            Workload::Ingest => {
                let mut cycle_time = Duration::from_secs_f64(cycle.total_s);
                run.tracer.set_enabled(traced_round);
                // One untimed pass settles the recovered dataspace (the
                // first compare on a column sorts it); the second is timed.
                let slice = &slices[rounds % INGEST_SLICES];
                for pass in 0..2 {
                    for (i, q) in slice.iter().enumerate() {
                        let op = ((2 * rounds + pass) * slice.len() + i) as u64;
                        let (elapsed, result) = exec_query(
                            &side.system,
                            &q.iql,
                            &mut run.tracer,
                            op,
                            &mut run.query_layer,
                        );
                        if pass == 1 {
                            run.queries.add(elapsed, traced_round);
                            cycle_time += elapsed;
                        }
                        run.tally.query(q, &result);
                    }
                }
                run.tracer.set_enabled(cfg.trace);
                run.ops.add(cycle_time, traced_round);
            }
            _ => run.check_table4(&side),
        }
        if editor.is_none() && cfg.workload != Workload::Churn {
            editor = Some(Editor::new(side, dir, cfg.seed));
        } else {
            drop(side);
            let _ = std::fs::remove_dir_all(dir);
        }
        if let Some(ed) = &mut editor {
            let n = match cfg.workload {
                Workload::Ingest => EDITS_PER_ROUND / 2,
                _ => EDITS_PER_ROUND,
            };
            run.edits(ed, &vocab, n);
        }
        rounds += 1;
    }

    if let Some(ed) = editor.take() {
        ed.check(&mut run.tally);
        drop(ed.ds);
        let _ = std::fs::remove_dir_all(ed.dir);
    }
    let mut cache = idm_query::ResultCacheCounters::default();
    if let Some(c) = &mut churn {
        cache = c.processor.result_cache().counters();
        c.check(&mut run, &home);
    }
    if cfg.trace {
        let mut probe_rng = Rng::new(cfg.seed ^ 0x1EAF);
        let mut probe = vocab.lookup_pool(&mut probe_rng, 128);
        probe.extend(vocab.navigate_pool(&mut probe_rng, 128));
        index_probe(
            &home.system,
            &probe,
            &mut probe_rng,
            &mut run.tracer,
            &mut run.tally,
        );
    }
    let live = home.system.live_stats();
    let peak_rss_mb = vm_hwm_mb();
    drop(churn);
    drop(home);
    let _ = std::fs::remove_dir_all(&run.work);

    let Run {
        tracer,
        tally,
        queries,
        syncs,
        ops,
        query_layer,
        edit_layer,
        cycles,
        ..
    } = run;
    let end_to_end = vec![
        ("setup_s", setup.median(), "s"),
        ("query_p50_ms", ms(queries.latency.median()), "ms"),
        ("query_p99_ms", ms(queries.latency.percentile(0.99)), "ms"),
        (
            "queries_per_s",
            queries.latency.len() as f64 / queries.latency.sum(),
            "1/s",
        ),
        ("sync_p50_ms", ms(syncs.latency.median()), "ms"),
        (
            "ingest_views_per_s",
            median_of(&cycles, |c| c.ingest_views_per_s),
            "1/s",
        ),
        ("checkpoint_s", median_of(&cycles, |c| c.checkpoint_s), "s"),
        ("open_s", median_of(&cycles, |c| c.open_s), "s"),
        (
            "disk_bytes_per_input_byte",
            median_of(&cycles, |c| c.disk_bytes_per_input_byte),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];

    let summary = tracer.summary();
    let us = |name: &str| summary.get(name).map_or(0.0, |s| s.mean_self_us());
    let per_query = |v: u64| v as f64 / query_layer.executions.max(1) as f64;
    let per_edit = |v: u64| v as f64 / edit_layer.edits.max(1) as f64;
    let cache_lookups = cache.hits + cache.misses;
    let per_layer = vec![
        ("query.parse_us", us("query.parse"), "us"),
        ("query.plan_us", us("query.plan"), "us"),
        ("query.exec_us", us("query.execute_plan"), "us"),
        (
            "query.nodes_expanded",
            per_query(query_layer.nodes_expanded),
            "count",
        ),
        (
            "query.candidates_per_row",
            query_layer.candidates as f64 / query_layer.rows.max(1) as f64,
            "ratio",
        ),
        ("query.ops_per_query", per_query(query_layer.ops), "count"),
        ("index.name_match_us", us("index.NameIndex::matching"), "us"),
        ("index.name_exact_us", us("index.NameIndex::exact"), "us"),
        (
            "index.fulltext_us",
            us("index.FullTextIndex::phrase_query"),
            "us",
        ),
        (
            "index.tuple_compare_us",
            us("index.TupleIndex::compare"),
            "us",
        ),
        (
            "index.tuple_has_attribute_us",
            us("index.TupleIndex::has_attribute"),
            "us",
        ),
        (
            "index.remove_view_us",
            us("index.IndexBundle::remove_view"),
            "us",
        ),
        (
            "index.index_view_us",
            us("index.IndexBundle::index_view"),
            "us",
        ),
        (
            "cache.result_hit_ratio",
            cache.hits as f64 / cache_lookups.max(1) as f64,
            "ratio",
        ),
        (
            "cache.result_maintained_per_hit",
            cache.maintained as f64 / cache.hits.max(1) as f64,
            "ratio",
        ),
        ("cache.result_evictions", cache.evictions as f64, "count"),
        ("sync.round_us", us("system.sync_round"), "us"),
        (
            "sync.views_touched_per_edit",
            per_edit(edit_layer.views_touched),
            "count",
        ),
        ("live.pump_us", us("system.pump_subscriptions"), "us"),
        (
            "live.records_per_edit",
            per_edit(edit_layer.records_applied),
            "count",
        ),
        ("live.resyncs", live.resyncs as f64, "count"),
        ("wal.frames_per_edit", per_edit(edit_layer.frames), "count"),
        ("wal.fsyncs_per_edit", per_edit(edit_layer.fsyncs), "count"),
        (
            "wal.group_mean",
            median_of(&cycles, |c| c.wal_group_mean),
            "count",
        ),
        (
            "wal.fsyncs_per_1k_views",
            median_of(&cycles, |c| c.wal_fsyncs_per_1k_views),
            "count",
        ),
        (
            "checkpoint.bytes",
            median_of(&cycles, |c| c.checkpoint_bytes),
            "bytes",
        ),
        (
            "index.artifact_bytes",
            median_of(&cycles, |c| c.artifact_bytes),
            "bytes",
        ),
        ("open.recover_s", median_of(&cycles, |c| c.recover_s), "s"),
        (
            "open.index_load_s",
            median_of(&cycles, |c| c.index_load_s),
            "s",
        ),
        (
            "recovery.records_replayed",
            median_of(&cycles, |c| c.records_replayed),
            "count",
        ),
        (
            "ingest.source_access_s",
            median_of(&cycles, |c| c.source_access_s),
            "s",
        ),
        (
            "ingest.conversion_s",
            median_of(&cycles, |c| c.conversion_s),
            "s",
        ),
        (
            "ingest.component_indexing_s",
            median_of(&cycles, |c| c.component_indexing_s),
            "s",
        ),
        (
            "ingest.catalog_insert_s",
            median_of(&cycles, |c| c.catalog_insert_s),
            "s",
        ),
        (
            "ingest.segments",
            median_of(&cycles, |c| c.segments),
            "count",
        ),
        ("trace.overhead_pct", ops.overhead_pct(), "%"),
    ];

    Outcome {
        end_to_end,
        per_layer,
        ungated: vec![("sync_p99_ms", ms(syncs.latency.percentile(0.99)), "ms")],
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        samples: vec![
            ("setup", setup.len()),
            ("query", queries.latency.len()),
            ("sync", syncs.latency.len()),
            ("bring_ups", cycles.len()),
            ("rounds", rounds),
        ],
        views,
        tracer,
    }
}
