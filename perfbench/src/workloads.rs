//! The four workloads, their correctness checks and their metrics.
//!
//! Every workload runs the same skeleton: set up (several times, for the
//! median set-up time), run its main phase for `--seconds`, time
//! `discover_batch` against sequential passes, and run churn rounds
//! (mutate → `sync` → discovers → checkpoint → recover). `sync_churn`
//! makes the churn rounds its main phase; the others run a short fixed
//! tail of them, because every run reports every end-to-end metric.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use warpgate_core::{Checkpointer, Discovery, JoinCandidate, WarpGate, WarpGateConfig};
use wg_corpora::{build_testbed, Corpus, TestbedSpec};
use wg_embed::{Vector, WebTableConfig, WebTableModel};
use wg_store::{
    BackendHandle, CdwConfig, CdwConnector, ColumnRef, CostSnapshot, RemoteBackend,
    RemoteBackendServer, Table,
};
use wg_util::rng::{Rng64, Xoshiro256pp};

use crate::churn::{self, ChurnPlan};
use crate::replay::Replay;
use crate::stats::{chunked_percentile, median, min_samples_for, permutation, Zipf};
use crate::trace::{BackendSpans, Span, SpanReading, TimedBackend, TimedModel};
use crate::Args;

/// NextiaJD testbed-S rows are scaled by this (the repository's
/// evaluation scale for testbed S).
const ROW_SCALE: f64 = 0.01;
/// Database every generated table lives in.
const DB: &str = "nextiajd";
/// Answers per discovery.
const K: usize = 10;
/// Indexing and `discover_batch` workers; at most the host's 2 vCPUs.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Zipf exponent of the paged workload's query stream: flat enough that
/// the few hottest columns of one seed do not set the p50 (see README).
const ZIPF_S: f64 = 0.5;
/// Queries drawn up front for the paged stream (replayed in order).
const ZIPF_LEN: usize = 200_000;
/// The paged block-cache budget, as a share of the segment bytes: below
/// the data size, yet large enough that repeated columns hit (at a
/// quarter, every block read misses; see the README).
const BUDGET_NUM: u64 = 3;
const BUDGET_DEN: u64 = 4;
/// Columns the paged workload queries (a seeded subset).
const PAGED_COLUMNS: usize = 512;
/// Columns per `discover_batch` in `paged_discover`, where a query costs
/// a millisecond; `warm_discover` batches every column.
const BATCH_SUBSET: usize = 128;
/// `warm_discover`: queries of a timed pass between two timed batches.
const WARM_SEGMENT: usize = 640;
/// `paged_discover`: stream queries between two timed batches.
const PAGED_GROUP: usize = 500;
/// Churn rounds the read-only workloads run on their side system, spread
/// over the main phase.
const SIDE_ROUNDS: usize = 8;
/// Checkpoint/recover pairs per churn round.
const DURABILITY_REPS: usize = 2;
/// Warm reads (from tables no round touches) per churn round.
const WARM_PER_ROUND: usize = 32;
/// Columns whose cold-discover backend calls the traced run replays over
/// the loopback wire.
const WIRE_COLUMNS: usize = 500;
/// Queries per round re-asked of the recovered system.
const RECOVER_CHECKS: usize = 8;
/// Largest accepted gap between a returned score and the benchmark's
/// own cosine.
const SCORE_TOLERANCE: f64 = 1e-4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Warm,
    Paged,
    Churn,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "warm_discover" => Workload::Warm,
            "paged_discover" => Workload::Paged,
            "sync_churn" => Workload::Churn,
            _ => return Err(format!("unknown workload {s}")),
        })
    }

    /// The system configuration: the defaults, with [`WORKERS`] workers.
    fn config(self) -> WarpGateConfig {
        WarpGateConfig { threads: WORKERS, ..WarpGateConfig::default() }
    }
}

/// What a run prints.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
}

impl Output {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-run scratch directory inside the working directory, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<TempDir, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".perfbench-tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Timing decorators of a traced system.
struct Spans {
    /// Around the backend the system is attached to.
    client: Arc<BackendSpans>,
    /// Around the CDW connector itself.
    server: Arc<BackendSpans>,
    /// Around the embedding model.
    model: Arc<Span>,
}

/// The system under test and what it runs on.
struct Sut {
    config: WarpGateConfig,
    wg: WarpGate,
    /// `paged_discover`: the in-RAM system the paged one was saved from,
    /// and (traced) the span of its model.
    ram: Option<(WarpGate, Option<Arc<Span>>)>,
    /// The priced CDW; its meter is the billing truth.
    connector: Arc<CdwConnector>,
    /// The handle the system is attached to.
    client: BackendHandle,
    spans: Option<Spans>,
    /// `paged_discover`: block-cache budget.
    budget: usize,
}

struct SetupTiming {
    build_s: f64,
    index_cols_per_s: f64,
    total_s: f64,
}

fn new_system(
    config: WarpGateConfig,
    backend: BackendHandle,
    trace: bool,
) -> (WarpGate, Option<Arc<Span>>) {
    if !trace {
        return (WarpGate::with_backend(config, backend), None);
    }
    // Built exactly as `WarpGate::new` builds its model, then wrapped.
    let model = WebTableModel::new(WebTableConfig {
        dim: config.dim,
        seed: config.seed,
        ..WebTableConfig::default()
    });
    let (model, span) = TimedModel::wrap(Arc::new(model));
    let wg = WarpGate::with_model(config, model);
    wg.attach(backend);
    (wg, Some(span))
}

fn set_up(
    workload: Workload,
    trace: bool,
    tmp: &Path,
) -> Result<(Sut, Corpus, SetupTiming), String> {
    let start = Instant::now();
    let corpus = build_testbed(&TestbedSpec::s(ROW_SCALE));
    let build_s = start.elapsed().as_secs_f64();
    let connector = Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::default()));
    let mut served: BackendHandle = connector.clone();
    let mut server_spans = None;
    if trace {
        let (b, s) = TimedBackend::wrap(served);
        served = b;
        server_spans = Some(s);
    }
    let mut client = served;
    let mut client_spans = None;
    if trace {
        let (b, s) = TimedBackend::wrap(client);
        client = b;
        client_spans = Some(s);
    }
    let config = workload.config();
    let (mut wg, mut model) = new_system(config, client.clone(), trace);
    let index_start = Instant::now();
    let report = wg.index_warehouse().map_err(|e| format!("index: {e}"))?;
    let index_cols_per_s = report.columns_indexed as f64 / index_start.elapsed().as_secs_f64();
    let mut ram = None;
    let mut budget = 0;
    let mut config = config;
    if workload == Workload::Paged {
        let dir = tmp.join("paged");
        let _ = std::fs::remove_dir_all(&dir);
        wg.save_paged(&dir).map_err(|e| format!("save_paged: {e}"))?;
        let segment_bytes: u64 = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "seg"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum();
        budget = (segment_bytes * BUDGET_NUM / BUDGET_DEN) as usize;
        config = config.with_block_cache_bytes(budget);
        let (mut paged, paged_model) = new_system(config, client.clone(), trace);
        paged.load_paged(&dir).map_err(|e| format!("load_paged: {e}"))?;
        ram = Some((std::mem::replace(&mut wg, paged), model));
        model = paged_model;
    }
    let spans = match (client_spans, server_spans, model) {
        (Some(client), Some(server), Some(model)) => Some(Spans { client, server, model }),
        _ => None,
    };
    let total_s = start.elapsed().as_secs_f64();
    let sut = Sut { config, wg, ram, connector, client, spans, budget };
    Ok((sut, corpus, SetupTiming { build_s, index_cols_per_s, total_s }))
}

/// The side system of a read-only workload and its churn progress.
struct Side {
    sut: Sut,
    vectors: HashMap<(ColumnRef, u64), Vector>,
    /// Churn rounds run so far.
    done: usize,
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Layers {
    cache_hits: u64,
    discovers: u64,
    self_us: Vec<f64>,
    store_calls: Vec<f64>,
    store_call_us: Vec<f64>,
    store_server_us: Vec<f64>,
    store_wire_us: Vec<f64>,
    embed_column_us: Vec<f64>,
    embed_values: Vec<f64>,
    lookup_us: Vec<f64>,
    candidates: Vec<f64>,
    scored: Vec<f64>,
    blocks_read: u64,
    blocks_pruned: u64,
    sign_us: Vec<f64>,
    candidates_us: Vec<f64>,
    rerank_us: Vec<f64>,
    recall_vs_exact: Vec<f64>,
    sync_index_update_us: Vec<f64>,
    snapshot_versions_us: Vec<f64>,
    scans_per_sync: Vec<f64>,
    encode_ms: Vec<f64>,
    write_ms: Vec<f64>,
    read_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    bytes_per_column: Vec<f64>,
    block_read_us: Vec<f64>,
    block_hits: u64,
    block_lookups: u64,
    evictions: u64,
    paged_queries: u64,
    peak_resident_bytes: f64,
}

/// End-to-end samples.
#[derive(Default)]
struct Samples {
    discover_us: Vec<f64>,
    /// Seconds per query of sequential passes and of batches.
    pass_s: Vec<f64>,
    batch_s: Vec<f64>,
    miss_bytes: u64,
    misses: u64,
    sync_ms: Vec<f64>,
    sync_bytes: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    cold_reads_per_round: Vec<f64>,
}

struct Run<'a> {
    args: &'a Args,
    tmp: TempDir,
    sut: Sut,
    corpus: Corpus,
    /// Every base column, in catalog order.
    columns: Vec<ColumnRef>,
    base: Vec<Table>,
    plan: ChurnPlan,
    /// Answers of the first (cold, in-RAM) pass, by column index.
    reference: Vec<Vec<JoinCandidate>>,
    /// Read-only workloads: a second system, on a warehouse of its own,
    /// that the churn rounds mutate.
    side: Option<Side>,
    /// Microseconds spent inside `discover` calls so far.
    busy_us: f64,
    vectors: HashMap<(ColumnRef, u64), Vector>,
    /// Whether cache misses count toward `scan_bytes_per_query`: only in
    /// phases that repeat whole (passes, cycles) or run once, so the
    /// figure is the same on every run of a seed.
    count_misses: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    s: Samples,
    l: Layers,
}

/// Readings of every span, taken around one operation.
#[derive(Clone, Copy, Default)]
struct Readings {
    client: SpanReading,
    client_scans: SpanReading,
    client_versions: SpanReading,
    server: SpanReading,
    model: SpanReading,
}

impl Readings {
    fn take(spans: &Option<Spans>) -> Readings {
        match spans {
            None => Readings::default(),
            Some(s) => Readings {
                client: s.client.all.read(),
                client_scans: s.client.scan_column.read(),
                client_versions: s.client.snapshot_versions.read(),
                server: s.server.all.read(),
                model: s.model.read(),
            },
        }
    }

    fn since(self, earlier: Readings) -> Readings {
        Readings {
            client: self.client.since(earlier.client),
            client_scans: self.client_scans.since(earlier.client_scans),
            client_versions: self.client_versions.since(earlier.client_versions),
            server: self.server.since(earlier.server),
            model: self.model.since(earlier.model),
        }
    }
}

fn rng_for(seed: u64, tag: u64) -> Xoshiro256pp {
    Xoshiro256pp::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

fn cosine(a: &[f32], b: &[f32]) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in a.iter().zip(b) {
        dot += *x as f64 * *y as f64;
        na += *x as f64 * *x as f64;
        nb += *y as f64 * *y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Two ranked lists equal up to the order of equal scores, and up to
/// which members of a tie that the cut at `k` splits are kept: what two
/// indexes that assigned different item ids may legitimately differ in.
fn same_modulo_ties(a: &[JoinCandidate], b: &[JoinCandidate]) -> bool {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.score.to_bits() != y.score.to_bits()) {
        return false;
    }
    let mut start = 0;
    while start < a.len() {
        let mut end = start + 1;
        while end < a.len() && a[end].score.to_bits() == a[start].score.to_bits() {
            end += 1;
        }
        if end < a.len() || a.len() < K {
            let set = |xs: &[JoinCandidate]| -> HashSet<ColumnRef> {
                xs.iter().map(|c| c.reference.clone()).collect()
            };
            if set(&a[start..end]) != set(&b[start..end]) {
                return false;
            }
        }
        start = end;
    }
    true
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Catalog state of every table: version and column names.
fn table_states(connector: &CdwConnector) -> HashMap<String, (u64, Vec<String>)> {
    connector
        .warehouse()
        .table_metas()
        .into_iter()
        .map(|m| (m.table, (m.version, m.columns)))
        .collect()
}

/// The sync a change between two catalog states must produce, derived
/// from the catalogs alone.
#[derive(Debug, PartialEq, Eq)]
struct ExpectedSync {
    added: usize,
    updated: usize,
    removed: usize,
    scans: u64,
    columns_removed: usize,
}

fn expected_sync(
    before: &HashMap<String, (u64, Vec<String>)>,
    after: &HashMap<String, (u64, Vec<String>)>,
) -> ExpectedSync {
    let mut e = ExpectedSync { added: 0, updated: 0, removed: 0, scans: 0, columns_removed: 0 };
    for (t, (version, cols)) in after {
        match before.get(t) {
            None => {
                e.added += 1;
                e.scans += cols.len() as u64;
            }
            Some((old_version, old_cols)) if old_version != version => {
                e.updated += 1;
                e.scans += cols.len() as u64;
                e.columns_removed += old_cols.iter().filter(|c| !cols.contains(c)).count();
            }
            Some(_) => {}
        }
    }
    for (t, (_, cols)) in before {
        if !after.contains_key(t) {
            e.removed += 1;
            e.columns_removed += cols.len();
        }
    }
    e
}

impl Run<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn costs(&self) -> CostSnapshot {
        self.sut.connector.costs()
    }

    /// The benchmark's own embedding of a column's current content: the
    /// scan's sample, taken without billing, through the system's
    /// embedder.
    fn vector(&mut self, r: &ColumnRef) -> Option<&Vector> {
        let version = {
            let w = self.sut.connector.warehouse();
            w.database(&r.database).ok()?.table_version(&r.table)?
        };
        let key = (r.clone(), version);
        if !self.vectors.contains_key(&key) {
            let sampled = {
                let w = self.sut.connector.warehouse();
                self.sut.config.sample.apply(w.column(r).ok()?)
            };
            let v = self.sut.wg.embedder().embed_column(&sampled);
            self.vectors.insert(key.clone(), v);
        }
        self.vectors.get(&key)
    }

    fn check_answers(&mut self, q: &ColumnRef, answers: &[JoinCandidate]) {
        self.check(answers.len() <= K, || format!("{q}: {} answers for k={K}", answers.len()));
        self.check(answers.windows(2).all(|w| w[0].score >= w[1].score), || {
            format!("{q}: answers not sorted by score")
        });
        let distinct: HashSet<&ColumnRef> = answers.iter().map(|c| &c.reference).collect();
        self.check(distinct.len() == answers.len(), || format!("{q}: repeated answer"));
        self.check(answers.iter().all(|c| !c.reference.same_table(q)), || {
            format!("{q}: answer from the query's own table")
        });
        let Some(qv) = self.vector(q).map(|v| v.0.clone()) else {
            self.check(false, || format!("{q}: query column not in the warehouse"));
            return;
        };
        for c in answers {
            let own = self.vector(&c.reference).map(|v| cosine(&qv, &v.0));
            self.check(own.is_some_and(|s| (s - c.score as f64).abs() <= SCORE_TOLERANCE), || {
                format!("{q}: {} scored {} but its cosine is {own:?}", c.reference, c.score)
            });
        }
    }

    /// One discover on the system under test, with its billing check and
    /// (traced) layer spans. `record` marks a main-phase sample.
    fn discover(&mut self, q: &ColumnRef, record: bool) -> Option<Discovery> {
        let cost_before = self.costs();
        let before = Readings::take(&self.sut.spans);
        let start = Instant::now();
        let result = self.sut.wg.discover(q, K);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.busy_us += us;
        let spent = Readings::take(&self.sut.spans).since(before);
        let billed = self.costs().since(&cost_before);
        self.attempted += 1;
        let d = match result {
            Ok(d) => d,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("discover {q}: {e}"));
                return None;
            }
        };
        let miss = !d.timing.cache_hit;
        self.check(billed.requests == u64::from(miss), || {
            format!(
                "{q}: billed {} scans on a cache {}",
                billed.requests,
                if miss { "miss" } else { "hit" }
            )
        });
        if miss && self.count_misses {
            self.s.misses += 1;
            self.s.miss_bytes += billed.bytes_scanned;
        }
        if record {
            self.s.discover_us.push(us);
        }
        if self.sut.spans.is_some() {
            if miss {
                self.l.embed_column_us.push(spent.model.us());
                self.l.embed_values.push(spent.model.calls as f64);
            }
            if record {
                let lookup_us = d.timing.lookup_secs * 1e6;
                self.l.discovers += 1;
                self.l.cache_hits += u64::from(!miss);
                self.l.self_us.push(us - spent.client.us() - spent.model.us() - lookup_us);
                self.l.store_calls.push(spent.client.calls as f64);
                self.l.lookup_us.push(lookup_us);
                self.l.candidates.push(d.outcome.candidates as f64);
                self.l.scored.push(d.outcome.scored as f64);
                self.l.blocks_read += d.timing.blocks_read;
                self.l.blocks_pruned += d.timing.blocks_pruned;
            }
        }
        self.check_answers(q, &d.candidates);
        Some(d)
    }

    /// A seeded order over the workload's query columns (indexes into
    /// `columns`).
    fn order(&self, tag: u64) -> Vec<usize> {
        let domain = self.domain();
        let perm = permutation(domain, &mut rng_for(self.args.seed, tag));
        if domain == self.columns.len() {
            return perm;
        }
        let subset = permutation(self.columns.len(), &mut rng_for(self.args.seed, 0x60));
        perm.into_iter().map(|j| subset[j]).collect()
    }

    /// How many columns the workload queries: `paged_discover` keeps its
    /// (untimed) embedding warm-up short by querying a seeded subset.
    fn domain(&self) -> usize {
        match self.args.workload {
            Workload::Paged => PAGED_COLUMNS.min(self.columns.len()),
            _ => self.columns.len(),
        }
    }

    /// Discover each column of `order` once, in that order. With `expect`,
    /// each answer must equal the reference answer bit for bit; otherwise
    /// the answers become the reference. A recorded pass adds its seconds
    /// per query, summed over the discover calls alone, to `pass_s`.
    fn pass(&mut self, order: &[usize], record: bool, expect: bool) {
        let busy_before = self.busy_us;
        let mut answers = Vec::with_capacity(order.len());
        for &i in order {
            let q = self.columns[i].clone();
            let got = self.discover(&q, record).map(|d| d.candidates).unwrap_or_default();
            answers.push((i, got));
        }
        if record && !order.is_empty() {
            self.s.pass_s.push((self.busy_us - busy_before) / 1e6 / order.len() as f64);
        }
        for (i, got) in answers {
            if expect {
                let same = got == self.reference[i];
                let q = self.columns[i].clone();
                self.check(same, || format!("{q}: answers differ from the in-RAM cold answers"));
            } else {
                self.reference[i] = got;
            }
        }
    }

    fn batch_len(&self) -> usize {
        match self.args.workload {
            Workload::Paged => BATCH_SUBSET.min(self.columns.len()),
            Workload::Warm | Workload::Churn => self.columns.len(),
        }
    }

    /// A timed `discover_batch` over a seeded order of the base columns;
    /// its answers, in input order, must equal the reference answers.
    fn batch(&mut self, tag: u64) {
        let mut order = self.order(tag);
        order.truncate(self.batch_len());
        let queries: Vec<ColumnRef> = order.iter().map(|&i| self.columns[i].clone()).collect();
        let want: Vec<Vec<JoinCandidate>> =
            order.iter().map(|&i| self.reference[i].clone()).collect();
        self.batch_over(&queries, &want, true);
    }

    /// `discover_batch` over `queries`, whose answers must equal `want`,
    /// with the billing check of [`Self::discover`] summed over the batch.
    /// `record` marks a timed batch; timed batches run a number of times
    /// that depends on the host's speed, so only untimed ones count toward
    /// `scan_bytes_per_query`.
    fn batch_over(&mut self, queries: &[ColumnRef], want: &[Vec<JoinCandidate>], record: bool) {
        let cost_before = self.costs();
        let start = Instant::now();
        let result = self.sut.wg.discover_batch(queries, K);
        let secs = start.elapsed().as_secs_f64();
        let billed = self.costs().since(&cost_before);
        self.attempted += queries.len() as u64;
        let ds = match result {
            Ok(ds) => ds,
            Err(e) => {
                self.failed += queries.len() as u64;
                self.failures.push(format!("discover_batch: {e}"));
                return;
            }
        };
        if record {
            self.s.batch_s.push(secs / queries.len() as f64);
        }
        let misses = ds.iter().filter(|d| !d.timing.cache_hit).count() as u64;
        self.check(billed.requests == misses, || {
            format!("batch billed {} scans for {misses} cache misses", billed.requests)
        });
        if self.count_misses && !record {
            self.s.misses += misses;
            self.s.miss_bytes += billed.bytes_scanned;
        }
        let in_order = ds.iter().zip(queries).all(|(d, q)| &d.query == q);
        self.check(in_order && ds.len() == queries.len(), || {
            "batch answers out of input order".into()
        });
        for (d, want) in ds.iter().zip(want) {
            let same = &d.candidates == want;
            let q = d.query.clone();
            self.check(same, || format!("{q}: batch answers differ from the in-RAM cold answers"));
            self.check_answers(&q, &d.candidates);
        }
    }

    // ---- main phases ------------------------------------------------------

    /// Run `slice` until `--seconds` have passed and the discover samples
    /// carry a p99, stopping only where `slice` returns true (the end of
    /// a whole pass or cycle). The side system's churn rounds run spread
    /// evenly over the same time, so every metric samples the whole run
    /// rather than a few seconds of it.
    fn timed_loop(&mut self, mut slice: impl FnMut(&mut Self) -> bool) {
        let start = Instant::now();
        loop {
            let whole = slice(self);
            self.side_rounds_due(start);
            let enough = self.s.discover_us.len() >= min_samples_for(99.0);
            if whole && enough && start.elapsed().as_secs_f64() >= self.args.seconds {
                break;
            }
        }
        self.side_rounds_due(start);
    }

    /// An untimed pass fills the embedding cache and gives the reference
    /// answers, counted whole toward `scan_bytes_per_query`; then timed
    /// passes in seeded orders, a timed batch after every
    /// [`WARM_SEGMENT`] queries.
    fn main_warm(&mut self) {
        self.count_misses = true;
        self.pass(&self.order(0x50), false, false);
        self.count_misses = false;
        let cost_before = self.costs();
        let mut pass_no = 0u64;
        let mut order = self.order(0x100);
        let mut at = 0usize;
        self.timed_loop(|run| {
            let end = (at + WARM_SEGMENT).min(order.len());
            run.pass(&order[at..end], true, true);
            run.batch(0x200 + (pass_no << 16) + at as u64);
            at = end;
            if at == order.len() {
                pass_no += 1;
                order = run.order(0x100 + pass_no);
                at = 0;
            }
            true
        });
        let billed = self.costs().since(&cost_before);
        self.check(billed.requests == 0, || format!("warm phase billed {} scans", billed.requests));
    }

    fn main_paged(&mut self) {
        // The in-RAM cold answers, from the system the segments were saved
        // from.
        let (ram, _) = self.sut.ram.take().expect("paged set-up keeps the in-RAM system");
        for (i, q) in self.columns.iter().enumerate() {
            match ram.discover(q, K) {
                Ok(d) => self.reference[i] = d.candidates,
                Err(e) => self.failures.push(format!("in-RAM discover {q}: {e}")),
            }
        }
        drop(ram);
        // Warm the embedding cache of the paged system, untimed and batched
        // (half the wall time of a sequential pass): the query subset, and
        // the tables no churn round touches.
        let untouched: HashSet<&str> =
            self.plan.untouched.iter().map(|&t| self.base[t].name()).collect();
        let mut warm = self.order(0x50);
        let extra: Vec<usize> = (0..self.columns.len())
            .filter(|&i| untouched.contains(self.columns[i].table.as_str()) && !warm.contains(&i))
            .collect();
        warm.extend(extra);
        let queries: Vec<ColumnRef> = warm.iter().map(|&i| self.columns[i].clone()).collect();
        let want: Vec<Vec<JoinCandidate>> =
            warm.iter().map(|&i| self.reference[i].clone()).collect();
        self.count_misses = true;
        self.batch_over(&queries, &want, false);
        self.count_misses = false;

        let columns = self.order(0x50);
        let stream: Vec<usize> =
            Zipf::stream(columns.len(), ZIPF_S, ZIPF_LEN, self.args.seed ^ 0x21BF)
                .into_iter()
                .map(|j| columns[j])
                .collect();
        let cost_before = self.costs();
        // Block-cache counts of the stream alone: the interleaved batches
        // read blocks too.
        let (mut blocks_read, mut lookups, mut hits, mut evictions) = (0u64, 0u64, 0u64, 0u64);
        let mut at = 0usize;
        let mut batch_no = 0u64;
        self.timed_loop(|run| {
            let before = run.sut.wg.block_cache_stats();
            let busy_before = run.busy_us;
            for _ in 0..PAGED_GROUP {
                let i = stream[at % stream.len()];
                at += 1;
                let q = run.columns[i].clone();
                if let Some(d) = run.discover(&q, true) {
                    blocks_read += d.timing.blocks_read;
                    let same = d.candidates == run.reference[i];
                    run.check(same, || {
                        format!("{q}: paged answers differ from the in-RAM answers")
                    });
                }
            }
            run.s.pass_s.push((run.busy_us - busy_before) / 1e6 / PAGED_GROUP as f64);
            let after = run.sut.wg.block_cache_stats();
            lookups += (after.hits + after.misses) - (before.hits + before.misses);
            hits += after.hits - before.hits;
            evictions += after.evictions - before.evictions;
            run.batch(0x200 + batch_no);
            batch_no += 1;
            true
        });
        self.check(lookups == blocks_read, || {
            format!("blocks read {blocks_read} but the cache saw {lookups} lookups")
        });
        let peak = self.sut.wg.block_cache_stats().peak_resident_bytes;
        let budget = self.sut.budget;
        self.check(peak <= budget, || {
            format!("block cache peaked at {peak} bytes over a {budget}-byte budget")
        });
        let billed = self.costs().since(&cost_before);
        self.check(billed.requests == 0, || {
            format!("paged phase billed {} scans", billed.requests)
        });
        self.l.block_hits = hits;
        self.l.block_lookups = lookups;
        self.l.evictions = evictions;
        self.l.paged_queries = at as u64;
        self.l.peak_resident_bytes = peak as f64;
    }

    /// Run the side system's churn rounds that are due by now: round `j`
    /// of [`SIDE_ROUNDS`] falls due at `(j + ½) / SIDE_ROUNDS` of
    /// `--seconds`, and every one is due once the main phase has run its
    /// length, so each run makes the same rounds.
    fn side_rounds_due(&mut self, start: Instant) {
        let Some(mut side) = self.side.take() else { return };
        let seconds = self.args.seconds;
        let due = |done: usize| {
            let at = (done as f64 + 0.5) / SIDE_ROUNDS as f64 * seconds;
            start.elapsed().as_secs_f64() >= at
        };
        while side.done < SIDE_ROUNDS && due(side.done) {
            // The side system stands in for the system under test for the
            // round: its warehouse, its embedding checks, no miss counting.
            std::mem::swap(&mut self.sut, &mut side.sut);
            std::mem::swap(&mut self.vectors, &mut side.vectors);
            let count_misses = std::mem::replace(&mut self.count_misses, false);
            let plan = self.plan.clone();
            self.churn_round(&plan, side.done % plan.len(), false);
            self.count_misses = count_misses;
            std::mem::swap(&mut self.vectors, &mut side.vectors);
            std::mem::swap(&mut self.sut, &mut side.sut);
            side.done += 1;
        }
        self.side = Some(side);
    }

    /// Bring the side system's warehouse to the state of the cycle's last
    /// round, untimed, so that its first round syncs a usual change set,
    /// and warm its cache on the tables no round touches, which the
    /// rounds read warm.
    fn prime_side(&mut self) {
        let Some(mut side) = self.side.take() else { return };
        std::mem::swap(&mut self.sut, &mut side.sut);
        std::mem::swap(&mut self.vectors, &mut side.vectors);
        let plan = self.plan.clone();
        self.prime(&plan);
        let untouched: Vec<ColumnRef> = plan
            .untouched
            .iter()
            .flat_map(|&t| self.base[t].columns().iter().map(move |c| (t, c.name().to_string())))
            .map(|(t, c)| ColumnRef::new(DB, self.base[t].name(), c))
            .collect();
        for q in &untouched {
            self.discover(q, false);
        }
        std::mem::swap(&mut self.vectors, &mut side.vectors);
        std::mem::swap(&mut self.sut, &mut side.sut);
        self.side = Some(side);
    }

    // ---- churn ------------------------------------------------------------

    /// Mutate the warehouse from round `prev`'s state (or the base) to
    /// round `i`'s, and return the sync that change must produce.
    fn mutate(&mut self, plan: &ChurnPlan, prev: Option<usize>, i: usize) -> ExpectedSync {
        let before = table_states(&self.sut.connector);
        {
            let mut w = self.sut.connector.warehouse_mut();
            if let Some(p) = prev {
                churn::revert(&mut w, DB, &self.base, plan, p);
            }
            churn::apply(&mut w, DB, &self.base, plan, i);
        }
        expected_sync(&before, &table_states(&self.sut.connector))
    }

    fn sync(&mut self, expect: &ExpectedSync, record: bool) {
        let cost_before = self.costs();
        let before = Readings::take(&self.sut.spans);
        let start = Instant::now();
        let result = self.sut.wg.sync();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let spent = Readings::take(&self.sut.spans).since(before);
        let billed = self.costs().since(&cost_before);
        self.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("sync: {e}"));
                return;
            }
        };
        let got = ExpectedSync {
            added: report.tables_added,
            updated: report.tables_updated,
            removed: report.tables_removed,
            scans: (report.columns_indexed + report.columns_skipped) as u64,
            columns_removed: report.columns_removed,
        };
        self.check(&got == expect, || {
            format!("sync reported {got:?}, the catalogs imply {expect:?}")
        });
        self.check(billed.requests == expect.scans, || {
            format!("sync billed {} scans for {} changed columns", billed.requests, expect.scans)
        });
        if record {
            self.s.sync_ms.push(ms);
            self.s.sync_bytes.push(billed.bytes_scanned as f64);
            if self.sut.spans.is_some() {
                // Scans and embeddings run on the workers in parallel; their
                // busy time is spread over the workers before it is
                // subtracted from the wall time.
                let busy = (spent.client_scans.us() + spent.model.us()) / WORKERS as f64;
                self.l.sync_index_update_us.push(ms * 1e3 - busy);
                self.l.snapshot_versions_us.push(spent.client_versions.us());
                self.l.scans_per_sync.push(spent.client_scans.calls as f64);
            }
        }
    }

    /// Bring the warehouse to the state of the cycle's last round, so
    /// that every timed round starts from its predecessor's state.
    fn prime(&mut self, plan: &ChurnPlan) {
        let expect = self.mutate(plan, None, plan.len() - 1);
        self.sync(&expect, false);
    }

    /// One churn round; returns the round's reads and their answers.
    /// `record` marks a main-phase round of `sync_churn`: its discovers
    /// are samples, and a warm sequential re-read of the same columns is
    /// timed against one `discover_batch` of them.
    fn churn_round(
        &mut self,
        plan: &ChurnPlan,
        i: usize,
        record: bool,
    ) -> (Vec<ColumnRef>, Vec<Vec<JoinCandidate>>) {
        let prev = (i + plan.len() - 1) % plan.len();
        let expect = self.mutate(plan, Some(prev), i);
        self.check((expect.added, expect.updated, expect.removed) == (2, 2 * 3, 2), || {
            format!("round {i} changed {expect:?}, not the planned 2 added, 6 updated, 2 removed")
        });
        self.sync(&expect, true);

        // Reads: every column of the tables this round changed or added
        // (their cache entries were just invalidated), then warm reads of
        // tables no round touches.
        let r = &plan.rounds[i];
        let mut changed: Vec<String> = [r.change_values, r.add_column, r.drop_column]
            .iter()
            .map(|&t| self.base[t].name().to_string())
            .collect();
        changed.push(churn::added_table_name(i));
        let mut queries: Vec<ColumnRef> = Vec::new();
        {
            let w = self.sut.connector.warehouse();
            for t in &changed {
                let meta = w.table_meta(DB, t).expect("changed table exists");
                queries.extend(meta.column_refs());
            }
        }
        let cold = queries.len();
        let warm_pool: Vec<ColumnRef> = plan
            .untouched
            .iter()
            .flat_map(|&t| self.base[t].columns().iter().map(move |c| (t, c.name().to_string())))
            .map(|(t, c)| ColumnRef::new(DB, self.base[t].name(), c))
            .collect();
        let mut rng = rng_for(self.args.seed, 0x400 + i as u64);
        for _ in 0..WARM_PER_ROUND {
            queries.push(warm_pool[rng.gen_index(warm_pool.len())].clone());
        }
        let mut misses = 0u64;
        let mut answers: Vec<Vec<JoinCandidate>> = Vec::with_capacity(queries.len());
        for q in &queries {
            let d = self.discover(q, record);
            misses += u64::from(d.as_ref().is_some_and(|d| !d.timing.cache_hit));
            answers.push(d.map(|d| d.candidates).unwrap_or_default());
        }
        self.check(misses == cold as u64, || {
            format!("round {i}: {misses} cache misses, expected {cold}")
        });
        self.s.cold_reads_per_round.push(misses as f64);

        if record {
            let busy_before = self.busy_us;
            let mut same = true;
            for (q, want) in queries.iter().zip(&answers) {
                let got = self.discover(q, false).map(|d| d.candidates);
                same &= got.as_ref() == Some(want);
            }
            self.s.pass_s.push((self.busy_us - busy_before) / 1e6 / queries.len() as f64);
            self.check(same, || format!("round {i}: warm re-reads differ from the first reads"));
            self.batch_over(&queries, &answers, true);
        }

        let ckpt = Checkpointer::new(self.tmp.0.join("state.wgs"));
        let mut fresh = None;
        for _ in 0..DURABILITY_REPS {
            fresh = self.checkpoint_and_recover(&ckpt);
            if fresh.is_none() {
                return (queries, answers);
            }
        }
        let fresh = fresh.expect("at least one recovery");
        let picks: Vec<usize> = (0..RECOVER_CHECKS / 2)
            .chain(queries.len() - RECOVER_CHECKS / 2..queries.len())
            .collect();
        for j in picks {
            let q = &queries[j];
            let same =
                fresh.discover(q, K).map(|d| d.candidates).ok().as_ref() == Some(&answers[j]);
            self.check(same, || {
                format!("{q}: recovered answers differ from the checkpointed ones")
            });
        }
        if self.sut.spans.is_some() {
            self.persist_replay();
        }
        (queries, answers)
    }

    /// `Checkpointer::checkpoint` the system, then `recover` it into a
    /// fresh one, timing both; `None` when either fails.
    fn checkpoint_and_recover(&mut self, ckpt: &Checkpointer) -> Option<WarpGate> {
        let start = Instant::now();
        let saved = ckpt.checkpoint(&self.sut.wg);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        if let Err(e) = saved {
            self.failed += 1;
            self.failures.push(format!("checkpoint: {e}"));
            return None;
        }
        self.s.checkpoint_ms.push(ms);
        self.s
            .snapshot_bytes
            .push(std::fs::metadata(ckpt.path()).map(|m| m.len() as f64).unwrap_or(0.0));

        let mut fresh = WarpGate::with_backend(self.sut.config, self.sut.client.clone());
        let start = Instant::now();
        let recovered = ckpt.recover(&mut fresh);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.attempted += 1;
        match recovered {
            Ok(report) => {
                self.s.recover_ms.push(ms);
                let n = self.sut.wg.len();
                self.check(report.columns == n, || {
                    format!("recovered {} of {n} columns", report.columns)
                });
                Some(fresh)
            }
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("recover: {e}"));
                None
            }
        }
    }

    /// Post-churn answers must equal those of a system indexed from
    /// scratch over the same warehouse (up to tie order: item ids differ).
    fn check_against_scratch(&mut self, queries: &[ColumnRef], answers: &[Vec<JoinCandidate>]) {
        let scratch = WarpGate::with_backend(self.sut.config, self.sut.client.clone());
        if let Err(e) = scratch.index_warehouse() {
            self.failures.push(format!("scratch index: {e}"));
            return;
        }
        for (q, want) in queries.iter().zip(answers) {
            let got = scratch.discover(q, K).map(|d| d.candidates).unwrap_or_default();
            self.check(same_modulo_ties(&got, want), || {
                format!("{q}: post-churn answers differ from a from-scratch index")
            });
        }
    }

    /// Main phase of `sync_churn`: whole cycles of rounds.
    /// The last round's answers are then checked, untimed, against a
    /// system indexed from scratch.
    fn main_churn(&mut self, plan: &ChurnPlan) {
        self.prime(plan);
        self.count_misses = true;
        let mut i = 0usize;
        let mut last = None;
        self.timed_loop(|run| {
            last = Some(run.churn_round(plan, i, true));
            i = (i + 1) % plan.len();
            i == 0
        });
        self.count_misses = false;
        if let Some((queries, answers)) = last {
            self.check_against_scratch(&queries, &answers);
        }
    }

    // ---- traced replays ---------------------------------------------------

    fn persist_replay(&mut self) {
        let path = self.tmp.0.join("replay.wgs");
        let t = Instant::now();
        let bytes = self.sut.wg.to_bytes();
        let t_encode = t.elapsed();
        let t = Instant::now();
        let written = warpgate_core::atomic_write(&path, &bytes);
        let t_write = t.elapsed();
        let t = Instant::now();
        let read = std::fs::read(&path);
        let t_read = t.elapsed();
        let (Ok(()), Ok(read)) = (written, read) else {
            self.failures.push("persist replay: write or read failed".into());
            return;
        };
        let mut fresh = WarpGate::with_backend(self.sut.config, self.sut.client.clone());
        let t = Instant::now();
        let loaded = fresh.load_bytes(&read);
        let t_decode = t.elapsed();
        self.check(loaded.is_ok() && fresh.len() == self.sut.wg.len(), || {
            "persist replay: reload failed".into()
        });
        self.l.encode_ms.push(t_encode.as_secs_f64() * 1e3);
        self.l.write_ms.push(t_write.as_secs_f64() * 1e3);
        self.l.read_ms.push(t_read.as_secs_f64() * 1e3);
        self.l.decode_ms.push(t_decode.as_secs_f64() * 1e3);
        self.l.bytes_per_column.push(bytes.len() as f64 / self.sut.wg.len().max(1) as f64);
    }

    /// Replay every base column's lookup through `wg_lsh`, check it
    /// against the reference answers, and score those answers against
    /// the benchmark's own brute-force cosine top-k.
    fn lsh_replay(&mut self) {
        let replay = match Replay::from_system(&self.sut.wg, &self.sut.config) {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("lsh replay: {e}"));
                return;
            }
        };
        let columns = self.columns.clone();
        let vectors: Vec<Option<Vec<f32>>> = columns
            .iter()
            .map(|c| self.vector(c).filter(|v| !v.is_zero()).map(|v| v.0.clone()))
            .collect();
        for (i, q) in columns.iter().enumerate() {
            let Some((answers, t)) = replay.lookup(q, K) else { continue };
            self.l.sign_us.push(t.sign_us);
            self.l.candidates_us.push(t.candidates_us);
            self.l.rerank_us.push(t.rerank_us);
            let want: Vec<(ColumnRef, f32)> =
                self.reference[i].iter().map(|c| (c.reference.clone(), c.score)).collect();
            self.check(answers == want, || format!("{q}: replayed lookup differs from discover"));

            let Some(qv) = &vectors[i] else { continue };
            let mut exact: Vec<(f64, usize)> = columns
                .iter()
                .enumerate()
                .filter(|(j, c)| !c.same_table(q) && vectors[*j].is_some())
                .map(|(j, _)| (cosine(qv, vectors[j].as_ref().expect("filtered")), j))
                .collect();
            exact.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite cosine"));
            exact.truncate(K);
            if exact.is_empty() {
                continue;
            }
            let found = exact
                .iter()
                .filter(|(_, j)| self.reference[i].iter().any(|c| c.reference == columns[*j]))
                .count();
            self.l.recall_vs_exact.push(found as f64 / exact.len() as f64);
        }
    }

    /// The backend calls of a cold discover (validate, three cost reads,
    /// one scan), issued over `RemoteBackend` to a loopback
    /// `RemoteBackendServer` serving the same connector, with a timing
    /// decorator on each side of the wire.
    fn wire_replay(&mut self) {
        let (served, server) = TimedBackend::wrap(self.sut.connector.clone());
        let listener = match RemoteBackendServer::serve(served, "127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                self.failures.push(format!("wire replay: serve: {e}"));
                return;
            }
        };
        let remote = match RemoteBackend::connect(listener.local_addr().to_string()) {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("wire replay: connect: {e}"));
                return;
            }
        };
        let (client, spans) = TimedBackend::wrap(Arc::new(remote));
        let sample = self.sut.config.sample;
        let mut order = self.order(0x70);
        order.truncate(WIRE_COLUMNS);
        for i in order {
            let q = &self.columns[i];
            let (c0, s0) = (spans.all.read(), server.all.read());
            let ok = client.validate_column(q).is_ok() && {
                client.costs();
                client.costs();
                let scanned = client.scan_column(q, sample).is_ok();
                client.costs();
                scanned
            };
            let (call, served) = (spans.all.read().since(c0), server.all.read().since(s0));
            let q = q.clone();
            self.check(ok, || format!("wire replay: {q} failed over the wire"));
            self.l.store_call_us.push(call.us());
            self.l.store_server_us.push(served.us());
            self.l.store_wire_us.push(call.us() - served.us());
        }
        listener.shutdown();
    }

    /// Time cold block reads (disk read plus CRC check) of the system's
    /// paged segments, one fresh cache miss per block.
    fn block_replay(&mut self) {
        let dir = self.tmp.0.join("blocks");
        if let Err(e) = self.sut.wg.save_paged(&dir) {
            self.failures.push(format!("block replay: save_paged: {e}"));
            return;
        }
        let Ok(entries) = std::fs::read_dir(&dir) else { return };
        for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
            if path.extension().is_none_or(|x| x != "seg") {
                continue;
            }
            let cache = wg_lsh::BlockCache::new(0);
            let segment = match wg_lsh::VectorSegment::open(&path, cache) {
                Ok(s) => s,
                Err(e) => {
                    self.failures.push(format!("block replay: open {}: {e}", path.display()));
                    continue;
                }
            };
            for b in 0..segment.block_count() {
                let t = Instant::now();
                let ok = segment.block(b).is_ok();
                self.l.block_read_us.push(t.elapsed().as_secs_f64() * 1e6);
                self.check(ok, || {
                    format!("block replay: block {b} of {} unreadable", path.display())
                });
            }
        }
    }

    // ---- metrics ------------------------------------------------------------

    fn recall_at_10(&self) -> f64 {
        let index: HashMap<&ColumnRef, usize> =
            self.columns.iter().enumerate().map(|(i, c)| (c, i)).collect();
        let mut recalls = Vec::new();
        for q in &self.corpus.queries {
            let truth = self.corpus.truth.answers(q);
            let Some(&i) = index.get(q) else { continue };
            if truth.is_empty() {
                continue;
            }
            let found = truth
                .iter()
                .filter(|t| self.reference[i].iter().any(|c| &c.reference == *t))
                .count();
            recalls.push(found as f64 / truth.len() as f64);
        }
        recalls.iter().sum::<f64>() / recalls.len().max(1) as f64
    }
}

fn med(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

pub fn run(args: &Args) -> Result<Output, String> {
    let tmp = TempDir::new()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<(Sut, Corpus)> = None;
    let mut side = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous system before building the next one; the
        // read-only workloads keep the one before the last as their side
        // system, in RAM (`paged_discover` keeps the in-RAM system its
        // paged one was saved from).
        if let Some((mut sut, _)) = last.take() {
            if rep + 1 == SETUP_REPS && args.workload != Workload::Churn {
                if let Some((ram, ram_model)) = sut.ram.take() {
                    sut.wg = ram;
                    sut.config = args.workload.config();
                    sut.budget = 0;
                    if let (Some(spans), Some(model)) = (sut.spans.as_mut(), ram_model) {
                        spans.model = model;
                    }
                }
                side = Some(Side { sut, vectors: HashMap::new(), done: 0 });
            }
        }
        let (sut, corpus, timing) = set_up(args.workload, args.trace, &tmp.0)?;
        setups.push(timing);
        last = Some((sut, corpus));
    }
    let (sut, corpus) = last.expect("at least one set-up");
    let columns: Vec<ColumnRef> = corpus.warehouse.iter_columns().map(|(r, _)| r).collect();
    let total = columns.len();
    let base: Vec<Table> =
        corpus.warehouse.database(DB).map_err(|e| e.to_string())?.tables().to_vec();
    let plan = ChurnPlan::generate(base.len(), args.seed);
    let mut run = Run {
        args,
        tmp,
        sut,
        corpus,
        columns,
        base,
        plan: plan.clone(),
        reference: vec![Vec::new(); total],
        side,
        busy_us: 0.0,
        vectors: HashMap::new(),
        count_misses: false,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        s: Samples::default(),
        l: Layers::default(),
    };
    let indexed = run.sut.wg.len();
    run.check(indexed == total, || format!("indexed {indexed} of {total} columns"));

    let t0 = Instant::now();
    let phase =
        |name: &str| eprintln!("perfbench: {name} done at {:.1}s", t0.elapsed().as_secs_f64());
    phase("set-up");
    run.prime_side();
    match args.workload {
        Workload::Warm => run.main_warm(),
        Workload::Paged => run.main_paged(),
        // The reference answers, on the base warehouse.
        Workload::Churn => run.pass(&run.order(0x50), false, false),
    }
    phase("main phase");
    // The replays and recall read the index the reference answers came
    // from, so they precede `sync_churn`'s rounds.
    if args.trace {
        run.lsh_replay();
        run.wire_replay();
        phase("lsh and wire replays");
    }
    let recall = run.recall_at_10();
    if args.workload == Workload::Churn {
        run.main_churn(&plan);
        phase("churn rounds");
    }
    let pass_s = med(&run.s.pass_s);
    let batch_s = med(&run.s.batch_s);
    let discover_us = std::mem::take(&mut run.s.discover_us);
    if args.trace {
        run.block_replay();
        phase("block replay");
    }

    let p50 = chunked_percentile(&discover_us, 50.0);
    let p99 = chunked_percentile(&discover_us, 99.0);
    let samples = discover_us.len();
    run.check(args.trace || p99.is_some(), || {
        format!("{samples} discover samples cannot carry a p99")
    });
    let s = &run.s;
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        let l = &run.l;
        let index_cols_per_s: Vec<f64> = setups.iter().map(|t| t.index_cols_per_s).collect();
        let build_s: Vec<f64> = setups.iter().map(|t| t.build_s).collect();
        let totals = run.sut.connector.costs();
        metrics.extend([
            ("trace.discover_p50_us", p50.unwrap_or(0.0), "us"),
            ("core.cache_hit_ratio", ratio(l.cache_hits, l.discovers), "ratio"),
            ("core.self_us", med(&l.self_us), "us"),
            ("core.index_cols_per_s", med(&index_cols_per_s), "cols/s"),
            ("batch.speedup_vs_sequential", pass_s / batch_s, "ratio"),
            ("sync.index_update_us", med(&l.sync_index_update_us), "us"),
            ("sync.cold_reads_per_round", med(&s.cold_reads_per_round), "count"),
            ("store.calls_per_discover", med(&l.store_calls), "count"),
            ("store.call_us", med(&l.store_call_us), "us"),
            ("store.server_us", med(&l.store_server_us), "us"),
            ("store.wire_us", med(&l.store_wire_us), "us"),
            ("store.scan_bytes_per_scan", ratio(totals.bytes_scanned, totals.requests), "bytes"),
            ("store.snapshot_versions_us", med(&l.snapshot_versions_us), "us"),
            ("store.scans_per_sync", med(&l.scans_per_sync), "count"),
            ("embed.column_us", med(&l.embed_column_us), "us"),
            ("embed.values_per_column", med(&l.embed_values), "count"),
            ("lsh.lookup_us", med(&l.lookup_us), "us"),
            ("lsh.sign_us", med(&l.sign_us), "us"),
            ("lsh.candidates_us", med(&l.candidates_us), "us"),
            ("lsh.rerank_us", med(&l.rerank_us), "us"),
            ("lsh.candidates_per_query", mean(&l.candidates), "count"),
            ("lsh.scored_per_query", mean(&l.scored), "count"),
            ("lsh.recall_vs_exact", mean(&l.recall_vs_exact), "fraction"),
            ("paged.blocks_read_per_query", ratio(l.blocks_read, l.discovers), "count"),
            ("paged.blocks_pruned_per_query", ratio(l.blocks_pruned, l.discovers), "count"),
            ("paged.block_hit_ratio", ratio(l.block_hits, l.block_lookups), "ratio"),
            ("paged.evictions_per_query", ratio(l.evictions, l.paged_queries), "count"),
            ("paged.block_read_us", med(&l.block_read_us), "us"),
            ("paged.peak_resident_bytes", l.peak_resident_bytes, "bytes"),
            ("persist.encode_ms", med(&l.encode_ms), "ms"),
            ("persist.write_ms", med(&l.write_ms), "ms"),
            ("persist.read_ms", med(&l.read_ms), "ms"),
            ("persist.decode_ms", med(&l.decode_ms), "ms"),
            ("persist.bytes_per_column", med(&l.bytes_per_column), "bytes"),
            ("corpora.build_s", med(&build_s), "s"),
        ]);
    } else {
        let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
        metrics.extend([
            ("discover_p50_us", p50.unwrap_or(0.0), "us"),
            ("discover_p99_us", p99.unwrap_or(0.0), "us"),
            ("batch_qps", 1.0 / batch_s, "queries/s"),
            ("scan_bytes_per_query", ratio(s.miss_bytes, s.misses), "bytes"),
            ("recall_at_10", recall, "fraction"),
            ("sync_ms", med(&s.sync_ms), "ms"),
            ("sync_scan_bytes", mean(&s.sync_bytes), "bytes"),
            ("checkpoint_ms", med(&s.checkpoint_ms), "ms"),
            ("recover_ms", med(&s.recover_ms), "ms"),
            ("snapshot_bytes", med(&s.snapshot_bytes), "bytes"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("setup_s", med(&setup_s), "s"),
        ]);
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            run.failures.push(format!("metric {name} is not a number"));
        }
    }
    let metrics =
        metrics.into_iter().map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u)).collect();
    Ok(Output {
        correct: run.failures.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        failures: run.failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(column: &str, score: f32) -> JoinCandidate {
        JoinCandidate { reference: ColumnRef::new("db", "t", column), score }
    }

    #[test]
    fn ties_may_reorder_but_not_change_members() {
        let a = vec![cand("x", 0.9), cand("y", 0.8), cand("z", 0.8), cand("w", 0.5)];
        let swapped = vec![cand("x", 0.9), cand("z", 0.8), cand("y", 0.8), cand("w", 0.5)];
        assert!(same_modulo_ties(&a, &a));
        assert!(same_modulo_ties(&a, &swapped));
        let other = vec![cand("x", 0.9), cand("y", 0.8), cand("v", 0.8), cand("w", 0.5)];
        assert!(!same_modulo_ties(&a, &other), "a whole tie group must keep its members");
        let rescored = vec![cand("x", 0.9), cand("y", 0.8), cand("z", 0.7), cand("w", 0.5)];
        assert!(!same_modulo_ties(&a, &rescored));
        assert!(!same_modulo_ties(&a, &a[..3]));
    }

    #[test]
    fn a_tie_cut_at_k_may_keep_other_members() {
        let mut a: Vec<JoinCandidate> =
            (0..K - 1).map(|i| cand(&format!("c{i}"), 0.9 - i as f32 / 100.0)).collect();
        let mut b = a.clone();
        a.push(cand("tie_a", 0.1));
        b.push(cand("tie_b", 0.1));
        assert!(same_modulo_ties(&a, &b));
    }

    #[test]
    fn expected_sync_follows_the_catalog_diff() {
        let state = |entries: &[(&str, u64, &[&str])]| -> HashMap<String, (u64, Vec<String>)> {
            entries
                .iter()
                .map(|(t, v, cols)| {
                    (t.to_string(), (*v, cols.iter().map(|c| c.to_string()).collect()))
                })
                .collect()
        };
        let before = state(&[("a", 1, &["x", "y"]), ("b", 1, &["x", "y", "z"]), ("c", 1, &["x"])]);
        let after = state(&[("a", 1, &["x", "y"]), ("b", 2, &["x", "w"]), ("d", 1, &["x", "y"])]);
        assert_eq!(
            expected_sync(&before, &after),
            ExpectedSync { added: 1, updated: 1, removed: 1, scans: 4, columns_removed: 3 }
        );
    }
}
