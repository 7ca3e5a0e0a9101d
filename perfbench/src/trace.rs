//! Timing decorators for the traced run. They wrap the public layer
//! seams (`WarehouseBackend`, `EmbeddingModel`) from outside the program
//! and count calls and busy nanoseconds at each boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wg_embed::tokenizer::Token;
use wg_embed::{EmbeddingModel, Vector};
use wg_store::{
    BackendHandle, Column, ColumnRef, CostSnapshot, SampleSpec, StoreResult, Table, TableMeta,
    TableVersion, WarehouseBackend,
};

/// Calls and busy time at one boundary.
#[derive(Default)]
pub struct Span {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// A point-in-time reading of a [`Span`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanReading {
    pub calls: u64,
    pub nanos: u64,
}

impl SpanReading {
    pub fn since(self, earlier: SpanReading) -> SpanReading {
        SpanReading { calls: self.calls - earlier.calls, nanos: self.nanos - earlier.nanos }
    }

    pub fn us(self) -> f64 {
        self.nanos as f64 / 1e3
    }
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn read(&self) -> SpanReading {
        SpanReading {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
        }
    }
}

/// Per-method spans of a [`TimedBackend`].
#[derive(Default)]
pub struct BackendSpans {
    /// Every call, whatever the method.
    pub all: Span,
    pub scan_column: Span,
    pub snapshot_versions: Span,
}

/// A `WarehouseBackend` that times every call into the backend it wraps.
pub struct TimedBackend {
    inner: BackendHandle,
    pub spans: Arc<BackendSpans>,
}

impl TimedBackend {
    pub fn wrap(inner: BackendHandle) -> (BackendHandle, Arc<BackendSpans>) {
        let spans = Arc::new(BackendSpans::default());
        (Arc::new(TimedBackend { inner, spans: spans.clone() }), spans)
    }
}

impl WarehouseBackend for TimedBackend {
    fn name(&self) -> String {
        self.spans.all.time(|| self.inner.name())
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.spans.all.time(|| self.inner.list_tables())
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.spans.all.time(|| self.inner.table_meta(database, table))
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.spans.all.time(|| self.spans.scan_column.time(|| self.inner.scan_column(r, sample)))
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        self.spans.all.time(|| self.inner.scan_table(database, table, sample))
    }

    fn costs(&self) -> CostSnapshot {
        self.spans.all.time(|| self.inner.costs())
    }

    fn reset_costs(&self) {
        self.spans.all.time(|| self.inner.reset_costs())
    }

    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        self.spans.all.time(|| self.inner.validate_column(r))
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        self.spans.all.time(|| self.spans.snapshot_versions.time(|| self.inner.snapshot_versions()))
    }
}

/// An `EmbeddingModel` that times every value embedding of the model it
/// wraps (one call per distinct value of a column).
pub struct TimedModel {
    inner: Arc<dyn EmbeddingModel>,
    pub span: Arc<Span>,
}

impl TimedModel {
    pub fn wrap(inner: Arc<dyn EmbeddingModel>) -> (Arc<dyn EmbeddingModel>, Arc<Span>) {
        let span = Arc::new(Span::default());
        (Arc::new(TimedModel { inner, span: span.clone() }), span)
    }
}

impl EmbeddingModel for TimedModel {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn embed_tokens(&self, tokens: &[Token]) -> Vector {
        self.span.time(|| self.inner.embed_tokens(tokens))
    }
}
