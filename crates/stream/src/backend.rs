//! The serving-layer switch between all-history and sliding-window
//! mining.

use crate::window::AdvanceOutcome;
use crate::windowed_engine::{WindowedEngine, WindowedIngest};
use dar_core::{ClusterSummary, CoreError, Partitioning};
use dar_engine::{DarEngine, EngineConfig, EngineStats, QueryOutcome};
use mining::RuleQuery;

/// Either a classic all-history [`DarEngine`] or a sliding-window
/// [`WindowedEngine`], behind the one API `dar-serve` drives: ingest,
/// advance, query, snapshot, WAL-frame replay.
// One backend exists per server/session, so the variant size gap is
// irrelevant next to the indirection a Box would add on every call.
#[allow(clippy::large_enum_variant)]
pub enum EngineBackend {
    /// All-history mining: every ingested tuple stays in the horizon.
    Static(DarEngine),
    /// Sliding-window mining over the most recent windows only.
    Windowed(WindowedEngine),
}

impl From<DarEngine> for EngineBackend {
    fn from(engine: DarEngine) -> Self {
        EngineBackend::Static(engine)
    }
}

impl From<WindowedEngine> for EngineBackend {
    fn from(engine: WindowedEngine) -> Self {
        EngineBackend::Windowed(engine)
    }
}

impl EngineBackend {
    /// True for the windowed variant.
    pub fn is_windowed(&self) -> bool {
        matches!(self, EngineBackend::Windowed(_))
    }

    /// Feeds a batch. For the windowed backend the outcome reports window
    /// movement; the static backend always returns `None`.
    ///
    /// # Errors
    /// Validation errors reject the whole batch, leaving the backend
    /// untouched.
    pub fn ingest(&mut self, rows: &[Vec<f64>]) -> Result<Option<WindowedIngest>, CoreError> {
        match self {
            EngineBackend::Static(e) => e.ingest(rows).map(|()| None),
            EngineBackend::Windowed(e) => e.ingest(rows).map(Some),
        }
    }

    /// Seals the open window (windowed backend only).
    ///
    /// # Errors
    /// The static backend has no windows to advance.
    pub fn advance(&mut self) -> Result<AdvanceOutcome, CoreError> {
        match self {
            EngineBackend::Static(_) => Err(CoreError::LayoutMismatch(
                "advance requires a windowed engine (--window-batches)".into(),
            )),
            EngineBackend::Windowed(e) => Ok(e.advance()),
        }
    }

    /// Replays one recovered WAL frame (see
    /// [`WindowedEngine::replay_frame`]). The static backend ignores the
    /// window tag and ingests the rows.
    ///
    /// # Errors
    /// Propagates ingest validation errors.
    pub fn replay_frame(&mut self, tag: Option<u64>, rows: &[Vec<f64>]) -> Result<(), CoreError> {
        match self {
            EngineBackend::Static(e) => {
                if rows.is_empty() {
                    return Ok(());
                }
                // Through `replay_wal` (not plain ingest) so the engine's
                // replay counters see recovered frames.
                e.replay_wal(rows)
            }
            EngineBackend::Windowed(e) => e.replay_frame(tag, rows),
        }
    }

    /// Answers one rule-mining query.
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query(&mut self, query: &RuleQuery) -> Result<QueryOutcome, CoreError> {
        match self {
            EngineBackend::Static(e) => e.query(query),
            EngineBackend::Windowed(e) => e.query(query),
        }
    }

    /// The read-only fast path (see [`DarEngine::query_cached`]).
    ///
    /// # Errors
    /// Propagates arity errors from explicit density thresholds.
    pub fn query_cached(&self, query: &RuleQuery) -> Result<Option<QueryOutcome>, CoreError> {
        match self {
            EngineBackend::Static(e) => e.query_cached(query),
            EngineBackend::Windowed(e) => e.query_cached(query),
        }
    }

    /// Serializes the backend: an engine-v2 binary snapshot for the
    /// static variant, a dar-stream v2 ring snapshot for the windowed one.
    /// [`EngineBackend::restore`] sniffs the header and routes back.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        match self {
            EngineBackend::Static(e) => e.snapshot(),
            EngineBackend::Windowed(e) => e.snapshot(),
        }
    }

    /// Serializes the backend's *mergeable* view — always a plain
    /// engine-v2 snapshot: all history for the static variant, the live
    /// horizon for the windowed one. This is what a cluster coordinator
    /// pulls; unlike [`EngineBackend::snapshot`], the result feeds
    /// [`DarEngine::merge_parsed_snapshots`] directly.
    ///
    /// # Errors
    /// Propagates serialization failures.
    pub fn pull_snapshot(&mut self) -> Result<Vec<u8>, CoreError> {
        match self {
            EngineBackend::Static(e) => e.snapshot(),
            EngineBackend::Windowed(e) => e.horizon_snapshot(),
        }
    }

    /// Resumes a backend from a snapshot body, routing on the header:
    /// a `dar-stream` header (v1 text or v2 framed-binary) restores a
    /// windowed engine, anything else falls through to
    /// [`DarEngine::restore`] (which also unseals checksummed snapshots
    /// and accepts both engine formats).
    ///
    /// # Errors
    /// Rejects malformed snapshots of either flavor.
    pub fn restore(bytes: &[u8], config: EngineConfig) -> Result<Self, CoreError> {
        let body = dar_durable::unseal_bytes(bytes)
            .map_err(|detail| CoreError::LayoutMismatch(format!("snapshot footer: {detail}")))?
            .0;
        if body.starts_with(b"dar-stream v") {
            return Ok(EngineBackend::Windowed(WindowedEngine::restore(body, config)?));
        }
        // `DarEngine::restore` unseals (and re-verifies) on its own.
        Ok(EngineBackend::Static(DarEngine::restore(bytes, config)?))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        match self {
            EngineBackend::Static(e) => e.epoch(),
            EngineBackend::Windowed(e) => e.epoch(),
        }
    }

    /// Tuples in the mining horizon (all history for static, the live
    /// windows for windowed).
    pub fn tuples(&self) -> u64 {
        match self {
            EngineBackend::Static(e) => e.tuples(),
            EngineBackend::Windowed(e) => e.tuples(),
        }
    }

    /// The partitioning this backend mines under.
    pub fn partitioning(&self) -> &Partitioning {
        match self {
            EngineBackend::Static(e) => e.partitioning(),
            EngineBackend::Windowed(e) => e.partitioning(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        match self {
            EngineBackend::Static(e) => e.config(),
            EngineBackend::Windowed(e) => e.config(),
        }
    }

    /// The row width ingest validates against.
    pub fn required_row_width(&self) -> usize {
        match self {
            EngineBackend::Static(e) => e.required_row_width(),
            EngineBackend::Windowed(e) => e.required_row_width(),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        match self {
            EngineBackend::Static(e) => e.stats(),
            EngineBackend::Windowed(e) => e.stats(),
        }
    }

    /// The cluster summaries of the current epoch, closing it if needed.
    pub fn clusters(&mut self) -> &[ClusterSummary] {
        match self {
            EngineBackend::Static(e) => e.clusters(),
            EngineBackend::Windowed(e) => e.clusters(),
        }
    }

    /// The live horizon for the windowed backend, `None` for static.
    pub fn window_span(&self) -> Option<(u64, u64)> {
        match self {
            EngineBackend::Static(_) => None,
            EngineBackend::Windowed(e) => Some(e.window_span()),
        }
    }
}
