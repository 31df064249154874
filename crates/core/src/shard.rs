//! Horizontal sharding: one engine per document-id range, merged top-k.
//!
//! [`ShardedEngine`] fronts `N` independently built [`Engine`]s, each
//! serving a contiguous document-id range of the collection (see
//! [`Index::split_shards`](poir_inquery::Index::split_shards)). Because
//! every shard scores with the **global** collection statistics — the
//! dictionary's collection-wide document frequencies and the full
//! document table — each shard's top `k` is exactly the restriction of
//! the unsharded ranking to that shard's documents, so merging the
//! per-shard lists with the ranking comparator reproduces the unsharded
//! top `k` bit-for-bit (ties included).
//!
//! The query service (see [`crate::service`]) runs these shards on a
//! worker pool; this module also works standalone for single-threaded
//! sharded evaluation and batch measurement.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use poir_inquery::{BeliefParams, Dictionary, DocTable, Index, StopWords};
use poir_storage::Device;
use poir_telemetry::Recorder;

use crate::engine::{self, Engine, QueryRequest, QueryResponse, QuerySetReport, RankedResult};
use crate::error::{CoreError, Result};
use crate::mneme_store::MnemeInvertedFile;

/// Sharding layout: how many shards to split the collection into and how
/// many service workers evaluate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Horizontal partitions of the document space (min 1).
    pub shards: usize,
    /// Worker threads in the query service's pool (min 1).
    pub workers: usize,
}

impl ShardSpec {
    /// A spec with both values clamped to at least 1.
    pub fn new(shards: usize, workers: usize) -> ShardSpec {
        ShardSpec { shards: shards.max(1), workers: workers.max(1) }
    }
}

impl Default for ShardSpec {
    /// The paper's configuration: one shard, one worker (no sharding).
    fn default() -> ShardSpec {
        ShardSpec { shards: 1, workers: 1 }
    }
}

impl fmt::Display for ShardSpec {
    /// Stable CLI/JSON form `"<shards>x<workers>"`; round-trips through
    /// [`ShardSpec::from_str`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.shards, self.workers)
    }
}

impl FromStr for ShardSpec {
    type Err = CoreError;

    /// Parses `"4x8"` (4 shards, 8 workers) or bare `"4"` (4 shards, 4
    /// workers). Zeroes are rejected rather than clamped: a spec that
    /// names zero shards is a typo, not a request for the default.
    fn from_str(s: &str) -> Result<ShardSpec> {
        let err = || CoreError::UnknownName { kind: "shard spec", value: s.to_string() };
        let (shards, workers) = match s.split_once(['x', 'X']) {
            Some((a, b)) => {
                (a.trim().parse().map_err(|_| err())?, { b.trim().parse().map_err(|_| err())? })
            }
            None => {
                let n: usize = s.trim().parse().map_err(|_| err())?;
                (n, n)
            }
        };
        if shards == 0 || workers == 0 {
            return Err(err());
        }
        Ok(ShardSpec { shards, workers })
    }
}

/// One shard's read path as the query service holds it: shared by every
/// worker, fetched through [`MnemeInvertedFile::shared_view`]. Stop words
/// and belief parameters are builder-wide (shard 0's stand for all).
pub(crate) struct ShardRuntime {
    pub(crate) dict: Dictionary,
    pub(crate) docs: DocTable,
    pub(crate) stop: StopWords,
    pub(crate) params: BeliefParams,
    pub(crate) store: MnemeInvertedFile,
}

/// `N` per-range engines behind the unsharded [`Engine`]'s query
/// interface. Built by
/// [`EngineBuilder::build_sharded`](crate::EngineBuilder::build_sharded).
pub struct ShardedEngine {
    spec: ShardSpec,
    shards: Vec<Engine>,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("spec", &self.spec)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// `shards` (at least one) were built on one device and share one
    /// recorder; the first shard's stand for all.
    pub(crate) fn from_shards(spec: ShardSpec, shards: Vec<Engine>) -> ShardedEngine {
        debug_assert_eq!(spec.shards, shards.len());
        ShardedEngine { spec, shards }
    }

    /// The sharding layout this engine was built with.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shards (≥ 1).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared telemetry recorder (one instance across all shards).
    pub fn recorder(&self) -> &Recorder {
        self.shards[0].recorder()
    }

    /// The simulated device all shards run on.
    pub fn device(&self) -> &Arc<Device> {
        self.shards[0].device()
    }

    /// The store file handle behind shard `shard` — fault-injection and
    /// operational tooling target a single shard's storage through this.
    pub fn shard_store_handle(&self, shard: usize) -> &poir_storage::FileHandle {
        self.shards[shard].store_handle()
    }

    /// Splits `index` and builds the shards — convenience for
    /// [`EngineBuilder::build_sharded`](crate::EngineBuilder::build_sharded);
    /// see that method for the full builder surface.
    pub fn build(device: &Arc<Device>, spec: ShardSpec, index: Index) -> Result<ShardedEngine> {
        Engine::builder(device).sharding(spec).build_sharded(index)
    }

    /// Runs one typed request across every shard through the evaluation
    /// [pipeline](crate::pipeline) and merges the per-shard top `k` into
    /// the global top `k` (bit-identical to the unsharded ranking; see the
    /// module docs). One shard behaves exactly as [`Engine::execute`].
    ///
    /// Without a mode override a sharded collection ranks
    /// [`DaatPruned`](crate::ExecMode::DaatPruned); term-at-a-time execution
    /// and structured queries are typed errors on more than one shard. The
    /// deadline (measured from entry; shard 0 always completes), the
    /// bounded retry of transient storage faults (the default
    /// [`RetryPolicy`](crate::RetryPolicy) budget, immediately — the direct
    /// path has no backoff clock of its own) and the
    /// [`QueryResponse::degraded`] partial when a shard still fails follow
    /// the pipeline's [deadline, retry and degrade rule](crate::pipeline).
    pub fn execute(&mut self, req: &QueryRequest) -> Result<QueryResponse> {
        engine::execute_on(&mut self.shards, req)
    }

    /// Processes a query set in batch mode across the shards, reproducing
    /// the unsharded measurement procedure: chill the OS cache, run every
    /// query through the [pipeline](crate::pipeline) (one shard: the
    /// engine's configured mode; more:
    /// [`DaatPruned`](crate::ExecMode::DaatPruned)), merge per-query
    /// rankings.
    ///
    /// Telemetry is aggregated from **one** shared-recorder delta taken
    /// around the whole run — the shards share a single recorder, so
    /// summing per-shard snapshots would double-count device events;
    /// record lookups are summed from each shard's monotone store counter
    /// instead. Per-pool buffer statistics are per-store and are not
    /// aggregated (`buffer_stats: None` on more than one shard). As in
    /// [`ShardedEngine::execute`], a shard that fails past the retry budget
    /// is left out of that query's ranking; the set fails only when a
    /// query loses every shard.
    pub fn run_query_set<S: AsRef<str>>(
        &mut self,
        queries: &[S],
        k: usize,
    ) -> Result<(QuerySetReport, Vec<Vec<RankedResult>>)> {
        engine::run_set_on(&mut self.shards, queries, k, None)
    }

    /// Decomposes into per-shard worker-pool parts for the query service
    /// (Mneme backends only).
    pub(crate) fn into_parts(self) -> Result<(ShardSpec, Vec<ShardRuntime>, Recorder)> {
        let recorder = self.recorder().clone();
        let parts = self.shards.into_iter().map(Engine::into_parts).collect::<Result<Vec<_>>>()?;
        Ok((self.spec, parts, recorder))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_round_trips() {
        let spec: ShardSpec = "4x8".parse().unwrap();
        assert_eq!(spec, ShardSpec { shards: 4, workers: 8 });
        assert_eq!(spec.to_string(), "4x8");
        assert_eq!(spec.to_string().parse::<ShardSpec>().unwrap(), spec);
        // Bare shard count: workers default to the shard count.
        assert_eq!("3".parse::<ShardSpec>().unwrap(), ShardSpec { shards: 3, workers: 3 });
        // Uppercase separator and surrounding whitespace are tolerated.
        assert_eq!("2X5".parse::<ShardSpec>().unwrap(), ShardSpec { shards: 2, workers: 5 });
        assert_eq!(" 2 x 5 ".parse::<ShardSpec>().unwrap(), ShardSpec::new(2, 5));
        assert_eq!(ShardSpec::default(), ShardSpec { shards: 1, workers: 1 });
        assert_eq!(ShardSpec::new(0, 0), ShardSpec { shards: 1, workers: 1 });
        for bad in ["", "0", "0x2", "2x0", "x", "2x", "x2", "axb", "-1x2"] {
            let err = bad.parse::<ShardSpec>().unwrap_err();
            assert!(
                matches!(err, CoreError::UnknownName { kind: "shard spec", .. }),
                "{bad:?} -> {err}"
            );
        }
    }
}
