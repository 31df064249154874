//! Set-up: generate the collection, index it, build the product instance
//! the workload talks to. Everything here uses the product's defaults
//! (`Engine::builder`, `ServiceConfig::default()`, `Device::with_defaults()`);
//! the one thing the benchmark chooses is the hardware-shaped
//! `ShardSpec::new(2, 2)` of the service workloads.

use std::sync::Arc;
use std::time::Instant;

use poir_collections::{Document, SyntheticCollection};
use poir_core::{Engine, QueryService, ServiceConfig, ShardSpec, ShardedEngine, TelemetryOptions};
use poir_inquery::{Index, IndexBuilder, StopWords};
use poir_storage::{Device, FileHandle};

use crate::inputs::Workload;

/// Two shards on two workers: the sandbox has two cores.
pub const SERVICE_SHARDS: ShardSpec = ShardSpec { shards: 2, workers: 2 };

pub fn shard_spec(workload: Workload) -> ShardSpec {
    if workload.is_service() {
        SERVICE_SHARDS
    } else {
        ShardSpec::default()
    }
}

/// Accumulates the timed parts of a set-up; whatever runs between
/// [`Stopwatch::lap`] calls is not counted.
#[derive(Debug, Default)]
pub struct Stopwatch {
    pub laps: Vec<(&'static str, f64)>,
}

impl Stopwatch {
    pub fn lap<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.laps.push((name, t.elapsed().as_secs_f64()));
        out
    }

    pub fn total(&self) -> f64 {
        self.laps.iter().map(|(_, s)| s).sum()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.laps.iter().filter(|(n, _)| *n == name).map(|(_, s)| s).sum()
    }
}

pub fn generate(collection: &SyntheticCollection) -> Vec<Document> {
    collection.documents().collect()
}

pub fn index(docs: &[Document]) -> Index {
    let mut builder = IndexBuilder::new(StopWords::default());
    for d in docs {
        builder.add_document(&d.name, &d.text);
    }
    builder.finish()
}

pub fn text_bytes(docs: &[Document]) -> u64 {
    docs.iter().map(|d| d.text.len() as u64).sum()
}

/// What a workload sends requests to.
pub enum Target {
    Service(QueryService),
    Engine(Box<Engine>),
}

/// A built product instance plus what the benchmark needs to observe it
/// from outside: its device (I/O counters) and store files (sizes).
pub struct Instance {
    pub device: Arc<Device>,
    pub stores: Vec<FileHandle>,
    pub target: Target,
}

impl Instance {
    pub fn service(&self) -> &QueryService {
        match &self.target {
            Target::Service(s) => s,
            Target::Engine(_) => panic!("workload target is an engine, not a service"),
        }
    }

    pub fn engine(&mut self) -> &mut Engine {
        match &mut self.target {
            Target::Engine(e) => e,
            Target::Service(_) => panic!("workload target is a service, not an engine"),
        }
    }

    pub fn store_bytes(&self) -> u64 {
        self.stores.iter().map(|h| h.len().expect("store file length")).sum()
    }
}

/// `EngineBuilder::build_sharded` on a fresh default device.
pub fn sharded(
    index: Index,
    spec: ShardSpec,
    telemetry: TelemetryOptions,
) -> (Arc<Device>, ShardedEngine) {
    let device = Device::with_defaults();
    let engine = Engine::builder(&device)
        .sharding(spec)
        .telemetry(telemetry)
        .build_sharded(index)
        .expect("build_sharded on a fresh device");
    (device, engine)
}

fn store_handles(engine: &ShardedEngine) -> Vec<FileHandle> {
    (0..engine.num_shards()).map(|i| engine.shard_store_handle(i).clone()).collect()
}

/// The service instance: `build_sharded` then `QueryService::start_with`
/// under the default config — the two halves of `build_service`, called
/// separately only to keep the store file handles.
pub fn service(index: Index, telemetry: TelemetryOptions) -> Instance {
    let (device, engine) = sharded(index, SERVICE_SHARDS, telemetry);
    let stores = store_handles(&engine);
    let service =
        QueryService::start_with(engine, ServiceConfig::default()).expect("service start");
    Instance { device, stores, target: Target::Service(service) }
}

/// The unsharded engine of `update_mix`: `Engine::builder(..).build(..)`.
pub fn engine(index: Index) -> Instance {
    let device = Device::with_defaults();
    let engine = Engine::builder(&device).build(index).expect("engine build on a fresh device");
    let stores = vec![engine.store_handle().clone()];
    Instance { device, stores, target: Target::Engine(Box::new(engine)) }
}

pub fn instance(workload: Workload, index: Index) -> Instance {
    if workload.is_service() {
        service(index, TelemetryOptions::off())
    } else {
        engine(index)
    }
}
