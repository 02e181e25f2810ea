//! A serving benchmark for farmem on two clocks.
//!
//! Three closed-loop workloads drive the public APIs of `serve`,
//! `runtime`, `core`, `reclaim`, `alloc` and `fabric`. A run repeats
//! rounds — a fresh deployment (timed as set-up), then one fixed,
//! seed-generated request stream (timed per call) — until its time is
//! up. Host wall-clock says what the simulator and its services cost;
//! the client virtual clocks and access counters give the paper's
//! metrics. Every response is checked against a shadow model.
//! See `README.md` next to this crate for the metric glossary.

#![forbid(unsafe_code)]

pub mod gen;
pub mod ladder;
pub mod report;
pub mod round;
pub mod shadow;
pub mod stats;
pub mod trace;

use std::sync::Arc;
use std::time::Instant;

use farmem_alloc::FarAlloc;
use farmem_core::HtTreeConfig;
use farmem_fabric::{Fabric, FabricClient, FabricConfig, ReplicaConfig, Striping, PAGE};
use farmem_serve::{CacheServer, Response, ServeConfig, ServeWorker, TenantId, TenantSpec};

use crate::trace::{Tracer, NO_REQ, ROOT};

/// Zipf exponent of every workload's key draws.
pub const ZIPF_S: f64 = 0.99;

/// Bytes per memory node. Above the C allocator's largest dynamic mmap
/// threshold (32 MiB), so every node array is fresh zero pages and the
/// resident set counts only the far memory a workload touches, whatever
/// earlier rounds freed.
pub const NODE_CAPACITY: u64 = 64 << 20;

/// One workload: deployment shape, request mix, and round size.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: u32,
    pub node_capacity: u64,
    /// Mirrors per logical node (0 = unreplicated).
    pub replicas: u32,
    /// Key population (a power of two).
    pub keys: u64,
    pub value_len: usize,
    pub get_pct: u32,
    /// Puts; the rest of the mix are deletes.
    pub put_pct: u32,
    /// Keys `0..preload` are stored during set-up.
    pub preload: u64,
    /// Tenant default TTL in virtual ns (0 = none).
    pub ttl_ns: u64,
    /// Worker byte budget (LRU eviction watermark).
    pub budget: u64,
    pub reclaim_every: u64,
    /// Logical sessions for `CacheServer::run_sessions`; 0 means one
    /// synchronous `ServeWorker` timed call by call.
    pub sessions: usize,
    pub runtime_workers: usize,
    /// Requests in one round's stream.
    pub round_requests: usize,
}

pub const SERVE_READ_ZIPF: Spec = Spec {
    name: "serve_read_zipf",
    nodes: 4,
    node_capacity: NODE_CAPACITY,
    replicas: 1,
    keys: 1 << 16,
    value_len: 200,
    get_pct: 95,
    put_pct: 5,
    preload: 1 << 16,
    ttl_ns: 0,
    budget: u64::MAX,
    reclaim_every: 64,
    sessions: 0,
    runtime_workers: 1,
    round_requests: 400_000,
};

pub const SERVE_CHURN_TTL: Spec = Spec {
    name: "serve_churn_ttl",
    nodes: 4,
    node_capacity: NODE_CAPACITY,
    replicas: 1,
    keys: 1 << 20,
    value_len: 240,
    get_pct: 40,
    put_pct: 50,
    // Fill the byte budget: 4 MiB of 256-byte records.
    preload: 1 << 14,
    ttl_ns: 20_000_000,
    budget: 4 << 20,
    reclaim_every: 32,
    sessions: 0,
    runtime_workers: 1,
    round_requests: 300_000,
};

pub const SESSION_BATCH_1K: Spec = Spec {
    name: "session_batch_1k",
    nodes: 8,
    node_capacity: NODE_CAPACITY,
    replicas: 0,
    keys: 1 << 14,
    value_len: 1024,
    get_pct: 100,
    put_pct: 0,
    preload: 1 << 14,
    ttl_ns: 0,
    budget: u64::MAX,
    reclaim_every: 64,
    sessions: 256,
    runtime_workers: 2,
    round_requests: 256 * 1536,
};

pub const SPECS: [Spec; 3] = [SERVE_READ_ZIPF, SERVE_CHURN_TTL, SESSION_BATCH_1K];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.into_iter().find(|s| s.name == name)
}

impl Spec {
    pub fn fabric_config(&self) -> FabricConfig {
        FabricConfig {
            nodes: self.nodes,
            node_capacity: self.node_capacity,
            striping: Striping::Striped { stripe: PAGE },
            replication: if self.replicas > 0 {
                ReplicaConfig::mirrored(self.replicas)
            } else {
                ReplicaConfig::NONE
            },
            ..FabricConfig::default()
        }
    }

    pub fn ht_config(&self) -> HtTreeConfig {
        HtTreeConfig {
            initial_buckets: 1024,
            ..HtTreeConfig::default()
        }
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            ht: self.ht_config(),
            reclaim_slots: self.sessions as u64 + 8,
            n_workers: self.runtime_workers,
            worker_byte_budget: self.budget,
            reclaim_every: self.reclaim_every,
            ..ServeConfig::default()
        }
    }

    pub fn tenant(&self) -> TenantSpec {
        TenantSpec {
            default_ttl_ns: self.ttl_ns,
            ..TenantSpec::unlimited("bench")
        }
    }
}

/// A deployed cache: fabric, allocator, server, one tenant, and a
/// synchronous worker on `client`.
pub struct Deployment {
    pub fabric: Arc<Fabric>,
    pub alloc: Arc<FarAlloc>,
    pub server: Arc<CacheServer>,
    pub tenant: TenantId,
    pub client: FabricClient,
    pub worker: ServeWorker,
    /// Client clock at each synchronous preload put (the TTL base).
    pub preload_ns: Vec<u64>,
}

/// Builds the fabric, creates the server and preloads it. Returns the
/// deployment and its host set-up seconds.
pub fn deploy(spec: &Spec, seed: u64, tr: &mut Tracer) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let top = tr.open("setup", ROOT, NO_REQ);
    let s = tr.open("setup.fabric", top, NO_REQ);
    let fabric = spec.fabric_config().build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut client = fabric.client();
    tr.close(s);
    let s = tr.open("setup.server", top, NO_REQ);
    let server = CacheServer::create(&mut client, &alloc, spec.serve_config())
        .map_err(|e| format!("create server: {e}"))?;
    let tenant = server
        .add_tenant(spec.tenant())
        .map_err(|e| format!("add tenant: {e}"))?;
    let mut worker = server
        .worker(0, 1, &mut client)
        .map_err(|e| format!("attach worker: {e}"))?;
    let server = Arc::new(server);
    tr.close(s);
    let s = tr.open("setup.preload", top, NO_REQ);
    let mut preload_ns = Vec::with_capacity(spec.preload as usize);
    let mut v = vec![0u8; spec.value_len];
    for key in 0..spec.preload as u32 {
        gen::value(seed, key, gen::PRELOAD, &mut v);
        preload_ns.push(client.now_ns());
        match worker.put(&mut client, tenant, u64::from(key), &v, None) {
            Ok(Response::Stored) => {}
            other => return Err(format!("preload of key {key}: {other:?}")),
        }
    }
    tr.close(s);
    tr.close(top);
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((
        Deployment {
            fabric,
            alloc,
            server,
            tenant,
            client,
            worker,
            preload_ns,
        },
        setup_s,
    ))
}
