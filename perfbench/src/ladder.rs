//! The layer ladder: the workload's own stream replayed through each
//! layer's public entry point on twin deployments, timed rung by rung.
//! A layer's host self time is its rung minus the rung below.
//!
//! * read path: `ServeWorker::get` → `RecordStore::get` →
//!   `HtTreeHandle::get` → `FabricClient::read` of the record →
//!   `MemoryNode::read_bytes`;
//! * write path: `ServeWorker::put` → `RecordStore::put` →
//!   `HtTreeHandle::put`, plus a `FarAlloc::alloc` + `free` pair;
//! * doorbell path: an `IssueQueue` commit of 8 record reads, and the
//!   same 8 reads as one `AsyncBatch` doorbell under an `Executor`.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_core::HtTree;
use farmem_fabric::{AccessStats, FabricClient, FarAddr};
use farmem_reclaim::ReclaimRegistry;
use farmem_runtime::Executor;
use farmem_serve::{RecordStore, TenantId, RECORD_HEADER};

use crate::gen::{self, Kind, Op};
use crate::stats::median;
use crate::trace::{Tracer, NO_REQ, ROOT};
use crate::{deploy, Spec};

/// Requests of the stream each per-call rung replays.
pub const LADDER_REQUESTS: usize = 40_000;
/// Calls per timed chunk of the sub-microsecond rungs.
const CHUNK: usize = 1_000;
/// Chunks per sub-microsecond rung.
const CHUNKS: usize = 60;

/// One rung: median host ns per call, over `samples` timed calls.
pub struct Rung {
    pub name: &'static str,
    pub ns: f64,
    pub samples: u64,
}

#[derive(Default)]
pub struct Ladder {
    pub rungs: Vec<Rung>,
}

impl Ladder {
    pub fn ns(&self, name: &str) -> f64 {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.ns)
    }

    pub fn samples(&self, name: &str) -> u64 {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .map_or(0, |r| r.samples)
    }

    fn push(&mut self, name: &'static str, per_call: &[f64]) {
        self.rungs.push(Rung {
            name,
            ns: median(per_call),
            samples: per_call.len() as u64,
        });
    }
}

/// Per-call times of one rung, split by request kind.
#[derive(Default)]
struct Split {
    get: Vec<f64>,
    put: Vec<f64>,
    all: Vec<f64>,
}

/// Replays `ops` through `call`, timing every call and recording a span
/// per call whose request id is the stream index.
fn per_call(
    tr: &mut Tracer,
    names: [&'static str; 3],
    ops: &[Op],
    client: &mut FabricClient,
    mut call: impl FnMut(&mut FabricClient, usize, &Op),
) -> Split {
    let pass = tr.open(names[0], ROOT, NO_REQ);
    let mut out = Split::default();
    for (i, op) in ops.iter().enumerate() {
        let before = if tr.on {
            client.stats()
        } else {
            AccessStats::default()
        };
        let v0 = client.now_ns();
        let t0 = Instant::now();
        call(client, i, op);
        let t1 = Instant::now();
        let dt = t1.duration_since(t0).as_nanos() as f64;
        let name = match op.kind {
            Kind::Get => {
                out.get.push(dt);
                names[1]
            }
            Kind::Put => {
                out.put.push(dt);
                names[2]
            }
            Kind::Delete => names[2],
        };
        out.all.push(dt);
        if tr.on {
            let moved = client.stats().since(&before);
            tr.record(
                name,
                pass,
                i as u64,
                tr.at(t0),
                tr.at(t1),
                1,
                client.now_ns() - v0,
                &moved,
            );
        }
    }
    tr.close(pass);
    out
}

/// Times `CHUNKS` chunks of `CHUNK` calls; returns host ns per call of
/// each chunk. Each chunk is one span.
fn chunked(tr: &mut Tracer, name: &'static str, mut call: impl FnMut(usize)) -> Vec<f64> {
    let pass = tr.open(name, ROOT, NO_REQ);
    let mut per = Vec::with_capacity(CHUNKS);
    for c in 0..CHUNKS {
        let t0 = Instant::now();
        for i in 0..CHUNK {
            call(c * CHUNK + i);
        }
        let t1 = Instant::now();
        per.push(t1.duration_since(t0).as_nanos() as f64 / CHUNK as f64);
        tr.record(
            name,
            pass,
            NO_REQ,
            tr.at(t0),
            tr.at(t1),
            CHUNK as u32,
            0,
            &AccessStats::default(),
        );
    }
    tr.close(pass);
    per
}

fn nskey(key: u32) -> u64 {
    TenantId(0).namespaced(u64::from(key))
}

/// Runs every rung of the ladder over the first [`LADDER_REQUESTS`]
/// requests of `stream`.
pub fn run(spec: &Spec, seed: u64, stream: &[Op], tr: &mut Tracer) -> Result<Ladder, String> {
    let ops = &stream[..stream.len().min(LADDER_REQUESTS)];
    let mut lad = Ladder::default();
    let mut val = vec![0u8; spec.value_len];

    // Rung 1: the serving layer, on a twin of the measured deployment.
    {
        let (mut d, _) = deploy(spec, seed, &mut Tracer::new(false))?;
        let (w, t) = (&mut d.worker, d.tenant);
        let names = ["ladder.serve", "ladder.serve.get", "ladder.serve.put"];
        let s = per_call(tr, names, ops, &mut d.client, |c, i, op| {
            let key = u64::from(op.key);
            let r = match op.kind {
                Kind::Get => w.get(c, t, key),
                Kind::Put => {
                    gen::value(seed, op.key, i as u32, &mut val);
                    w.put(c, t, key, &val, None)
                }
                Kind::Delete => w.delete(c, t, key),
            };
            black_box(r.expect("serve rung"));
        });
        lad.push("serve.get", &s.get);
        lad.push("serve.put", &s.put);
        lad.push("serve.req", &s.all);
    }

    // Rungs 2-3: a record store and a bare tree on a second twin.
    let fabric = spec.fabric_config().build();
    let alloc = FarAlloc::new(fabric.clone());
    let c = &mut fabric.client();
    let err = |e: &dyn std::fmt::Display| format!("ladder twin: {e}");
    let ht = spec.ht_config();
    let registry = ReclaimRegistry::create(c, &alloc, 4).map_err(|e| err(&e))?;
    let shared = registry.attach(c, &alloc).map_err(|e| err(&e))?;
    let records = HtTree::create(c, &alloc, ht).map_err(|e| err(&e))?;
    let mut store =
        RecordStore::attach(c, &alloc, records, ht, shared.clone()).map_err(|e| err(&e))?;
    let bare = HtTree::create(c, &alloc, ht).map_err(|e| err(&e))?;
    let mut tree = bare
        .attach_reclaimed(c, &alloc, ht, shared.clone())
        .map_err(|e| err(&e))?;
    for key in 0..spec.preload as u32 {
        gen::value(seed, key, gen::PRELOAD, &mut val);
        store.put(c, nskey(key), &val, 0).map_err(|e| err(&e))?;
        tree.put(c, nskey(key), u64::from(key))
            .map_err(|e| err(&e))?;
    }
    let mut mutations = 0u64;
    let names = ["ladder.store", "ladder.store.get", "ladder.store.put"];
    let s = per_call(tr, names, ops, c, |c, i, op| {
        let k = nskey(op.key);
        match op.kind {
            Kind::Get => {
                black_box(store.get(c, k, c.now_ns()).expect("store rung"));
            }
            Kind::Put => {
                gen::value(seed, op.key, i as u32, &mut val);
                let expiry = if spec.ttl_ns == 0 {
                    0
                } else {
                    c.now_ns() + spec.ttl_ns
                };
                black_box(store.put(c, k, &val, expiry).expect("store rung"));
            }
            Kind::Delete => {
                black_box(store.remove(c, k).expect("store rung"));
            }
        }
        if op.kind != Kind::Get {
            mutations += 1;
            if mutations.is_multiple_of(spec.reclaim_every) {
                store.reclaim_pass(c).expect("store rung reclaim");
            }
        }
    });
    lad.push("store.get", &s.get);
    lad.push("store.put", &s.put);
    let names = ["ladder.core", "ladder.core.get", "ladder.core.put"];
    let s = per_call(tr, names, ops, c, |c, i, op| {
        let k = nskey(op.key);
        match op.kind {
            Kind::Get => drop(black_box(tree.get(c, k).expect("core rung"))),
            Kind::Put => tree.put(c, k, i as u64).expect("core rung"),
            Kind::Delete => tree.remove(c, k).expect("core rung"),
        }
    });
    lad.push("core.get", &s.get);
    lad.push("core.put", &s.put);

    // Record addresses of the keys the stream reads, from the store's tree.
    let mut probe = records
        .attach_reclaimed(c, &alloc, ht, shared)
        .map_err(|e| err(&e))?;
    let mut ptrs = Vec::new();
    for op in ops.iter().filter(|op| op.kind == Kind::Get) {
        if let Some(p) = probe.get(c, nskey(op.key)).map_err(|e| err(&e))? {
            ptrs.push(p);
        }
    }
    if ptrs.is_empty() {
        return Err("ladder: the stream read no stored record".into());
    }
    let ptr = |i: usize| ptrs[i % ptrs.len()];
    let per = chunked(tr, "ladder.fabric.read_u64", |i| {
        black_box(c.read_u64(FarAddr(ptr(i))).expect("read_u64 rung"));
    });
    lad.push("fabric.read_u64", &per);
    for (name, len) in [("fabric.read256", 256u64), ("fabric.read1k", 1024)] {
        let per = chunked(tr, name, |i| {
            black_box(
                c.read(FarAddr(ptr(i) & !(len - 1)), len)
                    .expect("read rung"),
            );
        });
        lad.push(name, &per);
    }
    let mut buf = vec![0u8; 1024];
    for (name, len) in [("node.read_bytes256", 256u64), ("node.read_bytes1k", 1024)] {
        let per = chunked(tr, name, |i| {
            let (g, off) = fabric.map().locate(FarAddr(ptr(i) & !(len - 1)));
            fabric
                .primary(g)
                .read_bytes(off, &mut buf[..len as usize])
                .expect("node rung");
            black_box(&buf);
        });
        lad.push(name, &per);
    }
    let per = chunked(tr, "fabric.doorbell8", |i| {
        let mut q = c.pipeline();
        for j in 0..8 {
            q.read(FarAddr(ptr(i * 8 + j)), RecordStore::PREFETCH);
        }
        black_box(q.commit());
    });
    lad.push("fabric.doorbell8", &per);
    let len = RECORD_HEADER + spec.value_len as u64;
    let per = chunked(tr, "alloc.alloc_free", |_| {
        let a = alloc.alloc(len, AllocHint::Spread).expect("alloc rung");
        alloc.free(a, len).expect("free rung");
    });
    lad.push("alloc.alloc_free", &per);

    // The doorbell path through the runtime: one task, one AsyncBatch of
    // 8 record reads per doorbell.
    let span = tr.open("ladder.runtime.batch8", ROOT, NO_REQ);
    let times = Rc::new(RefCell::new(Vec::with_capacity(CHUNKS)));
    let mut ex = Executor::new();
    let (task_ptrs, task_times) = (ptrs.clone(), times.clone());
    ex.spawn(fabric.client(), move |ac| async move {
        for ch in 0..CHUNKS {
            let t0 = Instant::now();
            for i in 0..CHUNK / 8 {
                let mut b = ac.batch();
                for j in 0..8 {
                    let p = task_ptrs[(ch * CHUNK + i * 8 + j) % task_ptrs.len()];
                    b.read(FarAddr(p), RecordStore::PREFETCH);
                }
                black_box(b.commit().await);
            }
            let ns = t0.elapsed().as_nanos() as f64 / (CHUNK / 8) as f64;
            task_times.borrow_mut().push(ns);
        }
    });
    ex.run();
    tr.close(span);
    lad.push("runtime.batch8", &times.borrow());
    Ok(lad)
}
