//! One measured round: a fresh deployment, then the workload's stream.

use std::sync::Arc;
use std::time::Instant;

use farmem_alloc::{AllocStats, FarAlloc};
use farmem_core::HtTreeStats;
use farmem_fabric::{AccessStats, Fabric, NodeOccupancy};
use farmem_runtime::TaskReport;
use farmem_serve::{CacheServer, Request, Response, WorkerStats};

use crate::gen::{self, Kind, Op};
use crate::shadow::Shadow;
use crate::stats::{percentile, Hist};
use crate::trace::{Tracer, NO_REQ, ROOT};
use crate::{deploy, Spec};

/// Live far bytes are sampled this many times per round.
pub const CHECKPOINTS: usize = 16;
/// Timed calls per host window of a sync round.
pub const WINDOW: usize = 5_000;
/// Host figures keep this share of the windows, the slowest ones. A
/// shared host alternates between a contended and an uncontended speed
/// within a second, and the share of uncontended time differs from run
/// to run; the slow windows measure the program at the speed every run
/// reaches.
pub const SLOW_SHARE: f64 = 0.25;

/// How many of `n` windows the slowest [`SLOW_SHARE`] is (at least one).
pub fn slow_count(n: usize) -> usize {
    ((n as f64 * SLOW_SHARE).ceil() as usize).clamp(n.min(1), n)
}

/// What one round measured. Counter deltas cover the measured stream
/// only (set-up excluded); `*0`/`*1` fields are snapshots before/after it.
pub struct Round {
    pub setup_s: f64,
    pub requests: u64,
    pub gets: u64,
    pub hits: u64,
    pub puts: u64,
    pub deletes: u64,
    /// Host ns per request (sync: each timed call of the slowest
    /// windows; sessions: see [`session`]).
    pub host: Hist,
    /// Host ns over which `requests` completed (sync: the sum of the
    /// timed calls; sessions: the `run_sessions` wall time).
    pub busy_ns: f64,
    /// Host requests per second of each window (sync: [`WINDOW`]
    /// consecutive calls, over their call time; sessions: the round).
    pub ops: Vec<f64>,
    /// The same for the round's slowest [`SLOW_SHARE`] of windows, whose
    /// calls `host` holds (sessions: the round).
    pub slow_ops: Vec<f64>,
    /// Virtual ns per request of each session (sessions only).
    pub vlat_ns: Vec<f64>,
    /// p50 and p99 of the virtual ns per request (sync only).
    pub vlat_p: [f64; 2],
    /// Virtual makespan of the stream.
    pub virt_ns: u64,
    pub moved: AccessStats,
    pub worker0: WorkerStats,
    pub worker1: WorkerStats,
    pub tree0: HtTreeStats,
    pub tree1: HtTreeStats,
    pub alloc0: AllocStats,
    pub alloc1: AllocStats,
    /// Per physical node: occupancy moved by the stream.
    pub nodes: Vec<NodeOccupancy>,
    pub live_records: u64,
    /// Retired bytes not yet reclaimed, at round end.
    pub limbo_bytes: u64,
    /// `FarAlloc` live bytes at evenly spaced points of the stream.
    pub checkpoints: Vec<u64>,
    /// Executor diagnostics summed over sessions.
    pub report: TaskReport,
    pub errors: u64,
    pub first_error: Option<String>,
}

fn occupancy(fabric: &Fabric) -> Vec<NodeOccupancy> {
    fabric.nodes().iter().map(|n| n.occupancy()).collect()
}

fn occupancy_since(fabric: &Fabric, before: &[NodeOccupancy]) -> Vec<NodeOccupancy> {
    occupancy(fabric)
        .iter()
        .zip(before)
        .map(|(a, b)| NodeOccupancy {
            messages: a.messages - b.messages,
            busy_ns: a.busy_ns - b.busy_ns,
            waited_ns: a.waited_ns - b.waited_ns,
            max_wait_ns: a.max_wait_ns,
        })
        .collect()
}

/// The public counters at a round boundary, as one JSON object whose
/// values are the counters' debug renderings. `extra` adds the counters
/// only the caller can reach.
fn snapshot(
    fabric: &Fabric,
    alloc: &FarAlloc,
    server: &CacheServer,
    access: &AccessStats,
    extra: &[(&str, String)],
) -> String {
    let base = [
        ("access", format!("{access:?}")),
        ("alloc", format!("{:?}", alloc.stats())),
        ("classes", format!("{:?}", alloc.class_stats())),
        ("tenants", format!("{:?}", server.tenant_stats())),
        ("nodes", format!("{:?}", occupancy(fabric))),
    ];
    let fields: Vec<String> = base
        .iter()
        .chain(extra)
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "\\\"")))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A round on one synchronous `ServeWorker`, every call timed.
pub fn sync(spec: &Spec, seed: u64, stream: &[Op], tr: &mut Tracer) -> Result<Round, String> {
    let (mut d, setup_s) = deploy(spec, seed, tr)?;
    let mut shadow = Shadow::new(seed, spec.value_len, spec.ttl_ns, spec.budget);
    for (key, &at) in d.preload_ns.iter().enumerate() {
        shadow.put(key as u32, gen::PRELOAD, at, &Ok(Response::Stored));
    }
    let n = stream.len();
    let every = (n / CHECKPOINTS).max(1);
    let mut r = Round {
        setup_s,
        requests: n as u64,
        gets: 0,
        hits: 0,
        puts: 0,
        deletes: 0,
        host: Hist::default(),
        busy_ns: 0.0,
        ops: Vec::with_capacity(n / WINDOW + 1),
        slow_ops: Vec::new(),
        vlat_ns: Vec::new(),
        vlat_p: [0.0; 2],
        virt_ns: 0,
        moved: AccessStats::default(),
        worker0: d.worker.stats(),
        worker1: WorkerStats::default(),
        tree0: d.worker.tree_stats(),
        tree1: HtTreeStats::default(),
        alloc0: d.alloc.stats(),
        alloc1: AllocStats::default(),
        nodes: Vec::new(),
        live_records: 0,
        limbo_bytes: 0,
        checkpoints: Vec::with_capacity(CHECKPOINTS),
        report: TaskReport::default(),
        errors: 0,
        first_error: None,
    };
    let nodes0 = occupancy(&d.fabric);
    let stats0 = d.client.stats();
    let clock0 = d.client.now_ns();
    tr.counters("round.start", || {
        let extra = [
            ("worker", format!("{:?}", r.worker0)),
            ("tree", format!("{:?}", r.tree0)),
        ];
        snapshot(&d.fabric, &d.alloc, &d.server, &stats0, &extra)
    });
    let round_span = tr.open("round", ROOT, NO_REQ);
    let (c, w, t) = (&mut d.client, &mut d.worker, d.tenant);
    let mut val = vec![0u8; spec.value_len];
    let mut vlat = Vec::with_capacity(n);
    let mut lat = Vec::with_capacity(n);
    for (i, op) in stream.iter().enumerate() {
        let key = u64::from(op.key);
        if op.kind == Kind::Put {
            gen::value(seed, op.key, i as u32, &mut val);
        }
        let before = if tr.on { c.stats() } else { stats0 };
        let v0 = c.now_ns();
        let t0 = Instant::now();
        let resp = match op.kind {
            Kind::Get => w.get(c, t, key),
            Kind::Put => w.put(c, t, key, &val, None),
            Kind::Delete => w.delete(c, t, key),
        };
        let t1 = Instant::now();
        let v1 = c.now_ns();
        lat.push(t1.duration_since(t0).as_nanos() as f64);
        vlat.push((v1 - v0) as f64);
        let resp = resp.map_err(|e| e.to_string());
        let name = match op.kind {
            Kind::Get => {
                r.gets += 1;
                r.hits += u64::from(shadow.get(op.key, i as u32, v0, &resp));
                "serve.get"
            }
            Kind::Put => {
                r.puts += 1;
                shadow.put(op.key, i as u32, v0, &resp);
                "serve.put"
            }
            Kind::Delete => {
                r.deletes += 1;
                shadow.delete(op.key, i as u32, &resp);
                "serve.delete"
            }
        };
        if tr.on {
            let moved = c.stats().since(&before);
            tr.record(
                name,
                round_span,
                i as u64,
                tr.at(t0),
                tr.at(t1),
                1,
                v1 - v0,
                &moved,
            );
        }
        if (i + 1) % every == 0 {
            r.checkpoints.push(d.alloc.stats().live_bytes);
        }
    }
    tr.close(round_span);
    let mut windows: Vec<(f64, &[f64])> = lat
        .chunks(WINDOW)
        .map(|w| (w.len() as f64 / (w.iter().sum::<f64>() * 1e-9), w))
        .collect();
    r.ops = windows.iter().map(|w| w.0).collect();
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    for &(ops, w) in &windows[..slow_count(windows.len())] {
        r.slow_ops.push(ops);
        w.iter().for_each(|&dt| r.host.add(dt));
    }
    r.busy_ns = lat.iter().sum();
    r.vlat_p = [percentile(&vlat, 0.5), percentile(&vlat, 0.99)];
    r.virt_ns = d.client.now_ns() - clock0;
    r.moved = d.client.stats().since(&stats0);
    r.worker1 = d.worker.stats();
    r.tree1 = d.worker.tree_stats();
    r.alloc1 = d.alloc.stats();
    r.nodes = occupancy_since(&d.fabric, &nodes0);
    r.live_records = d.server.tenant_stats()[d.tenant.0 as usize].1.live_records;
    let total = d.client.stats();
    r.limbo_bytes = total.retired_bytes - total.reclaimed_bytes;
    tr.counters("round.end", || {
        let extra = [
            ("worker", format!("{:?}", r.worker1)),
            ("tree", format!("{:?}", r.tree1)),
        ];
        snapshot(&d.fabric, &d.alloc, &d.server, &total, &extra)
    });
    // The model and the worker's own ledgers must agree exactly.
    let ledgers = [
        ("live records", shadow.records(), r.live_records),
        (
            "evictions",
            shadow.evicted,
            r.worker1.evicted - r.worker0.evicted,
        ),
        (
            "expiries",
            shadow.expired,
            r.worker1.expired_unlinked - r.worker0.expired_unlinked,
        ),
        ("rejections", 0, r.worker1.rejected - r.worker0.rejected),
    ];
    for (what, model, served) in ledgers {
        if model != served {
            shadow.errors += 1;
            shadow
                .first_error
                .get_or_insert(format!("{what}: model {model}, server {served}"));
        }
    }
    r.errors = shadow.errors;
    r.first_error = shadow.first_error.take();
    Ok(r)
}

/// A round of `spec.sessions` logical sessions through
/// `CacheServer::run_sessions`. Session `s` replays its slice of the
/// stream. The listener returns per-session counts, not values, so the
/// check is: every get hits, nothing is rejected, and afterwards every
/// key still reads back its preloaded bytes.
///
/// `run_sessions` hides single requests, so host time per request is the
/// closed-loop residence time: sessions × wall time ÷ requests, and the
/// round is one host window.
pub fn session(spec: &Spec, seed: u64, stream: &[Op], tr: &mut Tracer) -> Result<Round, String> {
    let (d, setup_s) = deploy(spec, seed, tr)?;
    let crate::Deployment {
        fabric,
        alloc,
        server,
        tenant,
        mut client,
        worker,
        ..
    } = d;
    drop(worker);
    let per = stream.len() / spec.sessions;
    let reqs: Arc<Vec<Vec<Request>>> = Arc::new(
        stream
            .chunks(per)
            .take(spec.sessions)
            .map(|ch| {
                ch.iter()
                    .map(|op| Request::Get {
                        tenant,
                        key: u64::from(op.key),
                    })
                    .collect()
            })
            .collect(),
    );
    let requests = (per * spec.sessions) as u64;
    let alloc0 = alloc.stats();
    let nodes0 = occupancy(&fabric);
    tr.counters("round.start", || {
        snapshot(&fabric, &alloc, &server, &client.stats(), &[])
    });
    let span = tr.open("serve.run_sessions", ROOT, NO_REQ);
    let t0 = Instant::now();
    let feed = reqs.clone();
    let results = server.run_sessions(spec.sessions, move |s| feed[s].clone());
    let wall_ns = t0.elapsed().as_nanos() as f64;
    tr.close(span);
    let mut r = Round {
        setup_s,
        requests,
        gets: requests,
        hits: 0,
        puts: 0,
        deletes: 0,
        host: Hist::default(),
        busy_ns: wall_ns,
        ops: vec![requests as f64 / (wall_ns * 1e-9)],
        slow_ops: vec![requests as f64 / (wall_ns * 1e-9)],
        vlat_ns: Vec::with_capacity(results.len()),
        vlat_p: [0.0; 2],
        virt_ns: 0,
        moved: AccessStats::default(),
        worker0: WorkerStats::default(),
        worker1: WorkerStats::default(),
        tree0: HtTreeStats::default(),
        tree1: HtTreeStats::default(),
        alloc0,
        alloc1: alloc.stats(),
        nodes: occupancy_since(&fabric, &nodes0),
        live_records: server.tenant_stats()[tenant.0 as usize].1.live_records,
        limbo_bytes: 0,
        checkpoints: Vec::new(),
        report: TaskReport::default(),
        errors: 0,
        first_error: None,
    };
    r.host.add(wall_ns * spec.sessions as f64 / requests as f64);
    let mut ops = 0;
    let mut shards: Vec<WorkerStats> = Vec::new();
    for res in &results {
        let out = &res.output;
        ops += out.ops;
        r.hits += out.hits;
        r.moved.merge(&res.stats);
        r.limbo_bytes += res
            .stats
            .retired_bytes
            .saturating_sub(res.stats.reclaimed_bytes);
        r.virt_ns = r.virt_ns.max(res.clock_ns);
        r.vlat_ns.push(res.clock_ns as f64 / out.ops.max(1) as f64);
        r.report.doorbells_fired += res.report.doorbells_fired;
        r.report.verb_polls += res.report.verb_polls;
        r.report.wasted_polls += res.report.wasted_polls;
        // Each shard's counters are cumulative; keep its latest snapshot.
        match shards.iter_mut().find(|w| w.wid == out.worker.wid) {
            Some(w) if w.ops >= out.worker.ops => {}
            Some(w) => *w = out.worker,
            None => shards.push(out.worker),
        }
    }
    for w in &shards {
        for (sum, v) in [
            (&mut r.worker1.ops, w.ops),
            (&mut r.worker1.hits, w.hits),
            (&mut r.worker1.misses, w.misses),
            (&mut r.worker1.hot_gets, w.hot_gets),
            (&mut r.worker1.spread_gets, w.spread_gets),
            (&mut r.worker1.rejected, w.rejected),
            (&mut r.worker1.evicted, w.evicted),
            (&mut r.worker1.expired_unlinked, w.expired_unlinked),
            (&mut r.worker1.reclaim_passes, w.reclaim_passes),
            (&mut r.worker1.freed_bytes, w.freed_bytes),
        ] {
            *sum += v;
        }
    }
    tr.counters("round.end", || {
        let extra = [
            ("sessions.access", format!("{:?}", r.moved)),
            ("executors", format!("{:?}", r.report)),
            ("shards", format!("{shards:?}")),
        ];
        snapshot(&fabric, &alloc, &server, &client.stats(), &extra)
    });
    // Every key was preloaded and nothing expires or is evicted, so every
    // get must hit; a miss, a rejection or a lost request is an error.
    if ops != requests || r.hits != requests {
        r.errors += requests.saturating_sub(r.hits);
        r.first_error.get_or_insert(format!(
            "{ops} of {requests} requests served, {} hits",
            r.hits
        ));
    }
    // Read every key back on a fresh worker (not timed).
    let mut check = server
        .worker(0, 1, &mut client)
        .map_err(|e| format!("attach checker: {e}"))?;
    let mut expect = vec![0u8; spec.value_len];
    for key in 0..spec.preload as u32 {
        gen::value(seed, key, gen::PRELOAD, &mut expect);
        match check.get(&mut client, tenant, u64::from(key)) {
            Ok(Response::Value(v)) if v == expect => {}
            other => {
                r.errors += 1;
                r.first_error
                    .get_or_insert(format!("read-back of key {key}: {other:?}"));
            }
        }
    }
    Ok(r)
}
