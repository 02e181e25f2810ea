//! Runs a workload and turns its rounds into the reported metrics.

use std::path::Path;
use std::time::Instant;

use crate::gen::{self, Op};
use crate::ladder::{self, Ladder};
use crate::round::{self, slow_count, Round, WINDOW};
use crate::stats::{median, percentile, Hist, Metrics};
use crate::trace::Tracer;
use crate::{Spec, ZIPF_S};

/// Rounds every run makes at least. Set-up is the median over all of
/// them; host times skip round 0, which warms the process up.
pub const MIN_ROUNDS: usize = 3;
/// A churn run whose live far bytes grow more than this share over the
/// second half of its stream is refused as not steady.
pub const MAX_DRIFT: f64 = 0.05;

/// What a run reports.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines: sample counts, ratio bases, checks.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The workload's request stream for `seed`.
pub fn stream(spec: &Spec, seed: u64) -> Vec<Op> {
    gen::stream(
        seed,
        spec.round_requests,
        spec.keys,
        ZIPF_S,
        spec.get_pct,
        spec.put_pct,
    )
}

/// Runs rounds until `seconds` have passed and at least `min` rounds ran.
pub fn rounds(
    spec: &Spec,
    seed: u64,
    stream: &[Op],
    seconds: f64,
    min: usize,
    tr: &mut Tracer,
) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let r = if spec.sessions > 0 {
            round::session(spec, seed, stream, tr)?
        } else {
            round::sync(spec, seed, stream, tr)?
        };
        out.push(r);
    }
    Ok(out)
}

fn per_round(rs: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rs.iter().map(f).collect::<Vec<_>>())
}

/// The rounds' slowest host windows: their throughputs and one histogram
/// of their per-request times. A sync round keeps its slowest windows
/// itself; a session round is one window, so the slowest rounds are kept.
fn slow_windows(spec: &Spec, rs: &[Round]) -> (Vec<f64>, Hist) {
    let mut keep: Vec<&Round> = rs.iter().collect();
    if spec.sessions > 0 {
        keep.sort_by(|a, b| a.slow_ops[0].total_cmp(&b.slow_ops[0]));
        keep.truncate(slow_count(rs.len()));
    }
    let mut hist = Hist::default();
    keep.iter().for_each(|r| hist.merge(&r.host));
    let ops = keep.iter().flat_map(|r| r.slow_ops.iter().copied());
    (ops.collect(), hist)
}

/// Host requests per second: the median throughput of the slowest
/// windows.
fn ops_per_s(spec: &Spec, rs: &[Round]) -> f64 {
    median(&slow_windows(spec, rs).0)
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Live-byte growth over the second half of the stream, as a share of
/// the mid-stream value.
pub fn drift(r: &Round) -> f64 {
    let cp = &r.checkpoints;
    if cp.len() < 2 || cp[cp.len() / 2 - 1] == 0 {
        return 0.0;
    }
    let mid = cp[cp.len() / 2 - 1] as f64;
    (cp[cp.len() - 1] as f64 - mid) / mid
}

/// Checks a run's rounds: output errors, steady footprint, and (single
/// thread) bit-identical virtual metrics across rounds. Returns failures
/// and their notes.
fn check(spec: &Spec, rs: &[Round], notes: &mut Vec<String>) -> u64 {
    let mut failed = 0;
    for (i, r) in rs.iter().enumerate() {
        notes.push(format!(
            "round {i}: setup {:.4} s, {:.0} requests/s host, {:.0} requests/s virtual",
            r.setup_s,
            median(&r.ops),
            r.requests as f64 / (r.virt_ns as f64 * 1e-9)
        ));
        failed += r.errors;
        if let Some(e) = &r.first_error {
            notes.push(format!(
                "check FAILED round {i}: {} error(s), first: {e}",
                r.errors
            ));
        }
    }
    if spec.ttl_ns > 0 {
        let d = drift(&rs[0]);
        notes.push(format!(
            "check steady footprint: live far bytes drift {d:+.4} over the second half \
             (limit {MAX_DRIFT}); checkpoints {:?}",
            rs[0].checkpoints
        ));
        if d > MAX_DRIFT {
            failed += 1;
            notes.push("check FAILED: far footprint still growing".into());
        }
    }
    if spec.sessions == 0 {
        let sig = |r: &Round| (r.moved, r.virt_ns, r.hits, r.vlat_p, r.alloc1.live_bytes);
        let differs = rs.iter().filter(|r| sig(r) != sig(&rs[0])).count() as u64;
        notes.push(format!(
            "check determinism: {} of {} rounds repeat round 0's virtual metrics bit for bit",
            rs.len() as u64 - differs,
            rs.len()
        ));
        if differs > 0 {
            failed += differs;
            notes.push("check FAILED: virtual metrics differ between identical rounds".into());
        }
    }
    failed
}

/// The end-to-end metrics (peak RSS is added by the launcher, which sees
/// the whole process).
pub fn end_to_end(spec: &Spec, rs: &[Round], notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let setups: Vec<f64> = rs.iter().map(|r| r.setup_s).collect();
    m.add(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {} set-ups", rs.len()),
    );
    let all = rs;
    let rs = &rs[1..];
    let n = rs.len();
    let req = rs[0].requests as f64;
    let windows: usize = rs.iter().map(|r| r.ops.len()).sum();
    let (slow, hist) = slow_windows(spec, rs);
    m.add(
        "ops_per_s",
        median(&slow),
        "1/s",
        if spec.sessions == 0 {
            format!(
                "median of the slowest {} of {windows} windows of {WINDOW} calls over {n} rounds",
                slow.len()
            )
        } else {
            format!(
                "median of the slowest {} of {n} rounds of {req} requests over run_sessions wall time",
                slow.len()
            )
        },
    );
    let host = [hist.percentile(0.5), hist.percentile(0.99)];
    let (vlat, basis, vbasis) = if spec.sessions == 0 {
        (
            rs[0].vlat_p,
            format!(
                "{} timed calls of the slowest {} of {windows} windows over {n} rounds",
                hist.len(),
                slow.len()
            ),
            format!("{req} calls of one round (rounds repeat it exactly)"),
        )
    } else {
        let vlat: Vec<f64> = rs.iter().flat_map(|r| r.vlat_ns.iter().copied()).collect();
        (
            [percentile(&vlat, 0.5), percentile(&vlat, 0.99)],
            format!(
                "slowest {} of {n} rounds: residence = sessions x wall / requests",
                hist.len()
            ),
            format!("{} session means over {n} rounds", vlat.len()),
        )
    };
    m.add("host_p50_us", host[0] / 1e3, "us", basis.clone());
    m.add("host_p99_us", host[1] / 1e3, "us", basis);
    m.add(
        "rt_per_op",
        per_round(rs, |r| r.moved.round_trips as f64 / r.requests as f64),
        "count",
        format!("round trips / {req} requests"),
    );
    m.add(
        "fabric_bytes_per_op",
        per_round(rs, |r| r.moved.bytes_total() as f64 / r.requests as f64),
        "B",
        format!("bytes read + written / {req} requests"),
    );
    m.add("vlat_p50_us", vlat[0] / 1e3, "us", vbasis.clone());
    m.add("vlat_p99_us", vlat[1] / 1e3, "us", vbasis);
    m.add(
        "vops_per_s",
        per_round(rs, |r| r.requests as f64 / (r.virt_ns as f64 * 1e-9)),
        "1/s",
        "requests / virtual makespan",
    );
    m.add(
        "hit_ratio",
        per_round(rs, |r| div(r.hits as f64, r.gets as f64)),
        "ratio",
        format!("{} hits / {} gets in one round", rs[0].hits, rs[0].gets),
    );
    m.add(
        "far_bytes_per_live_byte",
        per_round(rs, |r| {
            div(
                r.alloc1.live_bytes as f64,
                (r.live_records * spec.value_len as u64) as f64,
            )
        }),
        "ratio",
        format!(
            "FarAlloc live {} B / ({} live records x {} B) in one round",
            rs[0].alloc1.live_bytes, rs[0].live_records, spec.value_len
        ),
    );
    let attempted: u64 = all.iter().map(|r| r.requests).sum();
    let errors: u64 = all.iter().map(|r| r.errors).sum();
    // Reported, not gated: with no quotas or faults it must read 0, and
    // the result object carries it as `failed` / `attempted`.
    notes.push(format!(
        "metric {:<34} {:>16.6} {:<6} [{errors} errors / {attempted} requests attempted]",
        "error_frac",
        div(errors as f64, attempted as f64),
        "ratio"
    ));
    m
}

/// The per-layer metrics of a traced run.
fn per_layer(spec: &Spec, r: &Round, lad: &Ladder, ops: [f64; 2], spans: usize) -> Metrics {
    let mut m = Metrics::default();
    let req = r.requests as f64;
    let gets = r.gets as f64;
    let (w0, w1) = (&r.worker0, &r.worker1);
    let (t0, t1) = (&r.tree0, &r.tree1);
    let mv = &r.moved;
    let rq = "requests";
    m.add(
        "base.requests",
        req,
        "count",
        "requests in one traced round",
    );
    m.add("base.gets", gets, "count", "gets in one traced round");
    m.add(
        "base.puts",
        r.puts as f64,
        "count",
        "puts in one traced round",
    );
    m.add(
        "base.deletes",
        r.deletes as f64,
        "count",
        "deletes in one traced round",
    );
    m.add(
        "base.ladder_requests",
        ladder::LADDER_REQUESTS.min(spec.round_requests) as f64,
        "count",
        "stream prefix replayed per rung",
    );

    let rung = |m: &mut Metrics, name: &str, rung: &str| {
        m.add(
            name,
            lad.ns(rung),
            "ns",
            format!("median of {} timed calls ({rung} rung)", lad.samples(rung)),
        );
    };
    let diff = |m: &mut Metrics, name: &str, hi: &str, lo: &str| {
        m.add(
            name,
            lad.ns(hi) - lad.ns(lo),
            "ns",
            format!("{hi} rung - {lo} rung"),
        );
    };
    // serve
    rung(&mut m, "serve.req_host_ns", "serve.req");
    rung(&mut m, "serve.get_host_ns", "serve.get");
    rung(&mut m, "serve.put_host_ns", "serve.put");
    rung(&mut m, "serve.store_get_host_ns", "store.get");
    rung(&mut m, "serve.store_put_host_ns", "store.put");
    diff(&mut m, "serve.self_host_ns", "serve.get", "store.get");
    diff(&mut m, "serve.put_self_host_ns", "serve.put", "store.put");
    diff(&mut m, "serve.store_self_host_ns", "store.get", "core.get");
    let hot = (w1.hot_gets - w0.hot_gets) as f64;
    let spread = (w1.spread_gets - w0.spread_gets) as f64;
    m.add(
        "serve.hot_gets",
        hot,
        "count",
        "gets of keys hot at access time",
    );
    m.ratio("serve.hot_get_frac", hot, gets, "ratio", "hot gets / gets");
    m.ratio(
        "serve.spread_get_frac",
        spread,
        gets,
        "ratio",
        "spread gets / gets",
    );
    let evicted = (w1.evicted - w0.evicted) as f64;
    let expired = (w1.expired_unlinked - w0.expired_unlinked) as f64;
    m.add("serve.evictions", evicted, "count", "LRU evictions");
    m.ratio("serve.evictions_per_kreq", evicted * 1e3, req, "1/kreq", rq);
    m.add(
        "serve.expired",
        expired,
        "count",
        "expired records unlinked",
    );
    m.ratio("serve.expired_per_kreq", expired * 1e3, req, "1/kreq", rq);
    m.add(
        "serve.rejected",
        (w1.rejected - w0.rejected) as f64,
        "count",
        "admission rejections",
    );

    // runtime (session workload only)
    let db = r.report.doorbells_fired as f64;
    let sessions = spec.sessions > 0;
    m.add(
        "runtime.run_host_s",
        if sessions { r.busy_ns * 1e-9 } else { 0.0 },
        "s",
        "run_sessions wall time",
    );
    m.add(
        "runtime.doorbells",
        db,
        "count",
        "doorbells fired by the executors",
    );
    m.ratio(
        "runtime.doorbell_host_ns",
        if sessions { r.busy_ns } else { 0.0 },
        db,
        "ns",
        "run span ns / doorbells",
    );
    m.ratio("runtime.doorbells_per_req", db, req, "count", rq);
    m.ratio(
        "runtime.polls_per_doorbell",
        r.report.verb_polls as f64,
        db,
        "count",
        "verb polls / doorbells",
    );
    m.add(
        "runtime.wasted_polls",
        r.report.wasted_polls as f64,
        "count",
        "polls of a still-pending doorbell",
    );
    rung(&mut m, "runtime.batch8_host_ns", "runtime.batch8");

    // core
    rung(&mut m, "core.get_host_ns", "core.get");
    rung(&mut m, "core.put_host_ns", "core.put");
    diff(&mut m, "core.self_host_ns", "core.get", "fabric.read256");
    let tget = (t1.gets - t0.gets) as f64;
    m.add(
        "core.gets",
        tget,
        "count",
        "tree lookups by the serving worker",
    );
    m.ratio(
        "core.chain_hops_per_get",
        (t1.chain_hops - t0.chain_hops) as f64,
        tget,
        "count",
        "chain hops / tree gets",
    );
    m.add(
        "core.stale_refreshes",
        (t1.stale_refreshes - t0.stale_refreshes) as f64,
        "count",
        "directory refreshes",
    );
    m.add(
        "core.cas_retries",
        (t1.cas_retries - t0.cas_retries) as f64,
        "count",
        "bucket CAS races lost",
    );
    m.add(
        "core.splits",
        (t1.splits - t0.splits) as f64,
        "count",
        "table splits",
    );
    m.add(
        "core.grows",
        (t1.grows - t0.grows) as f64,
        "count",
        "table grows",
    );
    m.add(
        "core.compactions",
        (t1.compactions - t0.compactions) as f64,
        "count",
        "table compactions",
    );

    // reclaim
    let passes = (w1.reclaim_passes - w0.reclaim_passes) as f64;
    m.add("reclaim.passes", passes, "count", "seal + reclaim passes");
    m.ratio("reclaim.passes_per_kreq", passes * 1e3, req, "1/kreq", rq);
    m.add(
        "reclaim.rounds",
        mv.reclaim_rounds as f64,
        "count",
        "grace-detection rounds",
    );
    m.ratio(
        "reclaim.freed_bytes_per_req",
        (w1.freed_bytes - w0.freed_bytes) as f64,
        req,
        "B",
        rq,
    );
    m.add(
        "reclaim.limbo_bytes",
        r.limbo_bytes as f64,
        "B",
        "retired - reclaimed at round end",
    );

    // alloc
    let reused = (r.alloc1.reused - r.alloc0.reused) as f64;
    m.add(
        "alloc.live_bytes",
        r.alloc1.live_bytes as f64,
        "B",
        "FarAlloc live bytes at round end",
    );
    m.add(
        "alloc.reused",
        reused,
        "count",
        "allocations served from a free list",
    );
    m.ratio(
        "alloc.reused_per_put",
        reused,
        r.puts as f64,
        "count",
        "free-list allocations / puts",
    );
    m.add(
        "alloc.pages_carved",
        (r.alloc1.pages_carved - r.alloc0.pages_carved) as f64,
        "count",
        "pages carved into slabs",
    );
    rung(&mut m, "alloc.alloc_free_host_ns", "alloc.alloc_free");
    m.add(
        "alloc.live_drift_frac",
        drift(r),
        "ratio",
        "live-byte growth over the second half",
    );

    // fabric
    m.add(
        "fabric.msgs",
        mv.messages as f64,
        "count",
        "fabric messages",
    );
    m.ratio("fabric.msgs_per_req", mv.messages as f64, req, "count", rq);
    m.ratio(
        "fabric.atomics_per_req",
        mv.atomics as f64,
        req,
        "count",
        rq,
    );
    m.ratio(
        "fabric.bytes_read_per_req",
        mv.bytes_read as f64,
        req,
        "B",
        rq,
    );
    m.ratio(
        "fabric.bytes_written_per_req",
        mv.bytes_written as f64,
        req,
        "B",
        rq,
    );
    m.ratio(
        "fabric.replica_msgs_per_req",
        mv.replica_messages as f64,
        req,
        "count",
        rq,
    );
    m.add(
        "fabric.doorbells",
        mv.doorbells as f64,
        "count",
        "pipeline doorbells",
    );
    m.ratio(
        "fabric.doorbells_per_req",
        mv.doorbells as f64,
        req,
        "count",
        rq,
    );
    m.ratio(
        "fabric.pipelined_ops_per_req",
        mv.pipelined_ops as f64,
        req,
        "count",
        rq,
    );
    m.ratio(
        "fabric.overlap_saved_ns_per_req",
        mv.overlap_saved_ns as f64,
        req,
        "ns",
        rq,
    );
    m.add("fabric.retries", mv.retries as f64, "count", "verb retries");
    m.add(
        "fabric.giveups",
        mv.giveups as f64,
        "count",
        "verbs given up",
    );
    rung(&mut m, "fabric.read_u64_host_ns", "fabric.read_u64");
    rung(&mut m, "fabric.read256_host_ns", "fabric.read256");
    rung(&mut m, "fabric.read1k_host_ns", "fabric.read1k");
    rung(&mut m, "fabric.doorbell8_host_ns", "fabric.doorbell8");
    diff(
        &mut m,
        "fabric.self_host_ns",
        "fabric.read256",
        "node.read_bytes256",
    );

    // memory nodes
    rung(&mut m, "node.read_bytes256_host_ns", "node.read_bytes256");
    rung(&mut m, "node.read_bytes1k_host_ns", "node.read_bytes1k");
    let busy: u64 = r.nodes.iter().map(|n| n.busy_ns).sum();
    let wait: u64 = r.nodes.iter().map(|n| n.waited_ns).sum();
    let busiest = r.nodes.iter().map(|n| n.busy_ns).max().unwrap_or(0);
    m.add(
        "node.messages",
        r.nodes.iter().map(|n| n.messages).sum::<u64>() as f64,
        "count",
        "messages booked on node interfaces",
    );
    m.ratio("node.busy_ns_per_req", busy as f64, req, "ns", rq);
    m.ratio("node.wait_ns_per_req", wait as f64, req, "ns", rq);
    m.add(
        "node.max_wait_ns",
        r.nodes.iter().map(|n| n.max_wait_ns).max().unwrap_or(0) as f64,
        "ns",
        "worst single queueing delay",
    );
    m.ratio(
        "node.busiest_share",
        busiest as f64,
        busy as f64,
        "ratio",
        "busiest node busy ns / all nodes busy ns",
    );

    // tracing overhead
    m.add(
        "trace.ops_per_s_untraced",
        ops[0],
        "1/s",
        "slowest windows of the untraced rounds",
    );
    m.add(
        "trace.ops_per_s_traced",
        ops[1],
        "1/s",
        "slowest windows of the traced round",
    );
    m.add(
        "trace.overhead_frac",
        1.0 - div(ops[1], ops[0]),
        "ratio",
        "1 - traced / untraced ops_per_s",
    );
    m.add("trace.spans", spans as f64, "count", "spans recorded");
    m
}

/// Runs one workload. With `trace`, half the time runs untraced, then a
/// warm-up round and one traced round, then the ladder; the spans are
/// written under `trace`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: Option<&Path>) -> Result<Outcome, String> {
    let stream = stream(spec, seed);
    let mut notes = Vec::new();
    let Some(dir) = trace else {
        let rs = rounds(
            spec,
            seed,
            &stream,
            seconds,
            MIN_ROUNDS,
            &mut Tracer::new(false),
        )?;
        let metrics = end_to_end(spec, &rs, &mut notes);
        let failed = check(spec, &rs, &mut notes);
        let attempted = rs.iter().map(|r| r.requests).sum();
        return Ok(Outcome {
            metrics,
            attempted,
            failed,
            notes,
        });
    };
    let plain = rounds(
        spec,
        seed,
        &stream,
        seconds / 2.0,
        2,
        &mut Tracer::new(false),
    )?;
    // One warm-up round, then exactly one traced round.
    let mut tr = Tracer::new(false);
    let mut traced = rounds(spec, seed, &stream, 0.0, 1, &mut tr)?;
    tr.on = true;
    traced.extend(rounds(spec, seed, &stream, 0.0, 1, &mut tr)?);
    let lad = ladder::run(spec, seed, &stream, &mut tr)?;
    let ops = [&plain, &traced].map(|rs| ops_per_s(spec, &rs[1..]));
    let metrics = per_layer(spec, &traced[1], &lad, ops, tr.spans.len());
    let mut failed = check(spec, &plain, &mut notes);
    failed += check(spec, &traced, &mut notes);
    let path = dir.join(format!("{}.spans.tsv", spec.name));
    tr.write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!("spans written to {}", path.display()));
    let attempted = plain.iter().chain(&traced).map(|r| r.requests).sum();
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
    })
}
