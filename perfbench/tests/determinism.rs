//! Determinism self-check: same-seed runs of the single-thread workloads
//! give bit-identical virtual metrics, and another seed changes the key
//! stream (so a claim can be re-checked on a seed it was not tuned on).

use perfbench::report::{self, Outcome};
use perfbench::trace::Tracer;
use perfbench::{Spec, SERVE_CHURN_TTL, SERVE_READ_ZIPF};

/// The metrics that come from virtual clocks and counters only.
const VIRTUAL: [&str; 6] = [
    "rt_per_op",
    "fabric_bytes_per_op",
    "vlat_p50_us",
    "vlat_p99_us",
    "hit_ratio",
    "far_bytes_per_live_byte",
];

fn small(spec: Spec) -> Spec {
    Spec {
        round_requests: 20_000,
        ..spec
    }
}

fn run(spec: &Spec, seed: u64) -> Outcome {
    let stream = report::stream(spec, seed);
    let rs = report::rounds(spec, seed, &stream, 0.0, 2, &mut Tracer::new(false)).expect("run");
    let mut notes = Vec::new();
    let metrics = report::end_to_end(spec, &rs, &mut notes);
    let failed = rs.iter().map(|r| r.errors).sum();
    Outcome {
        metrics,
        attempted: rs.iter().map(|r| r.requests).sum(),
        failed,
        notes,
    }
}

fn virtual_bits(o: &Outcome) -> Vec<(&'static str, u64)> {
    VIRTUAL
        .iter()
        .map(|&n| (n, o.metrics.get(n).expect("metric reported").to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_bit_identical_virtual_metrics() {
    for spec in [small(SERVE_READ_ZIPF), small(SERVE_CHURN_TTL)] {
        let (a, b) = (run(&spec, 7), run(&spec, 7));
        assert_eq!(a.failed, 0, "{}: {:?}", spec.name, a.notes);
        assert_eq!(virtual_bits(&a), virtual_bits(&b), "{}", spec.name);
    }
}

#[test]
fn another_seed_changes_the_key_stream() {
    for spec in [small(SERVE_READ_ZIPF), small(SERVE_CHURN_TTL)] {
        let (a, b) = (report::stream(&spec, 7), report::stream(&spec, 8));
        let same = a.iter().zip(&b).filter(|(x, y)| x.key == y.key).count();
        assert!(
            same * 10 < a.len(),
            "{}: {same} of {} keys repeat",
            spec.name,
            a.len()
        );
        assert_ne!(
            virtual_bits(&run(&spec, 7)),
            virtual_bits(&run(&spec, 8)),
            "{}",
            spec.name
        );
    }
}
