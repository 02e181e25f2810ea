//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes and metrics, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, and the spans are written under `out/` next to
//! this crate's manifest. Exits 1 when any output check fails, 2 on bad
//! arguments or a failed run.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = perfbench::spec(&args.workload) else {
        let names: Vec<&str> = perfbench::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out = match report::run(
        &spec,
        args.seed,
        args.seconds,
        args.trace.then_some(dir.as_path()),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    for n in &out.notes {
        println!("{n}");
    }
    for m in &out.metrics.0 {
        println!(
            "metric {:<34} {:>16.6} {:<6} [{}]",
            m.name, m.value, m.unit, m.basis
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
