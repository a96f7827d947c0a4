//! Layout-flow benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path flowbench/Cargo.toml -- \
//!     --workload <cold_table8|warm_serve|seed_sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from the repository root and prints every metric by
//! name with its unit, then one JSON line: with `--trace 0` the
//! end-to-end metrics of the timed phase, with `--trace 1` the per-layer
//! metrics of the traced replay of the same jobs. Scratch files live under
//! `.flowbench/` in the working directory. See `flowbench/DECISIONS.md`
//! for the workloads, the metric definitions and the predictions.

mod circuits;
mod probes;
mod repeat;
mod replay;
mod trace;
mod traced;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use circuits::Circuit;
use util::{geomean, median, percentile};
use workloads::{Run, Workload};

/// The seed kept out of development runs; a claimed gain must also hold
/// on it.
const HELD_OUT_SEED: u64 = 8_675_309;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// `job_p95_s`: the nearest-rank 95th percentile of all the run's job
/// times, pooled over circuits. `cold_table8` holds two or three jobs per
/// circuit, too few for a tail: there it is each circuit's slowest job,
/// combined across circuits by geometric mean like `job_p50_s`, so that
/// one slow StrongARM or RO-VCO flow does not decide it alone.
fn job_p95_s(w: Workload, walls: &[f64], by_circuit: &BTreeMap<Circuit, Vec<f64>>) -> f64 {
    if w == Workload::ColdTable8 {
        let slowest: Vec<f64> = by_circuit.values().map(|v| percentile(v, 95.0)).collect();
        geomean(&slowest)
    } else {
        percentile(walls, 95.0)
    }
}

/// The end-to-end metrics of a run's timed phase, by name.
fn end_to_end(w: Workload, run: &Run) -> BTreeMap<String, (f64, &'static str)> {
    let done: Vec<_> = run.jobs.iter().filter(|j| j.ok()).collect();
    let mut by_circuit: BTreeMap<Circuit, Vec<f64>> = BTreeMap::new();
    for j in &done {
        by_circuit.entry(j.job.circuit).or_default().push(j.wall_s);
    }
    let medians: Vec<f64> = by_circuit.values().map(|v| median(v)).collect();
    let walls: Vec<f64> = done.iter().map(|j| j.wall_s).collect();
    let n = done.len() as f64;
    let mut m = BTreeMap::new();
    m.insert("setup_s".to_string(), (run.setup_s, "s"));
    m.insert("job_p50_s".to_string(), (geomean(&medians), "s"));
    m.insert(
        "job_p95_s".to_string(),
        (job_p95_s(w, &walls, &by_circuit), "s"),
    );
    m.insert("jobs_per_s".to_string(), (n / run.timed_wall_s, "1/s"));
    m.insert("cpu_s_per_job".to_string(), (run.cpu_s / n, "s"));
    m.insert("peak_rss_mb".to_string(), (util::peak_rss_mb(), "MB"));
    m.insert("area_um2".to_string(), (run.area_um2, "um2"));
    m.insert("wirelength_um".to_string(), (run.wirelength_um, "um"));
    m.insert("circuit_dev_pct".to_string(), (run.circuit_dev_pct, "%"));
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<String, (f64, &'static str)>,
) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let main_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".flowbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("flowbench: scratch directory: {e}");
        return ExitCode::FAILURE;
    }
    let code = match bench(&args, &scratch, main_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn bench(args: &Args, scratch: &std::path::Path, main_start: Instant) -> Result<(), String> {
    let w = args.workload;
    println!(
        "flowbench workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "env: nproc={} available_parallelism={} rustc=\"{}\" profile={}",
        util::nproc(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("FLOWBENCH_RUSTC"),
        env!("FLOWBENCH_PROFILE")
    );

    let run = workloads::run(w, args.seed, args.seconds, scratch, main_start)?;
    let e2e = end_to_end(w, &run);

    for (i, j) in run.jobs.iter().enumerate() {
        let label = format!(
            "job {i} ({} seed {} tenant {})",
            j.job.circuit.name(),
            j.job.seed,
            j.job.tenant
        );
        match &j.result {
            Ok(_) => println!("{label}: {} s", j.wall_s),
            Err(e) => println!("FAILED {label}: {e}"),
        }
    }
    for f in &run.failures {
        println!("FAILED check: {f}");
    }
    let attempted = run.jobs.len();
    let failed = run.jobs.iter().filter(|j| !j.ok()).count();
    println!(
        "end-to-end ({attempted} jobs in {:.3} s):",
        run.timed_wall_s
    );
    for (name, (v, unit)) in &e2e {
        println!("  {name} = {v} {unit}");
    }
    println!(
        "  fail_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("  cache.hit_ratio = {}", run.cache.hit_ratio());
    println!(
        "host: hypervisor steal took {:.1}% of machine CPU time during the timed phase",
        100.0 * run.steal_share
    );
    for line in repeat::check(w, args.seed, &run, std::path::Path::new(".flowbench")) {
        println!("{line}");
    }

    let mut correct = failed == 0 && run.failures.is_empty();
    let metrics = if args.trace {
        let traced = traced::run(w, args.seed, &run, scratch, main_start)?;
        for f in &traced.failures {
            println!("FAILED fidelity: {f}");
        }
        if traced.failures.is_empty() {
            println!(
                "replay fidelity: every replay reproduces its flow's area, wirelength, \
                 GDS bytes and counts bit for bit"
            );
        }
        correct &= traced.failures.is_empty();
        println!("per-layer (traced replay):");
        for line in &traced.notes {
            println!("  {line}");
        }
        for (name, (v, unit)) in &traced.metrics {
            println!("  {name} = {v} {unit}");
        }
        traced.metrics
    } else {
        e2e
    };
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}
