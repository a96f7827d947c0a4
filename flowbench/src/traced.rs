//! The traced run: the timed phase's jobs replayed through each layer's
//! entry points with spans, checked against the flow, plus the per-layer
//! probes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use prima_cache::CachePolicy;
use prima_flow::optimized_flow_with;

use crate::circuits::{self, Circuit, Env};
use crate::probes::{self, Metrics};
use crate::replay::{replay_job, ReplayCache, ReplayOut};
use crate::trace::Tracer;
use crate::util::{fnv64, geomean, median, Rng};
use crate::workloads::{Run, Workload};

pub struct Traced {
    pub metrics: Metrics,
    /// Jobs whose replay differs from the flow, with what differed.
    pub failures: Vec<String>,
    /// Printed detail: per-circuit job times and self time per layer.
    pub notes: Vec<String>,
}

/// Untraced flow results a replay is compared with.
struct FlowRef {
    area_um2: f64,
    wirelength_um: f64,
    /// GDS stream size and content tag.
    gds: (usize, u64),
    sims: Option<[usize; 3]>,
    cache: Option<(u64, u64)>,
    retries: Option<u32>,
}

fn compare(job: usize, label: &str, flow: &FlowRef, rep: &ReplayOut) -> Vec<String> {
    let mut diffs = Vec::new();
    if flow.area_um2.to_bits() != rep.area_um2.to_bits() {
        diffs.push(format!("area {} vs {}", flow.area_um2, rep.area_um2));
    }
    if flow.wirelength_um.to_bits() != rep.wirelength_um.to_bits() {
        diffs.push(format!(
            "wirelength {} vs {}",
            flow.wirelength_um, rep.wirelength_um
        ));
    }
    if flow.gds != (rep.gds_bytes.len(), fnv64(&rep.gds_bytes)) {
        diffs.push("GDS bytes".to_string());
    }
    if flow.sims.is_some_and(|s| s != rep.sims) {
        diffs.push(format!("simulations {:?} vs {:?}", flow.sims, rep.sims));
    }
    if flow
        .cache
        .is_some_and(|(l, s)| (l, s) != (rep.lookups, rep.stores))
    {
        diffs.push(format!(
            "cache lookups/stores {:?} vs ({}, {})",
            flow.cache, rep.lookups, rep.stores
        ));
    }
    if flow.retries.is_some_and(|r| r != rep.route_retries) {
        diffs.push(format!(
            "route retries {:?} vs {}",
            flow.retries, rep.route_retries
        ));
    }
    if diffs.is_empty() {
        Vec::new()
    } else {
        vec![format!(
            "replay of job {job} ({label}) differs: {}",
            diffs.join(", ")
        )]
    }
}

/// Seconds after process start by which the replay stops taking new
/// jobs, so a traced run on a slowed machine still ends well inside the
/// benchmark's 180 s limit. A normal run replays every job long before.
const REPLAY_BUDGET_S: f64 = 140.0;

pub fn run(
    w: Workload,
    seed: u64,
    run: &Run,
    scratch: &Path,
    main_start: Instant,
) -> Result<Traced, String> {
    let env = &run.env;
    let mut tr = Tracer::new();
    let mut failures = Vec::new();
    let mut untraced: Vec<(Circuit, f64)> = Vec::new();
    let mut reps: Vec<ReplayOut> = Vec::new();

    let replay_store = scratch.join("replay.primacache");
    let mut notes = Vec::new();
    for (i, jr) in run.jobs.iter().enumerate() {
        if main_start.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            notes.push(format!(
                "replay stopped at the {REPLAY_BUDGET_S} s budget after {} of {} jobs",
                reps.len(),
                run.jobs.len()
            ));
            break;
        }
        let Ok(data) = &jr.result else {
            continue;
        };
        let job = jr.job;
        let (spec, biases) = (env.spec(job.circuit), env.biases(job.circuit));
        let (flow, cache) = match w {
            Workload::ColdTable8 | Workload::SeedSweep => {
                untraced.push((job.circuit, jr.wall_s));
                let flow = FlowRef {
                    area_um2: data.area_um2.unwrap_or(f64::NAN),
                    wirelength_um: data.wirelength_um.unwrap_or(f64::NAN),
                    gds: (data.gds_len, data.gds_tag),
                    sims: Some(data.sims),
                    cache: Some((data.lookups, data.stores)),
                    retries: Some(data.route_retries),
                };
                let cache = match &run.primed_store {
                    // As in the timed phase, every job meets the primed store.
                    Some(primed) => {
                        std::fs::copy(primed, &replay_store)
                            .map_err(|e| format!("replay store: {e}"))?;
                        ReplayCache::Persistent(&replay_store)
                    }
                    None => ReplayCache::Off,
                };
                (flow, cache)
            }
            Workload::WarmServe => {
                // Served requests carry only their bytes: the untraced
                // reference is the same flow called directly, in the same
                // single-caller conditions as its replay.
                let store = run.ref_cache.as_ref().ok_or("no reference store")?;
                let t = Instant::now();
                let out = optimized_flow_with(
                    &env.tech,
                    &env.lib,
                    spec,
                    biases,
                    job.seed,
                    circuits::flow_options(CachePolicy::Shared(store.clone())),
                )
                .map_err(|e| format!("untraced reference of job {i}: {e}"))?;
                untraced.push((job.circuit, t.elapsed().as_secs_f64()));
                let bytes = out.gds.map(|g| g.bytes).unwrap_or_default();
                if (bytes.len(), fnv64(&bytes)) != (data.gds_len, data.gds_tag) {
                    failures.push(format!("reference of job {i} differs from its response"));
                }
                let flow = FlowRef {
                    area_um2: out.area_um2,
                    wirelength_um: out.wirelength_um,
                    gds: (data.gds_len, data.gds_tag),
                    sims: None,
                    cache: None,
                    retries: Some(out.resilience.route_retries),
                };
                (flow, ReplayCache::Shared(store))
            }
        };
        tr.set_job(i);
        let rep = replay_job(&mut tr, &env.tech, &env.lib, spec, biases, job.seed, cache)
            .map_err(|e| format!("replay of job {i}: {e}"))?;
        let label = format!("{} seed {}", job.circuit.name(), job.seed);
        failures.extend(compare(i, &label, &flow, &rep));
        reps.push(rep);
    }
    if reps.is_empty() {
        return Err("no job to replay".to_string());
    }
    notes.push(format!(
        "replayed {} of {} jobs",
        reps.len(),
        run.jobs.len()
    ));

    let n = reps.len() as f64;
    let mut m = Metrics::new();
    let per_job_ms = |name: &str| tr.total_s(name) * 1e3 / n;

    // flow: untraced per-circuit medians, coverage and overhead.
    let mut by_circuit: BTreeMap<Circuit, Vec<f64>> = BTreeMap::new();
    for (c, t) in &untraced {
        by_circuit.entry(*c).or_default().push(*t);
    }
    let medians: Vec<f64> = by_circuit.values().map(|v| median(v)).collect();
    for (c, v) in &by_circuit {
        notes.push(format!(
            "flow.job_s.{} = {} s (median of {} untraced jobs)",
            c.name(),
            median(v),
            v.len()
        ));
    }
    let untraced_s: f64 = untraced.iter().map(|(_, t)| t).sum();
    let traced_s = tr.total_s("flow");
    m.insert("flow.job_s".into(), (geomean(&medians), "s"));
    m.insert(
        "flow.span_coverage".into(),
        (tr.child_coverage_s("flow") / untraced_s, "ratio"),
    );
    m.insert(
        "flow.trace_overhead".into(),
        (traced_s / untraced_s - 1.0, "ratio"),
    );
    let selfs = tr.self_s_by_layer();
    m.insert(
        "flow.self_ms".into(),
        (selfs.get("flow").copied().unwrap_or(0.0) * 1e3 / n, "ms"),
    );
    for (layer, s) in &selfs {
        notes.push(format!("self time {layer} = {} ms/job", s * 1e3 / n));
    }

    for (metric, span) in [
        ("techlint.ms", "techlint"),
        ("schem.ms", "schem"),
        ("core.select_ms", "core.select"),
        ("core.tune_ms", "core.tune"),
        ("core.ports_ms", "core.ports"),
        ("place.ms", "place"),
        ("route.global_ms", "route.global"),
        ("route.detail_ms", "route.detail"),
        ("route.power_ms", "route.power"),
        ("verify.ms", "verify"),
        ("erc.ms", "erc"),
        ("gds.write_ms", "gds.write"),
        ("gds.parse_ms", "gds.parse"),
    ] {
        m.insert(metric.into(), (per_job_ms(span), "ms"));
    }
    let sum = |f: &dyn Fn(&ReplayOut) -> f64| reps.iter().map(f).sum::<f64>();
    m.insert(
        "core.sims.selection".into(),
        (sum(&|r| r.sims[0] as f64) / n, "count"),
    );
    m.insert(
        "core.sims.tuning".into(),
        (sum(&|r| r.sims[1] as f64) / n, "count"),
    );
    m.insert(
        "core.sims.ports".into(),
        (sum(&|r| r.sims[2] as f64) / n, "count"),
    );
    let candidates = sum(&|r| r.candidates as f64);
    m.insert("core.candidates".into(), (candidates / n, "count"));
    m.insert(
        "core.kept_ratio".into(),
        (sum(&|r| r.bin_winners as f64) / candidates, "ratio"),
    );
    m.insert(
        "layout.render_us".into(),
        (
            tr.total_s("layout.render") * 1e6 / tr.count("layout.render").max(1) as f64,
            "us",
        ),
    );
    m.insert(
        "route.retries".into(),
        (sum(&|r| r.route_retries as f64), "count"),
    );
    m.insert(
        "gds.bytes".into(),
        (sum(&|r| r.gds_bytes.len() as f64) / n, "bytes"),
    );

    // cache: the timed phase's traffic, then per-call costs.
    let completed = run.jobs.iter().filter(|j| j.ok()).count().max(1) as f64;
    m.insert("cache.hit_ratio".into(), (run.cache.hit_ratio(), "ratio"));
    m.insert(
        "cache.lookups".into(),
        (run.cache.lookups as f64 / completed, "count"),
    );
    m.insert(
        "cache.stores".into(),
        (run.cache.stores as f64 / completed, "count"),
    );
    m.insert("cache.bytes".into(), (run.cache.bytes as f64, "bytes"));

    let mut rng = Rng::stream(seed, 7);
    let probe_env = Env::new(&[Circuit::CsAmp])?;
    probes::cache_lookup(env, &mut rng, &mut m)?;
    if w == Workload::SeedSweep {
        let per_call = |name: &str| tr.total_s(name) * 1e3 / tr.count(name).max(1) as f64;
        m.insert("cache.open_ms".into(), (per_call("cache.open"), "ms"));
        m.insert("cache.save_ms".into(), (per_call("cache.save"), "ms"));
    } else {
        probes::cache_disk(&probe_env, scratch, rng.placement_seed(), &mut m)?;
    }
    match &run.serve {
        Some(report) => probes::serve_metrics(report, 6, &mut m),
        None => probes::serve(&probe_env, rng.placement_seed(), &mut m)?,
    }
    probes::generation(env, w.circuits(), &mut m)?;
    probes::primitives(env, &mut rng, &mut m)?;
    probes::spice(env, &mut rng, &mut m)?;

    let spans = Path::new(".flowbench")
        .join("spans")
        .join(format!("{}-{seed}.tsv", w.name()));
    match tr.write_tsv(&spans) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tr.spans.len(),
            spans.display()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    Ok(Traced {
        metrics: m,
        failures,
        notes,
    })
}
