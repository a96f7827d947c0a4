//! The three workloads: set-up, the timed closed loop, and the output
//! checks after it.
//!
//! * `cold_table8` — one caller runs cold flows (cache off) on the OTA,
//!   StrongARM and RO-VCO in seeded order, whole rounds at a time: the
//!   simulator-bound Table VIII rows.
//! * `warm_serve` — a two-worker `BatchServer` answers two closed-loop
//!   clients; every request repeats a (tenant, circuit, seed) primed in
//!   set-up, so it runs no simulation.
//! * `seed_sweep` — one caller places cs_amp and the OTA at fresh seeds
//!   against a persistent store primed in set-up and reset to that state
//!   before each job: selection and tuning hit, port constraints miss and
//!   are written back.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prima_cache::{CachePolicy, EvalCache, Fingerprintable};
use prima_flow::{optimized_flow_with, FlowOutcome, Health, Realization};
use prima_gds::GdsLibrary;
use prima_primitives::TESTBENCH_VERSION;
use prima_serve::{BatchServer, Outcome, ServeRequest};

use crate::circuits::{self, check_outcome, Circuit, Env};
use crate::util::{fnv64, median, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdTable8,
    WarmServe,
    SeedSweep,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cold_table8" => Some(Workload::ColdTable8),
            "warm_serve" => Some(Workload::WarmServe),
            "seed_sweep" => Some(Workload::SeedSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdTable8 => "cold_table8",
            Workload::WarmServe => "warm_serve",
            Workload::SeedSweep => "seed_sweep",
        }
    }

    pub fn circuits(self) -> &'static [Circuit] {
        match self {
            Workload::ColdTable8 => &[Circuit::Ota, Circuit::StrongArm, Circuit::Vco],
            Workload::WarmServe => &[Circuit::CsAmp, Circuit::Ota, Circuit::Vco],
            Workload::SeedSweep => &[Circuit::CsAmp, Circuit::Ota],
        }
    }

    /// Set-ups per run; the reported `setup_s` is their median. The cold
    /// set-up takes ~30 ms, so five cost nothing; serving set-up runs six
    /// cold flows (~7-12 s), so it is made once.
    fn setups(self) -> usize {
        match self {
            Workload::ColdTable8 => 5,
            Workload::WarmServe => 1,
            Workload::SeedSweep => 3,
        }
    }
}

/// One job of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub circuit: Circuit,
    pub seed: u64,
    /// Serving tenant index (`warm_serve` only).
    pub tenant: usize,
}

/// The exact quantities of a finished job.
#[derive(Debug, Clone, Default)]
pub struct JobData {
    pub area_um2: Option<f64>,
    pub wirelength_um: Option<f64>,
    pub sims: [usize; 3],
    pub lookups: u64,
    pub stores: u64,
    /// GDS stream size and content tag (the bytes themselves are checked
    /// when the job ends and not kept).
    pub gds_len: usize,
    pub gds_tag: u64,
    pub route_retries: u32,
}

#[derive(Debug, Clone)]
pub struct JobResult {
    pub job: Job,
    pub wall_s: f64,
    /// The flow's result; `Err` carries the flow error or failed checks.
    pub result: Result<JobData, String>,
}

impl JobResult {
    pub fn ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// Everything a run measured.
pub struct Run {
    pub env: Env,
    pub setup_s: f64,
    pub timed_wall_s: f64,
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor took during the
    /// timed phase (context for noisy runs; not a metric).
    pub steal_share: f64,
    pub jobs: Vec<JobResult>,
    /// Failed checks not tied to one timed job.
    pub failures: Vec<String>,
    pub area_um2: f64,
    pub wirelength_um: f64,
    pub circuit_dev_pct: f64,
    pub cache: CacheTraffic,
    /// Serving report of `warm_serve` (for the serve-layer metrics).
    pub serve: Option<prima_core::ServeReport>,
    /// The store `warm_serve`'s reference flows ran against, warm for
    /// every served request (for the traced replay).
    pub ref_cache: Option<Arc<EvalCache>>,
    /// Primed store snapshot of `seed_sweep` (for the traced replay).
    pub primed_store: Option<PathBuf>,
}

fn job_data(out: &FlowOutcome) -> JobData {
    JobData {
        area_um2: Some(out.area_um2),
        wirelength_um: Some(out.wirelength_um),
        sims: [
            out.sims.get("selection").copied().unwrap_or(0),
            out.sims.get("tuning").copied().unwrap_or(0),
            out.sims.get("ports").copied().unwrap_or(0),
        ],
        lookups: out.cache.map_or(0, |c| c.hits + c.misses),
        stores: out.cache.map_or(0, |c| c.misses),
        gds_len: out.gds.as_ref().map_or(0, |g| g.bytes.len()),
        gds_tag: out.gds.as_ref().map_or(0, |g| fnv64(&g.bytes)),
        route_retries: out.resilience.route_retries,
    }
}

/// Runs one flow job and its output checks.
fn flow_job(
    env: &Env,
    job: Job,
    cache: CachePolicy,
    realizations: &mut Vec<(Job, Realization)>,
) -> JobResult {
    let t = Instant::now();
    let res = optimized_flow_with(
        &env.tech,
        &env.lib,
        env.spec(job.circuit),
        env.biases(job.circuit),
        job.seed,
        circuits::flow_options(cache),
    );
    let wall_s = t.elapsed().as_secs_f64();
    let result = match res {
        Err(e) => Err(format!("flow error: {e}")),
        Ok(out) => {
            let errs = check_outcome(&out);
            if errs.is_empty() {
                let data = job_data(&out);
                realizations.push((job, out.realization));
                Ok(data)
            } else {
                Err(errs.join("; "))
            }
        }
    };
    JobResult {
        job,
        wall_s,
        result,
    }
}

/// Geometric means of area and wirelength over distinct (circuit, seed).
fn quality(jobs: &[JobResult]) -> (f64, f64) {
    let mut seen: Vec<(Circuit, u64)> = Vec::new();
    let (mut area, mut wl) = (Vec::new(), Vec::new());
    for j in jobs {
        let Ok(d) = &j.result else {
            continue;
        };
        let key = (j.job.circuit, j.job.seed);
        if seen.contains(&key) {
            continue;
        }
        if let (Some(a), Some(w)) = (d.area_um2, d.wirelength_um) {
            seen.push(key);
            area.push(a);
            wl.push(w);
        }
    }
    (crate::util::geomean(&area), crate::util::geomean(&wl))
}

/// Distinct (circuit, seed) realizations, first occurrence kept.
fn distinct(reals: Vec<(Job, Realization)>) -> Vec<(Circuit, Realization)> {
    let mut seen: Vec<(Circuit, u64)> = Vec::new();
    let mut out = Vec::new();
    for (job, r) in reals {
        let key = (job.circuit, job.seed);
        if !seen.contains(&key) {
            seen.push(key);
            out.push((job.circuit, r));
        }
    }
    out
}

fn dev_of(env: &Env, reals: &[(Circuit, Realization)], failures: &mut Vec<String>) -> f64 {
    let refs: Vec<(Circuit, &Realization)> = reals.iter().map(|(c, r)| (*c, r)).collect();
    match circuits::circuit_dev_pct(env, &refs) {
        Ok(d) => d,
        Err(e) => {
            failures.push(e);
            f64::NAN
        }
    }
}

/// Times `setups` set-ups and keeps the last one's state.
fn timed_setups<T>(
    n: usize,
    main_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut state = None;
    for i in 0..n {
        let t = if i == 0 { main_start } else { Instant::now() };
        drop(state.take());
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((median(&times), state))
}

pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    scratch: &Path,
    main_start: Instant,
) -> Result<Run, String> {
    match w {
        Workload::ColdTable8 => cold_table8(seed, seconds, main_start),
        Workload::WarmServe => warm_serve(seed, seconds, main_start),
        Workload::SeedSweep => seed_sweep(seed, seconds, scratch, main_start),
    }
}

/// Placement seed of the `table8` exhibit rows. Cold jobs keep it, so the
/// run's area, wirelength and deviation are those of fixed Table VIII
/// inputs; six seeded placements per run spread the geometric-mean area
/// by ~20% across workload seeds, beyond any usable bound.
const TABLE8_SEED: u64 = 42;

/// Rounds every `cold_table8` run holds at least. Its per-circuit
/// statistics then always rest on two jobs or more, whether a round takes
/// more or less than the run's `seconds`.
const COLD_MIN_ROUNDS: usize = 2;

fn cold_table8(seed: u64, seconds: f64, main_start: Instant) -> Result<Run, String> {
    let w = Workload::ColdTable8;
    let (setup_s, env) = timed_setups(w.setups(), main_start, || {
        let env = Env::new(&[
            Circuit::CsAmp,
            Circuit::Ota,
            Circuit::StrongArm,
            Circuit::Vco,
        ])?;
        // One cold cs_amp flow first, so the first timed job does not also
        // pay the process's first-touch costs (code pages, allocator
        // arenas, thread stacks); the other workloads' set-ups run flows
        // anyway.
        let warm_up = Job {
            circuit: Circuit::CsAmp,
            seed: TABLE8_SEED,
            tenant: 0,
        };
        flow_job(&env, warm_up, CachePolicy::Off, &mut Vec::new())
            .result
            .map_err(|e| format!("warm-up flow: {e}"))?;
        Ok(env)
    })?;
    let mut rng = Rng::stream(seed, 1);
    let mut jobs = Vec::new();
    let mut reals = Vec::new();
    let cpu0 = crate::util::process_cpu_s();
    let steal0 = crate::util::machine_ticks();
    let t0 = Instant::now();
    // Whole rounds, so every circuit gets the same number of jobs; a new
    // round starts while the timed phase is shorter than `seconds`, so the
    // phase lasts at least that long, and at least `COLD_MIN_ROUNDS` run.
    let mut rounds = 0;
    while rounds < COLD_MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let mut order = w.circuits().to_vec();
        rng.shuffle(&mut order);
        for circuit in order {
            let job = Job {
                circuit,
                seed: TABLE8_SEED,
                tenant: 0,
            };
            jobs.push(flow_job(&env, job, CachePolicy::Off, &mut reals));
        }
    }
    let timed_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::util::process_cpu_s() - cpu0;
    let steal_share = crate::util::steal_share(steal0, crate::util::machine_ticks());

    let mut failures = Vec::new();
    let (area_um2, wirelength_um) = quality(&jobs);
    let reals = distinct(reals);
    let circuit_dev_pct = dev_of(&env, &reals, &mut failures);
    let cache = traffic_of(&jobs);
    Ok(Run {
        env,
        setup_s,
        timed_wall_s,
        cpu_s,
        steal_share,
        jobs,
        failures,
        area_um2,
        wirelength_um,
        circuit_dev_pct,
        cache,
        serve: None,
        ref_cache: None,
        primed_store: None,
    })
}

const TENANTS: [&str; 2] = ["t0", "t1"];

fn warm_serve(seed: u64, seconds: f64, main_start: Instant) -> Result<Run, String> {
    let w = Workload::WarmServe;
    // Both tenants ask for every circuit at the exhibit seed: fixed inputs,
    // so every run serves the same work and only the seeded interleaving
    // of the two clients varies.
    let mut triples: Vec<Job> = Vec::new();
    for tenant in 0..TENANTS.len() {
        for &circuit in w.circuits() {
            triples.push(Job {
                circuit,
                seed: TABLE8_SEED,
                tenant,
            });
        }
    }
    let (setup_s, (env, server, primed)) = timed_setups(w.setups(), main_start, || {
        let env = Env::new(w.circuits())?;
        let server = BatchServer::try_new(
            env.tech.clone(),
            env.lib.clone(),
            crate::probes::serve_config(2 * triples.len()),
        )
        .map_err(|e| format!("server start: {e}"))?;
        let tickets = triples
            .iter()
            .map(|j| server.submit(request(&env, *j)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("priming submit: {e}"))?;
        let mut primed = Vec::new();
        for (j, ticket) in triples.iter().zip(tickets) {
            let r = ticket.wait();
            match (&r.outcome, r.health, r.gds) {
                (Outcome::Completed, Some(Health::Clean), Some(bytes)) => primed.push(bytes),
                (o, h, _) => {
                    return Err(format!(
                        "priming {} seed {} for {}: {o:?} {h:?} {}",
                        j.circuit.name(),
                        j.seed,
                        TENANTS[j.tenant],
                        r.detail
                    ))
                }
            }
        }
        Ok((env, server, primed))
    })?;

    let hub0 = hub_totals(&server);
    let cpu0 = crate::util::process_cpu_s();
    let steal0 = crate::util::machine_ticks();
    let t0 = Instant::now();
    let results: Mutex<Vec<JobResult>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..2u64 {
            let (env, server, triples, primed, results) =
                (&env, &server, &triples, &primed, &results);
            s.spawn(move || {
                let mut rng = Rng::stream(seed, 100 + client);
                while t0.elapsed().as_secs_f64() < seconds {
                    let k = rng.below(triples.len());
                    let job = triples[k];
                    let t = Instant::now();
                    let result = match server.submit(request(env, job)) {
                        Err(e) => Err(format!("refused: {e}")),
                        Ok(ticket) => served(ticket.wait(), &primed[k]),
                    };
                    let wall_s = t.elapsed().as_secs_f64();
                    if let Ok(mut v) = results.lock() {
                        v.push(JobResult {
                            job,
                            wall_s,
                            result,
                        });
                    }
                }
            });
        }
    });
    let timed_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::util::process_cpu_s() - cpu0;
    let steal_share = crate::util::steal_share(steal0, crate::util::machine_ticks());
    let hub1 = hub_totals(&server);
    let cache = CacheTraffic {
        lookups: (hub1.0 + hub1.1) - (hub0.0 + hub0.1),
        stores: hub1.1 - hub0.1,
        bytes: hub1.2,
    };
    let report = server.finish();
    let jobs = results.into_inner().map_err(|_| "client panicked")?;

    // Reference flows, cold on one shared store, give each distinct
    // (circuit, seed) its gate reports, area, wirelength and realization.
    // Their bytes must equal every tenant's primed response, and the
    // primed bytes must re-parse.
    let mut failures = Vec::new();
    for (j, bytes) in triples.iter().zip(&primed) {
        if let Err(e) = GdsLibrary::from_bytes(bytes) {
            failures.push(format!(
                "primed {} response for {} does not re-parse: {e}",
                j.circuit.name(),
                TENANTS[j.tenant]
            ));
        }
    }
    let ref_cache = Arc::new(EvalCache::open(
        CachePolicy::MemoryOnly,
        env.tech.fingerprint(),
        TESTBENCH_VERSION,
    ));
    let mut refs = Vec::new();
    let mut reals = Vec::new();
    for &job in &triples {
        if refs
            .iter()
            .any(|r: &JobResult| r.job.circuit == job.circuit && r.job.seed == job.seed)
        {
            continue;
        }
        let jr = flow_job(
            &env,
            job,
            CachePolicy::Shared(Arc::clone(&ref_cache)),
            &mut reals,
        );
        match &jr.result {
            Err(e) => failures.push(format!("reference {}: {e}", job.circuit.name())),
            Ok(d) => {
                for (t, bytes) in triples.iter().zip(&primed) {
                    if t.circuit == job.circuit
                        && t.seed == job.seed
                        && (d.gds_len, d.gds_tag) != (bytes.len(), fnv64(bytes))
                    {
                        failures.push(format!(
                            "cold reference {} differs from the primed response for {}",
                            job.circuit.name(),
                            TENANTS[t.tenant]
                        ));
                    }
                }
            }
        }
        refs.push(jr);
    }
    let (area_um2, wirelength_um) = quality(&refs);
    let reals = distinct(reals);
    let circuit_dev_pct = dev_of(&env, &reals, &mut failures);
    Ok(Run {
        env,
        setup_s,
        timed_wall_s,
        cpu_s,
        steal_share,
        jobs,
        failures,
        area_um2,
        wirelength_um,
        circuit_dev_pct,
        cache,
        serve: Some(report),
        ref_cache: Some(ref_cache),
        primed_store: None,
    })
}

/// Checks one served response: completed clean, with the primed
/// response's bytes.
fn served(r: prima_core::RequestReport, primed: &[u8]) -> Result<JobData, String> {
    match (&r.outcome, r.health, &r.gds) {
        (Outcome::Completed, Some(Health::Clean), Some(bytes)) if bytes.as_slice() == primed => {
            Ok(JobData {
                gds_len: bytes.len(),
                gds_tag: fnv64(bytes),
                ..JobData::default()
            })
        }
        (Outcome::Completed, Some(Health::Clean), Some(_)) => {
            Err("GDS differs from the primed cold response".to_string())
        }
        (o, h, _) => Err(format!("{o:?} {h:?}: {}", r.detail)),
    }
}

fn request(env: &Env, job: Job) -> ServeRequest {
    let mut req = ServeRequest::new(
        TENANTS[job.tenant],
        env.spec(job.circuit).clone(),
        env.biases(job.circuit).clone(),
    );
    req.seed = job.seed;
    req
}

fn seed_sweep(seed: u64, seconds: f64, scratch: &Path, main_start: Instant) -> Result<Run, String> {
    let w = Workload::SeedSweep;
    let store = scratch.join("sweep.primacache");
    let primed_store = scratch.join("sweep-primed.primacache");
    let mut rng = Rng::stream(seed, 3);
    let prime_seeds: Vec<u64> = w.circuits().iter().map(|_| rng.placement_seed()).collect();
    let (setup_s, env) = timed_setups(w.setups(), main_start, || {
        let env = Env::new(w.circuits())?;
        let _ = std::fs::remove_file(&store);
        for (&circuit, &s) in w.circuits().iter().zip(&prime_seeds) {
            optimized_flow_with(
                &env.tech,
                &env.lib,
                env.spec(circuit),
                env.biases(circuit),
                s,
                circuits::flow_options(circuits::persistent(&store)),
            )
            .map_err(|e| format!("priming {}: {e}", circuit.name()))?;
        }
        Ok(env)
    })?;
    std::fs::copy(&store, &primed_store).map_err(|e| format!("store copy: {e}"))?;

    let mut jobs = Vec::new();
    let mut reals = Vec::new();
    let cpu0 = crate::util::process_cpu_s();
    let steal0 = crate::util::machine_ticks();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let mut order = w.circuits().to_vec();
        rng.shuffle(&mut order);
        for circuit in order {
            let job = Job {
                circuit,
                seed: rng.placement_seed(),
                tenant: 0,
            };
            // Every job meets the primed store. Otherwise the store each
            // job reloads and rewrites grows with every job before it: a
            // late job takes up to 40% longer than an early one, and a
            // faster machine, running more jobs, meets a bigger store.
            std::fs::copy(&primed_store, &store).map_err(|e| format!("store reset: {e}"))?;
            jobs.push(flow_job(
                &env,
                job,
                circuits::persistent(&store),
                &mut reals,
            ));
        }
    }
    let timed_wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = crate::util::process_cpu_s() - cpu0;
    let steal_share = crate::util::steal_share(steal0, crate::util::machine_ticks());

    // A seeded sample re-run with the cache off must stream out the same
    // bytes as the cached job.
    let mut failures = Vec::new();
    let ok: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].ok()).collect();
    let mut sample = ok.clone();
    rng.shuffle(&mut sample);
    sample.truncate(3);
    sample.sort_unstable();
    let mut scratch_reals = Vec::new();
    for i in sample {
        let job = jobs[i].job;
        let cold = flow_job(&env, job, CachePolicy::Off, &mut scratch_reals);
        let same = match (&cold.result, &jobs[i].result) {
            (Ok(a), Ok(b)) => a.gds_tag == b.gds_tag && a.gds_len == b.gds_len,
            _ => false,
        };
        if !same {
            jobs[i].result = Err(format!(
                "cache-off re-run of {} seed {} streams out different bytes",
                job.circuit.name(),
                job.seed
            ));
        }
    }
    let (area_um2, wirelength_um) = quality(&jobs);
    let reals = distinct(reals);
    let circuit_dev_pct = dev_of(&env, &reals, &mut failures);
    let mut cache = traffic_of(&jobs);
    cache.bytes = std::fs::metadata(&store).map_or(0, |m| m.len());
    Ok(Run {
        env,
        setup_s,
        timed_wall_s,
        cpu_s,
        steal_share,
        jobs,
        failures,
        area_um2,
        wirelength_um,
        circuit_dev_pct,
        cache,
        serve: None,
        ref_cache: None,
        primed_store: Some(primed_store),
    })
}

/// Cache traffic of the timed phase, summed over its jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTraffic {
    pub lookups: u64,
    pub stores: u64,
    /// Bytes held by the store at the end of the run.
    pub bytes: u64,
}

impl CacheTraffic {
    /// Repeated-input share: lookups answered from the store.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.lookups - self.stores) as f64 / self.lookups as f64
        }
    }
}

fn traffic_of(jobs: &[JobResult]) -> CacheTraffic {
    let mut t = CacheTraffic::default();
    for d in jobs.iter().filter_map(|j| j.result.as_ref().ok()) {
        t.lookups += d.lookups;
        t.stores += d.stores;
    }
    t
}

fn hub_totals(server: &BatchServer) -> (u64, u64, u64) {
    server
        .cache_stats_by_namespace()
        .iter()
        .fold((0, 0, 0), |(h, m, b), (_, s)| {
            (h + s.hits, m + s.misses, b + s.bytes)
        })
}
