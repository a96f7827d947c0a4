//! Per-layer probes for the traced run: single entry points of the
//! primitives, spice, layout, cache and serve layers, timed on inputs
//! drawn from the workload seed.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use prima_cache::{CachePolicy, EvalCache, Fingerprintable};
use prima_core::{std_config_space, Optimizer, Phase};
use prima_flow::builder::{build_circuit, PrimitiveInst, Realization, VDD_EXT};
use prima_flow::circuits::{FiveTOta, RoVco};
use prima_flow::optimized_flow_with;
use prima_layout::generate;
use prima_primitives::{evaluate_metric, Bias, LayoutView, MetricKind, TESTBENCH_VERSION};
use prima_serve::{BatchServer, ServeConfig, ServeRequest};
use prima_spice::netlist::{Circuit, Waveform};
use prima_spice::num::Matrix;
use prima_spice::{AcSolver, DcSolver, FrequencySweep, TranSolver};

use crate::circuits::{self, Circuit as Ckt, Env};
use crate::util::{median, percentile, Rng};

pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The metric kinds the testbench layer is probed on, with their names.
const KINDS: [(MetricKind, &str); 9] = [
    (MetricKind::Gm, "gm"),
    (MetricKind::GmOverCtotal, "gm_over_ctotal"),
    (MetricKind::InputOffset, "input_offset"),
    (MetricKind::OutputCurrent, "output_current"),
    (MetricKind::Cout, "cout"),
    (MetricKind::OutputResistance, "output_resistance"),
    (MetricKind::Delay, "delay"),
    (MetricKind::Gain, "gain"),
    (MetricKind::OnResistance, "on_resistance"),
];

/// `evaluate_metric` per call, for each kind: the first library primitive
/// carrying the kind, at nominal bias, on its schematic view and two
/// seeded candidates from its standard configuration space.
pub fn primitives(env: &Env, rng: &mut Rng, m: &mut Metrics) -> Result<(), String> {
    let (tech, lib) = (&env.tech, &env.lib);
    for (kind, name) in KINDS {
        let (def, metric) = lib
            .iter()
            .find_map(|d| d.metrics.iter().find(|x| x.kind == kind).map(|x| (d, x)))
            .ok_or_else(|| format!("no primitive measures {name}"))?;
        let fins = [8u64, 16, 12, 24, 4]
            .into_iter()
            .find(|&f| !std_config_space(f).is_empty())
            .ok_or("no legal fin count")?;
        let bias = Bias::nominal(tech, &def.class);
        let configs = std_config_space(fins);
        let layouts: Vec<_> = (0..2)
            .map(|_| generate(tech, &def.spec, &configs[rng.below(configs.len())]))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{} generate: {e}", def.name))?;
        let mut views = vec![LayoutView::Schematic { total_fins: fins }];
        views.extend(layouts.iter().map(LayoutView::Layout));
        let mut times = Vec::new();
        for view in views {
            let t = Instant::now();
            evaluate_metric(tech, def, metric, view, &bias, &HashMap::new())
                .map_err(|e| format!("{}.{} evaluation: {e}", def.name, metric.name))?;
            times.push(ms(t));
        }
        m.insert(
            format!("primitives.eval_ms.{name}"),
            (crate::util::mean(&times), "ms"),
        );
    }
    Ok(())
}

/// Simulator entry points on circuits of testbench size: one dim-30 LU
/// solve, the OTA's DC operating point and AC sweep, and a 1,000-step
/// transient of one current-starved inverter.
pub fn spice(env: &Env, rng: &mut Rng, m: &mut Metrics) -> Result<(), String> {
    let (tech, lib) = (&env.tech, &env.lib);

    const N: usize = 30;
    let mut a = Matrix::<f64>::zero(N);
    for r in 0..N {
        let mut off = 0.0;
        for c in 0..N {
            if r != c {
                let v = (rng.next_u64() % 1000) as f64 * 1e-6;
                a.stamp(r, c, v);
                off += v;
            }
        }
        a.stamp(r, r, off + 1e-3);
    }
    let b: Vec<f64> = (0..N).map(|i| i as f64 * 1e-3).collect();
    const REPS: usize = 2000;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(a.solve(std::hint::black_box(&b)))
            .map_err(|e| format!("LU solve: {e:?}"))?;
    }
    m.insert(
        "spice.lu_us".into(),
        (t.elapsed().as_secs_f64() * 1e6 / REPS as f64, "us"),
    );

    let ota = FiveTOta::spec();
    let mut c = build_circuit(tech, lib, &ota.instances, &Realization::schematic())
        .map_err(|e| format!("OTA assembly: {e}"))?;
    let node = |c: &Circuit, n: &str| c.find_node(n).ok_or(format!("OTA net {n} missing"));
    let vdd = node(&c, VDD_EXT)?;
    c.vsource("VDD", vdd, Circuit::GROUND, tech.vdd);
    let vcm = 0.55 * tech.vdd;
    let vinp = node(&c, "vinp")?;
    c.vsource_ac("VINP", vinp, Circuit::GROUND, vcm, 0.5);
    let vinn = node(&c, "vinn")?;
    c.vsource_ac("VINN", vinn, Circuit::GROUND, vcm, -0.5);
    let n1 = node(&c, "n1")?;
    c.isource("IBIAS", Circuit::GROUND, n1, FiveTOta::I_BIAS);
    let vss = node(&c, "vssn")?;
    c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
    let vout = node(&c, "n5")?;
    c.capacitor("CLOAD", vout, Circuit::GROUND, FiveTOta::C_LOAD)
        .map_err(|e| format!("OTA load: {e}"))?;
    let mut dc = Vec::new();
    let mut op = None;
    for _ in 0..10 {
        let t = Instant::now();
        op = Some(
            DcSolver::new()
                .solve(&c)
                .map_err(|e| format!("OTA DC: {e}"))?,
        );
        dc.push(ms(t));
    }
    let op = op.ok_or("no DC solve")?;
    let sweep = FrequencySweep::Decade {
        start: 1e5,
        stop: 200e9,
        points_per_decade: 24,
    };
    let mut ac = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        AcSolver::new()
            .solve_at_op(&c, &op, &sweep)
            .map_err(|e| format!("OTA AC: {e}"))?;
        ac.push(ms(t));
    }
    m.insert("spice.dc_ms".into(), (median(&dc), "ms"));
    m.insert("spice.ac_ms".into(), (median(&ac), "ms"));

    let inv = [PrimitiveInst::new(
        "XCSI",
        "csi",
        RoVco::FINS_CSI,
        &[
            ("in", "vin"),
            ("out", "vout"),
            ("vbp", "vbp"),
            ("vbn", "vbn"),
            ("vdd", "vdd"),
            ("vss", "vssn"),
        ],
    )];
    let mut c = build_circuit(tech, lib, &inv, &Realization::schematic())
        .map_err(|e| format!("CSI assembly: {e}"))?;
    let (vbn, vbp) = RoVco::control_to_bias(tech, 0.35);
    let node = |c: &Circuit, n: &str| c.find_node(n).ok_or(format!("CSI net {n} missing"));
    let vdd = node(&c, VDD_EXT)?;
    c.vsource("VDD", vdd, Circuit::GROUND, tech.vdd);
    let vss = node(&c, "vssn")?;
    c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
    let n = node(&c, "vbn")?;
    c.vsource("VBN", n, Circuit::GROUND, vbn);
    let p = node(&c, "vbp")?;
    c.vsource("VBP", p, Circuit::GROUND, vbp);
    let vin = node(&c, "vin")?;
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::GROUND,
        Waveform::Pulse {
            v1: 0.0,
            v2: tech.vdd,
            delay: 100e-12,
            rise: 10e-12,
            fall: 10e-12,
            width: 600e-12,
            period: f64::INFINITY,
        },
        0.0,
    );
    let vo = node(&c, "vout")?;
    c.capacitor("CLOAD", vo, Circuit::GROUND, 2e-15)
        .map_err(|e| format!("CSI load: {e}"))?;
    let mut tran = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        TranSolver::new(1.5e-12, 1.5e-9)
            .solve(&c)
            .map_err(|e| format!("CSI transient: {e}"))?;
        tran.push(ms(t));
    }
    m.insert("spice.tran_ms".into(), (median(&tran), "ms"));
    Ok(())
}

/// `generate` per call over the standard configuration space of every
/// distinct (primitive, fins) the workload's circuits instantiate.
pub fn generation(env: &Env, circuits: &[Ckt], m: &mut Metrics) -> Result<(), String> {
    let mut seen: Vec<(String, u64)> = Vec::new();
    let mut calls = 0usize;
    let t = Instant::now();
    for &c in circuits {
        for inst in &env.spec(c).instances {
            let key = (inst.def.clone(), inst.total_fins);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let Some(def) = env.lib.get(&inst.def) else {
                continue;
            };
            if def.spec.devices.is_empty() {
                continue;
            }
            for cfg in std_config_space(inst.total_fins) {
                let _ = std::hint::black_box(generate(&env.tech, &def.spec, &cfg));
                calls += 1;
            }
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6;
    m.insert(
        "layout.generate_us".into(),
        (us / calls.max(1) as f64, "us"),
    );
    Ok(())
}

/// A warm `Optimizer::evaluate_layout` hit, per call, on a memory cache.
pub fn cache_lookup(env: &Env, rng: &mut Rng, m: &mut Metrics) -> Result<(), String> {
    let tech = &env.tech;
    let def = env.lib.get("cs_amp").ok_or("no cs_amp primitive")?;
    let bias = Bias::nominal(tech, &def.class);
    let cache = Arc::new(EvalCache::open(
        CachePolicy::MemoryOnly,
        tech.fingerprint(),
        TESTBENCH_VERSION,
    ));
    let mut opt = Optimizer::new(tech);
    opt.set_cache(Arc::clone(&cache));
    let configs = std_config_space(8);
    if configs.is_empty() {
        return Err("no cs_amp configuration at 8 fins".into());
    }
    let layout = generate(tech, &def.spec, &configs[rng.below(configs.len())])
        .map_err(|e| format!("cs_amp generate: {e}"))?;
    let sch = opt
        .schematic_reference(def, &bias, 8)
        .map_err(|e| format!("cs_amp reference: {e}"))?;
    opt.evaluate_layout(def, &bias, layout.clone(), &sch, Phase::Selection)
        .map_err(|e| format!("cs_amp evaluation: {e}"))?;
    const REPS: usize = 500;
    let hits0 = cache.stats().hits;
    let t = Instant::now();
    for _ in 0..REPS {
        std::hint::black_box(opt.evaluate_layout(
            def,
            &bias,
            layout.clone(),
            &sch,
            Phase::Selection,
        ))
        .map_err(|e| format!("cs_amp lookup: {e}"))?;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    if cache.stats().hits - hits0 != REPS as u64 {
        return Err("warm evaluate_layout missed the cache".into());
    }
    m.insert("cache.lookup_us".into(), (us, "us"));
    Ok(())
}

/// Load and snapshot times of a persistent store holding one cs_amp
/// job's evaluations, for workloads that keep no store of their own.
pub fn cache_disk(env: &Env, dir: &Path, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let path = dir.join("probe.cache");
    let (spec, biases) = (env.spec(Ckt::CsAmp), env.biases(Ckt::CsAmp));
    optimized_flow_with(
        &env.tech,
        &env.lib,
        spec,
        biases,
        seed,
        circuits::flow_options(circuits::persistent(&path)),
    )
    .map_err(|e| format!("cache probe flow: {e}"))?;
    let (mut open, mut save) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t = Instant::now();
        let c = EvalCache::open(
            circuits::persistent(&path),
            env.tech.fingerprint(),
            TESTBENCH_VERSION,
        );
        open.push(ms(t));
        let t = Instant::now();
        c.save().map_err(|e| format!("cache probe save: {e}"))?;
        save.push(ms(t));
    }
    m.insert("cache.open_ms".into(), (median(&open), "ms"));
    m.insert("cache.save_ms".into(), (median(&save), "ms"));
    Ok(())
}

/// Serve-layer numbers from a small server, for workloads that run none:
/// one cold cs_amp request, then twenty warm repeats from one client.
pub fn serve(env: &Env, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let server = BatchServer::try_new(env.tech.clone(), env.lib.clone(), serve_config(8))
        .map_err(|e| format!("probe server: {e}"))?;
    let (spec, biases) = (env.spec(Ckt::CsAmp), env.biases(Ckt::CsAmp));
    for _ in 0..21 {
        let mut req = ServeRequest::new("probe", spec.clone(), biases.clone());
        req.seed = seed;
        let report = server
            .submit(req)
            .map_err(|e| format!("probe submit: {e}"))?
            .wait();
        if report.outcome != prima_serve::Outcome::Completed {
            return Err(format!(
                "probe request {:?}: {}",
                report.outcome, report.detail
            ));
        }
    }
    let report = server.finish();
    serve_metrics(&report, 1, m);
    Ok(())
}

/// The serving configuration every workload uses: gates and stream-out
/// on, default solver limits, in-memory tenant caches.
pub fn serve_config(queue_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_capacity,
        verify: prima_flow::VerifyPolicy::On,
        solver: prima_flow::SolverLimits::default(),
        cache_dir: None,
        gds: true,
        ..ServeConfig::default()
    }
}

/// Queue and service percentiles over the requests after the first
/// `skip` (the cold priming ones), plus the server's counters.
pub fn serve_metrics(report: &prima_core::ServeReport, skip: usize, m: &mut Metrics) {
    let mut reqs: Vec<_> = report.requests.iter().collect();
    reqs.sort_by_key(|r| r.request_id);
    let warm: Vec<_> = reqs.into_iter().skip(skip).collect();
    let queue: Vec<f64> = warm.iter().map(|r| r.queue_ms).collect();
    let service: Vec<f64> = warm.iter().map(|r| r.service_ms).collect();
    m.insert("serve.queue_ms.p50".into(), (median(&queue), "ms"));
    m.insert(
        "serve.queue_ms.p95".into(),
        (percentile(&queue, 95.0), "ms"),
    );
    m.insert("serve.service_ms.p50".into(), (median(&service), "ms"));
    m.insert(
        "serve.service_ms.p95".into(),
        (percentile(&service, 95.0), "ms"),
    );
    m.insert("serve.retries".into(), (report.retries as f64, "count"));
    m.insert("serve.rejected".into(), (report.rejected as f64, "count"));
    m.insert("serve.shed".into(), (report.shed as f64, "count"));
    let retained: usize = report
        .requests
        .iter()
        .filter_map(|r| r.gds.as_ref().map(Vec::len))
        .sum();
    m.insert("serve.retained_mb".into(), (retained as f64 / 1e6, "MB"));
}
