//! Exact-repeat check across two runs of one seed.
//!
//! Each run records, per distinct job, the quantities that must not
//! depend on timing — simulation counts, cache lookups and stores, GDS
//! size and content tag, route retries, area and wirelength bit patterns
//! — plus the run's area, wirelength and Table VI deviation. The next run
//! of the same workload and seed compares the jobs both ran and reports
//! every difference; nothing is masked.

use std::collections::BTreeMap;
use std::path::Path;

use crate::util::fnv64;
use crate::workloads::{Run, Workload};

fn bits(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |x| format!("{:016x}", x.to_bits()))
}

fn record(run: &Run) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut jobs: Vec<String> = Vec::new();
    for j in &run.jobs {
        let key = format!(
            "job {} {} t{}",
            j.job.circuit.name(),
            j.job.seed,
            j.job.tenant
        );
        if out.contains_key(&key) {
            continue;
        }
        let value = match &j.result {
            Err(_) => "failed".to_string(),
            Ok(d) => format!(
                "sims={:?} lookups={} stores={} gds.bytes={} gds.tag={:016x} route.retries={} area={} wl={}",
                d.sims,
                d.lookups,
                d.stores,
                d.gds_len,
                d.gds_tag,
                d.route_retries,
                bits(d.area_um2),
                bits(d.wirelength_um),
            ),
        };
        jobs.push(key.clone());
        out.insert(key, value);
    }
    jobs.sort();
    out.insert(
        format!("run {:016x}", fnv64(jobs.join(";").as_bytes())),
        format!(
            "area={} wl={} dev={}",
            bits(Some(run.area_um2)),
            bits(Some(run.wirelength_um)),
            bits(Some(run.circuit_dev_pct))
        ),
    );
    out
}

fn parse(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Compares this run with the previous one of the same workload and
/// seed, then records this one. Returns the lines to print.
pub fn check(w: Workload, seed: u64, run: &Run, state: &Path) -> Vec<String> {
    let dir = state.join("repeat");
    let path = dir.join(format!("{}-{seed}.tsv", w.name()));
    let now = record(run);
    let mut lines = Vec::new();
    match std::fs::read_to_string(&path) {
        Err(_) => lines.push("repeat check: first run of this seed here; recorded".to_string()),
        Ok(text) => {
            let before = parse(&text);
            let common: Vec<&String> = now.keys().filter(|k| before.contains_key(*k)).collect();
            let differing: Vec<&String> = common
                .iter()
                .copied()
                .filter(|k| before[*k] != now[*k])
                .collect();
            lines.push(format!(
                "repeat check: {} record(s) shared with the previous run of this seed, {} differ",
                common.len(),
                differing.len()
            ));
            for k in differing {
                lines.push(format!(
                    "REPEAT MISMATCH {k}: before [{}] now [{}]",
                    before[k], now[k]
                ));
            }
        }
    }
    let text: String = now.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        lines.push(format!("repeat check: could not record this run: {e}"));
    }
    lines
}
