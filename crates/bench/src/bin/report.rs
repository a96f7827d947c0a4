//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!   cargo run --release -p prima-bench --bin report            # everything
//!   cargo run --release -p prima-bench --bin report -- table3  # one exhibit
//!   cargo run --release -p prima-bench --bin report -- fast    # skip slow rows
//!
//! Exhibits: fig2 (≡ table1), table2, fig3, fig5, table3, table4, fig6,
//! table5, table6, table7, table8, ablations, techlint, schem, verify,
//! erc, resilience, cache, serve, corners, gds.

use prima_bench::*;

/// An exhibit: renders its report, given the environment and `fast`.
type Exhibit = fn(&Env, bool) -> String;

/// Every exhibit in run order. `table1` is an alias of `fig2`.
const EXHIBITS: &[(&str, Exhibit)] = &[
    ("fig2", |env, _| fig2_table1(env)),
    ("table2", |env, _| table2(env)),
    ("fig3", |env, _| fig3(env)),
    ("fig5", |env, _| fig5(env)),
    ("table3", |env, _| table3(env)),
    ("table4", |env, _| table4(env)),
    ("fig6", |env, _| fig6(env)),
    ("table5", |env, _| table5(env)),
    ("table6", table6),
    ("table7", table7),
    ("table8", |env, _| table8(env)),
    ("ablations", |env, _| ablations(env)),
    ("techlint", |env, _| techlint_summary(env)),
    ("schem", |env, _| schem_summary(env)),
    ("verify", |env, _| verify_summary(env)),
    ("erc", |env, _| erc_summary(env)),
    ("resilience", |env, _| resilience_summary(env)),
    ("cache", |env, _| cache_summary(env)),
    ("serve", |env, _| serve_summary(env)),
    ("corners", |env, _| corners_summary(env)),
    ("gds", |env, _| gds_summary(env)),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let names: Vec<&str> = EXHIBITS.iter().map(|(name, _)| *name).collect();
        println!("usage: report [fast] [exhibit…]\n");
        println!("exhibits (default: all): {}", names.join(", "));
        println!("`fast` shrinks the slow rows (manual proxy, 8-stage VCO).");
        return;
    }
    let fast = args.iter().any(|a| a == "fast");
    let mut wanted = Vec::new();
    for a in args.iter().filter(|a| *a != "fast") {
        let name = if a == "table1" { "fig2" } else { a.as_str() };
        if !EXHIBITS.iter().any(|(n, _)| *n == name) {
            eprintln!("unknown exhibit {a}; try --help");
            std::process::exit(1);
        }
        wanted.push(name);
    }

    let env = Env::new();
    for (name, exhibit) in EXHIBITS {
        if wanted.is_empty() || wanted.contains(name) {
            println!("{}", exhibit(&env, fast));
        }
    }
}
