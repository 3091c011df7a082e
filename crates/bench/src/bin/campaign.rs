//! The campaign runner: every sweep behind the committed `BENCH_*.json`.
//!
//! Usage:
//!
//! ```text
//! campaign <name>…             run the sweep, write BENCH_<name>.json
//! campaign --smoke [<name>…]   run every cell not marked heavy (all
//!                              campaigns when none is named), write
//!                              nothing, and compare each cell's simulated
//!                              record with the committed report (CI)
//! ```
//!
//! Run without arguments, it prints the names: the `CAMPAIGNS` array below.

#![forbid(unsafe_code)]

use vorx_bench::campaign::{drive, Campaign};
use vorx_bench::campaigns::{
    collective, datapath, engine, faults, gray, paper, partition, pdes, scale, soak,
};

const CAMPAIGNS: [&Campaign; 10] = [
    &paper::CAMPAIGN,
    &engine::CAMPAIGN,
    &faults::CAMPAIGN,
    &partition::CAMPAIGN,
    &datapath::CAMPAIGN,
    &pdes::CAMPAIGN,
    &soak::CAMPAIGN,
    &scale::CAMPAIGN,
    &gray::CAMPAIGN,
    &collective::CAMPAIGN,
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut chosen = Vec::new();
    for name in args.iter().filter(|a| *a != "--smoke") {
        match CAMPAIGNS.iter().find(|c| c.name == name) {
            Some(c) => chosen.push(*c),
            None => {
                eprintln!("campaign: no campaign named {name:?}");
                std::process::exit(2);
            }
        }
    }
    if chosen.is_empty() && smoke {
        chosen = CAMPAIGNS.to_vec();
    }
    if chosen.is_empty() {
        let names: Vec<&str> = CAMPAIGNS.iter().map(|c| c.name).collect();
        eprintln!("usage: campaign <name>… | campaign --smoke [<name>…]");
        eprintln!("names: {}", names.join(" "));
        std::process::exit(2);
    }
    let t0 = std::time::Instant::now();
    let failures: Vec<String> = chosen.iter().flat_map(|c| drive(c, smoke)).collect();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    println!(
        "campaign: {} campaigns, {} failures, {:.1} s wall",
        chosen.len(),
        failures.len(),
        t0.elapsed().as_secs_f64()
    );
    std::process::exit(i32::from(!failures.is_empty()));
}
