//! Extension experiment — TCP goodput vs. link loss for Baseline and the
//! Scenario 2 compartment split.
//!
//! The paper's cables are ideal; edge radio links are not. This sweep
//! drives the same simulated stack over increasingly lossy cables and
//! shows two things:
//!
//! 1. F-Stack's TCP recovery (RTO, fast retransmit, reassembly) keeps the
//!    connection functional far past realistic loss rates;
//! 2. the CHERI compartment split does not amplify loss sensitivity — the
//!    Scenario 2 column tracks the Baseline column at every loss rate.
//!
//! Run with: `cargo run --release --example loss_sweep`

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::SimDuration;
use updk::wire::Impairments;

fn cell(kind: ScenarioKind, per_mille: u16, dur: SimDuration) -> (f64, u64) {
    let out = ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(dur)
        .impairments(Impairments::lossy(per_mille))
        .run()
        .expect("sweep cell");
    (out.servers[0].mbit_per_sec(), out.impairment_stats.lost)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let dur = if quick {
        SimDuration::from_millis(60)
    } else {
        SimDuration::from_millis(150)
    };
    println!(
        "TCP goodput vs. frame loss ({} ms virtual time per cell)\n",
        dur.as_nanos() / 1_000_000
    );
    println!(
        "{:>8}  {:>18}  {:>18}  {:>9}",
        "loss", "Baseline (Mbit/s)", "Scenario2 (Mbit/s)", "S2/Base"
    );
    for per_mille in [0u16, 1, 2, 5, 10, 20, 50] {
        let (base, _) = cell(ScenarioKind::BaselineSingleProcess, per_mille, dur);
        let (s2, lost) = cell(ScenarioKind::Scenario2Uncontended, per_mille, dur);
        println!(
            "{:>7.1}%  {:>18.0}  {:>18.0}  {:>8.2}   ({} frames dropped)",
            per_mille as f64 / 10.0,
            base,
            s2,
            s2 / base,
            lost
        );
    }
    println!("\nreading: goodput decays gracefully with loss, and the compartmentalized");
    println!("Scenario 2 column tracks Baseline — isolation does not amplify loss.");
}
