//! Runs the complete evaluation — Table I, Table II, Fig. 3, Figs. 4–6,
//! plus the extension experiments (S3/S4 latency ladder, fairness split,
//! loss sweep) — and writes a consolidated report to
//! `target/capnet-report.txt` plus a machine-readable
//! `target/capnet-results.csv`.
//!
//! Run with: `cargo run --release --example full_report`
//! (pass `--quick` for shorter measurement windows).

use capnet::experiment::{fig3, figs, table1, table2};
use capnet::netsim::AppSched;
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::{CostModel, SimDuration};
use std::error::Error;
use std::fmt::Write as _;
use std::fs;
use updk::wire::Impairments;

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let (bw_ms, iters) = if quick { (80, 50_000) } else { (250, 500_000) };
    let costs = CostModel::morello();
    let mut report = String::new();
    let mut csv = String::from("experiment,configuration,metric,value,paper_reference\n");

    writeln!(report, "capnet — full evaluation report")?;
    writeln!(report, "================================\n")?;

    // Table I.
    eprintln!("[1/7] Table I…");
    let t1 = table1::run();
    writeln!(report, "{t1}")?;
    for row in &t1.rows {
        writeln!(csv, "table1,{},cap_loc,{},152", row.library, row.cap_loc)?;
        writeln!(
            csv,
            "table1,{},percent,{:.2},0.99",
            row.library,
            row.percent()
        )?;
    }

    // Table II.
    eprintln!("[2/7] Table II ({bw_ms} ms per cell)…");
    let t2 = table2::run(SimDuration::from_millis(bw_ms), costs.clone())?;
    writeln!(report, "\n{t2}")?;
    for block in &t2.blocks {
        for (mode, cells) in [("server", &block.server), ("client", &block.client)] {
            for c in cells {
                writeln!(
                    csv,
                    "table2,{} / {} / {},mbit_per_sec,{:.0},",
                    block.scenario, mode, c.label, c.mbit
                )?;
            }
        }
    }

    // Fig. 3.
    eprintln!("[3/7] Fig. 3…");
    let f3 = fig3::run()?;
    writeln!(report, "\nFIG. 3: CAPABILITY VIOLATION")?;
    writeln!(report, "{f3}")?;
    writeln!(
        csv,
        "fig3,cross_compartment_load,fault,\"{}\",CAP out-of-bounds",
        f3.fault.kind()
    )?;

    // Figs. 4–6.
    eprintln!("[4/7] Figs. 4-6 ({iters} iterations per scenario)…");
    let runs = figs::run_all(iters, costs, 0xF1C5)?;
    writeln!(report, "\nFIGS. 4-6: ff_write() EXECUTION TIME")?;
    for r in &runs {
        writeln!(report, "{r}")?;
        writeln!(
            csv,
            "figs,{},mean_ns,{:.1},",
            r.scenario.label(),
            r.summary.mean
        )?;
    }
    let d1 = runs[1].summary.mean - runs[0].summary.mean;
    let d2 = runs[2].summary.mean - runs[1].summary.mean;
    let d3 = runs[3].summary.mean - runs[2].summary.mean;
    writeln!(report, "\ndeltas: S1-Base={d1:.0}ns (paper ~125), S2u-S1={d2:.0}ns (paper ~200), S2c-S2u={d3:.0}ns (paper ~19000)")?;
    writeln!(csv, "figs,delta_s1_baseline,ns,{d1:.0},125")?;
    writeln!(csv, "figs,delta_s2u_s1,ns,{d2:.0},200")?;
    writeln!(csv, "figs,delta_s2c_s2u,ns,{d3:.0},19000")?;

    // Extension: S3/S4 latency ladder.
    eprintln!("[5/7] extension scenarios S3/S4…");
    let ext = figs::run_extensions(iters.min(100_000), CostModel::morello(), 0xF1C5)?;
    writeln!(
        report,
        "
EXTENSIONS: DEEPER SPLITS (paper future work)"
    )?;
    for r in &ext {
        writeln!(report, "{r}")?;
        writeln!(
            csv,
            "figs_ext,{},mean_ns,{:.1},",
            r.scenario.label(),
            r.summary.mean
        )?;
    }

    // Extension: fairness — barging vs round-robin contended client split.
    eprintln!("[6/7] fairness (contended client split)…");
    writeln!(
        report,
        "
EXTENSION: CONTENDED-CLIENT FAIRNESS"
    )?;
    for (name, sched, paper) in [
        (
            "barging (paper model)",
            AppSched::paper_barging(),
            "531/410",
        ),
        ("round-robin (fair)", AppSched::RoundRobin, "-"),
    ] {
        let out = ScenarioSpec::paper(ScenarioKind::Scenario2Contended, TrafficMode::Client)
            .duration(SimDuration::from_millis(bw_ms))
            .app_sched(sched)
            .run()?;
        let (x, y) = (out.clients[0].mbit_per_sec(), out.clients[1].mbit_per_sec());
        writeln!(
            report,
            "{name:<24} {x:>4.0} / {y:<4.0} Mbit/s (paper {paper})"
        )?;
        writeln!(csv, "fairness,{name},split_mbit,{x:.0}/{y:.0},{paper}")?;
    }

    // Extension: loss sweep (three points).
    eprintln!("[7/7] loss sweep…");
    writeln!(
        report,
        "
EXTENSION: GOODPUT UNDER FRAME LOSS (Baseline 1-proc)"
    )?;
    for per_mille in [0u16, 5, 20] {
        let out = ScenarioSpec::paper(ScenarioKind::BaselineSingleProcess, TrafficMode::Server)
            .duration(SimDuration::from_millis(bw_ms))
            .impairments(Impairments::lossy(per_mille))
            .run()?;
        let bw = out.servers[0].mbit_per_sec();
        writeln!(
            report,
            "loss {:>4.1}% -> {bw:>4.0} Mbit/s ({} frames dropped)",
            per_mille as f64 / 10.0,
            out.impairment_stats.lost
        )?;
        writeln!(csv, "loss_sweep,{per_mille}permille,mbit_per_sec,{bw:.0},")?;
    }

    fs::create_dir_all("target")?;
    fs::write("target/capnet-report.txt", &report)?;
    fs::write("target/capnet-results.csv", &csv)?;
    println!("{report}");
    println!("written: target/capnet-report.txt, target/capnet-results.csv");
    Ok(())
}
