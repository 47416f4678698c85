//! Switched N-node topologies: the scenario space beyond two hosts on a
//! cable.
//!
//! Runs the star fan-in (N clients share one switch uplink), a
//! switch-chain, and the dumbbell fairness shape, printing the per-flow
//! and aggregate bandwidth plus Jain's fairness index for each.
//!
//! ```sh
//! cargo run --release --example many_nodes
//! ```

use capnet::netsim::NetSim;
use capnet::scenario::{fairness_index, ScenarioSpec};
use capnet::topology::build_chain;
use capnet::SimOutcome;
use simkern::{CostModel, SimDuration};
use std::error::Error;

const RUN: SimDuration = SimDuration::from_millis(40);
const SEED: u64 = 1;

fn flows(out: &SimOutcome) -> Vec<f64> {
    out.servers.iter().map(|r| r.mbit_per_sec()).collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("== switched N-node topologies ==\n");

    println!("star: N clients -> 1 hub through one LinkFabric uplink port");
    for clients in [2usize, 4, 8] {
        let out = ScenarioSpec::star(clients).duration(RUN).seed(SEED).run()?;
        let f = flows(&out);
        let total: f64 = f.iter().sum();
        println!(
            "  {clients} clients: {total:4.0} Mbit/s aggregate, Jain {:.3}  ({})",
            fairness_index(&f),
            f.iter()
                .map(|m| format!("{m:.0}"))
                .collect::<Vec<_>>()
                .join("/"),
        );
    }

    println!("\nchain: 1 flow across K store-and-forward switch hops");
    for hops in [1usize, 2, 4] {
        let mut sim = NetSim::new(CostModel::morello());
        sim.set_seed(SEED);
        let chain = build_chain(&mut sim, hops)?;
        sim.add_server(chain.b, "b-rx", 5501)?;
        sim.add_client(chain.a, "a-tx", (chain.b_ip, 5501), RUN, SimDuration::ZERO)?;
        let out = sim.run(RUN + SimDuration::from_millis(30))?;
        println!(
            "  {hops} hop(s): {:4.0} Mbit/s (latency adds, bandwidth holds)",
            out.servers[0].mbit_per_sec()
        );
    }

    println!("\ndumbbell: N pairs contending for one trunk");
    for pairs in [2usize, 4] {
        let out = ScenarioSpec::dumbbell(pairs)
            .duration(RUN)
            .seed(SEED)
            .run()?;
        let f = flows(&out);
        let total: f64 = f.iter().sum();
        println!(
            "  {pairs} pairs: {total:4.0} Mbit/s through the trunk, Jain {:.3}",
            fairness_index(&f),
        );
    }

    println!("\ndone — see tests/topology.rs for the determinism contract.");
    Ok(())
}
