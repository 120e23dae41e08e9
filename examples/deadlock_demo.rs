//! Watching wormhole deadlock happen (Figs. 1 and 4) — and not happen.
//!
//! Routing with unrestricted turns deadlocks under load; the simulator's
//! watchdog extracts the circular wait, naming the packets and the
//! channels each is waiting for. West-first, under the identical load
//! and seed, just keeps delivering.
//!
//! ```sh
//! cargo run --release --example deadlock_demo
//! ```

use turnroute::core::{TurnSet, TurnSetRouting, WestFirst};
use turnroute::sim::patterns::Uniform;
use turnroute::sim::{LengthDistribution, SimConfig, Simulation};
use turnroute::topology::{Mesh, Topology};

fn config() -> SimConfig {
    SimConfig::paper()
        .injection_rate(0.9) // far past saturation
        .lengths(LengthDistribution::Fixed(64))
        .warmup_cycles(0)
        .measure_cycles(0)
        .deadlock_threshold(1_000)
        .seed(3)
}

fn main() {
    let mesh = Mesh::new_2d(6, 6);

    // Fully adaptive minimal routing without extra channels: all eight
    // turns allowed, both abstract cycles intact.
    let unrestricted = TurnSetRouting::new(TurnSet::fully_adaptive(2));
    let mut sim = Simulation::new(&mesh, &unrestricted, &Uniform, config());
    println!(
        "unrestricted turns on a {} under saturating load...",
        mesh.label()
    );
    let mut cycles = 0u64;
    loop {
        cycles += 1;
        if let Some(report) = sim.step() {
            println!("{report}");
            for edge in &report.cycle {
                let holder = sim
                    .channel_owner(edge.wants)
                    .expect("cycle channels are held");
                println!("  -> {} is held by packet {}", edge.wants, holder.index());
            }
            break;
        }
        if cycles > 500_000 {
            println!("no deadlock within {cycles} cycles (unexpected)");
            break;
        }
    }

    // Same load, same seed, west-first.
    println!("\nwest-first under the identical load...");
    let wf = WestFirst::minimal();
    let mut sim = Simulation::new(&mesh, &wf, &Uniform, config());
    for _ in 0..30_000 {
        if let Some(report) = sim.step() {
            panic!("west-first cannot deadlock, but: {report}");
        }
    }
    let delivered = sim.total_delivered();
    println!("30,000 cycles, no deadlock, {delivered} messages delivered.");
}
