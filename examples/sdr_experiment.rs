//! The paper's §VI-B SDR experiment, end to end: two SUs and one PU on
//! WiFi channel 6 (2.437 GHz), four scenarios, with the spectrum
//! decision made by the privacy-preserving protocol and the "air"
//! provided by the signal-level simulator (Figures 7–11).
//!
//! Run with:
//! ```sh
//! cargo run --release -p pisa-core --example sdr_experiment
//! ```

use pisa::prelude::*;
use pisa_radio::airsim::{AirSim, Node};
use pisa_radio::grid::Point;
use pisa_watch::SuRequest;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2437);

    // The testbed: PU at the origin, SU1 at 3 m, SU2 at 40 m — the
    // unequal distances behind Figure 8's two amplitudes.
    let mut air = AirSim::wifi_channel6();
    let su1_node = air.add_node(Node::usrp("SU1", Point { x: 3.0, y: 0.0 }));
    let su2_node = air.add_node(Node::usrp("SU2", Point { x: 40.0, y: 0.0 }));
    let pu_node = air.add_node(Node::usrp("PU", Point { x: 0.0, y: 0.0 }));
    println!("testbed on channel 6 ({} MHz)\n", air.freq_mhz());

    let config = SystemConfig::small_test();
    let watch_cfg = config.watch().clone();
    let mut system = PisaSystem::setup(config, &mut rng);

    // ── Scenario 1: the channel is free; both SUs transmit. ──────────
    println!("scenario 1: PU monitors while SU1 and SU2 transmit (Figure 8)");
    air.transmit(su1_node, 0.0, 120.0);
    air.transmit(su2_node, 200.0, 120.0);
    let heard = air.observe(pu_node);
    for p in &heard {
        println!(
            "  PU hears {} at t={:>5.0} µs  amplitude {:.5}  ({:.1} dBm)",
            p.from, p.time_us, p.amplitude, p.rx_power_dbm
        );
    }
    println!(
        "  amplitude ratio SU1/SU2 = {:.1} (3 m vs 40 m)",
        heard[0].amplitude / heard[1].amplitude
    );
    // The received envelope, GNU Radio style: 60 samples across 420 µs,
    // with quadratic level spacing so the weaker burst stays visible.
    let trace = air.render_trace(pu_node, 420.0, 60.0 / 420.0);
    let peak = trace.iter().copied().fold(0.0f64, f64::max);
    for row in (1..=6).rev() {
        let level = peak * (row as f64 / 6.0).powi(2);
        let line: String = trace
            .iter()
            .map(|&a| if a >= level { '█' } else { ' ' })
            .collect();
        println!("    |{line}");
    }
    println!("    +{}", "-".repeat(trace.len()));

    // ── Scenario 2: the PU claims the channel. ────────────────────────
    println!("\nscenario 2: PU tunes in — sends its encrypted update to the SDC (Figure 10)");
    system.pu_update(0, BlockId(0), Some(Channel(0)), &mut rng);
    air.clear_schedule();
    println!("  SDC budget updated (it cannot tell which channel)");

    // ── Scenario 3: both SUs request the channel. ─────────────────────
    println!("\nscenario 3: SU1 and SU2 send encrypted transmission requests (Figure 11)");
    let su1 = system.register_su(BlockId(1), &mut rng);
    let su2 = system.register_su(BlockId(24), &mut rng);
    let req1 = SuRequest::full_power(&watch_cfg, BlockId(1), &[Channel(0)]);
    let req2 = SuRequest::with_power_dbm(&watch_cfg, BlockId(24), &[Channel(0)], -30.0);
    let out1 = system.request_with(su1, &req1, &mut rng).unwrap();
    let out2 = system.request_with(su2, &req2, &mut rng).unwrap();
    // Equal sizes: the request's length says nothing about its content.
    assert_eq!(out1.request_bytes, out2.request_bytes);
    println!("  requests acknowledged ({} B each)", out1.request_bytes);

    // ── Scenario 4: decisions arrive; the granted SU transmits. ───────
    println!("\nscenario 4: decisions (known only to each SU)");
    println!("  SU1 (full power,  3 m): {}", verdict(out1.granted));
    println!("  SU2 (-30 dBm,   40 m): {}", verdict(out2.granted));
    assert!(!out1.granted && out2.granted);

    if out2.granted {
        for i in 0..11 {
            air.transmit(su2_node, i as f64 * 1800.0, 300.0);
        }
    }
    let seen = air.observe(pu_node);
    let last = seen.last().expect("SU2 transmitted");
    println!(
        "\n  PU observes {} packets within {:.0} ms, all from {} (Figure 9; paper: ~11 in 20 ms)",
        seen.len(),
        (last.time_us + last.duration_us) / 1000.0,
        seen[0].from
    );
    assert_eq!(seen.len(), 11);
    println!("\nexperiment complete: the non-interfering SU shares the active channel.");
}

fn verdict(granted: bool) -> &'static str {
    if granted {
        "GRANTED — valid license signature recovered"
    } else {
        "DENIED — garbled signature, license invalid"
    }
}
