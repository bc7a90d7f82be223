//! Regenerates **Figure 6** — "System Evaluation" (`pisa info` prints
//! Table I's settings).
//!
//! The paper reports, at C=100, B=600, n=2048 on an i5-2400:
//!   request preparation ≈ 221 s  (≈ 11 s with re-randomized refresh)
//!   request processing  ≈ 219 s (SDC) + STP conversion
//!   PU update processing ≈ 2.6 s
//!   request ≈ 29 MB, PU update ≈ 0.05 MB, response ≈ 4.1 kb
//!
//! By default this harness *measures* a scaled-down instance (same code
//! paths) and *extrapolates* to paper scale from measured per-entry
//! costs — the totals are exactly `#entries × per-entry`. Pass `--full`
//! to run the real C=100 × B=600 × 2048-bit workload (takes tens of
//! minutes, like the paper's prototype did).
//!
//! ```sh
//! cargo run --release -p pisa-bench --bin fig6_system_eval [--full]
//! ```

use pisa::prelude::*;
use pisa::{PuClient, SdcServer, StpServer, SuClient, SuId};
use pisa_bench::{fmt_bytes, fmt_duration, scaled_config};
use pisa_net::WireSize;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const PAPER_C: usize = 100;
const PAPER_B: usize = 600;
const PAPER_PUS: usize = 100;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    let (cfg, label) = if full {
        (
            SystemConfig::paper(),
            "FULL paper scale (C=100, B=600, n=2048)",
        )
    } else {
        (
            scaled_config(4, 3, 5, 1024),
            "scaled instance (C=4, B=15, n=1024), extrapolated to paper scale",
        )
    };
    println!("Figure 6: System Evaluation — {label}\n");

    let mut rng = StdRng::seed_from_u64(0xf16);
    let t0 = Instant::now();
    let mut stp = StpServer::new(&mut rng, cfg.paillier_bits());
    let mut sdc = SdcServer::new(cfg.clone(), stp.public_key().clone(), "sdc.eval", &mut rng);
    println!("setup (keygen + E matrix): {}", fmt_duration(t0.elapsed()));

    let mut su = SuClient::new(SuId(0), BlockId(1), &cfg, &mut rng);
    stp.register_su(SuId(0), su.public_key().clone());

    let entries = cfg.channels() * cfg.blocks();
    let paper_entries = PAPER_C * PAPER_B;
    let scale = paper_entries as f64 / entries as f64;

    // --- SU request preparation --------------------------------------
    let t = Instant::now();
    let request = su.build_request(&cfg, stp.public_key(), &[Channel(0)], &mut rng);
    let prep = t.elapsed();
    let request_bytes = request.wire_bytes();

    // --- SU request refresh (re-randomization) ------------------------
    // Offline: precompute the rⁿ factors (unmeasured, like the paper's
    // offline preparation). Online: one multiplication per entry.
    su.precompute_refresh(stp.public_key(), &mut rng);
    let t = Instant::now();
    let refreshed = su.refresh_request(stp.public_key(), &mut rng);
    let refresh = t.elapsed();
    drop(refreshed);

    // --- SDC phase 1 + STP conversion + SDC phase 2 --------------------
    let t = Instant::now();
    let to_stp = sdc.process_request_phase1(&request, &mut rng).unwrap();
    let phase1 = t.elapsed();

    let t = Instant::now();
    let (to_sdc, _) = stp.key_convert(&to_stp, &mut rng).unwrap();
    let convert = t.elapsed();

    let su_pk = stp.su_key(SuId(0)).unwrap().clone();
    let t = Instant::now();
    let response = sdc
        .process_request_phase2(&to_sdc, &su_pk, &mut rng)
        .unwrap();
    let phase2 = t.elapsed();
    let response_bytes = response.wire_bytes();
    let granted = su.handle_response(&response, sdc.signing_public_key());
    assert!(granted, "empty system must grant");

    // --- PU update -----------------------------------------------------
    // Register a population of PUs so the re-aggregation cost (the
    // paper's eqs. 9–10 realization, ~2.6 s with 100 PUs) is populated.
    let e = sdc.e_matrix().clone();
    let sim_pus = if full { PAPER_PUS } else { 10 };
    for i in 1..sim_pus as u64 {
        let mut other = PuClient::new(i, BlockId((i as usize) % cfg.blocks()));
        let msg = other.tune(Some(Channel(0)), &cfg, &e, stp.public_key(), &mut rng);
        sdc.handle_pu_update(i, msg).unwrap();
    }
    let mut pu = PuClient::new(0, BlockId(2));
    let t = Instant::now();
    let update = pu.tune(Some(Channel(1)), &cfg, &e, stp.public_key(), &mut rng);
    let pu_prep = t.elapsed();
    let update_bytes = update.wire_bytes();
    let t = Instant::now();
    sdc.handle_pu_update(0, update).unwrap();
    let pu_incr = t.elapsed();
    let t = Instant::now();
    sdc.reaggregate_budget();
    let pu_proc = t.elapsed();

    // --- report ---------------------------------------------------------
    let ct_bytes_paper = 2 * 2048 / 8;
    // Extrapolation: totals are #entries × per-entry cost, and per-entry
    // cost is dominated by modular exponentiation, which is ~O(bits³)
    // (quadratic modmul × linear exponent) — doubling the key size costs
    // ×8.
    let key_factor = (2048.0 / cfg.paillier_bits() as f64).powi(3);
    let xp = |d: Duration| -> String {
        if full {
            fmt_duration(d)
        } else {
            fmt_duration(d.mul_f64(scale * key_factor))
        }
    };

    println!(
        "\n{:<38} {:>12} {:>16}",
        "phase",
        "measured",
        if full {
            "(=paper scale)"
        } else {
            "paper-scale est."
        }
    );
    println!(
        "{:<38} {:>12} {:>16}   paper: ~221 s",
        "SU request preparation",
        fmt_duration(prep),
        xp(prep)
    );
    println!(
        "{:<38} {:>12} {:>16}   paper: ~11 s",
        "SU request refresh (re-rand)",
        fmt_duration(refresh),
        xp(refresh)
    );
    println!(
        "{:<38} {:>12} {:>16}   paper: ~219 s (combined)",
        "SDC processing phase 1 (blind)",
        fmt_duration(phase1),
        xp(phase1)
    );
    println!(
        "{:<38} {:>12} {:>16}",
        "STP key conversion",
        fmt_duration(convert),
        xp(convert)
    );
    println!(
        "{:<38} {:>12} {:>16}",
        "SDC processing phase 2 (gate)",
        fmt_duration(phase2),
        xp(phase2)
    );
    // Re-aggregation scales with #PUs × C (homomorphic additions, whose
    // modmul cost is quadratic in the key size).
    let pu_scale = (PAPER_PUS as f64 / sim_pus as f64) * (PAPER_C as f64 / cfg.channels() as f64);
    let add_key_factor = (2048.0 / cfg.paillier_bits() as f64).powi(2);
    let pu_est = if full {
        fmt_duration(pu_proc)
    } else {
        fmt_duration(pu_proc.mul_f64(pu_scale * add_key_factor))
    };
    println!(
        "{:<38} {:>12} {:>16}   paper: ~2.6 s",
        format!("PU update, re-aggregation ({sim_pus} PUs)"),
        fmt_duration(pu_proc),
        pu_est
    );
    println!(
        "{:<38} {:>12}   (this library's incremental path)",
        "PU update, incremental (SDC)",
        fmt_duration(pu_incr)
    );
    println!(
        "{:<38} {:>12}",
        "PU update preparation (PU)",
        fmt_duration(pu_prep)
    );

    println!("\ncommunication (measured / paper-scale analytic / paper):");
    println!(
        "  SU request:  {} / {} / ~29 MB",
        fmt_bytes(request_bytes as u64),
        fmt_bytes((paper_entries * ct_bytes_paper) as u64)
    );
    println!(
        "  PU update:   {} / {} / ~0.05 MB",
        fmt_bytes(update_bytes as u64),
        fmt_bytes((PAPER_C * ct_bytes_paper) as u64)
    );
    println!(
        "  response:    {} / {} / ~4.1 kb",
        fmt_bytes(response_bytes as u64),
        fmt_bytes(ct_bytes_paper as u64)
    );
    println!("\n  (PU update size is independent of B; with {PAPER_PUS} PUs the SDC");
    println!("   holds {PAPER_PUS} stored columns and one aggregated budget matrix.)");

    println!("\nshape checks:");
    println!(
        "  refresh/prep speedup: {:.1}x (paper: 221/11 ≈ 20x)",
        prep.as_secs_f64() / refresh.as_secs_f64()
    );
    println!(
        "  prep ≈ SDC processing (paper: 221 s vs 219 s): ratio {:.2}",
        prep.as_secs_f64() / (phase1 + phase2).as_secs_f64()
    );
}
