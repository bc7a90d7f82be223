//! Property-based tests for the radio substrate.

use pisa_radio::grid::Point;
use pisa_radio::pathloss::{
    ExtendedHata, FreeSpace, IrregularTerrain, LinkGeometry, PathLossModel,
};
use pisa_radio::protection::{protection_distance, ProtectionParams};
use pisa_radio::terrain::Terrain;
use pisa_radio::tv::Channel;
use pisa_radio::{BlockId, Db, Dbm, Quantizer, RadioError, ServiceArea};
use proptest::prelude::*;

fn geometry() -> impl Strategy<Value = LinkGeometry> {
    (150.0f64..1500.0, 1.0f64..200.0, 1.0f64..10.0).prop_map(|(f, tx, rx)| LinkGeometry {
        tx_height_m: tx,
        rx_height_m: rx,
        freq_mhz: f,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quantizer_roundtrip_and_order(a in 0.0f64..1e5, b in 0.0f64..1e5) {
        let q = Quantizer::paper();
        let qa = q.quantize(a).unwrap();
        let qb = q.quantize(b).unwrap();
        prop_assert!((q.dequantize(qa) - a).abs() <= q.resolution_mw());
        if a < b - q.resolution_mw() {
            prop_assert!(qa <= qb);
        }
        prop_assert!(qa >= 0);
    }

    #[test]
    fn dbm_mw_roundtrip(dbm in -120.0f64..60.0) {
        let mw = Dbm(dbm).to_milliwatts();
        prop_assert!((mw.to_dbm().0 - dbm).abs() < 1e-9);
        prop_assert!(mw.0 > 0.0);
    }

    #[test]
    fn grid_roundtrip(rows in 1usize..40, cols in 1usize..40, size in 1.0f64..100.0) {
        let area = ServiceArea::new(rows, cols, size);
        for b in area.blocks() {
            prop_assert_eq!(area.block_of(area.block_center(b)), b);
        }
    }

    #[test]
    fn path_loss_monotone_and_gain_bounded(
        geom in geometry(),
        d1 in 1.0f64..20_000.0,
        d2 in 1.0f64..20_000.0,
    ) {
        let models: [&dyn PathLossModel; 2] = [&FreeSpace, &ExtendedHata::suburban()];
        for model in models {
            let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let l_near = model.path_loss_db(near, &geom).0;
            let l_far = model.path_loss_db(far, &geom).0;
            prop_assert!(l_far >= l_near - 1e-9, "loss not monotone");
            let g = model.path_gain(far, &geom);
            prop_assert!(g > 0.0 && g.is_finite());
        }
    }

    #[test]
    fn hata_never_below_free_space(geom in geometry(), d in 1.0f64..20_000.0) {
        let hata = ExtendedHata::suburban().path_loss_db(d, &geom).0;
        let fs = FreeSpace.path_loss_db(d, &geom).0;
        prop_assert!(hata >= fs - 1e-9);
    }

    #[test]
    fn terrain_model_at_least_hata(
        seed in any::<u64>(),
        relief in 0.0f64..300.0,
        d in 10.0f64..10_000.0,
    ) {
        let geom = LinkGeometry::secondary_default(600.0);
        let model = IrregularTerrain::new(Terrain::new(seed, relief));
        let a = Point { x: 0.0, y: 0.0 };
        let b = Point { x: d, y: 0.0 };
        let with_terrain = model.path_loss_between(a, b, &geom).0;
        let base = ExtendedHata::suburban().path_loss_db(d, &geom).0;
        prop_assert!(with_terrain >= base - 1e-9);
    }

    #[test]
    fn terrain_elevation_bounded_and_deterministic(
        seed in any::<u64>(),
        relief in 0.0f64..500.0,
        x in -10_000.0f64..10_000.0,
        y in -10_000.0f64..10_000.0,
    ) {
        let t = Terrain::new(seed, relief);
        let p = Point { x, y };
        let e = t.elevation_m(p);
        prop_assert!(e >= 0.0 && e <= relief);
        prop_assert_eq!(e, Terrain::new(seed, relief).elevation_m(p));
    }

    #[test]
    fn protection_distance_brackets_threshold(ch in 0usize..100) {
        // At d^c the full-power SU interference sits at (or just below)
        // the protection budget; just inside it exceeds the budget.
        let params = ProtectionParams::atsc_defaults();
        let model = ExtendedHata::suburban();
        let channel = Channel(ch);
        let d = protection_distance(&model, &params, channel, 100_000.0);
        prop_assert!(d >= 1.0);
        if d > 2.0 && d < 99_999.0 {
            let geom = LinkGeometry::secondary_default(channel.center_freq_mhz());
            let budget = params.pu_min_signal_mw() / params.x_linear();
            let at = params.su_max_eirp_mw() * model.path_gain(d, &geom);
            let inside = params.su_max_eirp_mw() * model.path_gain(d * 0.9, &geom);
            prop_assert!(at <= budget * 1.01, "at d^c: {at} vs {budget}");
            prop_assert!(inside >= budget * 0.99, "inside d^c: {inside} vs {budget}");
        }
    }

    #[test]
    fn blocks_within_radius_is_consistent(
        rows in 2usize..10,
        cols in 2usize..10,
        around in 0usize..4,
        radius in 0.0f64..500.0,
    ) {
        let area = ServiceArea::new(rows, cols, 10.0);
        let around = pisa_radio::BlockId(around % area.num_blocks());
        let within = area.blocks_within(around, radius);
        prop_assert!(within.contains(&around) || radius < 0.0);
        for b in area.blocks() {
            let inside = area.block_distance_m(around, b) <= radius;
            prop_assert_eq!(within.contains(&b), inside);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rounding to the nearest step errs by at most half a step: the
    /// scaling by 2^frac_bits and back is exact in `f64`.
    #[test]
    fn quantizer_error_is_at_most_half_a_step(v in 0.0f64..1e6) {
        let q = Quantizer::paper();
        let back = q.dequantize(q.quantize(v).unwrap());
        prop_assert!((back - v).abs() <= q.resolution_mw() / 2.0);
    }

    #[test]
    fn saturating_quantizer_clamps_only_past_the_top(v in 0.0f64..2e6, frac in 8u32..48) {
        let q = Quantizer::new(frac, frac + 20);
        let s = q.quantize_saturating(v);
        match q.quantize(v) {
            Ok(exact) => prop_assert_eq!(s, exact),
            Err(_) => prop_assert_eq!(s, q.max_value()),
        }
        prop_assert!((0..=q.max_value()).contains(&s));
    }

    #[test]
    fn block_distance_is_a_metric(
        rows in 1usize..20,
        cols in 1usize..20,
        picks in (any::<usize>(), any::<usize>(), any::<usize>()),
    ) {
        let area = ServiceArea::new(rows, cols, 40.0);
        let n = area.num_blocks();
        let (a, b, c) = (BlockId(picks.0 % n), BlockId(picks.1 % n), BlockId(picks.2 % n));
        prop_assert_eq!(area.block_distance_m(a, a), 0.0);
        prop_assert_eq!(area.block_distance_m(a, b), area.block_distance_m(b, a));
        prop_assert!(
            area.block_distance_m(a, c)
                <= area.block_distance_m(a, b) + area.block_distance_m(b, c) + 1e-9
        );
        if a != b {
            prop_assert!(area.block_distance_m(a, b) >= 40.0 - 1e-9);
        }
    }

    #[test]
    fn region_prefix_is_a_clamped_row_major_prefix(
        rows in 1usize..30,
        cols in 1usize..30,
        count in 0usize..1000,
    ) {
        let area = ServiceArea::new(rows, cols, 10.0);
        let region = area.region_prefix(count);
        prop_assert_eq!(region.len(), count.min(area.num_blocks()));
        for (i, b) in region.iter().enumerate() {
            prop_assert_eq!(b.0, i);
            prop_assert!(area.check_block(*b).is_ok());
        }
    }

    /// Adding a gain in dB multiplies the linear power by its ratio,
    /// and the difference of two levels is the gain between them.
    #[test]
    fn db_gains_multiply_linear_power(p in -100.0f64..40.0, g in -60.0f64..60.0) {
        let level = Dbm(p);
        let gained = (level + Db(g)).to_milliwatts().0;
        let expected = level.to_milliwatts().0 * Db(g).as_ratio();
        prop_assert!((gained - expected).abs() <= expected * 1e-12);
        prop_assert!((((level + Db(g)) - level).0 - g).abs() < 1e-9);
        prop_assert!((Db::from_ratio(Db(g).as_ratio()).0 - g).abs() < 1e-9);
        prop_assert_eq!((level - Db(g)).0, (level + -Db(g)).0);
    }
}

#[test]
fn quantizer_rejects_negative_and_non_finite_power() {
    let q = Quantizer::paper();
    for bad in [
        -1.0,
        -f64::MIN_POSITIVE,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert!(
            matches!(q.quantize(bad), Err(RadioError::ModelDomain(_))),
            "{bad} was accepted"
        );
        assert_eq!(q.quantize_saturating(bad), 0, "{bad}");
    }
    let top = q.dequantize(q.max_value()) + 1.0;
    assert!(matches!(
        q.quantize(top),
        Err(RadioError::QuantizationOverflow { bits: 60, .. })
    ));
    assert_eq!(q.quantize_saturating(top), q.max_value());
}
