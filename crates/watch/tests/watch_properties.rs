//! Property-based tests for the plaintext WATCH baseline.

use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{PuInput, SuRequest, WatchConfig, WatchSdc};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Shared config: building one computes protection distances once.
fn cfg() -> &'static WatchConfig {
    static CFG: OnceLock<WatchConfig> = OnceLock::new();
    CFG.get_or_init(WatchConfig::small_test)
}

fn block() -> impl Strategy<Value = BlockId> {
    (0usize..25).prop_map(BlockId)
}

fn channel() -> impl Strategy<Value = Channel> {
    (0usize..4).prop_map(Channel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn more_power_never_helps(
        pu_block in block(),
        su_block in block(),
        ch in channel(),
        low_dbm in -40.0f64..0.0,
        extra_db in 1.0f64..40.0,
    ) {
        // Monotonicity: if a louder request is granted, the quieter one
        // must be too (the budget check is monotone in EIRP).
        let cfg = cfg();
        let mut sdc = WatchSdc::new(cfg.clone());
        sdc.pu_update(0, PuInput::tuned(cfg, pu_block, ch));
        let quiet = SuRequest::with_power_dbm(cfg, su_block, &[ch], low_dbm);
        let loud = SuRequest::with_power_dbm(cfg, su_block, &[ch], low_dbm + extra_db);
        if sdc.process_request(&loud).is_granted() {
            prop_assert!(sdc.process_request(&quiet).is_granted());
        }
    }

    #[test]
    fn update_replay_reaches_same_budget(
        updates in proptest::collection::vec(
            (0u64..4, block(), proptest::option::of(channel())),
            1..12,
        ),
    ) {
        // Applying a random update sequence incrementally equals
        // rebuilding from only each PU's final state.
        let cfg = cfg();
        let mut incremental = WatchSdc::new(cfg.clone());
        let mut finals = std::collections::HashMap::new();
        for (id, b, ch) in &updates {
            let input = match ch {
                Some(c) => PuInput::tuned(cfg, *b, *c),
                None => PuInput::off(*b),
            };
            incremental.pu_update(*id, input.clone());
            finals.insert(*id, input);
        }
        let mut fresh = WatchSdc::new(cfg.clone());
        for (id, input) in finals {
            fresh.pu_update(id, input);
        }
        prop_assert_eq!(incremental.n_matrix(), fresh.n_matrix());
    }

    #[test]
    fn interference_profile_peaks_at_home_block(
        su_block in block(),
        ch in channel(),
        power_dbm in -30.0f64..30.0,
    ) {
        let cfg = cfg();
        let request = SuRequest::with_power_dbm(cfg, su_block, &[ch], power_dbm);
        let f = request.f_matrix(cfg);
        let home = f.get(ch.0, su_block.0);
        prop_assert!(home > 0);
        for (c, b, v) in f.iter() {
            prop_assert!(v <= home, "F({c},{b}) = {v} exceeds home {home}");
            prop_assert!(v >= 0);
        }
    }

    #[test]
    fn empty_system_grants_any_request(
        su_block in block(),
        ch in channel(),
        power_dbm in -40.0f64..36.0,
    ) {
        let cfg = cfg();
        let sdc = WatchSdc::new(cfg.clone());
        let request = SuRequest::with_power_dbm(cfg, su_block, &[ch], power_dbm);
        prop_assert!(sdc.process_request(&request).is_granted());
    }

    #[test]
    fn decision_matches_indicator_positivity(
        pu_block in block(),
        su_block in block(),
        pu_ch in channel(),
        su_ch in channel(),
        power_dbm in -40.0f64..36.0,
    ) {
        let cfg = cfg();
        let mut sdc = WatchSdc::new(cfg.clone());
        sdc.pu_update(0, PuInput::tuned(cfg, pu_block, pu_ch));
        let request = SuRequest::with_power_dbm(cfg, su_block, &[su_ch], power_dbm);
        let f = request.f_matrix(cfg);
        prop_assert_eq!(
            sdc.decide(&f).is_granted(),
            sdc.indicator(&f).all_positive()
        );
    }

    #[test]
    fn off_channel_requests_unaffected_by_pu(
        pu_block in block(),
        su_block in block(),
        power_dbm in -40.0f64..36.0,
    ) {
        // A PU on channel 0 never affects a request on channel 3.
        let cfg = cfg();
        let empty = WatchSdc::new(cfg.clone());
        let mut with_pu = WatchSdc::new(cfg.clone());
        with_pu.pu_update(0, PuInput::tuned(cfg, pu_block, Channel(0)));
        let request = SuRequest::with_power_dbm(cfg, su_block, &[Channel(3)], power_dbm);
        prop_assert_eq!(
            empty.process_request(&request).is_granted(),
            with_pu.process_request(&request).is_granted()
        );
    }

    #[test]
    fn switch_off_restores_pristine_state(
        moves in proptest::collection::vec((block(), channel()), 1..6),
    ) {
        // A PU that churns through any sequence of channels and then
        // turns off leaves no trace in the budget matrix.
        let cfg = cfg();
        let mut sdc = WatchSdc::new(cfg.clone());
        let pristine = sdc.n_matrix().clone();
        let mut last_block = BlockId(0);
        for (b, c) in moves {
            sdc.pu_update(0, PuInput::tuned(cfg, b, c));
            last_block = b;
        }
        sdc.pu_update(0, PuInput::off(last_block));
        prop_assert_eq!(sdc.n_matrix(), &pristine);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The budget is a sum over PUs: the order in which distinct PUs
    /// report does not change it.
    #[test]
    fn pu_report_order_does_not_matter(
        pus in proptest::collection::vec((block(), channel()), 1..6),
    ) {
        let cfg = cfg();
        let mut forward = WatchSdc::new(cfg.clone());
        let mut backward = WatchSdc::new(cfg.clone());
        for (id, (b, c)) in pus.iter().enumerate() {
            forward.pu_update(id as u64, PuInput::tuned(cfg, *b, *c));
        }
        for (id, (b, c)) in pus.iter().enumerate().rev() {
            backward.pu_update(id as u64, PuInput::tuned(cfg, *b, *c));
        }
        prop_assert_eq!(forward.n_matrix(), backward.n_matrix());
        prop_assert_eq!(forward.active_pus(), pus.len());
        prop_assert_eq!(backward.active_pus(), pus.len());
    }

    /// Another tuned-in PU only shrinks the budget: a request it lets
    /// through was granted without it.
    #[test]
    fn another_pu_never_turns_a_denial_into_a_grant(
        first in (block(), channel()),
        second in (block(), channel()),
        su_block in block(),
        su_ch in channel(),
        power_dbm in -40.0f64..36.0,
    ) {
        let cfg = cfg();
        let mut one = WatchSdc::new(cfg.clone());
        one.pu_update(0, PuInput::tuned(cfg, first.0, first.1));
        let mut two = one.clone();
        two.pu_update(1, PuInput::tuned(cfg, second.0, second.1));
        for (a, b) in one.n_matrix().iter().zip(two.n_matrix().iter()) {
            prop_assert!(b.2 <= a.2);
        }
        let request = SuRequest::with_power_dbm(cfg, su_block, &[su_ch], power_dbm);
        if two.process_request(&request).is_granted() {
            prop_assert!(one.process_request(&request).is_granted());
        }
    }

    /// Restricting a request to a region prefix zeroes the entries
    /// outside it and leaves the ones inside unchanged.
    #[test]
    fn restricted_request_is_the_full_one_cut_to_the_region(
        su_block in block(),
        ch in channel(),
        region in 1usize..26,
    ) {
        let cfg = cfg();
        let request = SuRequest::with_power_dbm(cfg, su_block, &[ch], 10.0);
        let full = request.f_matrix(cfg);
        let cut = request.f_matrix_restricted(cfg, region);
        for (c, b, v) in full.iter() {
            if b < region {
                prop_assert_eq!(cut.get(c, b), v);
            } else {
                prop_assert_eq!(cut.get(c, b), 0);
            }
        }
    }
}
