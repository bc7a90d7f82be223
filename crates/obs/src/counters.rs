//! Global counters for the crypto operations priced by the paper.
//!
//! The paper's cost model (§VI) prices each protocol phase in modular
//! exponentiations; everything else is noise on top. We track the
//! operation classes Tables 2–3 break out so a phase report can say not
//! just "sign test took 40 ms" but "sign test performed 96 mod-exps".
//!
//! Two counters price what *didn't* happen: `ModExpAvoided` counts
//! exponentiations a precomputation (randomizer pool hit, ±1 scalar
//! fast path) displaced from the hot path, and
//! `PoolMiss` counts pool exhaustions that fell back to the online
//! exponentiation. Together they show which optimization lever paid in a
//! perf trajectory point.
//!
//! Two count the divsteps kernel's calls beside the exponentiations:
//! `Inversion` (a ⊖, a negative ⊗, or one batch of them sharing an
//! inverse) and `Gcd` (a coprimality check of one nonce, one ciphertext,
//! or the product of a batch).
//!
//! Counters are process-global relaxed atomics. Span guards snapshot
//! the totals when they open and subtract on drop, so per-phase deltas
//! are exact for serial runs; concurrent spans each observe the ops of
//! threads running inside them (documented as approximate attribution
//! under concurrency in DESIGN.md §8).

use std::sync::atomic::{AtomicU64, Ordering};

/// A crypto operation class tracked by the observability layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Modular exponentiation (the paper's unit of cost).
    ModExp,
    /// Modular multiplication outside an exponentiation ladder.
    ModMul,
    /// Paillier encryption (also counts its internal mod-exp).
    Encrypt,
    /// Paillier decryption (CRT or standard).
    Decrypt,
    /// Ciphertext re-randomization.
    Rerandomize,
    /// A modular exponentiation that precomputation displaced from the
    /// hot path: a pooled randomizer consumed, or a ±1 scalar
    /// multiplication short-circuit.
    ModExpAvoided,
    /// A randomizer-pool request that found the pool empty and fell
    /// back to the online exponentiation.
    PoolMiss,
    /// A modular inverse: one divsteps inversion, serving one entry or a
    /// whole batch through its product.
    Inversion,
    /// A gcd: one divsteps coprimality check, of one value or of the
    /// product of a batch.
    Gcd,
    /// A durable checkpoint written to disk (temp-write + rename).
    CheckpointWrite,
    /// A durable checkpoint loaded and verified from disk.
    CheckpointLoad,
}

static MOD_EXPS: AtomicU64 = AtomicU64::new(0);
static MOD_MULS: AtomicU64 = AtomicU64::new(0);
static ENCRYPTIONS: AtomicU64 = AtomicU64::new(0);
static DECRYPTIONS: AtomicU64 = AtomicU64::new(0);
static RERANDOMIZATIONS: AtomicU64 = AtomicU64::new(0);
static MOD_EXPS_AVOIDED: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
static INVERSIONS: AtomicU64 = AtomicU64::new(0);
static GCDS: AtomicU64 = AtomicU64::new(0);
static CHECKPOINT_WRITES: AtomicU64 = AtomicU64::new(0);
static CHECKPOINT_LOADS: AtomicU64 = AtomicU64::new(0);

fn cell(op: Op) -> &'static AtomicU64 {
    match op {
        Op::ModExp => &MOD_EXPS,
        Op::ModMul => &MOD_MULS,
        Op::Encrypt => &ENCRYPTIONS,
        Op::Decrypt => &DECRYPTIONS,
        Op::Rerandomize => &RERANDOMIZATIONS,
        Op::ModExpAvoided => &MOD_EXPS_AVOIDED,
        Op::PoolMiss => &POOL_MISSES,
        Op::Inversion => &INVERSIONS,
        Op::Gcd => &GCDS,
        Op::CheckpointWrite => &CHECKPOINT_WRITES,
        Op::CheckpointLoad => &CHECKPOINT_LOADS,
    }
}

/// Records one occurrence of `op`. No-op while obs is disabled.
pub fn count(op: Op) {
    count_n(op, 1);
}

/// Records `n` occurrences of `op` at once, as a batch's shared
/// multiplications do. No-op while obs is disabled.
pub fn count_n(op: Op, n: u64) {
    if crate::enabled() {
        cell(op).fetch_add(n, Ordering::Relaxed);
    }
}

/// A snapshot of the global operation totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Modular exponentiations.
    pub mod_exps: u64,
    /// Modular multiplications.
    pub mod_muls: u64,
    /// Paillier encryptions.
    pub encryptions: u64,
    /// Paillier decryptions.
    pub decryptions: u64,
    /// Ciphertext re-randomizations.
    pub rerandomizations: u64,
    /// Modular exponentiations displaced by precomputation.
    pub mod_exps_avoided: u64,
    /// Randomizer-pool misses that fell back to the online path.
    pub pool_misses: u64,
    /// Modular inversions (divsteps calls; a batch shares one).
    pub inversions: u64,
    /// Coprimality gcds (divsteps calls; a batch shares one).
    pub gcds: u64,
    /// Durable checkpoints written (temp-write + rename).
    pub checkpoint_writes: u64,
    /// Durable checkpoints loaded and verified.
    pub checkpoint_loads: u64,
}

impl OpTotals {
    /// Element-wise saturating difference `self - earlier`, used to
    /// attribute ops to the span that was open between two snapshots.
    pub fn delta_since(&self, earlier: &OpTotals) -> OpTotals {
        OpTotals {
            mod_exps: self.mod_exps.saturating_sub(earlier.mod_exps),
            mod_muls: self.mod_muls.saturating_sub(earlier.mod_muls),
            encryptions: self.encryptions.saturating_sub(earlier.encryptions),
            decryptions: self.decryptions.saturating_sub(earlier.decryptions),
            rerandomizations: self
                .rerandomizations
                .saturating_sub(earlier.rerandomizations),
            mod_exps_avoided: self
                .mod_exps_avoided
                .saturating_sub(earlier.mod_exps_avoided),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            inversions: self.inversions.saturating_sub(earlier.inversions),
            gcds: self.gcds.saturating_sub(earlier.gcds),
            checkpoint_writes: self
                .checkpoint_writes
                .saturating_sub(earlier.checkpoint_writes),
            checkpoint_loads: self
                .checkpoint_loads
                .saturating_sub(earlier.checkpoint_loads),
        }
    }

    /// Element-wise saturating sum, used when aggregating spans into a
    /// phase row.
    pub fn merge(&self, other: &OpTotals) -> OpTotals {
        OpTotals {
            mod_exps: self.mod_exps.saturating_add(other.mod_exps),
            mod_muls: self.mod_muls.saturating_add(other.mod_muls),
            encryptions: self.encryptions.saturating_add(other.encryptions),
            decryptions: self.decryptions.saturating_add(other.decryptions),
            rerandomizations: self.rerandomizations.saturating_add(other.rerandomizations),
            mod_exps_avoided: self.mod_exps_avoided.saturating_add(other.mod_exps_avoided),
            pool_misses: self.pool_misses.saturating_add(other.pool_misses),
            inversions: self.inversions.saturating_add(other.inversions),
            gcds: self.gcds.saturating_add(other.gcds),
            checkpoint_writes: self
                .checkpoint_writes
                .saturating_add(other.checkpoint_writes),
            checkpoint_loads: self.checkpoint_loads.saturating_add(other.checkpoint_loads),
        }
    }

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == OpTotals::default()
    }
}

/// Reads the current global totals.
pub fn counters() -> OpTotals {
    OpTotals {
        mod_exps: MOD_EXPS.load(Ordering::Relaxed),
        mod_muls: MOD_MULS.load(Ordering::Relaxed),
        encryptions: ENCRYPTIONS.load(Ordering::Relaxed),
        decryptions: DECRYPTIONS.load(Ordering::Relaxed),
        rerandomizations: RERANDOMIZATIONS.load(Ordering::Relaxed),
        mod_exps_avoided: MOD_EXPS_AVOIDED.load(Ordering::Relaxed),
        pool_misses: POOL_MISSES.load(Ordering::Relaxed),
        inversions: INVERSIONS.load(Ordering::Relaxed),
        gcds: GCDS.load(Ordering::Relaxed),
        checkpoint_writes: CHECKPOINT_WRITES.load(Ordering::Relaxed),
        checkpoint_loads: CHECKPOINT_LOADS.load(Ordering::Relaxed),
    }
}

pub(crate) fn reset_counters() {
    MOD_EXPS.store(0, Ordering::Relaxed);
    MOD_MULS.store(0, Ordering::Relaxed);
    ENCRYPTIONS.store(0, Ordering::Relaxed);
    DECRYPTIONS.store(0, Ordering::Relaxed);
    RERANDOMIZATIONS.store(0, Ordering::Relaxed);
    MOD_EXPS_AVOIDED.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
    INVERSIONS.store(0, Ordering::Relaxed);
    GCDS.store(0, Ordering::Relaxed);
    CHECKPOINT_WRITES.store(0, Ordering::Relaxed);
    CHECKPOINT_LOADS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::OpTotals;

    fn totals(base: u64) -> OpTotals {
        OpTotals {
            mod_exps: base,
            mod_muls: base + 1,
            encryptions: base + 2,
            decryptions: base + 3,
            rerandomizations: base + 4,
            mod_exps_avoided: base + 5,
            pool_misses: base + 6,
            inversions: base + 7,
            gcds: base + 8,
            checkpoint_writes: base + 9,
            checkpoint_loads: base + 10,
        }
    }

    #[test]
    fn delta_since_undoes_merge_field_by_field() {
        let (a, b) = (totals(10), totals(1000));
        assert_eq!(b.merge(&a).delta_since(&a), b);
        assert_eq!(a.merge(&b).delta_since(&b), a);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&OpTotals::default()), a);
    }

    #[test]
    fn delta_since_saturates_at_zero() {
        // A snapshot taken after a counter reset reads lower than the
        // one a span opened with.
        let (low, high) = (totals(1), totals(50));
        assert!(low.delta_since(&high).is_zero());
        assert_eq!(high.delta_since(&low), totals(49).delta_since(&totals(0)));
    }

    #[test]
    fn merge_saturates_at_max() {
        let full = totals(u64::MAX - 10);
        let merged = full.merge(&totals(100));
        assert_eq!(merged.mod_exps, u64::MAX);
        assert_eq!(merged.checkpoint_loads, u64::MAX);
        assert_eq!(merged, totals(u64::MAX - 10).merge(&merged));
    }

    #[test]
    fn is_zero_only_when_every_field_is() {
        assert!(OpTotals::default().is_zero());
        let one_each = [
            OpTotals {
                mod_exps: 1,
                ..OpTotals::default()
            },
            OpTotals {
                mod_muls: 1,
                ..OpTotals::default()
            },
            OpTotals {
                encryptions: 1,
                ..OpTotals::default()
            },
            OpTotals {
                decryptions: 1,
                ..OpTotals::default()
            },
            OpTotals {
                rerandomizations: 1,
                ..OpTotals::default()
            },
            OpTotals {
                mod_exps_avoided: 1,
                ..OpTotals::default()
            },
            OpTotals {
                pool_misses: 1,
                ..OpTotals::default()
            },
            OpTotals {
                inversions: 1,
                ..OpTotals::default()
            },
            OpTotals {
                gcds: 1,
                ..OpTotals::default()
            },
            OpTotals {
                checkpoint_writes: 1,
                ..OpTotals::default()
            },
            OpTotals {
                checkpoint_loads: 1,
                ..OpTotals::default()
            },
        ];
        for t in one_each {
            assert!(!t.is_zero(), "{t:?}");
            assert_eq!(t.delta_since(&t), OpTotals::default());
        }
    }
}
