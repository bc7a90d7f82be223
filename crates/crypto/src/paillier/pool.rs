//! Pooled re-randomization factors — the paper's §VI-A offline/online
//! split as a reusable component.
//!
//! The expensive half of Paillier encryption and re-randomization is the
//! `rⁿ mod n²` factor; the cheap half is one multiplication. A
//! [`RandomizerPool`] holds precomputed factors so the hot path pays only
//! the multiplication, refilling either explicitly ([`RandomizerPool::refill`],
//! e.g. between request batches) or continuously from a background
//! thread ([`RandomizerPool::start_refill_thread`]). Exhaustion never
//! blocks: [`RandomizerPool::take`] returns `None` and the caller falls
//! back to the online exponentiation, with the miss counted so the obs
//! report shows how often the offline budget ran dry.

use super::keys::PaillierPublicKey;
use super::ops::Randomizer;
use pisa_bigint::zeroize::Zeroize;
use rand::Rng;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Hit/miss statistics for one pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Factors served from the pool (each one an exponentiation that
    /// did not happen online).
    pub hits: u64,
    /// Requests that found the pool empty and fell back online.
    pub misses: u64,
}

/// A thread-safe pool of precomputed `rⁿ mod n²` factors for one key.
///
/// Factors are handed out strictly once. Contents are wiped on drop and
/// the `Debug` impl prints only fill levels — an unconsumed factor links
/// any ciphertext later refreshed with it to the refresh event.
pub struct RandomizerPool {
    pk: PaillierPublicKey,
    factors: Mutex<Vec<Randomizer>>,
    /// Signaled when the fill level drops below the refill worker's low
    /// water mark (and on shutdown).
    low_water: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stop: AtomicBool,
}

impl RandomizerPool {
    /// Creates an empty pool that tops up to `capacity` factors per
    /// refill.
    pub fn new(pk: &PaillierPublicKey, capacity: usize) -> Self {
        RandomizerPool {
            pk: pk.clone(),
            factors: Mutex::new(Vec::with_capacity(capacity)),
            low_water: Condvar::new(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// The key this pool precomputes for.
    pub fn public_key(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Maximum fill level.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current fill level.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no factors are pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counts since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Tops the pool up to capacity — the offline phase. Factors are
    /// computed *outside* the lock so consumers keep draining while a
    /// refill is in flight.
    pub fn refill<R: Rng + ?Sized>(&self, rng: &mut R) {
        let missing = self.capacity.saturating_sub(self.lock().len());
        if missing == 0 {
            return;
        }
        // The draws equal `missing` sequential `precompute_randomizer`
        // calls and share one gcd; the powers run side by side.
        let fresh = self
            .pk
            .raise_randomizers(&self.pk.draw_randomizers(rng, missing));
        let mut pool = self.lock();
        pool.extend(fresh);
        pool.truncate(self.capacity);
    }

    /// Takes one factor, oldest first; `None` (plus a recorded miss)
    /// when the pool is dry — callers then use the online path.
    pub fn take(&self) -> Option<Randomizer> {
        let taken = {
            let mut pool = self.lock();
            if pool.is_empty() {
                None
            } else {
                Some(pool.remove(0))
            }
        };
        match &taken {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs_count!(ModExpAvoided);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs_count!(PoolMiss);
            }
        }
        self.low_water.notify_one();
        taken
    }

    /// Takes up to `count` factors in one lock acquisition, preserving
    /// pool order. Phase paths pre-take a batch and index it by entry
    /// order so sequential and parallel execution consume identical
    /// factors. Returns fewer (possibly zero) when the pool runs dry;
    /// the shortfall is recorded as misses.
    pub fn take_batch(&self, count: usize) -> Vec<Randomizer> {
        let taken: Vec<Randomizer> = {
            let mut pool = self.lock();
            let have = pool.len().min(count);
            pool.drain(..have).collect()
        };
        let hits = taken.len() as u64;
        let misses = (count - taken.len()) as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        for _ in 0..hits {
            obs_count!(ModExpAvoided);
        }
        for _ in 0..misses {
            obs_count!(PoolMiss);
        }
        self.low_water.notify_one();
        taken
    }

    /// Spawns a thread that keeps the pool above `low_water` factors
    /// until the pool (or the returned handle) is dropped. For services;
    /// deterministic harnesses use explicit [`refill`](Self::refill)
    /// between batches instead.
    pub fn start_refill_thread<R>(self: &Arc<Self>, mut rng: R) -> RefillHandle
    where
        R: Rng + Send + 'static,
    {
        let pool = Arc::clone(self);
        let low_water = pool.capacity.div_ceil(2);
        let join = std::thread::spawn(move || loop {
            {
                let guard = pool.lock();
                let _unused = pool
                    .low_water
                    .wait_timeout_while(guard, std::time::Duration::from_millis(50), |factors| {
                        factors.len() >= low_water && !pool.stop.load(Ordering::Relaxed)
                    })
                    .unwrap_or_else(|e| e.into_inner());
            }
            if pool.stop.load(Ordering::Relaxed) {
                return;
            }
            pool.refill(&mut rng);
        });
        RefillHandle {
            pool: Arc::clone(self),
            join: Some(join),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Randomizer>> {
        // A panic while holding the lock leaves plain data, not a broken
        // invariant; recover the guard rather than poisoning the pool.
        self.factors.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for RandomizerPool {
    /// Redacted: prints fill level and stats, never factor values.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomizerPool")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Drop for RandomizerPool {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.low_water.notify_all();
        let mut pool = self.factors.lock().unwrap_or_else(|e| e.into_inner());
        for factor in pool.iter_mut() {
            factor.zeroize();
        }
    }
}

/// Joins the background refill thread on drop.
///
/// Dropping the handle signals the worker to stop and blocks until it
/// exits, so a scoped bench run cannot leak a thread that still holds an
/// `Arc` to the pool.
pub struct RefillHandle {
    pool: Arc<RandomizerPool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for RefillHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RefillHandle").finish_non_exhaustive()
    }
}

impl Drop for RefillHandle {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::Relaxed);
        self.pool.low_water.notify_all();
        if let Some(join) = self.join.take() {
            // A worker that panicked has already stopped refilling; the
            // pool stays usable via its fallback path.
            let _outcome = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::PaillierKeyPair;
    use pisa_bigint::{Ibig, Ubig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> PaillierKeyPair {
        PaillierKeyPair::from_primes(Ubig::from(293u64), Ubig::from(433u64)).unwrap()
    }

    #[test]
    fn refill_take_and_fallback() {
        let kp = keys();
        let pool = RandomizerPool::new(kp.public(), 3);
        assert!(pool.take().is_none(), "empty pool misses");
        let mut rng = StdRng::seed_from_u64(1);
        pool.refill(&mut rng);
        assert_eq!(pool.len(), 3);
        for _ in 0..3 {
            assert!(pool.take().is_some());
        }
        assert!(pool.take().is_none());
        assert_eq!(pool.stats(), PoolStats { hits: 3, misses: 2 });
    }

    #[test]
    fn pooled_factors_decrypt_correctly() {
        let kp = keys();
        let pool = RandomizerPool::new(kp.public(), 4);
        let mut rng = StdRng::seed_from_u64(2);
        pool.refill(&mut rng);
        let m = Ibig::from(1234i64);
        let factor = pool.take().unwrap();
        let c = kp.public().encrypt_with_randomizer(&m, &factor);
        assert_eq!(kp.secret().decrypt(&c), m);
        // And for re-randomization of an existing ciphertext.
        let factor = pool.take().unwrap();
        let c2 = kp.public().rerandomize_precomputed(&c, &factor);
        assert_ne!(c, c2);
        assert_eq!(kp.secret().decrypt(&c2), m);
    }

    #[test]
    fn take_batch_preserves_order_and_counts_shortfall() {
        let kp = keys();
        let pool = RandomizerPool::new(kp.public(), 4);
        let mut rng = StdRng::seed_from_u64(3);
        pool.refill(&mut rng);
        let direct = {
            let probe = RandomizerPool::new(kp.public(), 4);
            let mut rng = StdRng::seed_from_u64(3);
            probe.refill(&mut rng);
            probe.take_batch(4)
        };
        let batch = pool.take_batch(6);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch, direct, "batch preserves refill order");
        assert_eq!(pool.stats(), PoolStats { hits: 4, misses: 2 });
    }

    #[test]
    fn background_refill_keeps_pool_fed() {
        let kp = keys();
        let pool = Arc::new(RandomizerPool::new(kp.public(), 8));
        let handle = pool.start_refill_thread(StdRng::seed_from_u64(4));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut served = 0usize;
        while served < 20 && std::time::Instant::now() < deadline {
            if pool.take().is_some() {
                served += 1;
            } else {
                std::thread::yield_now();
            }
        }
        drop(handle);
        assert_eq!(served, 20, "refill thread never caught up");
    }

    #[test]
    fn debug_redacts_contents() {
        let kp = keys();
        let pool = RandomizerPool::new(kp.public(), 2);
        let mut rng = StdRng::seed_from_u64(5);
        pool.refill(&mut rng);
        let dbg = format!("{pool:?}");
        assert!(dbg.contains("len"), "{dbg}");
        assert!(!dbg.contains("Ubig"), "factor values must not leak: {dbg}");
    }
}
