//! Measurements every workload shares: process clocks and memory, the
//! kernel's unit costs, span self times from `pisa-obs`, the phase
//! accounting check and the Chrome-trace dump.
//!
//! All of it reads the program from outside: the benchmark times its
//! own calls into public functions and reads the op counters and spans
//! `pisa-obs` already records.

use pisa_bigint::modular::MontCtx;
use pisa_bigint::Ibig;
use pisa_crypto::paillier::PaillierKeyPair;
use pisa_obs::{FinishedSpan, OpTotals, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The five SU-session phases in protocol order: the `pisa-obs` span
/// each runs under, and the metrics its median time and its accounting
/// residual are reported as.
pub const PHASES: [(&str, &str, &str); 5] = [
    (
        "su.build_request",
        "su.build_request_ms",
        "su.build_request.residual_ms",
    ),
    ("sign_test", "sdc.sign_test_ms", "sdc.sign_test.residual_ms"),
    (
        "key_conversion",
        "stp.key_conversion_ms",
        "stp.key_conversion.residual_ms",
    ),
    (
        "signature_release",
        "sdc.signature_release_ms",
        "sdc.signature_release.residual_ms",
    ),
    (
        "su.verify_license",
        "su.verify_license_ms",
        "su.verify_license.residual_ms",
    ),
];

/// Logical CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (in Linux's fixed 100 Hz `USER_HZ` ticks).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Wall and CPU time since a start point: `busy_ratio` is CPU time ÷
/// (wall time × CPUs), 1.0 when every CPU was busy the whole time.
pub struct BusyClock {
    wall: Instant,
    cpu: f64,
}

impl BusyClock {
    /// Starts both clocks.
    pub fn start() -> Self {
        BusyClock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// CPU time ÷ (wall time × CPUs) since [`start`](Self::start).
    pub fn busy_ratio(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        (cpu_seconds() - self.cpu) / (wall * cpus() as f64)
    }
}

/// Unit costs of the kernel operations the paper prices, at one key
/// size, each the median of a timed batch.
#[derive(Debug, Clone, Copy)]
pub struct KernelCosts {
    /// `MontCtx::pow` mod n² with an n-sized exponent (encryption's `rⁿ`).
    pub modexp_ms: f64,
    /// One `MontCtx::mont_mul` mod n².
    pub mont_mul_us: f64,
    /// One `PaillierPublicKey::encrypt`.
    pub encrypt_ms: f64,
    /// One `PaillierSecretKey::decrypt` (CRT).
    pub decrypt_ms: f64,
}

impl KernelCosts {
    /// Times the kernel at `bits`-bit keys on a key pair of its own.
    /// Instrumentation is off while timing, so the costs are the bare
    /// kernel's.
    pub fn measure(bits: usize, seed: u64) -> Self {
        let was_enabled = pisa_obs::enabled();
        pisa_obs::set_enabled(false);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = PaillierKeyPair::generate(&mut rng, bits);
        let pk = keys.public();
        let ctx = MontCtx::new(pk.modulus_squared()).expect("n² is odd");
        let base = pk
            .encrypt(&Ibig::from(12_345i64), &mut rng)
            .as_raw()
            .clone();
        let exp = pk.modulus().clone();
        // About 0.3 s per batch at 2048 bits, less at smaller keys.
        let reps = if bits >= 1024 { 7 } else { 41 };
        let median_ms = |f: &mut dyn FnMut()| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    ms_since(t)
                })
                .collect();
            crate::stats::median(&samples)
        };

        let modexp_ms = median_ms(&mut || {
            black_box(ctx.pow(black_box(&base), black_box(&exp)));
        });
        let mut s = ctx.scratch();
        let a = ctx.to_mont(&base, &mut s);
        let mut x = a.clone();
        let muls = if bits >= 1024 { 2_000 } else { 20_000 };
        let mont_mul_us = median_ms(&mut || {
            for _ in 0..muls {
                x = ctx.mont_mul(black_box(&x), &a, &mut s);
            }
        }) * 1e3
            / f64::from(muls);
        black_box(&x);
        let mut m = 0i64;
        let mut cts = Vec::with_capacity(reps);
        let encrypt_ms = median_ms(&mut || {
            m += 1;
            cts.push(pk.encrypt(&Ibig::from(m), &mut rng));
        });
        let mut next = cts.iter().cycle();
        let decrypt_ms = median_ms(&mut || {
            let ct = next.next().expect("cycle over a non-empty batch");
            black_box(keys.secret().decrypt(ct));
        });
        pisa_obs::set_enabled(was_enabled);
        KernelCosts {
            modexp_ms,
            mont_mul_us,
            encrypt_ms,
            decrypt_ms,
        }
    }

    /// Time the op counts of one call should take if the kernel were all
    /// of it: mod-exps at [`modexp_ms`](Self::modexp_ms) plus stand-alone
    /// modular multiplications at [`mont_mul_us`](Self::mont_mul_us).
    pub fn predicted_ms(&self, ops: &MeanOps) -> f64 {
        ops.mod_exps * self.modexp_ms + ops.mod_muls * self.mont_mul_us / 1e3
    }

    /// Puts the four unit costs into a per-layer table.
    pub fn report(&self, m: &mut crate::stats::Metrics) {
        m.put("bigint.modexp_ms", self.modexp_ms);
        m.put("bigint.mont_mul_us", self.mont_mul_us);
        m.put("crypto.encrypt_ms", self.encrypt_ms);
        m.put("crypto.decrypt_ms", self.decrypt_ms);
    }
}

/// Op counts averaged over calls or sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanOps {
    /// Modular exponentiations.
    pub mod_exps: f64,
    /// Stand-alone modular multiplications.
    pub mod_muls: f64,
    /// Paillier encryptions.
    pub encryptions: f64,
    /// Paillier decryptions.
    pub decryptions: f64,
    /// Exponentiations precomputation displaced.
    pub mod_exps_avoided: f64,
}

impl MeanOps {
    /// `total` spread over `calls` calls.
    pub fn per(total: &OpTotals, calls: u64) -> Self {
        let d = calls.max(1) as f64;
        MeanOps {
            mod_exps: total.mod_exps as f64 / d,
            mod_muls: total.mod_muls as f64 / d,
            encryptions: total.encryptions as f64 / d,
            decryptions: total.decryptions as f64 / d,
            mod_exps_avoided: total.mod_exps_avoided as f64 / d,
        }
    }

    /// Puts the per-session op counts into a per-layer table.
    pub fn report_per_session(&self, m: &mut crate::stats::Metrics) {
        m.put("crypto.mod_exps_per_session", self.mod_exps);
        m.put("crypto.encryptions_per_session", self.encryptions);
        m.put("crypto.decryptions_per_session", self.decryptions);
        m.put("crypto.mod_exps_avoided_per_session", self.mod_exps_avoided);
    }
}

/// Timing and op counts of every span sharing one name.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Each span's duration, in ms.
    pub durs_ms: Vec<f64>,
    /// Summed self time (duration minus nested same-thread children).
    pub self_ns: u64,
    /// Ops observed while the spans were open (global counters: exact
    /// when one phase runs at a time, an upper bound otherwise).
    pub ops: OpTotals,
}

impl SpanStats {
    /// Median duration in ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.durs_ms)
    }
}

/// Per-name span statistics with self times: a span's self time is its
/// duration minus the part covered by the spans nested in it on the same
/// thread.
pub fn span_stats(spans: &[FinishedSpan]) -> HashMap<&'static str, SpanStats> {
    let mut by_tid: HashMap<u64, Vec<&FinishedSpan>> = HashMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut out: HashMap<&'static str, SpanStats> = HashMap::new();
    for (_, mut list) in by_tid {
        list.sort_by_key(|s| (s.start_ns, s.depth));
        let mut covered = vec![0u64; list.len()];
        // Open ancestors of the current span: (index, end_ns).
        let mut stack: Vec<(usize, u64)> = Vec::new();
        for (i, s) in list.iter().enumerate() {
            while stack.last().is_some_and(|&(_, end)| end <= s.start_ns) {
                stack.pop();
            }
            if let Some(&(parent, _)) = stack.last() {
                covered[parent] += s.dur_ns;
            }
            stack.push((i, s.start_ns + s.dur_ns));
        }
        for (s, cover) in list.iter().zip(covered) {
            let st = out.entry(s.name).or_default();
            st.count += 1;
            st.durs_ms.push(s.dur_ns as f64 / 1e6);
            st.self_ns += s.dur_ns.saturating_sub(cover);
            st.ops = st.ops.merge(&s.ops);
        }
    }
    out
}

/// Writes `report`'s spans as a Chrome trace to
/// `.perfbench_out/trace-<workload>-<seed>.json` under the working
/// directory; a failed write only warns.
pub fn write_chrome_trace(workload: &str, seed: u64, report: &Report) {
    let dir = PathBuf::from(".perfbench_out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report.to_chrome_trace()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            report.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: warning: trace not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u64, depth: usize, start: u64, dur: u64) -> FinishedSpan {
        FinishedSpan {
            name,
            parent: None,
            depth,
            tid,
            start_ns: start,
            dur_ns: dur,
            ops: OpTotals::default(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_on_the_same_thread_only() {
        let spans = vec![
            span("outer", 1, 0, 0, 100),
            span("inner", 1, 1, 10, 30),
            span("inner", 1, 1, 50, 20),
            span("leaf", 1, 2, 55, 5),
            // Another thread overlapping in time is not a child.
            span("other", 2, 0, 20, 50),
            // A later top-level span on thread 1.
            span("outer", 1, 0, 200, 10),
        ];
        let st = span_stats(&spans);
        assert_eq!(st["outer"].count, 2);
        assert_eq!(st["outer"].self_ns, 100 - 30 - 20 + 10);
        assert_eq!(st["inner"].self_ns, 30 + 20 - 5);
        assert_eq!(st["leaf"].self_ns, 5);
        assert_eq!(st["other"].self_ns, 50);
        assert_eq!(st["outer"].durs_ms, vec![100e-6, 10e-6]);
    }

    #[test]
    fn process_clocks_read_something() {
        assert!(peak_rss_mib() > 0.0);
        let clock = BusyClock::start();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(clock.busy_ratio() >= 0.0);
    }
}
