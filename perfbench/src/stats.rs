//! Order statistics over measured samples, and the clock the
//! single-threaded workloads are timed with.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the thread CPU clock below assumes 64-bit Linux");

/// Seconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spends preempted, and
/// time the hypervisor steals, are not in it, so single-threaded passes
/// timed with it do not read slower when something else gets the core.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Times `f` on the calling thread's CPU clock ([`thread_cpu_s`]).
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - start)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The cost of one operation at the fast end of a run: each of its
/// parts (a circuit, a dataset, one request of a session plan) at the
/// 10th percentile of that part's samples, summed. The host the
/// benchmark runs on is shared and slows the code by up to 1.5x for
/// seconds at a time, more in some runs than in others, so a median
/// reads the host as much as the code; short parts at their fast end
/// read the code. `NaN` when a part has no samples.
pub fn fast_sum(parts: &[Vec<f64>]) -> f64 {
    parts.iter().map(|samples| quantile(samples, 0.1)).sum()
}

/// Prints the five-number summary of a run's samples on stderr.
pub fn describe(what: &str, values: &[f64]) {
    let q = |p| quantile(values, p);
    eprintln!(
        "  {what}: min {:.6} p05 {:.6} p10 {:.6} p25 {:.6} median {:.6} p75 {:.6} max {:.6} (n = {})",
        q(0.0),
        q(0.05),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        values.len()
    );
}

/// Small deterministic generator (SplitMix64) for synthetic inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Triangular noise in `(-1, 1)`: the sum of two uniform halves of
    /// one draw, cheap enough to fill millions of samples in set-up.
    pub fn noise(&mut self) -> f64 {
        let bits = self.next_u64();
        let scale = 1.0 / (1u64 << 32) as f64;
        (bits >> 32) as f64 * scale + (bits & 0xffff_ffff) as f64 * scale - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_clock_counts_work_not_sleep() {
        let ((), slept) = cpu_timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(slept < 0.025, "sleeping used {slept} s of CPU");
        let (sum, busy) = cpu_timed(|| (0..20_000_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(x)));
        assert!(busy > 0.0 && sum != 1);
    }
}
