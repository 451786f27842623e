//! Small shared pieces: the seeded generator, order statistics, the
//! metric list a run reports, and process facts (cores, peak memory).

use std::sync::OnceLock;
use std::time::Instant;

/// SplitMix64: one seed fans out into independent, reproducible
/// streams (data sets, region pools, per-connection request orders).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A child stream for `salt`, independent of the parent's position.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds [`Reference`] work takes on the reference core, a core
/// of the benchmark's 2-vCPU host at its quieter moments. The reported
/// end-to-end times are scaled to that core: see [`at_reference`].
pub const REFERENCE_MS: f64 = 2.5;

/// `measured` end-to-end metrics scaled to the reference core: times
/// (units `s`, `us`) by `REFERENCE_MS / reference_ms`, rates (`1/s`,
/// `MB/s`) by its inverse, and the compute share of `mJ/MB` like a
/// time. Counts, ratios and memory are left as measured.
///
/// The host's other tenants set how fast its cores run, and that speed
/// drifts by a fifth and more over minutes; every time a run measures
/// drifts with it, together. Ten 40 s runs of `dump` spread 0.35–0.43
/// (inter-quartile range over median) on `dump_MBps`, `readback_MBps`
/// and `dump_mJ_per_MB`, while the same code's figures divided by the
/// run's reference time spread far less. The reference work is the
/// benchmark's own fixed code, so a change to the program moves the
/// scaled figures as it moves the measured ones.
pub fn at_reference(measured: &Metrics, reference_ms: f64, compute_share: f64) -> Metrics {
    let speed = REFERENCE_MS / reference_ms;
    Metrics(
        measured
            .0
            .iter()
            .map(|&(ref n, v, u)| {
                let scaled = match u {
                    "s" | "us" => v * speed,
                    "1/s" | "MB/s" => v / speed,
                    "mJ/MB" => v * (compute_share * speed + (1.0 - compute_share)),
                    _ => v,
                };
                (n.clone(), scaled, u)
            })
            .collect(),
    )
}

/// A fixed piece of work that belongs to no layer of the program, timed
/// between the measured operations of a run: how fast the shared core
/// runs at that moment. It copies 1 MiB and runs a dependent integer and
/// a dependent floating-point chain over it, four times: about 3 ms.
pub struct Reference {
    src: Vec<u64>,
    dst: Vec<u64>,
    samples: Vec<f64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut rng = Rng::derive(0, 0x2EF);
        Self {
            src: (0..1 << 17).map(|_| rng.next_u64()).collect(),
            dst: vec![0; 1 << 17],
            samples: Vec::new(),
        }
    }

    /// Times one round of the work and keeps the time.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let (mut h, mut x) = (0u64, 1.0f64);
        for _ in 0..4 {
            self.dst.copy_from_slice(std::hint::black_box(&self.src));
            for &v in &self.dst {
                h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(5);
                x = x.mul_add(1.000_000_1, (v & 0xFF) as f64 * 1e-9);
            }
        }
        std::hint::black_box((h, x));
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// Median milliseconds of one round, and the number of rounds.
    pub fn median_ms(&self) -> (f64, usize) {
        (median(&self.samples) * 1e3, self.samples.len())
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Times `f`, returning its value and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Worker threads the machine offers; the load generator never opens
/// more connections than this. Read once, before [`pin_to_one_core`]
/// narrows what the process may use.
pub fn nproc() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Thread affinity through the C library's `sched_setaffinity`.
mod affinity {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn current() -> Option<usize> {
        // SAFETY: takes no arguments and returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Restricts the calling thread to `cpu`, or lets it run anywhere.
    pub fn set(cpu: Option<usize>) -> bool {
        let mut mask = [0u64; WORDS];
        match cpu {
            Some(c) if c < WORDS * 64 => mask[c / 64] = 1 << (c % 64),
            Some(_) => return false,
            None => mask = [u64::MAX; WORDS],
        }
        // SAFETY: `mask` is an initialised buffer of exactly the size
        // passed and outlives the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

/// Pins the calling thread, and every thread it starts from then on, to
/// the core it is running on; returns that core. With the client, the
/// daemon's threads and the store cycles on one core, a request hands
/// off between threads on a running core instead of waking an idle one,
/// which on a shared VM waits on the host: pinned, 20 s `serve-hot`
/// runs read 2690–2920 req/s (p50 310–340 us), unpinned 2080–2510 req/s
/// (p50 356–406 us). The measured paths are serial, so one core is all
/// they use.
pub fn pin_to_one_core() -> Option<usize> {
    let cpu = affinity::current()?;
    affinity::set(Some(cpu)).then_some(cpu)
}

/// Lets the calling thread, and the threads it starts, use every core
/// again: the layer probes time parallel writes at [`nproc`] threads.
pub fn unpin() {
    affinity::set(None);
}

/// Makes every thread allocate from one malloc arena (glibc's `mallopt`
/// with `M_ARENA_MAX`). By default each thread that allocates gets an
/// arena of its own, and memory freed there stays resident for that
/// arena alone; how much then hangs on how the daemon's threads and the
/// store cycles interleaved, and the peak resident set of one seed moved
/// 56–75 MB between runs. With one arena it read 53.4–54.4 MB over four
/// seeds. The measured work runs on one core, so the arena's lock is
/// never contended.
pub fn one_malloc_arena() {
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: takes two plain integers; called before any other thread
    // starts.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The metrics one run reports, in insertion order.
#[derive(Default, Debug, Clone)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value (Rust's shortest round-trip form).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn print(&self, title: &str) {
        println!("{title}");
        for (n, v, u) in &self.0 {
            println!("  {n:<40} {v:>16.6} {u}");
        }
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is
/// reported as -1 and the run is marked incorrect by its caller.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn derived_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
    }

    #[test]
    fn scaling_to_the_reference_core_follows_units() {
        let mut m = Metrics::default();
        m.push("t", 10.0, "us");
        m.push("r", 10.0, "MB/s");
        m.push("e", 10.0, "mJ/MB");
        m.push("c", 10.0, "ratio");
        // A core twice as slow as the reference one.
        let s = at_reference(&m, 2.0 * REFERENCE_MS, 0.5);
        assert_eq!(s.get("t"), Some(5.0));
        assert_eq!(s.get("r"), Some(20.0));
        assert_eq!(s.get("e"), Some(7.5));
        assert_eq!(s.get("c"), Some(10.0));
    }

    #[test]
    fn json_keeps_digits() {
        let mut m = Metrics::default();
        m.push("x", 1.25e-7, "s");
        assert_eq!(
            m.to_json(),
            "{\"x\": {\"value\": 1.25e-7, \"unit\": \"s\"}}"
        );
    }
}
