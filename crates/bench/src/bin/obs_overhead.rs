//! Telemetry overhead gate: proves that turning the `eblcio_obs`
//! layer on (spans + flight recorder; the metric histograms record
//! unconditionally either way) keeps the warm `read_region_into` hot
//! path within a small fraction of the telemetry-off baseline.
//!
//! The workload is the allocation-free serving loop `serve_alloc.rs`
//! pins down: one warm reader, a multi-chunk slab region (half the
//! leading dimension — the shape the `read_throughput` workload
//! serves) fully resident in the decoded-chunk cache, repeated
//! `read_region_into` calls into a preallocated buffer. Both arms run
//! the identical loop; the only difference is
//! `eblcio_obs::set_enabled(true/false)`. The two arms are
//! interleaved rep-by-rep in short windows (`EBLCIO_OBS_ITERS` calls
//! per window, default 200; `EBLCIO_OBS_REPS` windows per arm,
//! default 50) and each arm keeps its best window, so machine-load
//! drift hits both arms alike instead of masquerading as telemetry
//! cost.
//!
//! Knobs: `EBLCIO_SCALE` = tiny|small|paper, `EBLCIO_OBS_ITERS`,
//! `EBLCIO_OBS_REPS`, `EBLCIO_OBS_GATE` = 1 — fail (exit 1) when the
//! enabled arm exceeds the baseline by more than `EBLCIO_OBS_GATE_PCT`
//! percent (default 2).

use eblcio_bench::{env_usize, scale_from_env};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{Dataset, DatasetKind, DatasetSpec, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};
use std::time::Instant;

const EPS: f64 = 1e-3;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Wall time of one window of `iters` warm `read_region_into` calls.
fn window(
    reader: &ArrayReader<f32>,
    region: &Region,
    out: &mut NdArray<f32>,
    iters: usize,
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        reader.read_region_into(region, out).expect("warm read");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let scale = scale_from_env();
    let iters = env_usize("EBLCIO_OBS_ITERS", 200);
    let reps = env_usize("EBLCIO_OBS_REPS", 50);
    let gate = std::env::var("EBLCIO_OBS_GATE").is_ok_and(|v| v == "1");
    let gate_pct = env_f64("EBLCIO_OBS_GATE_PCT", 2.0);

    let data = DatasetSpec::new(DatasetKind::Nyx, scale).generate();
    let arr = match &data {
        Dataset::F32(a) => a,
        Dataset::F64(_) => unreachable!("NYX is single precision"),
    };
    let shape = arr.shape();
    let chunk_shape = Shape::new(
        &shape
            .dims()
            .iter()
            .map(|&d| d.div_ceil(4).max(1))
            .collect::<Vec<_>>(),
    );
    let codec = CompressorId::Sz3.instance();
    let stream = ChunkedStore::write(codec.as_ref(), arr, ErrorBound::Relative(EPS), chunk_shape, 4)
        .expect("write store");
    let reader = ArrayReader::<f32>::open(
        &stream,
        ReaderConfig {
            cache: CacheConfig::with_capacity_mib(256),
            threads: 1,
            ..Default::default()
        },
    )
    .expect("reader");

    // A slab of half the leading dimension — a multi-chunk region like
    // the read_throughput workload serves — decoded once up front so
    // every measured call is a pure cache-hit assembly (the zero-alloc
    // path).
    let origin: Vec<usize> = vec![0; shape.rank()];
    let extent: Vec<usize> = shape
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| if d == 0 { (n / 2).max(1) } else { n })
        .collect();
    let region = Region::new(&origin, &extent);
    let mut out = NdArray::<f32>::zeros(region.shape());
    reader.read_region_into(&region, &mut out).expect("warm-up");

    // Force the lazily-allocated telemetry structures into existence
    // outside the measured windows, exactly as serve_alloc.rs does.
    eblcio_obs::set_enabled(true);
    eblcio_obs::flight_recorder();
    eblcio_obs::set_enabled(false);

    // Alternate the arms window-by-window and keep each arm's best
    // window: load drift lands on both arms alike, and the minima
    // compare the two true floors.
    let mut base = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    for _ in 0..reps.max(1) {
        eblcio_obs::set_enabled(false);
        base = base.min(window(&reader, &region, &mut out, iters));
        eblcio_obs::set_enabled(true);
        enabled = enabled.min(window(&reader, &region, &mut out, iters));
    }
    eblcio_obs::set_enabled(false);

    let per_call_ns = |s: f64| s * 1e9 / iters as f64;
    let overhead_pct = (enabled / base - 1.0) * 100.0;
    println!(
        "obs_overhead: warm read_region_into, {} samples/region, {iters} iters x {reps} reps",
        region.len()
    );
    println!("  telemetry off: {:>9.1} ns/call", per_call_ns(base));
    println!("  telemetry on:  {:>9.1} ns/call", per_call_ns(enabled));
    println!("  overhead:      {overhead_pct:>8.2}% (gate: {gate_pct}%)");

    if gate {
        if overhead_pct <= gate_pct {
            println!("\nobs overhead gate: PASS");
        } else {
            eprintln!(
                "obs overhead gate FAIL: {overhead_pct:.2}% > {gate_pct}% \
                 (off {:.1} ns/call, on {:.1} ns/call)",
                per_call_ns(base),
                per_call_ns(enabled)
            );
            std::process::exit(1);
        }
    }
}
