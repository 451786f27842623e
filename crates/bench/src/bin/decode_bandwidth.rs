//! Decode-bandwidth gate for the decode hot path: uncached decompression
//! throughput of every codec's *fast* decoder against its frozen
//! *reference* decoder (SZ2/SZ3/QoZ carry one; see
//! `Sz3::reference_decoder`), plus the partial-decode arm (SZx, ZFP):
//! reconstructing a 1/8 region of the array versus the whole thing.
//!
//! Outputs both a CSV (`bench_results/decode_bandwidth.csv`) and a
//! machine-readable JSON (`bench_results/decode_bandwidth.json`) so CI
//! can diff runs without parsing tables.
//!
//! Knobs (environment): `EBLCIO_SCALE` = tiny|small|paper,
//! `EBLCIO_DECODE_REPS` (timed repetitions, best-of; default 3),
//! `EBLCIO_DECODE_GATE` = 1 — enforce the acceptance thresholds
//! (fast ≥ 1.5× reference on SZ3 and QoZ; partial region decode
//! cheaper than full decode on SZx and ZFP) and compare against the
//! checked-in baseline (`EBLCIO_DECODE_BASELINE`, default
//! `bench_results/decode_bandwidth.json`): a speedup collapsing below
//! 60% of the baseline's fails the gate. `EBLCIO_METRICS=1` appends
//! the per-stage codec histograms (`eblcio_codec_<stage>_*` in the
//! process registry) accumulated over the run.

use eblcio_bench::{env_usize, results_dir, scale_from_env, TextTable};
use eblcio_codec::{
    compress, decompress, decompress_region, CodecChain, CompressorId, ErrorBound, Qoz, Sz2, Sz3,
};
use eblcio_data::{Dataset, DatasetKind, DatasetSpec, NdArray};
use serde::{Deserialize, Serialize};
use std::time::Instant;

const EPS: f64 = 1e-5;
/// Speedup floor for codecs with a reference decoder arm.
const GATE_MIN_SPEEDUP: f64 = 1.5;
/// A gated speedup may not collapse below this fraction of baseline.
const GATE_BASELINE_FRACTION: f64 = 0.6;
/// Codecs the fast-vs-reference gate applies to.
const GATED_SPEEDUP: [CompressorId; 2] = [CompressorId::Sz3, CompressorId::Qoz];
/// Codecs the partial-decode gate applies to.
const GATED_PARTIAL: [CompressorId; 2] = [CompressorId::Szx, CompressorId::Zfp];

/// One codec's row of the report (all bandwidths in MB/s of raw
/// samples produced; zero marks an arm the codec does not have).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct CodecResult {
    codec: String,
    raw_mb: f64,
    compressed_mb: f64,
    fast_mbps: f64,
    reference_mbps: f64,
    speedup: f64,
    partial_mbps: f64,
    partial_fraction: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct Report {
    scale: String,
    eps: f64,
    results: Vec<CodecResult>,
}

/// Best-of-`reps` wall time of `f`, after one unmeasured warm-up.
fn best_secs(mut f: impl FnMut(), reps: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The frozen reference-decoder chain for codecs that carry one.
fn reference_chain(id: CompressorId) -> Option<CodecChain> {
    match id {
        CompressorId::Sz2 => Some(CodecChain::around(Box::new(Sz2::reference_decoder()))),
        CompressorId::Sz3 => Some(CodecChain::around(Box::new(Sz3::reference_decoder()))),
        CompressorId::Qoz => Some(CodecChain::around(Box::new(Qoz::reference_decoder()))),
        _ => None,
    }
}

fn main() {
    let scale = scale_from_env();
    let reps = env_usize("EBLCIO_DECODE_REPS", 3);
    let gate = std::env::var("EBLCIO_DECODE_GATE").is_ok_and(|v| v == "1");

    let data = DatasetSpec::new(DatasetKind::Nyx, scale).generate();
    let arr = match &data {
        Dataset::F32(a) => a,
        Dataset::F64(_) => unreachable!("NYX is single precision"),
    };
    let raw_mb = arr.nbytes() as f64 / 1e6;
    // The partial-decode workload: a slab of 1/8 of the leading
    // dimension (full cross-section), offset into the interior — the
    // sub-volume read pattern partial decode is built for, and one
    // whose flat index span matches its sample count.
    let dims = arr.shape().dims().to_vec();
    let origin: Vec<usize> = dims.iter().enumerate().map(|(d, &n)| if d == 0 { n / 4 } else { 0 }).collect();
    let extent: Vec<usize> = dims
        .iter()
        .enumerate()
        .map(|(d, &n)| if d == 0 { (n / 8).max(1) } else { n })
        .collect();
    let region_samples: usize = extent.iter().product();

    let mut table = TextTable::new(&[
        "codec",
        "raw_MB",
        "comp_MB",
        "fast_MBps",
        "ref_MBps",
        "speedup",
        "partial_MBps",
        "partial_frac",
    ]);
    let mut results = Vec::new();
    for id in CompressorId::ALL {
        let codec = id.instance();
        let stream = compress(codec.as_ref(), arr, ErrorBound::Relative(EPS)).expect("compress");
        let fast_s = best_secs(
            || {
                let a: NdArray<f32> = decompress(codec.as_ref(), &stream).expect("decode");
                std::hint::black_box(a);
            },
            reps,
        );
        let fast_mbps = raw_mb / fast_s;

        let (reference_mbps, speedup) = match reference_chain(id) {
            Some(reference) => {
                let ref_s = best_secs(
                    || {
                        let a: NdArray<f32> =
                            decompress(&reference, &stream).expect("reference decode");
                        std::hint::black_box(a);
                    },
                    reps,
                );
                (raw_mb / ref_s, ref_s / fast_s)
            }
            None => (0.0, 0.0),
        };

        // The partial arm decodes 1/8 of the samples; its bandwidth is
        // the *regional* raw bytes over the regional wall time, so a
        // value above `fast_mbps` means sub-linear cost in region size.
        let supports_partial = decompress_region::<f32>(codec.as_ref(), &stream, &origin, &extent)
            .expect("probe region")
            .is_some();
        let (partial_mbps, partial_fraction) = if supports_partial {
            let partial_s = best_secs(
                || {
                    let a = decompress_region::<f32>(codec.as_ref(), &stream, &origin, &extent)
                        .expect("region decode")
                        .expect("partial support");
                    std::hint::black_box(a);
                },
                reps,
            );
            (
                region_samples as f64 * 4.0 / 1e6 / partial_s,
                region_samples as f64 / arr.len() as f64,
            )
        } else {
            (0.0, 0.0)
        };

        table.row(vec![
            id.name().into(),
            format!("{raw_mb:.2}"),
            format!("{:.2}", stream.len() as f64 / 1e6),
            format!("{fast_mbps:.1}"),
            format!("{reference_mbps:.1}"),
            format!("{speedup:.2}"),
            format!("{partial_mbps:.1}"),
            format!("{partial_fraction:.3}"),
        ]);
        results.push(CodecResult {
            codec: id.name().to_string(),
            raw_mb,
            compressed_mb: stream.len() as f64 / 1e6,
            fast_mbps,
            reference_mbps,
            speedup,
            partial_mbps,
            partial_fraction,
        });
    }

    table.print("decode_bandwidth: fast vs reference decoders, partial-region arm");

    // Gate before writing, so a local gate run compares against the
    // checked-in baseline rather than its own fresh output.
    let baseline_path = std::env::var("EBLCIO_DECODE_BASELINE")
        .unwrap_or_else(|_| "bench_results/decode_bandwidth.json".into());
    let baseline: Option<Report> = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let mut failures = Vec::new();
    if gate {
        for r in &results {
            let id_gated = GATED_SPEEDUP.iter().any(|id| id.name() == r.codec);
            if id_gated && r.speedup < GATE_MIN_SPEEDUP {
                failures.push(format!(
                    "{}: fast/reference speedup {:.2} below the {GATE_MIN_SPEEDUP}x floor",
                    r.codec, r.speedup
                ));
            }
            if id_gated {
                if let Some(base) = baseline.as_ref().and_then(|b| {
                    b.results.iter().find(|br| br.codec == r.codec)
                }) {
                    if r.speedup < base.speedup * GATE_BASELINE_FRACTION {
                        failures.push(format!(
                            "{}: speedup {:.2} collapsed below {:.0}% of baseline {:.2}",
                            r.codec,
                            r.speedup,
                            GATE_BASELINE_FRACTION * 100.0,
                            base.speedup
                        ));
                    }
                    println!(
                        "baseline {}: speedup {:.2} -> {:.2}",
                        r.codec, base.speedup, r.speedup
                    );
                }
            }
            if GATED_PARTIAL.iter().any(|id| id.name() == r.codec) {
                // Decoding 1/8 of the array must cost less than the
                // whole array: regional MB/s over the 1/8 fraction
                // beats full MB/s exactly when partial_s < fast_s.
                let partial_s = r.partial_fraction * r.raw_mb / r.partial_mbps;
                let full_s = r.raw_mb / r.fast_mbps;
                if partial_s >= full_s {
                    failures.push(format!(
                        "{}: partial decode ({partial_s:.4}s) not cheaper than full ({full_s:.4}s)",
                        r.codec
                    ));
                }
            }
        }
    }

    let report = Report {
        scale: format!("{scale:?}"),
        eps: EPS,
        results,
    };
    if let Ok(path) = table.write_csv("decode_bandwidth") {
        println!("\ncsv: {}", path.display());
    }
    let json_path = results_dir().join("decode_bandwidth.json");
    std::fs::write(
        &json_path,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write json");
    println!("json: {}", json_path.display());

    if eblcio_obs::enabled() {
        println!("\n-- per-stage codec metrics --");
        print!("{}", eblcio_obs::report(eblcio_obs::global()));
    }

    if gate {
        if failures.is_empty() {
            println!("\ndecode gate: PASS");
        } else {
            for f in &failures {
                eprintln!("decode gate FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
