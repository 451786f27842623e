//! `dump`: the paper's write-then-read-back cycle. NYX, HACC and S3D,
//! each written with each of the five codecs at relative ε = 1e-3 and
//! read back tile by tile, every tile checked against the bound. No
//! serve layer runs in the measured window.

use crate::cycle::{self, Energy, Field, Totals};
use crate::trace::Tracer;
use crate::util::{median, quantile, timed, Metrics};
use crate::{layers, serve, Outcome, RunConfig};
use eblcio_codec::CompressorId;
use eblcio_data::generators::Variable;
use eblcio_data::DatasetKind;
use eblcio_store::FilesystemStorage;
use std::time::Instant;

pub const FIELDS: [DatasetKind; 3] = [DatasetKind::Nyx, DatasetKind::Hacc, DatasetKind::S3d];

/// Passes (each all fields × all codecs) the window runs at least, so
/// the medians over passes have a middle.
pub const MIN_PASSES: usize = 3;

pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let energy = Energy::new();
    let err = |e: eblcio_codec::CodecError| e.to_string();
    let mut setup_s = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..cfg.setup_reps {
        fields.clear();
        let (f, secs) = timed(|| FIELDS.map(|k| Field::generate(k, Variable::Primary, cfg.seed)));
        fields = f.into();
        setup_s.push(secs);
    }
    let storage = FilesystemStorage::create(cfg.work_dir.join("dump")).map_err(err)?;

    // Per cycle type (field × codec), one entry per pass; per pass,
    // that pass's tile read latencies.
    let n_types = fields.len() * CompressorId::ALL.len();
    let mut per_type: Vec<Vec<Totals>> = vec![Vec::new(); n_types];
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut cycles = 0usize;
    let mut failed_cycles = 0u64;
    let mut reference = crate::util::Reference::new();
    let t0 = Instant::now();
    while passes.len() < cfg.min_passes.max(1) || t0.elapsed().as_secs_f64() < cfg.seconds {
        let mut tile_us = Vec::new();
        for (k, (f, id)) in fields
            .iter()
            .flat_map(|f| CompressorId::ALL.map(move |id| (f, id)))
            .enumerate()
        {
            cycles += 1;
            reference.sample();
            match cycle::run(f, id, &storage, &energy, tracer, cycles as u64, false) {
                Ok(c) => {
                    per_type[k].push(Totals::from(&c));
                    tile_us.extend(c.tile_s.iter().map(|s| s * 1e6));
                }
                Err(_) => failed_cycles += 1,
            }
        }
        tile_us.sort_by(f64::total_cmp);
        passes.push(tile_us);
    }
    let mut totals = Totals::default();
    for reps in &per_type {
        totals.merge(&Totals::median(reps));
    }
    let pass_p50: Vec<f64> = passes.iter().map(|v| quantile(v, 0.5)).collect();
    let pass_rate: Vec<f64> = passes
        .iter()
        .map(|v| v.len() as f64 / (v.iter().sum::<f64>() / 1e6))
        .collect();
    let mut pooled: Vec<f64> = passes.concat();
    pooled.sort_by(f64::total_cmp);

    let attempted = (cycles + totals.tiles) as u64;
    let failed = failed_cycles + totals.bad_tiles as u64;
    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setup_s), "s");
    e2e.push("req_p50_us", median(&pass_p50), "us");
    e2e.push("req_p99_us", quantile(&pooled, 0.99), "us");
    e2e.push("req_per_s", median(&pass_rate), "1/s");
    e2e.push(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    e2e.push("dump_MBps", totals.dump_mbps(), "MB/s");
    e2e.push("readback_MBps", totals.readback_mbps(), "MB/s");
    e2e.push("cr", totals.cr(), "ratio");
    e2e.push("dump_mJ_per_MB", totals.mj_per_mb(), "mJ/MB");
    e2e.push("peak_rss_MB", crate::util::peak_rss_mb(), "MB");

    let (reference_ms, ref_n) = reference.median_ms();
    let mut notes = vec![
        format!("reference work: median {reference_ms:.4} ms over {ref_n} rounds"),
        format!(
            "{} passes of {} fields x {} codecs = {cycles} cycles in {:.3} s; \
             MB/s and mJ/MB from each cycle's median pass, part by part and tile by tile",
            passes.len(),
            fields.len(),
            CompressorId::ALL.len(),
            t0.elapsed().as_secs_f64(),
        ),
        format!(
            "req_* are read-back tile reads: p50 and rate, medians over passes; \
             p99 over all {} tiles, {} beyond it",
            pooled.len(),
            pooled.len() - (pooled.len() as f64 * 0.99).ceil() as usize
        ),
        format!(
            "energy: compute {:.1} mJ/MB ({}), PFS write {:.3} mJ/MB, uncompressed PFS write {:.3} mJ/MB",
            totals.compute_j * 1e3 / (totals.raw / 1e6),
            energy.backend(),
            totals.pfs_j * 1e3 / (totals.raw / 1e6),
            totals.raw_pfs_j * 1e3 / (totals.raw / 1e6),
        ),
    ];

    let mut layer = Metrics::default();
    if tracer.enabled() {
        layer.push("host.reference_ms", reference_ms, "ms");
        let refs: Vec<&Field> = fields.iter().collect();
        crate::util::unpin();
        layers::probe(&refs, &cfg.work_dir, cfg.seed, &energy, tracer, &mut layer)?;
        serve::probe_on(&fields[0], &mut layer, tracer)?;
        notes.push("serve-layer metrics: the NYX SZ3 store's tiles over a loopback daemon".into());
    }
    Ok(Outcome {
        e2e,
        layer,
        attempted,
        failed,
        notes,
        hit_rate: f64::NAN,
        cycles,
        reference_ms,
        compute_share: totals.compute_share(),
    })
}
