//! Codec, store, storage, energy and PFS layer metrics for a set of
//! fields: per codec, a serial `compress`, a `ChunkedStore::write` at
//! `nproc` threads, `Storage::set`/`get`, `decode_chunk` of every
//! chunk and, for SZx and ZFP, `decode_chunk_region` of a box an
//! eighth of each chunk or less.

use crate::cycle::{write_store_stream, Energy, Field, IntoDataset, EPS, PFS_EFFICIENCY};
use crate::trace::Tracer;
use crate::util::{nproc, timed, Metrics, Rng};
use eblcio_codec::{compress, Compressor, CompressorId, ErrorBound};
use eblcio_data::{Dataset, NdArray};
use eblcio_energy::Activity;
use eblcio_store::{write_store, ChunkedStore, FilesystemStorage, Region, Storage};
use std::path::Path;

/// Byte and second sums for one codec across the fields.
#[derive(Default)]
struct Sums {
    raw: f64,
    encode_s: f64,
    write_s: f64,
    stored: f64,
    decoded: f64,
    decode_s: f64,
    part: f64,
    part_s: f64,
    partial_misses: usize,
}

/// Totals across codecs for the storage, energy and PFS metrics.
#[derive(Default)]
struct Io {
    raw: f64,
    stored: f64,
    set_s: f64,
    get_s: f64,
    compute_j: f64,
    pfs_j: f64,
    raw_pfs_j: f64,
}

pub fn probe(
    fields: &[&Field],
    work_dir: &Path,
    seed: u64,
    energy: &Energy,
    tracer: &Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let storage = FilesystemStorage::create(work_dir.join("layers")).map_err(|e| e.to_string())?;
    let mut io = Io::default();
    let mut rng = Rng::derive(seed, 0x1A7E);
    for id in CompressorId::ALL {
        let codec = id.instance();
        let mut sums = Sums::default();
        for (k, f) in fields.iter().enumerate() {
            let key = format!("probe-{}-{k}", f.name.to_lowercase());
            match &f.data {
                Dataset::F32(a) => one::<f32>(
                    a,
                    f,
                    id,
                    codec.as_ref(),
                    &storage,
                    &key,
                    energy,
                    tracer,
                    &mut rng,
                    &mut sums,
                    &mut io,
                ),
                Dataset::F64(a) => one::<f64>(
                    a,
                    f,
                    id,
                    codec.as_ref(),
                    &storage,
                    &key,
                    energy,
                    tracer,
                    &mut rng,
                    &mut sums,
                    &mut io,
                ),
            }?;
            let _ = storage.erase(&key);
        }
        let n = id.name().to_lowercase();
        m.push(
            format!("codec.{n}.encode_MBps"),
            sums.raw / 1e6 / sums.encode_s,
            "MB/s",
        );
        m.push(
            format!("codec.{n}.decode_MBps"),
            sums.decoded / 1e6 / sums.decode_s,
            "MB/s",
        );
        if matches!(id, CompressorId::Szx | CompressorId::Zfp) {
            if sums.partial_misses > 0 {
                return Err(format!(
                    "{n}: {} chunks refused a partial decode",
                    sums.partial_misses
                ));
            }
            m.push(
                format!("codec.{n}.partial_decode_MBps"),
                sums.part / 1e6 / sums.part_s,
                "MB/s",
            );
        }
        m.push(
            format!("store.{n}.write_MBps"),
            sums.raw / 1e6 / sums.write_s,
            "MB/s",
        );
        m.push(format!("store.{n}.cr"), sums.raw / sums.stored, "ratio");
        m.push(format!("store.{n}.bytes"), sums.stored, "B");
    }
    m.push("storage.set_MBps", io.stored / 1e6 / io.set_s, "MB/s");
    m.push("storage.get_MBps", io.stored / 1e6 / io.get_s, "MB/s");
    let per_mb = |j: f64| j * 1e3 / (io.raw / 1e6);
    m.push("energy.compute_mJ_per_MB", per_mb(io.compute_j), "mJ/MB");
    m.push("pfs.write_mJ_per_MB", per_mb(io.pfs_j), "mJ/MB");
    m.push("pfs.raw_write_mJ_per_MB", per_mb(io.raw_pfs_j), "mJ/MB");
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn one<T: IntoDataset>(
    data: &NdArray<T>,
    field: &Field,
    id: CompressorId,
    codec: &dyn Compressor,
    storage: &dyn Storage,
    key: &str,
    energy: &Energy,
    tracer: &Tracer,
    rng: &mut Rng,
    sums: &mut Sums,
    io: &mut Io,
) -> Result<(), String> {
    let err = |e: eblcio_codec::CodecError| e.to_string();
    let raw = data.nbytes() as f64;
    let (serial, s) = timed(|| {
        tracer.span("codec.compress", 0, 0, || {
            compress(codec, data, ErrorBound::Relative(EPS))
        })
    });
    serial.map_err(err)?;
    sums.encode_s += s;
    sums.raw += raw;

    let threads = nproc();
    let mut stream = None;
    let meas =
        energy
            .meter
            .as_meter()
            .measure(Activity::parallel_compute(threads as u32), &mut || {
                stream = Some(tracer.span("store.write", 0, 0, || {
                    write_store_stream(data, field.chunk, id, threads)
                }));
            });
    let stream = stream.ok_or("meter skipped the write")?.map_err(err)?;
    sums.write_s += meas.wall.value();
    sums.stored += stream.len() as f64;

    let (set, s) = timed(|| tracer.span("storage.set", 0, 0, || storage.set(key, &stream)));
    set.map_err(err)?;
    io.set_s += s;
    let (bytes, s) = timed(|| tracer.span("storage.get", 0, 0, || storage.get(key)));
    let bytes = bytes.map_err(err)?;
    io.get_s += s;
    io.stored += bytes.len() as f64;
    let store = ChunkedStore::open_arc(bytes).map_err(err)?;
    io.raw += raw;
    io.compute_j += meas.total().value();
    io.pfs_j += write_store(&energy.pfs, &store, PFS_EFFICIENCY, 1, &energy.profile)
        .cpu_energy
        .value();
    io.raw_pfs_j += energy.raw_write_j(data.nbytes() as u64);

    let partial = matches!(id, CompressorId::Szx | CompressorId::Zfp);
    for i in 0..store.n_chunks() {
        let (chunk, s) = timed(|| {
            tracer.span("codec.decode_chunk", 0, i as u64, || {
                store.decode_chunk::<T>(codec, i)
            })
        });
        sums.decoded += chunk.map_err(err)?.nbytes() as f64;
        sums.decode_s += s;
        if partial {
            let b = small_box(&store.grid().chunk_region(i), rng);
            let (part, s) = timed(|| {
                tracer.span("codec.decode_chunk_region", 0, i as u64, || {
                    store.decode_chunk_region::<T>(codec, i, &b)
                })
            });
            match part.map_err(err)? {
                Some((p, _)) => {
                    sums.part += p.nbytes() as f64;
                    sums.part_s += s;
                }
                None => sums.partial_misses += 1,
            }
        }
    }
    Ok(())
}

/// A seeded box inside `chunk` holding at most a sixteenth of it, so
/// the store's partial-decode rule (an eighth or less) always admits it.
fn small_box(chunk: &Region, rng: &mut Rng) -> Region {
    let mut ext = chunk.extent().to_vec();
    while ext.iter().product::<usize>() * 16 > chunk.len() {
        match ext.iter_mut().max() {
            Some(d) if *d > 1 => *d /= 2,
            _ => break,
        }
    }
    let origin: Vec<usize> = chunk
        .origin()
        .iter()
        .zip(chunk.extent())
        .zip(&ext)
        .map(|((&o, &c), &e)| o + rng.below(c - e + 1))
        .collect();
    Region::new(&origin, &ext)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_boxes_fit_and_qualify() {
        let mut rng = Rng::derive(3, 0);
        for chunk in [
            Region::new(&[0, 32, 32, 0], &[1, 32, 32, 32]),
            Region::new(&[31250], &[31250]),
            Region::new(&[32, 0, 64], &[32, 32, 32]),
        ] {
            for _ in 0..50 {
                let b = small_box(&chunk, &mut rng);
                assert!(b.len() * 16 <= chunk.len());
                assert_eq!(chunk.intersect(&b).map(|r| r.len()), Some(b.len()));
            }
        }
    }
}
