//! The paper's write-then-read-back cycle on one field, shared by both
//! workloads: `ChunkedStore::write`, `Storage::set`, `Storage::get`,
//! `ChunkedStore::open_arc`, then `read_region` over tiles that cover
//! the array, each checked against the error bound. `dump` runs it
//! fifteen times per pass. `serve-hot` runs it in each set-up, to build
//! and validate the store it serves, and between segments of its
//! window, for its dump metrics.

use crate::trace::Tracer;
use crate::util::timed;
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::generators::{Scale, Variable};
use eblcio_data::{max_abs_error, Dataset, DatasetKind, DatasetSpec, Element, NdArray, Shape};
use eblcio_energy::{Activity, CpuGeneration, CpuProfile, MeterKind};
use eblcio_pfs::{IoRequest, PfsSim};
use eblcio_store::{gather, scatter_chunk, write_store, ChunkedStore, Region, Storage};
use std::sync::Arc;

/// Relative error bound of every store the benchmark writes.
pub const EPS: f64 = 1e-3;
/// The CPU whose power model prices compute and I/O energy.
pub const CPU: CpuGeneration = CpuGeneration::SapphireRapids9480;
/// Data-path efficiency of the simulated PFS write (HDF5-style).
pub const PFS_EFFICIENCY: f64 = 0.92;
/// Threads of every measured store write. One, not `nproc`: the
/// measured paths run pinned to one core (`util::pin_to_one_core`), and
/// on a 2-core VM shared with other tenants a write spread over both
/// cores waits for the slower one. The layer probe, unpinned, still
/// times `ChunkedStore::write` at `nproc` threads
/// (`store.<name>.write_MBps`).
pub const WRITE_THREADS: usize = 1;

/// One generated input array and the chunk shape its stores use.
pub struct Field {
    pub name: &'static str,
    pub data: Dataset,
    pub chunk: Shape,
}

impl Field {
    /// Generates `kind` at the small scale with a seed derived from the
    /// run's seed, chunked by splitting every axis of rank ≥ 2 in four
    /// (S3D keeps one time step per chunk) and 1-D arrays in 64.
    pub fn generate(kind: DatasetKind, variable: Variable, seed: u64) -> Self {
        let mut spec = DatasetSpec::new(kind, Scale::Small).with_variable(variable);
        spec.seed = crate::util::Rng::derive(seed, kind as u64 + 1).next_u64();
        let shape = spec.shape();
        let dims = shape.dims();
        let chunk: Vec<usize> = match dims.len() {
            1 => vec![dims[0].div_ceil(64)],
            4 => vec![1, dims[1] / 2, dims[2] / 2, dims[3] / 2],
            _ => dims.iter().map(|&d| d.div_ceil(4)).collect(),
        };
        Self {
            name: kind.name(),
            data: spec.generate(),
            chunk: Shape::new(&chunk),
        }
    }
}

/// What one cycle measured.
pub struct Cycle {
    pub raw_bytes: u64,
    pub stored_bytes: u64,
    pub write_s: f64,
    pub set_s: f64,
    pub get_s: f64,
    pub open_s: f64,
    /// Seconds of each tile's `read_region`, in tile order.
    pub tile_s: Vec<f64>,
    pub compute_j: f64,
    pub pfs_j: f64,
    pub raw_pfs_j: f64,
    /// Tiles whose read-back broke the error bound (or failed).
    pub bad_tiles: usize,
    pub store: ChunkedStore,
    /// The decoded array assembled from the tiles, when asked for.
    pub decoded: Option<Dataset>,
}

/// Energy models shared by every cycle of a run.
pub struct Energy {
    pub profile: CpuProfile,
    pub meter: MeterKind,
    pub pfs: PfsSim,
}

impl Energy {
    pub fn new() -> Self {
        let profile = CPU.profile();
        Self {
            meter: MeterKind::auto(profile),
            profile,
            pfs: PfsSim::testbed(),
        }
    }

    pub fn backend(&self) -> &'static str {
        self.meter.as_meter().backend()
    }

    /// PFS energy of writing `bytes` uncompressed: the baseline the
    /// paper compares compressed writes against.
    pub fn raw_write_j(&self, bytes: u64) -> f64 {
        let req = IoRequest {
            payload_bytes: bytes,
            meta_bytes: 0,
            ops: 1,
            efficiency: PFS_EFFICIENCY,
        };
        self.pfs.write(&req, &self.profile).cpu_energy.value()
    }
}

/// Runs one write-then-read-back cycle of `field` under `key`.
/// The store is written at [`WRITE_THREADS`] under a key naming the
/// field and codec.
pub fn run(
    field: &Field,
    codec: CompressorId,
    storage: &dyn Storage,
    energy: &Energy,
    tracer: &Tracer,
    request: u64,
    keep_decoded: bool,
) -> eblcio_codec::Result<Cycle> {
    let key = format!("{}-{}", field.name, codec.name()).to_lowercase();
    match &field.data {
        Dataset::F32(a) => run_typed(
            a,
            field,
            codec,
            storage,
            &key,
            energy,
            tracer,
            request,
            keep_decoded,
        ),
        Dataset::F64(a) => run_typed(
            a,
            field,
            codec,
            storage,
            &key,
            energy,
            tracer,
            request,
            keep_decoded,
        ),
    }
}

/// The array wrapped back into a [`Dataset`] of its own element type.
pub trait IntoDataset: Element {
    fn into_dataset(a: NdArray<Self>) -> Dataset;
}

impl IntoDataset for f32 {
    fn into_dataset(a: NdArray<f32>) -> Dataset {
        Dataset::F32(a)
    }
}

impl IntoDataset for f64 {
    fn into_dataset(a: NdArray<f64>) -> Dataset {
        Dataset::F64(a)
    }
}

/// The stream `ChunkedStore::write` produces for `data` with `codec`'s
/// preset chain.
pub fn write_store_stream<T: Element>(
    data: &NdArray<T>,
    chunk: Shape,
    codec: CompressorId,
    threads: usize,
) -> eblcio_codec::Result<Vec<u8>> {
    let bound = ErrorBound::Relative(EPS);
    ChunkedStore::write(codec.instance().as_ref(), data, bound, chunk, threads)
}

#[allow(clippy::too_many_arguments)]
fn run_typed<T: IntoDataset>(
    data: &NdArray<T>,
    field: &Field,
    codec: CompressorId,
    storage: &dyn Storage,
    key: &str,
    energy: &Energy,
    tracer: &Tracer,
    request: u64,
    keep_decoded: bool,
) -> eblcio_codec::Result<Cycle> {
    let threads = WRITE_THREADS;
    let root = tracer.begin();
    let rid = root.as_ref().map_or(0, |o| o.id);

    let mut stream = None;
    let m =
        energy
            .meter
            .as_meter()
            .measure(Activity::parallel_compute(threads as u32), &mut || {
                stream = Some(tracer.span("store.write", rid, request, || {
                    write_store_stream(data, field.chunk, codec, threads)
                }));
            });
    let stream = stream.ok_or(eblcio_codec::CodecError::Internal {
        context: "meter skipped the write",
    })??;
    let write_s = m.wall.value();

    let (set, set_s) =
        timed(|| tracer.span("storage.set", rid, request, || storage.set(key, &stream)));
    set?;
    let stored_bytes = stream.len() as u64;
    drop(stream);
    let (bytes, get_s) = timed(|| tracer.span("storage.get", rid, request, || storage.get(key)));
    let bytes: Arc<[u8]> = bytes?;
    let (store, open_s) = timed(|| {
        tracer.span("store.open_arc", rid, request, || {
            ChunkedStore::open_arc(bytes)
        })
    });
    let store = store?;

    let bound = store.abs_bound();
    let mut decoded = keep_decoded.then(|| NdArray::<T>::zeros(data.shape()));
    let mut tile_s = Vec::with_capacity(store.n_chunks());
    let mut bad_tiles = 0;
    for i in 0..store.n_chunks() {
        let tile = store.grid().chunk_region(i);
        let (part, secs) = timed(|| {
            tracer.span("store.read_region", rid, request, || {
                store.read_region::<T>(&tile)
            })
        });
        tile_s.push(secs);
        let Ok(part) = part else {
            bad_tiles += 1;
            continue;
        };
        if max_abs_error(&gather(data, &tile), &part) > bound {
            bad_tiles += 1;
        }
        if let Some(out) = decoded.as_mut() {
            scatter_chunk(&part, &tile, &Region::full(data.shape()), out);
        }
    }

    let raw_bytes = data.nbytes() as u64;
    let pfs_j = write_store(&energy.pfs, &store, PFS_EFFICIENCY, 1, &energy.profile)
        .cpu_energy
        .value();
    tracer.end(root, "cycle", 0, request);
    Ok(Cycle {
        raw_bytes,
        stored_bytes,
        write_s,
        set_s,
        get_s,
        open_s,
        tile_s,
        compute_j: m.total().value(),
        pfs_j,
        raw_pfs_j: energy.raw_write_j(raw_bytes),
        bad_tiles,
        store,
        decoded: decoded.map(T::into_dataset),
    })
}

/// The samples of `region` in `src`, as little-endian wire bytes.
pub fn region_le_bytes<T: Element>(src: &NdArray<T>, region: &Region) -> Vec<u8> {
    let part = gather(src, region);
    let mut out = Vec::with_capacity(part.len() * T::BYTES);
    for &v in part.as_slice() {
        v.write_le(&mut out);
    }
    out
}

/// Sum of several cycles: the figures the end-to-end metrics divide.
/// Times are kept per part of the cycle, and per tile, so repeats of a
/// cycle can be combined part by part.
#[derive(Default, Debug, Clone)]
pub struct Totals {
    pub raw: f64,
    pub stored: f64,
    pub write_s: f64,
    pub set_s: f64,
    pub get_s: f64,
    pub open_s: f64,
    /// Seconds of each tile's `read_region`.
    pub tile_s: Vec<f64>,
    pub compute_j: f64,
    pub pfs_j: f64,
    pub raw_pfs_j: f64,
    pub bad_tiles: usize,
    /// Tiles read, over every repeat.
    pub tiles: usize,
}

impl From<&Cycle> for Totals {
    fn from(c: &Cycle) -> Self {
        Self {
            raw: c.raw_bytes as f64,
            stored: c.stored_bytes as f64,
            write_s: c.write_s,
            set_s: c.set_s,
            get_s: c.get_s,
            open_s: c.open_s,
            tile_s: c.tile_s.clone(),
            compute_j: c.compute_j,
            pfs_j: c.pfs_j,
            raw_pfs_j: c.raw_pfs_j,
            bad_tiles: c.bad_tiles,
            tiles: c.tile_s.len(),
        }
    }
}

impl Totals {
    /// Adds another cycle's figures (a different field or codec).
    pub fn merge(&mut self, o: &Totals) {
        self.raw += o.raw;
        self.stored += o.stored;
        self.write_s += o.write_s;
        self.set_s += o.set_s;
        self.get_s += o.get_s;
        self.open_s += o.open_s;
        self.tile_s.extend_from_slice(&o.tile_s);
        self.compute_j += o.compute_j;
        self.pfs_j += o.pfs_j;
        self.raw_pfs_j += o.raw_pfs_j;
        self.bad_tiles += o.bad_tiles;
        self.tiles += o.tiles;
    }

    /// Repeats of the same cycle combined part by part, and tile by
    /// tile: each time is the median of that part's times across the
    /// repeats, so one repeat caught in a slow or fast spell of a shared
    /// host does not move it. Byte counts and modeled PFS energy are the
    /// same in every repeat; failures and tiles are counted over all of
    /// them.
    pub fn median(reps: &[Totals]) -> Totals {
        let of = |f: &dyn Fn(&Totals) -> f64| {
            crate::util::median(&reps.iter().map(f).collect::<Vec<_>>())
        };
        let mut out = reps.first().cloned().unwrap_or_default();
        out.write_s = of(&|t| t.write_s);
        out.set_s = of(&|t| t.set_s);
        out.get_s = of(&|t| t.get_s);
        out.open_s = of(&|t| t.open_s);
        out.compute_j = of(&|t| t.compute_j);
        for (i, s) in out.tile_s.iter_mut().enumerate() {
            *s = of(&|t| t.tile_s.get(i).copied().unwrap_or(f64::NAN));
        }
        out.bad_tiles = reps.iter().map(|t| t.bad_tiles).sum();
        out.tiles = reps.iter().map(|t| t.tiles).sum();
        out
    }

    pub fn dump_s(&self) -> f64 {
        self.write_s + self.set_s
    }

    pub fn readback_s(&self) -> f64 {
        self.get_s + self.open_s + self.tile_s.iter().sum::<f64>()
    }

    pub fn dump_mbps(&self) -> f64 {
        self.raw / 1e6 / self.dump_s()
    }

    pub fn readback_mbps(&self) -> f64 {
        self.raw / 1e6 / self.readback_s()
    }

    pub fn cr(&self) -> f64 {
        self.raw / self.stored
    }

    /// Share of the modeled energy that is compute energy.
    pub fn compute_share(&self) -> f64 {
        self.compute_j / (self.compute_j + self.pfs_j)
    }

    /// Modeled compute plus PFS write energy per raw MB.
    pub fn mj_per_mb(&self) -> f64 {
        (self.compute_j + self.pfs_j) * 1e3 / (self.raw / 1e6)
    }
}
