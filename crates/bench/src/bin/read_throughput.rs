//! Read-serving throughput study for the `eblcio_serve` subsystem:
//! what the decoded-chunk cache, single-flight decode, and parallel
//! region assembly buy on a repeated-region workload.
//!
//! Three phases over one sharded NYX-like store:
//!
//! * **cold** — a fresh reader sweeps disjoint slabs once each: every
//!   chunk decodes exactly once, the floor any reader pays,
//! * **uncached vs warm** — the same repeated overlapping-region
//!   workload through a reader whose cache cannot hold anything versus
//!   one with a real budget; the warm/uncached ratio is the headline
//!   (expected well above 5× — a warm read is a memcpy, an uncached
//!   one is a decompression),
//! * **concurrent clients** — 1/2/4/8 client threads replay the
//!   uncached and warm workloads through one shared reader; served MB/s
//!   should grow with clients until the decode (uncached) or memory
//!   (warm) bandwidth of the machine saturates. On a single-core
//!   container the aggregate necessarily stays flat — flat-not-falling
//!   is the signal there, since it means the concurrency machinery adds
//!   no serialization of its own.
//!
//! Knobs (environment): `EBLCIO_SCALE` = tiny|small|paper (array size),
//! `EBLCIO_READ_REPEAT` (passes per region, default 8),
//! `EBLCIO_CACHE_MB` (warm cache budget, default 256),
//! `EBLCIO_READ_CODEC` = sz2|sz3|zfp|qoz|szx (default sz3 — the
//! representative SZ-family decode cost; szx decodes so fast the warm
//! path is bounded by memcpy instead of the cache),
//! `EBLCIO_READ_BACKEND` = memory|object (place the store on a
//! `Storage` backend and open readers through it; `object` additionally
//! prints the simulated object-store bill — one GET per reader open,
//! since readers serve from their snapshot).
//!
//! Every row reports the p50/p99 of that phase's per-request latency
//! histogram (`eblcio_serve_request_ns`, snapshot deltas isolate the
//! phase). `EBLCIO_METRICS=1` additionally prints the warm reader's
//! full percentile report and the process-wide registry at the end.

use eblcio_bench::{env_usize, scale_from_env, TextTable};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{Dataset, DatasetKind, DatasetSpec, Shape};
use eblcio_obs::HistogramSnapshot;
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::storage::{
    MemoryStorage, ObjectCostModel, SimulatedObjectStorage, Storage,
};
use eblcio_store::{ChunkedStore, Region};
use std::sync::Arc;
use std::time::Instant;

const STORE_KEY: &str = "nyx.ebcs";

/// The optional storage backend readers open through.
struct ReadBackend {
    storage: Arc<dyn Storage>,
    sim: Option<Arc<SimulatedObjectStorage>>,
    name: String,
}

fn backend_from_env(stream: &[u8]) -> Option<ReadBackend> {
    let name = std::env::var("EBLCIO_READ_BACKEND").ok()?;
    let (storage, sim): (Arc<dyn Storage>, _) = match name.as_str() {
        "memory" | "mem" => (Arc::new(MemoryStorage::new()), None),
        "object" => {
            let sim = Arc::new(SimulatedObjectStorage::in_memory(ObjectCostModel::default()));
            (sim.clone() as Arc<dyn Storage>, Some(sim))
        }
        other => panic!("unknown EBLCIO_READ_BACKEND '{other}' (expected memory|object)"),
    };
    storage.set(STORE_KEY, stream).expect("seed backend");
    if let Some(sim) = &sim {
        sim.reset_stats(); // the seeding PUT is setup, not workload
    }
    Some(ReadBackend { storage, sim, name })
}

const EPS: f64 = 1e-3;
const THREADS: usize = 8;
const CHUNKS_PER_SHARD: usize = 8;

/// Overlapping interior boxes stepping along dimension 0 — each region
/// shares chunks with its neighbours, the shape of an analysis sweep.
fn workload(shape: Shape) -> Vec<Region> {
    let d0 = shape.dim(0);
    let step = (d0 / 8).max(1);
    let len = (d0 / 3).max(1);
    let rest: Vec<usize> = (1..shape.rank()).map(|d| shape.dim(d)).collect();
    let mut out = Vec::new();
    let mut start = 0;
    while start + len <= d0 {
        let mut origin = vec![start];
        origin.extend(std::iter::repeat_n(0, rest.len()));
        let mut extent = vec![len];
        extent.extend(rest.iter().copied());
        out.push(Region::new(&origin, &extent));
        start += step;
    }
    out
}

/// Replays `repeat` passes of the workload through `reader` across
/// `clients` threads, returning (seconds, bytes served).
fn replay(
    reader: &ArrayReader<f32>,
    regions: &[Region],
    repeat: usize,
    clients: usize,
) -> (f64, u64) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            s.spawn(move || {
                for pass in 0..repeat {
                    for i in 0..regions.len() {
                        // Stagger clients so they collide on hot chunks
                        // mid-flight rather than in lockstep.
                        let r = &regions[(i + c + pass) % regions.len()];
                        reader.read_region(r).expect("serve");
                    }
                }
            });
        }
    });
    let bytes: u64 = regions.iter().map(|r| r.len() as u64 * 4).sum::<u64>()
        * repeat as u64
        * clients as u64;
    (t0.elapsed().as_secs_f64(), bytes)
}

/// The reader's per-request latency histogram snapshot
/// (`eblcio_serve_request_ns` in its private registry).
fn request_snapshot(reader: &ArrayReader<f32>) -> HistogramSnapshot {
    reader
        .metrics()
        .histogram("eblcio_serve_request_ns")
        .snapshot()
}

/// p50/p99 of a per-request latency snapshot, in milliseconds.
fn pcts_ms(h: &HistogramSnapshot) -> (String, String) {
    (
        format!("{:.3}", h.value_at_quantile(0.5) as f64 / 1e6),
        format!("{:.3}", h.value_at_quantile(0.99) as f64 / 1e6),
    )
}

fn main() {
    let scale = scale_from_env();
    let repeat = env_usize("EBLCIO_READ_REPEAT", 8);
    let cache_mb = env_usize("EBLCIO_CACHE_MB", 256);

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
    let codec_name = std::env::var("EBLCIO_READ_CODEC").unwrap_or_else(|_| "sz3".into());
    let codec = CompressorId::ALL
        .iter()
        .find(|id| id.name().eq_ignore_ascii_case(&codec_name))
        .unwrap_or_else(|| panic!("unknown EBLCIO_READ_CODEC '{codec_name}'"))
        .instance();
    let stream = ChunkedStore::write_sharded(
        codec.as_ref(),
        arr,
        ErrorBound::Relative(EPS),
        chunk_shape,
        CHUNKS_PER_SHARD,
        THREADS,
    )
    .expect("write_sharded");
    let store = ChunkedStore::open(&stream).expect("open");
    let backend = backend_from_env(&stream);
    let open_reader = |config: ReaderConfig| -> ArrayReader<f32> {
        match &backend {
            Some(b) => {
                ArrayReader::<f32>::open_from(&*b.storage, STORE_KEY, config).expect("reader")
            }
            None => ArrayReader::<f32>::open(&stream, config).expect("reader"),
        }
    };
    println!(
        "store: NYX {shape}, {} chunks in {} shards, {} B compressed, repeat {repeat}{}\n",
        store.n_chunks(),
        store.sharding().map_or(0, |t| t.n_shards()),
        stream.len(),
        match &backend {
            Some(b) => format!(", backend {}", b.name),
            None => String::new(),
        },
    );
    let regions = workload(shape);

    let mut table = TextTable::new(&[
        "phase", "clients", "s", "MB/s", "hits", "decodes", "hit_rate", "decode_s", "decoded_MB",
        "p50_ms", "p99_ms",
    ]);

    // Cold sweep: disjoint slabs, fresh reader, one pass.
    let cold_reader = open_reader(ReaderConfig {
        cache: CacheConfig::with_capacity_mib(cache_mb),
        threads: THREADS,
        ..Default::default()
    });
    let cold_regions: Vec<Region> = (0..store.n_chunks())
        .step_by((store.n_chunks() / 8).max(1))
        .map(|i| store.grid().chunk_region(i))
        .collect();
    let t0 = Instant::now();
    for r in &cold_regions {
        cold_reader.read_region(r).expect("cold read");
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_bytes: u64 = cold_regions.iter().map(|r| r.len() as u64 * 4).sum();
    let cs = cold_reader.stats();
    let (p50, p99) = pcts_ms(&request_snapshot(&cold_reader));
    table.row(vec![
        "cold".into(),
        "1".into(),
        format!("{cold_s:.4}"),
        format!("{:.1}", cold_bytes as f64 / 1e6 / cold_s),
        cs.cache_hits.to_string(),
        cs.decodes.to_string(),
        format!("{:.2}", cs.hit_rate()),
        format!("{:.4}", cs.decode_seconds),
        format!("{:.1}", cs.decoded_bytes as f64 / 1e6),
        p50,
        p99,
    ]);

    // Uncached: a zero-budget cache decodes every chunk of every pass.
    // Per-request decode parallelism is pinned to 1 so the client count
    // is the concurrency axis — these rows are the decode-bound scaling
    // story (fresh reader per row; single-flight still lets colliding
    // clients share in-flight decodes). The warm speedup below is
    // measured against the *best* uncached row, so request-level
    // parallelism isn't being handicapped into the comparison.
    let mut best_uncached_mbps = 0.0f64;
    for clients in [1usize, 2, 4, 8] {
        let uncached = open_reader(ReaderConfig {
            cache: CacheConfig { capacity_bytes: 0, ways: 1 },
            threads: 1,
            ..Default::default()
        });
        let (s, bytes) = replay(&uncached, &regions, repeat, clients);
        best_uncached_mbps = best_uncached_mbps.max(bytes as f64 / 1e6 / s);
        let us = uncached.stats();
        let (p50, p99) = pcts_ms(&request_snapshot(&uncached));
        table.row(vec![
            "uncached".into(),
            clients.to_string(),
            format!("{s:.4}"),
            format!("{:.1}", bytes as f64 / 1e6 / s),
            us.cache_hits.to_string(),
            us.decodes.to_string(),
            format!("{:.2}", us.hit_rate()),
            format!("{:.4}", us.decode_seconds),
            format!("{:.1}", us.decoded_bytes as f64 / 1e6),
            p50,
            p99,
        ]);
    }

    // Warm + concurrency scaling through one shared reader.
    let warm = open_reader(ReaderConfig {
        cache: CacheConfig::with_capacity_mib(cache_mb),
        threads: THREADS,
        ..Default::default()
    });
    // Warming pass, unmeasured.
    let _ = replay(&warm, &regions, 1, 1);
    let mut warm_mbps = f64::NAN;
    for clients in [1usize, 2, 4, 8] {
        let before = warm.stats();
        let before_hist = request_snapshot(&warm);
        let (s, bytes) = replay(&warm, &regions, repeat, clients);
        if clients == 1 {
            warm_mbps = bytes as f64 / 1e6 / s;
        }
        let after = warm.stats();
        let (p50, p99) = pcts_ms(&request_snapshot(&warm).delta_from(&before_hist));
        table.row(vec![
            "warm".into(),
            clients.to_string(),
            format!("{s:.4}"),
            format!("{:.1}", bytes as f64 / 1e6 / s),
            (after.cache_hits - before.cache_hits).to_string(),
            (after.decodes - before.decodes).to_string(),
            format!("{:.2}", after.hit_rate()),
            format!("{:.4}", after.decode_seconds - before.decode_seconds),
            format!(
                "{:.1}",
                (after.decoded_bytes - before.decoded_bytes) as f64 / 1e6
            ),
            p50,
            p99,
        ]);
    }

    table.print(&format!(
        "read_throughput: cold vs uncached vs warm (sharded EBCS, {codec_name})"
    ));
    if let Ok(path) = table.write_csv("read_throughput") {
        println!("\ncsv: {}", path.display());
    }
    println!(
        "\nwarm speedup over best uncached row: {:.1}x (acceptance floor: 5x)",
        warm_mbps / best_uncached_mbps
    );
    let ws = warm.stats();
    println!(
        "warm reader totals: {} requests, {:.1}% hit rate, {} decodes, {} evictions",
        ws.requests,
        ws.hit_rate() * 100.0,
        ws.decodes,
        ws.evictions
    );
    if let Some(sim) = backend.as_ref().and_then(|b| b.sim.as_ref()) {
        let s = sim.stats();
        println!(
            "object store bill: {} GET ({:.2} MB down), {:.1} ms simulated, ${:.6} \
             — readers snapshot on open, so GETs stay flat no matter the workload",
            s.get_requests,
            s.bytes_downloaded as f64 / 1e6,
            s.simulated_seconds * 1e3,
            s.cost_usd,
        );
    }
    if eblcio_obs::enabled() {
        println!("\n-- warm reader metrics --");
        print!("{}", eblcio_obs::report(warm.metrics()));
        println!("\n-- process metrics --");
        print!("{}", eblcio_obs::report(eblcio_obs::global()));
    }
}
