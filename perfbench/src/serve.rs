//! `serve-hot`: an in-process daemon on loopback serving one warm store
//! to a closed-loop `DaemonClient` connection. Every reply is compared
//! bit for bit with the decoded reference that the set-up cycle
//! assembled through `ChunkedStore::read_region`.

use crate::cycle::{self, Cycle, Energy, Field, Totals};
use crate::layers;
use crate::trace::Tracer;
use crate::util::{median, nproc, quantile, timed, Metrics, Rng};
use crate::{Outcome, RunConfig};
use eblcio_codec::CompressorId;
use eblcio_daemon::{
    AnyReader, ArrayData, Daemon, DaemonClient, DaemonConfig, RegionSpec, Reply, Request,
};
use eblcio_data::generators::Variable;
use eblcio_data::{Dataset, DatasetKind, Element, NdArray, Shape};
use eblcio_serve::{ArrayReader, ReaderConfig, ReaderStats};
use eblcio_store::{ChunkedStore, FilesystemStorage, Region};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct hot regions; all of them stay cached after warm-up.
const HOT_POOL: usize = 64;
/// Hot region: four z-planes of the 128³ cube, 256 KiB of f32.
const HOT_PLANES: usize = 4;
/// Closed-loop connections. `DaemonClient` is synchronous, so one
/// connection keeps one request in flight and the load needs one core
/// at a time.
pub const CONNECTIONS: usize = 1;
/// Length of the window slices whose medians the latency and rate
/// metrics report: a few thousand replies each.
const SLICE_S: f64 = 1.0;
/// Seconds of serving between two store cycles.
const SEGMENT_S: f64 = 2.0;
/// The served store: NYX's velocity, not its baryon density. The
/// density's value range is set by one log-normal peak, so its SZ3 CR
/// moved 760–2370 across ten seeds, while the velocity's stays at
/// 5.6–6.5. The codec does no work on hot requests either way.
const VARIABLE: Variable = Variable::Velocity;
const CODEC: CompressorId = CompressorId::Sz3;
/// Requests each bench-side layer replay sends at most.
const REPLAY_MAX: usize = 2000;
/// Seconds each layer replay may take (at least `REPLAY_MIN` requests).
const REPLAY_BUDGET_S: f64 = 2.0;
const REPLAY_MIN: usize = 32;

/// A seeded pool of regions and each one's expected wire bytes, shared
/// by the load generator and the bench-side replays so both see the
/// same sequence.
pub struct Requests {
    pool: Vec<(Region, Vec<u8>)>,
}

impl Requests {
    fn new(field: &Field, reference: &Dataset, seed: u64) -> Self {
        let shape = field.data.shape();
        let dims = shape.dims();
        let mut rng = Rng::derive(seed, 0x407);
        let pool = (0..HOT_POOL)
            .map(|_| {
                let z = rng.below(dims[0] - HOT_PLANES + 1);
                let region = Region::new(&[z, 0, 0], &[HOT_PLANES, dims[1], dims[2]]);
                let expected = match reference {
                    Dataset::F32(a) => cycle::region_le_bytes(a, &region),
                    Dataset::F64(a) => cycle::region_le_bytes(a, &region),
                };
                (region, expected)
            })
            .collect();
        Self { pool }
    }

    /// The request stream of connection `conn`.
    fn stream(seed: u64, conn: usize) -> Rng {
        Rng::derive(seed, 0x1000 + conn as u64)
    }

    /// Next request: a pool index and its region.
    fn next(&self, rng: &mut Rng) -> (usize, Region) {
        let i = rng.below(self.pool.len());
        (i, self.pool[i].0)
    }

    /// Whether a reply carries exactly the reference samples of pool
    /// entry `id`.
    fn check(&self, id: usize, reply: &ArrayData) -> bool {
        let Some((region, expected)) = self.pool.get(id) else {
            return false;
        };
        reply
            .dims
            .iter()
            .map(|&d| d as usize)
            .eq(region.extent().iter().copied())
            && reply.bytes == *expected
    }
}

/// One set-up: data, store cycle, daemon, warm-up.
struct Served {
    field: Field,
    cycle: Cycle,
    config: ReaderConfig,
    requests: Requests,
    daemon: Daemon,
    warm: Vec<Region>,
}

fn setup(seed: u64, dir: &Path, energy: &Energy, tracer: &Tracer) -> eblcio_daemon::Result<Served> {
    let field = Field::generate(DatasetKind::Nyx, VARIABLE, seed);
    let storage = FilesystemStorage::create(dir)?;
    let cycle = cycle::run(&field, CODEC, &storage, energy, tracer, 0, true)?;
    if cycle.bad_tiles > 0 {
        return Err(eblcio_daemon::DaemonError::Decode(
            "set-up read-back broke the error bound",
        ));
    }
    let reference = cycle
        .decoded
        .as_ref()
        .ok_or(eblcio_daemon::DaemonError::Decode(
            "set-up kept no reference",
        ))?;
    let config = ReaderConfig::default();
    let requests = Requests::new(&field, reference, seed);
    let reader = AnyReader::over(cycle.store.clone(), config)?;
    let daemon = Daemon::start(reader, DaemonConfig::default(), "127.0.0.1:0")?;

    // Warm-up reads every chunk once, so every later request hits.
    let warm: Vec<Region> = (0..cycle.store.n_chunks())
        .map(|i| cycle.store.grid().chunk_region(i))
        .collect();
    let mut client = DaemonClient::connect(daemon.local_addr())?;
    for r in &warm {
        client.read_region(&RegionSpec::from(r))?;
    }
    Ok(Served {
        field,
        cycle,
        config,
        requests,
        daemon,
        warm,
    })
}

/// What the closed loop saw.
pub struct Window {
    pub lat_us: Vec<f64>,
    /// (completion time into the window in s, latency in µs).
    pub timeline: Vec<(f64, f64)>,
    pub ok: u64,
    pub failed: u64,
    pub overloaded: u64,
    pub seconds: f64,
    pub stats: StatsDelta,
}

/// Differences of the daemon's `Stats` frame across the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    pub requests: f64,
    pub hits: f64,
    pub misses: f64,
    pub decodes: f64,
    pub partial: f64,
    pub flight_waits: f64,
    pub evictions: f64,
    pub decode_s: f64,
}

impl StatsDelta {
    fn between(a: &ReaderStats, b: &ReaderStats) -> Self {
        let d = |x: u64, y: u64| y.saturating_sub(x) as f64;
        Self {
            requests: d(a.requests, b.requests),
            hits: d(a.cache_hits, b.cache_hits),
            misses: d(a.cache_misses, b.cache_misses),
            decodes: d(a.decodes, b.decodes),
            partial: d(a.partial_decodes, b.partial_decodes),
            flight_waits: d(a.flight_waits, b.flight_waits),
            evictions: d(a.evictions, b.evictions),
            decode_s: b.decode_seconds - a.decode_seconds,
        }
    }

    pub fn hit_rate(&self) -> f64 {
        self.hits / (self.hits + self.misses).max(1.0)
    }

    pub fn push(&self, m: &mut Metrics) {
        let per_req = self.requests.max(1.0);
        m.push("serve.hit_rate", self.hit_rate(), "ratio");
        m.push("serve.decodes_per_req", self.decodes / per_req, "1/req");
        m.push(
            "serve.partial_decode_rate",
            self.partial / (self.decodes + self.partial).max(1.0),
            "ratio",
        );
        m.push(
            "serve.flight_waits_per_req",
            self.flight_waits / per_req,
            "1/req",
        );
        m.push("serve.evictions_per_req", self.evictions / per_req, "1/req");
        m.push(
            "serve.decode_ms_per_req",
            self.decode_s * 1e3 / per_req,
            "ms/req",
        );
    }
}

/// Latency median and completion rate per window slice, and their
/// medians across slices: a neighbour's burst on a shared host moves
/// one slice, not the reported value.
struct Slices {
    p50: f64,
    rate: f64,
    count: usize,
    min_n: usize,
}

impl Slices {
    fn of(timeline: &[(f64, f64)], window_s: f64, slice_s: f64) -> Self {
        // A window shorter than one slice is a single slice.
        let count = ((window_s / slice_s).floor() as usize).max(1);
        let slice_s = if count == 1 { window_s } else { slice_s };
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); count];
        let mut span = vec![(f64::INFINITY, 0.0f64); count];
        for &(t, lat) in timeline {
            let i = (t / slice_s) as usize;
            if let (Some(v), Some(s)) = (per.get_mut(i), span.get_mut(i)) {
                v.push(lat);
                *s = (s.0.min(t), s.1.max(t));
            }
        }
        // Completions per second between a slice's first and last
        // reply, so the rate is measured, not a count per unit slice.
        let rates: Vec<f64> = per
            .iter()
            .zip(&span)
            .map(|(v, &(a, b))| (v.len().max(2) - 1) as f64 / (b - a).max(1e-9))
            .collect();
        let p50s: Vec<f64> = per.iter().map(|v| median(v)).collect();
        Self {
            p50: median(&p50s),
            rate: median(&rates),
            count,
            min_n: per.iter().map(Vec::len).min().unwrap_or(0),
        }
    }
}

/// One closed-loop connection: its socket, its request stream and the
/// (time, latency) of each reply.
type Lane = (DaemonClient, Rng, Vec<(f64, f64)>);

/// Runs `conns` closed-loop connections for `seconds` of serving, in
/// segments of `segment_s`; after each segment the connections pause
/// and `between` runs (the workload's store cycle), so those samples
/// spread across the whole run. The timeline counts serving time only.
#[allow(clippy::too_many_arguments)]
fn window(
    addr: SocketAddr,
    conns: usize,
    seconds: f64,
    segment_s: f64,
    seed: u64,
    requests: &Requests,
    tracer: &Tracer,
    mut between: impl FnMut(),
) -> eblcio_daemon::Result<Window> {
    let mut stats_client = DaemonClient::connect(addr)?;
    let before = stats_client.stats()?;
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let mut lanes: Vec<Lane> = (0..conns)
        .map(|c| {
            Ok((
                DaemonClient::connect(addr)?,
                Requests::stream(seed, c),
                Vec::with_capacity(1 << 16),
            ))
        })
        .collect::<eblcio_daemon::Result<_>>()?;
    let mut served = 0.0;
    let mut seq = 0u64;
    while served < seconds {
        let seg = segment_s.min(seconds - served);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seg);
        std::thread::scope(|s| {
            for (c, (client, rng, lat)) in lanes.iter_mut().enumerate() {
                let (ok, failed, overloaded) = (&ok, &failed, &overloaded);
                let base = (c as u64) << 40 | seq;
                s.spawn(move || {
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let (id, region) = requests.next(rng);
                        let spec = RegionSpec::from(&region);
                        let rid = base + n;
                        n += 1;
                        let root = tracer.begin();
                        let pid = root.as_ref().map_or(0, |o| o.id);
                        let rt0 = Instant::now();
                        let reply = tracer.span("daemon.client.read_region", pid, rid, || {
                            client.read_region(&spec)
                        });
                        let secs = rt0.elapsed().as_secs_f64();
                        match reply {
                            Ok(data) => {
                                lat.push((served + t0.elapsed().as_secs_f64(), secs * 1e6));
                                let good = tracer
                                    .span("bench.check", pid, rid, || requests.check(id, &data));
                                let counter = if good { ok } else { failed };
                                counter.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                if e.is_overloaded() {
                                    overloaded.fetch_add(1, Ordering::Relaxed);
                                }
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        tracer.end(root, "request", 0, rid);
                    }
                });
            }
        });
        served += t0.elapsed().as_secs_f64();
        seq += 1 << 20;
        between();
    }
    let after = stats_client.stats()?;
    let timeline: Vec<(f64, f64)> = lanes.into_iter().flat_map(|(_, _, l)| l).collect();
    let mut lat_us: Vec<f64> = timeline.iter().map(|&(_, l)| l).collect();
    lat_us.sort_by(f64::total_cmp);
    Ok(Window {
        lat_us,
        timeline,
        ok: ok.into_inner(),
        failed: failed.into_inner(),
        overloaded: overloaded.into_inner(),
        seconds: served,
        stats: StatsDelta::between(&before, &after),
    })
}

/// Runs `serve-hot`.
pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let energy = Energy::new();
    let mut setup_s = Vec::new();
    let mut served: Option<Served> = None;
    for rep in 0..cfg.setup_reps {
        // Stop the previous set-up's daemon and free its data first,
        // so set-ups never overlap in memory or CPU.
        if let Some(prev) = served.take() {
            prev.daemon.shutdown();
        }
        let dir = cfg.work_dir.join(format!("setup-{rep}"));
        let (s, secs) = timed(|| setup(cfg.seed, &dir, &energy, tracer));
        let s = s.map_err(|e| format!("set-up: {e}"))?;
        setup_s.push(secs);
        served = Some(s);
    }
    let s = served.ok_or("no set-up ran")?;
    let conns = CONNECTIONS.min(nproc());
    // The store cycle between window segments: the dump metrics of a
    // serve workload are the write-then-read-back cost of its store.
    let storage =
        FilesystemStorage::create(cfg.work_dir.join("cycles")).map_err(|e| e.to_string())?;
    let mut cycles = Vec::new();
    let mut cycle_errors = 0u64;
    let mut reference = crate::util::Reference::new();
    let w = window(
        s.daemon.local_addr(),
        conns,
        cfg.seconds,
        SEGMENT_S,
        cfg.seed,
        &s.requests,
        tracer,
        || {
            reference.sample();
            match cycle::run(&s.field, CODEC, &storage, &energy, tracer, 0, false) {
                Ok(c) => cycles.push(Totals::from(&c)),
                Err(_) => cycle_errors += 1,
            }
        },
    )
    .map_err(|e| format!("window: {e}"))?;
    let typical = Totals::median(&cycles);

    let n = w.lat_us.len();
    let sl = Slices::of(&w.timeline, w.seconds, SLICE_S);
    let attempted = w.ok + w.failed + (cycles.len() + typical.tiles) as u64 + cycle_errors;
    let failed = w.failed + typical.bad_tiles as u64 + cycle_errors;
    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setup_s), "s");
    e2e.push("req_p50_us", sl.p50, "us");
    e2e.push("req_p99_us", quantile(&w.lat_us, 0.99), "us");
    e2e.push("req_per_s", sl.rate, "1/s");
    e2e.push(
        "fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    e2e.push("dump_MBps", typical.dump_mbps(), "MB/s");
    e2e.push("readback_MBps", typical.readback_mbps(), "MB/s");
    e2e.push("cr", typical.cr(), "ratio");
    e2e.push("dump_mJ_per_MB", typical.mj_per_mb(), "mJ/MB");
    e2e.push("peak_rss_MB", crate::util::peak_rss_mb(), "MB");

    let (reference_ms, ref_n) = reference.median_ms();
    let mut notes = vec![
        format!("reference work: median {reference_ms:.4} ms over {ref_n} rounds"),
        format!(
            "{} {} {} ({}), {} chunks of {}, cache {} B, {conns} closed-loop connection(s)",
            s.field.name,
            VARIABLE.name(),
            s.field.data.shape(),
            CODEC.name(),
            s.cycle.store.n_chunks(),
            s.field.chunk,
            s.config.cache.capacity_bytes,
        ),
        format!(
            "window: {n} replies in {:.3} s ({} overloaded); pooled p50 {:.1} us, p99 {:.1} us",
            w.seconds,
            w.overloaded,
            quantile(&w.lat_us, 0.5),
            quantile(&w.lat_us, 0.99),
        ),
        format!(
            "req_p50_us and req_per_s: medians over {} slices of {} s; the smallest slice has {} replies; \
             req_p99_us over the whole window, {} beyond it",
            sl.count,
            SLICE_S,
            sl.min_n,
            n - (n as f64 * 0.99).ceil() as usize,
        ),
        format!(
            "dump_MBps, readback_MBps, cr and dump_mJ_per_MB: the median of {} store cycles run \
             every {} s of serving, part by part and tile by tile ({} tiles checked against the bound)",
            cycles.len(),
            SEGMENT_S,
            typical.tiles
        ),
    ];

    let mut layer = Metrics::default();
    if tracer.enabled() {
        let regions = replay_regions(&s.requests, cfg.seed, conns);
        let rt_p50 = sl.p50;
        probe_serve(
            &s.cycle.store,
            s.config,
            &s.warm,
            &regions,
            rt_p50,
            &mut layer,
            tracer,
        )
        .map_err(|e| format!("serve probe: {e}"))?;
        layer.push("daemon.overloaded", w.overloaded as f64, "count");
        layer.push("host.reference_ms", reference_ms, "ms");
        w.stats.push(&mut layer);
        crate::util::unpin();
        layers::probe(
            &[&s.field],
            &cfg.work_dir,
            cfg.seed,
            &energy,
            tracer,
            &mut layer,
        )
        .map_err(|e| format!("layer probe: {e}"))?;
        notes.push(format!(
            "replayed {} requests through the layer calls",
            regions.len()
        ));
    }
    s.daemon.shutdown();
    Ok(Outcome {
        e2e,
        layer,
        attempted,
        failed,
        notes,
        hit_rate: w.stats.hit_rate(),
        cycles: cycles.len(),
        reference_ms,
        compute_share: typical.compute_share(),
    })
}

/// The window's request sequence, interleaved across connections the
/// way a fair scheduler would serve it.
fn replay_regions(requests: &Requests, seed: u64, conns: usize) -> Vec<Region> {
    let mut streams: Vec<Rng> = (0..conns).map(|c| Requests::stream(seed, c)).collect();
    (0..REPLAY_MAX)
        .map(|i| requests.next(&mut streams[i % conns]).1)
        .collect()
}

/// Times `f` over `regions` until they run out or the budget is spent.
fn replay<F: FnMut(&Region) -> Result<(), String>>(
    regions: &[Region],
    mut f: F,
) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for r in regions {
        if out.len() >= REPLAY_MIN && t0.elapsed().as_secs_f64() > REPLAY_BUDGET_S {
            break;
        }
        let (res, secs) = timed(|| f(r));
        res?;
        out.push(secs * 1e6);
    }
    Ok(out)
}

fn warm_reader(reader: &AnyReader, warm: &[Region]) -> eblcio_codec::Result<()> {
    for r in warm {
        reader.read_region_data(r)?;
    }
    Ok(())
}

/// The serve-path layer metrics: the window's regions replayed through
/// `AnyReader::read_region_data`, the protocol codecs and
/// `ArrayReader::read_region_into` on bench-held readers warmed like
/// the daemon's, and `ChunkedStore::read_region` as the uncached floor.
pub fn probe_serve(
    store: &ChunkedStore,
    config: ReaderConfig,
    warm: &[Region],
    regions: &[Region],
    rt_p50_us: f64,
    m: &mut Metrics,
    tracer: &Tracer,
) -> Result<(), String> {
    let err = |e: eblcio_codec::CodecError| e.to_string();
    let any = AnyReader::over(store.clone(), config).map_err(err)?;
    warm_reader(&any, warm).map_err(err)?;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut req = Vec::new();
    let mut reply_bytes = 0usize;
    let mut seq = 0u64;
    let any_us = replay(regions, |r| {
        seq += 1;
        let data = tracer
            .span("daemon.any_read_region_data", 0, seq, || {
                any.read_region_data(r)
            })
            .map_err(err)?;
        let reply = Reply::Data(data);
        let (payload, s) =
            timed(|| tracer.span("protocol.reply_encode", 0, seq, || reply.encode()));
        enc.push(s * 1e6);
        reply_bytes += payload.len() + 4;
        let (back, s) =
            timed(|| tracer.span("protocol.reply_decode", 0, seq, || Reply::decode(&payload)));
        dec.push(s * 1e6);
        if back.ok().as_ref() != Some(&reply) {
            return Err("reply did not survive its own codec".into());
        }
        let (ok, s) = timed(|| {
            tracer.span("protocol.request_codec", 0, seq, || {
                let request = Request::ReadRegion(RegionSpec::from(r));
                Request::decode(&request.encode()).ok() == Some(request)
            })
        });
        req.push(s * 1e6);
        if !ok {
            return Err("request did not survive its own codec".into());
        }
        Ok(())
    })?;
    let parts = [median(&any_us), median(&enc), median(&dec), median(&req)];
    m.push("daemon.any_read_region_data_us", parts[0], "us");
    m.push("protocol.reply_encode_us", parts[1], "us");
    m.push("protocol.reply_decode_us", parts[2], "us");
    m.push("protocol.request_codec_us", parts[3], "us");
    m.push(
        "daemon.transport_us",
        rt_p50_us - parts.iter().sum::<f64>(),
        "us",
    );
    m.push(
        "daemon.reply_bytes_per_req",
        reply_bytes as f64 / any_us.len().max(1) as f64,
        "B/req",
    );
    drop(any);

    let typed = AnyReader::over(store.clone(), config).map_err(err)?;
    warm_reader(&typed, warm).map_err(err)?;
    let into_us = match &typed {
        AnyReader::F32(r) => into_replay(r, regions, tracer)?,
        AnyReader::F64(r) => into_replay(r, regions, tracer)?,
    };
    m.push("serve.read_region_into_us", median(&into_us), "us");
    drop(typed);

    let floor_us = match store.dtype() {
        0 => store_replay::<f32>(store, regions, tracer)?,
        _ => store_replay::<f64>(store, regions, tracer)?,
    };
    m.push("store.read_region_us", median(&floor_us), "us");
    Ok(())
}

fn into_replay<T: Element>(
    reader: &ArrayReader<T>,
    regions: &[Region],
    tracer: &Tracer,
) -> Result<Vec<f64>, String> {
    let mut out = NdArray::<T>::zeros(regions.first().map_or(Shape::d1(1), |r| r.shape()));
    let mut seq = 0u64;
    replay(regions, |r| {
        seq += 1;
        if out.shape() != r.shape() {
            out = NdArray::zeros(r.shape());
        }
        tracer
            .span("serve.read_region_into", 0, seq, || {
                reader.read_region_into(r, &mut out)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

fn store_replay<T: Element>(
    store: &ChunkedStore,
    regions: &[Region],
    tracer: &Tracer,
) -> Result<Vec<f64>, String> {
    let mut seq = 0u64;
    replay(regions, |r| {
        seq += 1;
        tracer
            .span("store.read_region", 0, seq, || store.read_region::<T>(r))
            .map(|_| ())
            .map_err(|e| e.to_string())
    })
}

/// The serve layers for a workload without a daemon of its own (`dump`):
/// `field`'s SZ3 store behind a loopback daemon, its chunk tiles sent
/// over one connection (one cold pass, then warm passes), then the same
/// replays as `serve-hot`.
pub fn probe_on(field: &Field, m: &mut Metrics, tracer: &Tracer) -> Result<(), String> {
    const PASSES: usize = 8;
    let err = |e: eblcio_codec::CodecError| e.to_string();
    let derr = |e: eblcio_daemon::DaemonError| e.to_string();
    let stream = match &field.data {
        Dataset::F32(a) => cycle::write_store_stream(a, field.chunk, CODEC, nproc()),
        Dataset::F64(a) => cycle::write_store_stream(a, field.chunk, CODEC, nproc()),
    }
    .map_err(err)?;
    let store = ChunkedStore::open(&stream).map_err(err)?;
    let config = ReaderConfig::default();
    let tiles: Vec<Region> = (0..store.n_chunks())
        .map(|i| store.grid().chunk_region(i))
        .collect();
    let daemon = Daemon::start(
        AnyReader::over(store.clone(), config).map_err(err)?,
        DaemonConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(derr)?;
    let mut client = DaemonClient::connect(daemon.local_addr()).map_err(derr)?;
    let before = client.stats().map_err(derr)?;
    let mut lat = Vec::new();
    let mut overloaded = 0u64;
    for _ in 0..PASSES {
        for t in &tiles {
            let (r, s) = timed(|| client.read_region(&RegionSpec::from(t)));
            match r {
                Ok(_) => lat.push(s * 1e6),
                Err(e) if e.is_overloaded() => overloaded += 1,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    let after = client.stats().map_err(derr)?;
    daemon.shutdown();
    let regions: Vec<Region> = tiles
        .iter()
        .cycle()
        .take(tiles.len() * PASSES)
        .cloned()
        .collect();
    probe_serve(&store, config, &[], &regions, median(&lat), m, tracer)?;
    m.push("daemon.overloaded", overloaded as f64, "count");
    StatsDelta::between(&before, &after).push(m);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_must_match_bit_for_bit() {
        let a = NdArray::<f32>::from_fn(Shape::d3(4, 5, 6), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as f32
        });
        let region = Region::new(&[1, 2, 3], &[2, 3, 2]);
        let expected = cycle::region_le_bytes(&a, &region);
        let requests = Requests {
            pool: vec![(region, expected.clone())],
        };
        let reply = |dims: Vec<u64>, bytes: Vec<u8>| ArrayData {
            dtype: 0,
            dims,
            bytes,
        };
        assert!(requests.check(0, &reply(vec![2, 3, 2], expected.clone())));
        let mut flipped = expected.clone();
        flipped[9] ^= 1;
        assert!(!requests.check(0, &reply(vec![2, 3, 2], flipped)));
        assert!(!requests.check(0, &reply(vec![3, 2, 2], expected.clone())));
        assert!(!requests.check(1, &reply(vec![2, 3, 2], expected)));
    }

    #[test]
    fn connections_never_exceed_cores() {
        assert!((1..=nproc()).contains(&CONNECTIONS.min(nproc())));
    }
}
