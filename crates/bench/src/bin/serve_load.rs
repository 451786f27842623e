//! Load generator for the `eblcio serve` daemon: N client threads,
//! each with its own TCP connection, hammer one daemon with a
//! configurable hot/cold region mix and report per-request p50/p99
//! latency, aggregate throughput, and how much load was shed
//! (`Overloaded` replies) at each concurrency step.
//!
//! Two modes:
//!
//! * **self-contained** (default) — compresses a NYX-like store and
//!   starts an in-process [`Daemon`] on an ephemeral loopback port, so
//!   the bench is one command,
//! * **external** — `EBLCIO_SERVE_ADDR=host:port` points the clients
//!   at an already-running `eblcio serve`; `EBLCIO_SERVE_DIMS=AxB[xC]`
//!   must then describe the served array (the wire protocol carries no
//!   shape-discovery frame by design — servers should not volunteer
//!   geometry to unauthenticated peers).
//!
//! Knobs (environment):
//! `EBLCIO_SCALE` = tiny|small|paper (self-contained store size),
//! `EBLCIO_SERVE_CLIENTS` (comma list of concurrency steps, default
//! `8,64,256`), `EBLCIO_SERVE_REQUESTS` (requests per client, default
//! 50), `EBLCIO_SERVE_HOT_PCT` (percent of requests aimed at the hot
//! slab — the cache-hit knob, default 80), `EBLCIO_SERVE_WORKERS` and
//! `EBLCIO_SERVE_QUEUE` (in-process daemon sizing, defaults: machine
//! parallelism and 64).
//!
//! The saturation line at the end is the headline: the highest
//! aggregate request rate any step reached, alongside that step's shed
//! fraction — a healthy daemon saturates by shedding typed
//! `Overloaded` replies, never by stalling (the p99 column proves it).
//!
//! Results land in `bench_results/serve_load.csv`.

use eblcio_bench::{env_usize, scale_from_env, TextTable};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_daemon::{AnyReader, Daemon, DaemonClient, DaemonConfig, DaemonError, RegionSpec};
use eblcio_data::{Dataset, DatasetKind, DatasetSpec, Shape};
use eblcio_obs::Histogram;
use eblcio_serve::ReaderConfig;
use eblcio_store::ChunkedStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const EPS: f64 = 1e-3;
const THREADS: usize = 8;

fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(name) {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// The hot/cold request mix: 8 equal slabs along dimension 0, full
/// extent elsewhere. Slab 0 is "hot" — `hot_pct` of requests target
/// it, so it stays resident in the daemon's decoded-chunk cache; the
/// rest sweep the other slabs and keep the decode path honest.
fn slabs(dims: &[u64]) -> Vec<RegionSpec> {
    let d0 = dims[0];
    let n = 8u64.min(d0);
    let len = (d0 / n).max(1);
    (0..n)
        .map(|i| {
            let start = i * len;
            let len = if i == n - 1 { d0 - start } else { len };
            let mut origin = vec![start];
            let mut extent = vec![len];
            for &d in &dims[1..] {
                origin.push(0);
                extent.push(d);
            }
            RegionSpec { origin, extent }
        })
        .collect()
}

/// Per-thread xorshift so the hot/cold coin and cold-slab choice are
/// deterministic per seed but uncorrelated across clients.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

struct StepOutcome {
    ok: u64,
    overloaded: u64,
    errors: u64,
    bytes: u64,
    seconds: f64,
}

/// One concurrency step: `clients` threads × `requests` each, every
/// thread on its own connection. Overloaded replies are counted, not
/// retried — shed load is part of the measurement.
fn run_step(
    addr: std::net::SocketAddr,
    regions: &[RegionSpec],
    clients: usize,
    requests: usize,
    hot_pct: usize,
    hist: &Histogram,
) -> StepOutcome {
    let ok = AtomicU64::new(0);
    let overloaded = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let (ok, overloaded, errors, bytes) = (&ok, &overloaded, &errors, &bytes);
            s.spawn(move || {
                let mut client = match DaemonClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        errors.fetch_add(requests as u64, Ordering::Relaxed);
                        return;
                    }
                };
                let mut rng = Rng(0x9E37_79B9 ^ ((c as u64 + 1) * 0x1000_0000_01B3));
                for _ in 0..requests {
                    let region = if (rng.next() % 100) < hot_pct as u64 {
                        &regions[0]
                    } else {
                        &regions[1 + (rng.next() as usize) % (regions.len() - 1)]
                    };
                    let rt0 = Instant::now();
                    match client.read_region(region) {
                        Ok(data) => {
                            hist.record(rt0.elapsed().as_nanos() as u64);
                            ok.fetch_add(1, Ordering::Relaxed);
                            bytes.fetch_add(data.bytes.len() as u64, Ordering::Relaxed);
                        }
                        Err(e) if e.is_overloaded() => {
                            // Typed shed — still a prompt answer, so it
                            // belongs in the latency distribution.
                            hist.record(rt0.elapsed().as_nanos() as u64);
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(DaemonError::ConnectionClosed) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    StepOutcome {
        ok: ok.into_inner(),
        overloaded: overloaded.into_inner(),
        errors: errors.into_inner(),
        bytes: bytes.into_inner(),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    let clients_steps = env_usize_list("EBLCIO_SERVE_CLIENTS", &[8, 64, 256]);
    let requests = env_usize("EBLCIO_SERVE_REQUESTS", 50).max(1);
    let hot_pct = env_usize("EBLCIO_SERVE_HOT_PCT", 80).min(100);

    // Resolve the target daemon: external or self-contained.
    let external = std::env::var("EBLCIO_SERVE_ADDR").ok();
    let (addr, dims, _daemon) = match external {
        Some(spec) => {
            let addr = spec.parse().expect("EBLCIO_SERVE_ADDR must be host:port");
            let dims_spec = std::env::var("EBLCIO_SERVE_DIMS")
                .expect("external mode needs EBLCIO_SERVE_DIMS=AxB[xC]");
            let dims: Vec<u64> = dims_spec
                .split('x')
                .map(|s| s.parse().expect("bad EBLCIO_SERVE_DIMS"))
                .collect();
            println!("target: external daemon at {addr}, array {dims_spec}");
            (addr, dims, None)
        }
        None => {
            let data = DatasetSpec::new(DatasetKind::Nyx, scale_from_env()).generate();
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
            let stream = ChunkedStore::write(
                codec.as_ref(),
                arr,
                ErrorBound::Relative(EPS),
                chunk_shape,
                THREADS,
            )
            .expect("write store");
            let reader =
                AnyReader::open(&stream, ReaderConfig::default()).expect("open reader");
            let config = DaemonConfig {
                workers: env_usize("EBLCIO_SERVE_WORKERS", 0),
                queue_depth: env_usize("EBLCIO_SERVE_QUEUE", 64).max(1),
                max_connections: clients_steps.iter().copied().max().unwrap_or(256) + 16,
                ..DaemonConfig::default()
            };
            let daemon =
                Daemon::start(reader, config, "127.0.0.1:0").expect("start daemon");
            let addr = daemon.local_addr();
            println!(
                "target: in-process daemon at {addr} — NYX {shape}, {} B compressed, \
                 queue {}, workers {}",
                stream.len(),
                env_usize("EBLCIO_SERVE_QUEUE", 64).max(1),
                if env_usize("EBLCIO_SERVE_WORKERS", 0) == 0 {
                    "auto".to_string()
                } else {
                    env_usize("EBLCIO_SERVE_WORKERS", 0).to_string()
                },
            );
            let dims: Vec<u64> = shape.dims().iter().map(|&d| d as u64).collect();
            (addr, dims, Some(daemon))
        }
    };
    let regions = slabs(&dims);
    println!(
        "mix: {hot_pct}% hot slab / {}% cold sweep over {} slabs, {requests} requests/client\n",
        100 - hot_pct,
        regions.len(),
    );

    let mut table = TextTable::new(&[
        "clients", "requests", "ok", "overloaded", "errors", "s", "req_per_s", "MB/s",
        "p50_ms", "p99_ms",
    ]);
    let mut peak_rps = 0.0f64;
    let mut peak_row = (0usize, 0.0f64);
    for &clients in &clients_steps {
        // Warm the hot slab so the mix means what it says from request 1.
        if let Ok(mut warm) = DaemonClient::connect(addr) {
            let _ = warm.read_region(&regions[0]);
        }
        let hist = Arc::new(Histogram::new());
        let out = run_step(addr, &regions, clients, requests, hot_pct, &hist);
        let answered = out.ok + out.overloaded;
        let rps = answered as f64 / out.seconds;
        if rps > peak_rps {
            peak_rps = rps;
            peak_row = (clients, out.overloaded as f64 / answered.max(1) as f64);
        }
        let snap = hist.snapshot();
        table.row(vec![
            clients.to_string(),
            (clients * requests).to_string(),
            out.ok.to_string(),
            out.overloaded.to_string(),
            out.errors.to_string(),
            format!("{:.3}", out.seconds),
            format!("{rps:.0}"),
            format!("{:.1}", out.bytes as f64 / 1e6 / out.seconds),
            format!("{:.3}", snap.value_at_quantile(0.5) as f64 / 1e6),
            format!("{:.3}", snap.value_at_quantile(0.99) as f64 / 1e6),
        ]);
    }
    table.print("serve_load: daemon saturation sweep");
    if let Ok(path) = table.write_csv("serve_load") {
        println!("\ncsv: {}", path.display());
    }
    println!(
        "\nsaturation throughput: {peak_rps:.0} req/s at {} clients \
         ({:.1}% shed as typed Overloaded)",
        peak_row.0,
        peak_row.1 * 100.0,
    );

    // One last exposition pull proves the /metrics-equivalent frame
    // survives the load it just described.
    if let Ok(mut client) = DaemonClient::connect(addr) {
        if let Ok(text) = client.metrics() {
            // Keep both the `# TYPE` declarations and the samples so
            // the printed excerpt is itself a well-formed exposition.
            let daemon_lines: Vec<&str> = text
                .lines()
                .filter(|l| l.contains("eblcio_daemon_"))
                .collect();
            println!("\ndaemon counters after the sweep:");
            for l in daemon_lines {
                println!("  {l}");
            }
        }
    }
}
