//! The daemon proper: TCP acceptor, per-connection framing loops, and
//! a fixed worker pool behind bounded admission.
//!
//! Threading model — three layers, each with one job:
//!
//! * **acceptor** — one thread on `TcpListener::accept`, enforcing the
//!   connection cap (over-limit connects get a typed `Overloaded`
//!   reply and a close, never a silent drop),
//! * **connection threads** — one per live client, owning the socket:
//!   they read frames, decode requests, and submit jobs; decode work
//!   never happens here, so a slow request on one connection cannot
//!   stall another's framing,
//! * **workers** — a fixed pool popping the [`BoundedQueue`]: all
//!   reader work (decode, assembly, exposition rendering) runs here,
//!   so total serving concurrency is capped no matter how many
//!   connections are open.
//!
//! Admission is the load-shedding contract: a connection thread's
//! `try_push` either admits the job or fails **immediately**, and the
//! failure becomes the protocol's typed `Overloaded` reply on the
//! spot. A saturated daemon therefore answers every frame promptly —
//! with data when it can, with "try later" when it can't — and never
//! accumulates an unbounded backlog.

use crate::any::AnyReader;
use crate::error::Result;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameRead, RegionSpec, Reply, Request, MAX_REPLY_FRAME,
    MAX_REQUEST_FRAME,
};
use crate::queue::{BoundedQueue, PushError};
use eblcio_data::shape::MAX_RANK;
use eblcio_data::Shape;
use eblcio_obs::{self as obs, Counter};
use eblcio_store::Region;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Construction-time knobs for a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Worker threads executing reader work (0 = machine parallelism).
    pub workers: usize,
    /// Jobs admitted but not yet picked up by a worker; one more
    /// request than this is the typed `Overloaded` reply.
    pub queue_depth: usize,
    /// Live connections accepted at once; the next connect is answered
    /// `Overloaded` and closed.
    pub max_connections: usize,
    /// How long a peer may stall **inside** a frame before the
    /// connection is closed as torn. Idle time *between* frames is
    /// unlimited.
    pub read_timeout: Duration,
    /// Enables the test-only `TestDelay` opcode (deterministic worker
    /// occupation for overload tests). Off for real serving.
    pub test_ops: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            max_connections: 1024,
            read_timeout: Duration::from_secs(5),
            test_ops: false,
        }
    }
}

/// One admitted unit of work: the decoded request plus the channel its
/// encoded reply travels back on.
struct Job {
    request: Request,
    reply: mpsc::Sender<Vec<u8>>,
}

/// State shared by every thread the daemon owns.
struct Shared {
    reader: Arc<AnyReader>,
    test_ops: bool,
    /// `eblcio_daemon_*` counters, registered into the reader's
    /// registry so one `Metrics` frame exposes both layers.
    connections_total: Arc<Counter>,
    requests_total: Arc<Counter>,
    overloaded_total: Arc<Counter>,
    malformed_total: Arc<Counter>,
}

/// Registry of live connections, for prompt shutdown: the daemon
/// shuts each registered socket down, which unblocks its thread's
/// read immediately instead of waiting out a poll interval.
struct Conns {
    streams: Mutex<HashMap<u64, TcpStream>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    active: AtomicUsize,
    next_id: AtomicU64,
}

/// A running serve daemon. Dropping it shuts it down (idempotent with
/// an explicit [`Daemon::shutdown`]).
pub struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<Job>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Conns>,
}

impl Daemon {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `reader` until [`Daemon::shutdown`] or drop.
    pub fn start(reader: AnyReader, config: DaemonConfig, addr: impl ToSocketAddrs) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let reader = Arc::new(reader);
        let registry = reader.metrics().clone();
        let shared = Arc::new(Shared {
            reader,
            test_ops: config.test_ops,
            connections_total: registry.counter("eblcio_daemon_connections_total"),
            requests_total: registry.counter("eblcio_daemon_requests_total"),
            overloaded_total: registry.counter("eblcio_daemon_overloaded_total"),
            malformed_total: registry.counter("eblcio_daemon_malformed_total"),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(BoundedQueue::<Job>::new(config.queue_depth));
        let conns = Arc::new(Conns {
            streams: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
        });

        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            config.workers
        };
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let queue = queue.clone();
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eblcio-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            let payload = execute(&shared, job.request).encode();
                            // A connection that died mid-request just
                            // drops its receiver; nothing to do.
                            let _ = job.reply.send(payload);
                        }
                    })?,
            );
        }

        let acceptor = {
            let shutdown = shutdown.clone();
            let queue = queue.clone();
            let conns = conns.clone();
            let shared = shared.clone();
            let config = config.clone();
            std::thread::Builder::new()
                .name("eblcio-acceptor".into())
                .spawn(move || accept_loop(&listener, &shutdown, &queue, &conns, &shared, &config))?
        };

        Ok(Self {
            addr,
            shutdown,
            queue,
            acceptor: Some(acceptor),
            workers,
            conns,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live client connections right now.
    pub fn active_connections(&self) -> usize {
        self.conns.active.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains admitted work, closes every connection,
    /// and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Order matters: close the queue (workers drain and exit; every
        // admitted job still gets its reply), wake the acceptor with a
        // throwaway connect, then unblock connection reads by shutting
        // their sockets.
        self.queue.close();
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for (_, s) in self.conns.streams.lock().drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> = self.conns.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    queue: &Arc<BoundedQueue<Job>>,
    conns: &Arc<Conns>,
    shared: &Arc<Shared>,
    config: &DaemonConfig,
) {
    loop {
        let (mut stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.connections_total.inc();
        // Reap finished connection threads so the handle list tracks
        // live connections, not connection history.
        {
            let mut handles = conns.handles.lock();
            let mut live = Vec::with_capacity(handles.len());
            for h in handles.drain(..) {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    live.push(h);
                }
            }
            *handles = live;
        }
        let _ = stream.set_write_timeout(Some(config.read_timeout));
        // Replies are written as one small frame each; Nagle would add
        // a delayed-ACK round trip to every exchange.
        let _ = stream.set_nodelay(true);
        if conns.active.load(Ordering::SeqCst) >= config.max_connections {
            shared.overloaded_total.inc();
            let reply = Reply::Error {
                code: ErrorCode::Overloaded,
                message: "connection limit reached".into(),
            };
            let _ = write_frame(&mut stream, &reply.encode());
            continue;
        }
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let id = conns.next_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            conns.streams.lock().insert(id, clone);
        }
        conns.active.fetch_add(1, Ordering::SeqCst);
        let spawned = {
            let shutdown = shutdown.clone();
            let queue = queue.clone();
            let conns = conns.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("eblcio-conn-{id}"))
                .spawn(move || {
                    connection_loop(&mut stream, &shutdown, &queue, &shared);
                    conns.streams.lock().remove(&id);
                    conns.active.fetch_sub(1, Ordering::SeqCst);
                })
        };
        match spawned {
            Ok(handle) => conns.handles.lock().push(handle),
            Err(_) => {
                // Spawn failure: roll the bookkeeping back and shed the
                // connection like any other overload.
                conns.streams.lock().remove(&id);
                conns.active.fetch_sub(1, Ordering::SeqCst);
                shared.overloaded_total.inc();
            }
        }
    }
}

/// Serves one connection until close, torn frame, or shutdown.
fn connection_loop(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    queue: &BoundedQueue<Job>,
    shared: &Shared,
) {
    loop {
        let frame = read_frame(stream, MAX_REQUEST_FRAME, || {
            !shutdown.load(Ordering::SeqCst)
        });
        let payload = match frame {
            Ok(FrameRead::Frame(p)) => p,
            Ok(FrameRead::Closed) => return,
            Ok(FrameRead::TooLarge(declared)) => {
                let reply = Reply::Error {
                    code: ErrorCode::FrameTooLarge,
                    message: format!("request frame declares {declared} bytes"),
                };
                let _ = write_frame(stream, &reply.encode());
                return;
            }
            // Torn frame or dead socket: nothing sensible to reply to.
            Err(_) => return,
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared.malformed_total.inc();
                let reply = Reply::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                };
                let _ = write_frame(stream, &reply.encode());
                // A peer that frames garbage gets a clean close, not a
                // resync guess.
                return;
            }
        };
        shared.requests_total.inc();
        let (tx, rx) = mpsc::channel();
        let reply_payload = match queue.try_push(Job { request, reply: tx }) {
            Err(PushError::Full(_)) => {
                shared.overloaded_total.inc();
                Reply::Error {
                    code: ErrorCode::Overloaded,
                    message: "request queue full, try later".into(),
                }
                .encode()
            }
            Err(PushError::Closed(_)) => {
                Reply::Error {
                    code: ErrorCode::Overloaded,
                    message: "daemon shutting down".into(),
                }
                .encode()
            }
            Ok(()) => match rx.recv() {
                Ok(p) => p,
                // Workers are gone (shutdown mid-request).
                Err(_) => Reply::Error {
                    code: ErrorCode::Server,
                    message: "worker pool unavailable".into(),
                }
                .encode(),
            },
        };
        if write_frame(stream, &reply_payload).is_err() {
            return;
        }
    }
}

/// Validates a wire region against the served shape. Everything that
/// would make [`Region::new`] or the reader panic is caught here and
/// named, so a hostile request can only ever earn a `BadRequest`.
fn region_for(spec: &RegionSpec, shape: Shape) -> std::result::Result<Region, &'static str> {
    if spec.origin.len() != spec.extent.len() {
        return Err("origin/extent rank mismatch");
    }
    let rank = spec.origin.len();
    if rank != shape.rank() {
        return Err("region rank does not match array rank");
    }
    let mut origin = [0usize; MAX_RANK];
    let mut extent = [0usize; MAX_RANK];
    for d in 0..rank {
        let o = usize::try_from(spec.origin[d]).map_err(|_| "region origin overflows")?;
        let e = usize::try_from(spec.extent[d]).map_err(|_| "region extent overflows")?;
        if e == 0 {
            return Err("region extent is zero");
        }
        let end = o.checked_add(e).ok_or("region end overflows")?;
        if end > shape.dims()[d] {
            return Err("region exceeds array bounds");
        }
        origin[d] = o;
        extent[d] = e;
    }
    Ok(Region::new(&origin[..rank], &extent[..rank]))
}

/// Refuses, before any decode, a read whose reply could not fit in one
/// frame: the samples of every region times the dtype width, summed
/// with checked arithmetic, must stay within [`MAX_REPLY_FRAME`].
/// Otherwise a small request could force a whole-store decode for a
/// reply no client can receive.
fn admit_reply(reader: &AnyReader, regions: &[Region]) -> std::result::Result<(), &'static str> {
    let width: u64 = if reader.dtype() == 0 { 4 } else { 8 };
    let mut total = 0u64;
    for r in regions {
        total = (r.len() as u64)
            .checked_mul(width)
            .and_then(|b| total.checked_add(b))
            .filter(|&t| t <= MAX_REPLY_FRAME as u64)
            .ok_or("reply exceeds the reply frame cap")?;
    }
    Ok(())
}

/// Runs one request against the reader — on a worker thread, never on
/// a connection thread. Every failure is a typed error reply.
fn execute(shared: &Shared, request: Request) -> Reply {
    let reader = &shared.reader;
    match request {
        Request::ReadRegion(spec) => match region_for(&spec, reader.shape())
            .and_then(|region| admit_reply(reader, std::slice::from_ref(&region)).map(|()| region))
        {
            Ok(region) => match reader.read_region_data(&region) {
                Ok(data) => Reply::Data(data),
                Err(e) => server_error(e),
            },
            Err(why) => bad_request(why),
        },
        Request::ReadChunk { index } => {
            let i = usize::try_from(index).ok().filter(|&i| i < reader.n_chunks());
            match i {
                Some(i) => match reader.read_chunk_data(i) {
                    Ok(data) => Reply::Data(data),
                    Err(e) => server_error(e),
                },
                None => bad_request("chunk index out of range"),
            }
        }
        Request::Prefetch(spec) => match region_for(&spec, reader.shape()) {
            Ok(region) => {
                reader.prefetch_region(&region);
                Reply::Ack
            }
            Err(why) => bad_request(why),
        },
        Request::Batch(specs) => {
            let regions = specs
                .iter()
                .map(|spec| region_for(spec, reader.shape()))
                .collect::<std::result::Result<Vec<_>, _>>()
                .and_then(|regions| admit_reply(reader, &regions).map(|()| regions));
            match regions {
                Ok(regions) => match regions.iter().map(|r| reader.read_region_data(r)).collect() {
                    Ok(items) => Reply::Batch(items),
                    Err(e) => server_error(e),
                },
                Err(why) => bad_request(why),
            }
        }
        Request::Stats => Reply::Stats(reader.stats()),
        Request::Metrics => Reply::Text(obs::prometheus(reader.metrics())),
        Request::TestDelay { millis } => {
            if shared.test_ops {
                std::thread::sleep(Duration::from_millis(u64::from(millis)));
                Reply::Ack
            } else {
                bad_request("test opcodes are disabled")
            }
        }
    }
}

fn bad_request(why: &str) -> Reply {
    Reply::Error {
        code: ErrorCode::BadRequest,
        message: why.into(),
    }
}

fn server_error(e: eblcio_codec::CodecError) -> Reply {
    Reply::Error {
        code: ErrorCode::Server,
        message: e.to_string(),
    }
}
