//! The resident analysis daemon: TCP accept loop, admission-controlled
//! job queue, worker pool and a fixed-size connection multiplexer.
//!
//! # Architecture
//!
//! ```text
//!            accept loop (non-blocking poll)
//!                 │ round-robin handoff to a fixed io-shard pool
//!                 ▼
//!   io shards ── admission control ──▶ bounded FIFO queue ──▶ workers
//!     │  sweep every connection:│ reject / cache hit            │
//!     │  flush + read + parse   ▼                               ▼
//!     └──◀─── per-connection outbound frame queues ◀────────────┘
//! ```
//!
//! Connections are *multiplexed*: a fixed pool of io-shard threads
//! ([`ServerConfig::io_threads`], default 2) owns every socket. Each
//! shard sweeps its connections — flushing queued response frames with
//! non-blocking writes, reading whatever bytes are available,
//! reassembling length-prefixed frames and dispatching them inline —
//! then parks on a condvar with a short timeout. Workers never touch a
//! socket; they append pre-encoded frames to a connection's outbound
//! queue and wake its shard, so the server holds hundreds of mostly
//! idle connections with a handful of threads, and interleaved job
//! completions never interleave bytes on the wire.
//!
//! Admission control is explicit and structured: a full queue, a hit on
//! the per-connection in-flight cap, or a draining server each answer
//! with a [`Response::Rejected`] carrying a machine-readable
//! [`RejectReason`] — a client is never left hanging. Accepted jobs run
//! [`analyze_firmware_cancellable`] under a per-job [`CancelToken`]
//! (deadline-armed when the submit asked for one), and the served
//! analysis is the FRAC [`put_analysis`] encoding — byte-identical to
//! what a local `analyze` of the same image, config and model produces.
//!
//! A `Drain` request must block until the queue empties without
//! stalling the other connections on its shard, so it is parked on a
//! dedicated waiter thread — the one place the multiplexer still
//! spawns per-request.
//!
//! [`put_analysis`]: firmres_cache::codec::put_analysis

use crate::wire::{
    JobState, RejectReason, Request, Response, ServiceStatus, SubmitImage, MAX_FRAME,
    PROTOCOL_VERSION,
};
use firmres::{
    analyze_firmware_cancellable, analyze_packed, AnalysisConfig, CancelToken, Counter, Error,
    FnObserver, NullObserver, Observer,
};
use firmres_cache::codec::{get_analysis, put_analysis, Reader};
use firmres_cache::{AnalysisCache, CacheKey, StorePolicy};
use firmres_firmware::FirmwareImage;
use firmres_semantics::Classifier;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls of the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// How long an io shard parks when a sweep made no progress. Worker
/// completions and new connections wake the shard immediately; this
/// bounds only the latency of *request* arrival on an idle socket.
const SHARD_PARK: Duration = Duration::from_millis(1);

/// How long a shard keeps flushing queued frames after shutdown before
/// abandoning unresponsive clients.
const FINAL_FLUSH: Duration = Duration::from_secs(3);

/// Most bytes one connection may pull off its socket in a single sweep
/// — keeps a fire-hosing client from starving its shard siblings.
const READ_QUANTUM: usize = 256 * 1024;

/// Tuning for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the job queue. `0` is a degenerate but
    /// well-defined configuration — jobs are admitted and queued but
    /// never start — used by the admission-control tests.
    pub workers: usize,
    /// Message-unit parallelism inside one job (the `jobs` argument of
    /// the pipeline; does not change output).
    pub unit_jobs: usize,
    /// Io-shard threads multiplexing the sockets. `0` is clamped to 1.
    pub io_threads: usize,
    /// Queue capacity. A submit that finds the queue at capacity is
    /// rejected with [`RejectReason::QueueFull`], never blocked.
    pub queue_cap: usize,
    /// Maximum unfinished jobs one connection may have in flight.
    pub conn_inflight_cap: u32,
    /// The back-off hint carried by [`RejectReason::QueueFull`].
    pub retry_after_ms: u64,
    /// Analysis-cache directory. `None` disables caching (every submit
    /// runs the pipeline; hash submits are always rejected).
    pub cache_dir: Option<PathBuf>,
    /// Store policy (shards, eviction budget, watermarks) applied to
    /// the cache directory. The default is the historical unbounded
    /// flat store.
    pub store: StorePolicy,
    /// Semantics classifier applied to every job, or `None` for the
    /// keyword fallback — part of the cache identity, so it must match
    /// the local run a served result is compared against.
    pub classifier: Option<Classifier>,
    /// Known-library index overlaid onto every job's taint config
    /// (`--libid` / the `[libid]` config section). Part of the cache
    /// identity: the index fingerprint is folded into every key, so an
    /// index-less client run never shares entries with an indexed one.
    pub lib_index: Option<Arc<firmres_dataflow::LibIndex>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 1,
            unit_jobs: 1,
            io_threads: 2,
            queue_cap: 32,
            conn_inflight_cap: 8,
            retry_after_ms: 250,
            cache_dir: None,
            store: StorePolicy::default(),
            classifier: None,
            lib_index: None,
        }
    }
}

/// Monotonic server counters, updated with relaxed atomics (they are
/// operator telemetry, not synchronization).
#[derive(Debug, Default)]
struct ServiceCounters {
    jobs_served: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    unit_hits: AtomicU64,
    unit_misses: AtomicU64,
    lib_fns_matched: AtomicU64,
    lib_traversals_skipped: AtomicU64,
    lib_summary_applies: AtomicU64,
}

// ---- connection handles --------------------------------------------------

/// Wake-up latch for one io shard: senders set the flag and notify, the
/// shard consumes it (or times out) between sweeps. A poisoned flag is
/// recovered: a bool is valid whatever the panicking holder did.
#[derive(Default)]
struct ShardWake {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl ShardWake {
    fn wake(&self) {
        let mut flag = self.flag.lock().unwrap_or_else(PoisonError::into_inner);
        *flag = true;
        self.cv.notify_one();
    }

    fn park(&self, timeout: Duration) {
        let mut flag = self.flag.lock().unwrap_or_else(PoisonError::into_inner);
        if !*flag {
            flag = self
                .cv
                .wait_timeout(flag, timeout)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *flag = false;
    }
}

/// The mutable half of a connection that producers (io shard, workers,
/// the drain waiter) share.
#[derive(Default)]
struct ConnState {
    /// Complete wire frames (length prefix included) awaiting flush.
    outbound: VecDeque<Vec<u8>>,
    /// Set when the socket is gone: frames are dropped instead of
    /// queued, so a worker finishing a job for a dead client never
    /// grows an unbounded queue. The job outcome is still counted —
    /// there is just nobody left to tell.
    closed: bool,
    /// Set to finish the conversation: the shard flushes what is
    /// queued, then closes the socket.
    close_after_flush: bool,
}

/// A cloneable sender for one connection's outbound frame stream —
/// the multiplexer's replacement for the old per-connection writer
/// thread and its `mpsc` channel.
#[derive(Clone)]
struct ConnHandle {
    state: Arc<parking_lot::Mutex<ConnState>>,
    wake: Arc<ShardWake>,
}

impl ConnHandle {
    fn send(&self, response: &Response) {
        let body = response.encode();
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        {
            let mut st = self.state.lock();
            if st.closed {
                return;
            }
            st.outbound.push_back(frame);
        }
        self.wake.wake();
    }
}

/// Encode and enqueue one response frame for a connection.
fn send(reply: &ConnHandle, response: &Response) {
    reply.send(response);
}

/// One admitted job waiting in (or pulled from) the queue.
struct Job {
    id: u64,
    packed: Vec<u8>,
    config: AnalysisConfig,
    want_events: bool,
    token: CancelToken,
    reply: ConnHandle,
    conn_inflight: Arc<AtomicU32>,
}

/// The queue proper plus the worker-liveness accounting that must sit
/// under the same lock for the drain wait to be race-free.
///
/// Every critical section leaves this consistent at each step (a push,
/// a pop, a counter step, a flag), so a lock poisoned by a panicking
/// holder is recovered with `PoisonError::into_inner` instead of
/// failing every later request.
#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    running: u32,
    stop: bool,
}

struct Shared {
    qs: Mutex<QueueState>,
    /// Workers wait here for work (or the stop flag).
    work_cv: Condvar,
    /// Drain waits here for `queue empty && running == 0`.
    idle_cv: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    next_job_id: AtomicU64,
    counters: ServiceCounters,
    /// Cancel tokens of currently running jobs, by job id.
    running_tokens: parking_lot::Mutex<HashMap<u64, CancelToken>>,
    cache: Option<AnalysisCache>,
    classifier: Option<Classifier>,
    cfg: ServerConfig,
}

impl Shared {
    fn status(&self) -> ServiceStatus {
        // The classification cache keeps its own atomics; snapshot them
        // here rather than mirroring into ServiceCounters so the numbers
        // can never drift from what the cache actually holds.
        let class = self
            .cache
            .as_ref()
            .map(|c| c.class_cache_stats())
            .unwrap_or_default();
        let qs = self.qs.lock().unwrap_or_else(PoisonError::into_inner);
        ServiceStatus {
            queue_depth: qs.queue.len() as u32,
            queue_cap: self.cfg.queue_cap as u32,
            inflight: qs.running,
            jobs_served: self.counters.jobs_served.load(Ordering::Relaxed),
            jobs_rejected: self.counters.jobs_rejected.load(Ordering::Relaxed),
            jobs_cancelled: self.counters.jobs_cancelled.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.counters.cache_misses.load(Ordering::Relaxed),
            unit_hits: self.counters.unit_hits.load(Ordering::Relaxed),
            unit_misses: self.counters.unit_misses.load(Ordering::Relaxed),
            lib_fns_matched: self.counters.lib_fns_matched.load(Ordering::Relaxed),
            lib_traversals_skipped: self.counters.lib_traversals_skipped.load(Ordering::Relaxed),
            lib_summary_applies: self.counters.lib_summary_applies.load(Ordering::Relaxed),
            class_cache_hits: class.hits,
            prefilter_skips: class.prefilter_skips,
            class_cache_entries: class.entries,
            draining: self.draining.load(Ordering::Acquire),
        }
    }

    fn reject(&self, reply: &ConnHandle, reason: RejectReason) {
        self.counters.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        send(reply, &Response::Rejected { reason });
    }
}

/// A resident FIRMRES analysis daemon bound to a TCP address.
///
/// [`Server::run`] blocks serving connections until a client drains it;
/// bind on port 0 and pass [`Server::local_addr`] to clients for
/// ephemeral-port setups (the pattern the end-to-end tests use).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the daemon to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port). Opening the cache directory sweeps orphans and, when an
    /// eviction budget is configured, surveys the store's occupancy.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            qs: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            next_job_id: AtomicU64::new(1),
            counters: ServiceCounters::default(),
            running_tokens: parking_lot::Mutex::new(HashMap::new()),
            cache: cfg
                .cache_dir
                .as_ref()
                .map(|dir| AnalysisCache::with_policy(dir, cfg.store.clone())),
            classifier: cfg.classifier.clone(),
            cfg,
        });
        Ok(Server { listener, shared })
    }

    /// The address the daemon actually listens on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until drained, then return the final counter
    /// snapshot. Worker threads and every io shard are joined before
    /// this returns.
    pub fn run(self) -> ServiceStatus {
        let workers: Vec<_> = (0..self.shared.cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        // The io-shard pool: each shard owns an inbox of newly accepted
        // sockets and a wake latch shared with every producer that can
        // create work for it.
        let shard_count = self.shared.cfg.io_threads.max(1);
        let mut inboxes = Vec::with_capacity(shard_count);
        let mut wakes = Vec::with_capacity(shard_count);
        let shards: Vec<_> = (0..shard_count)
            .map(|_| {
                let inbox = Arc::new(parking_lot::Mutex::new(Vec::<TcpStream>::new()));
                let wake = Arc::new(ShardWake::default());
                inboxes.push(Arc::clone(&inbox));
                wakes.push(Arc::clone(&wake));
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || io_shard_loop(&shared, &inbox, &wake))
            })
            .collect();

        let mut next_shard = 0usize;
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    inboxes[next_shard].lock().push(stream);
                    wakes[next_shard].wake();
                    next_shard = (next_shard + 1) % shard_count;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(_) => thread::sleep(POLL_INTERVAL),
            }
        }

        // Shutdown: release the workers, then the shards (they flush
        // what is queued, bounded by FINAL_FLUSH, and exit).
        {
            let mut qs = self
                .shared
                .qs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            qs.stop = true;
            self.shared.work_cv.notify_all();
        }
        for w in workers {
            let _ = w.join();
        }
        for wake in &wakes {
            wake.wake();
        }
        for s in shards {
            let _ = s.join();
        }
        self.shared.status()
    }
}

// ---- workers ------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut qs = shared.qs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if qs.stop {
                    return;
                }
                if let Some(job) = qs.queue.pop_front() {
                    qs.running += 1;
                    break job;
                }
                qs = shared
                    .work_cv
                    .wait(qs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, job);
        let mut qs = shared.qs.lock().unwrap_or_else(PoisonError::into_inner);
        qs.running -= 1;
        if qs.queue.is_empty() && qs.running == 0 {
            shared.idle_cv.notify_all();
        }
    }
}

fn run_job(shared: &Shared, mut job: Job) {
    shared
        .running_tokens
        .lock()
        .insert(job.id, job.token.clone());

    // Overlay the server's known-library index onto the client-supplied
    // config before the job runs, so the pipeline and the store key
    // written below see the same effective configuration. The lookup in
    // `handle_submit` happens earlier and keys the config as submitted,
    // without the overlay: with `lib_index` set, that key never matches
    // the stored one, so by-hash repeats are rejected as `UnknownImage`
    // and by-bytes repeats re-run through the unit funnel (a known
    // limitation, see OPERATIONS.md).
    if let Some(index) = &shared.cfg.lib_index {
        job.config.taint.libid = firmres_dataflow::LibId::On;
        job.config.taint.lib_index = Some(Arc::clone(index));
    }

    let classifier = shared.classifier.as_ref();
    // The analysis, plus its `put_analysis` encoding when the unit
    // funnel already produced it: those bytes are the reply payload and
    // the store's analysis section as they stand.
    let outcome = match FirmwareImage::unpack(&job.packed) {
        Ok(fw) => {
            let reply = job.reply.clone();
            let job_id = job.id;
            let mut streaming;
            let mut silent = NullObserver;
            let observer: &mut dyn Observer = if job.want_events {
                streaming = FnObserver::new(move |event| {
                    send(&reply, &Response::Event { job_id, event });
                });
                &mut streaming
            } else {
                &mut silent
            };
            // With a cache configured, a miss goes through the
            // unit-granular funnel: the daemon diffs the submitted image
            // against its stored artifacts automatically and re-runs
            // only the dirty units. Without one, the plain pipeline.
            match &shared.cache {
                Some(cache) => firmres_cache::analyze_image_units_incremental(
                    &fw,
                    classifier,
                    &job.config,
                    shared.cfg.unit_jobs,
                    cache,
                    observer,
                    Some(&job.token),
                )
                .map(|out| {
                    let c = &shared.counters;
                    c.unit_hits
                        .fetch_add(out.stats.unit_hits, Ordering::Relaxed);
                    c.unit_misses
                        .fetch_add(out.stats.unit_misses, Ordering::Relaxed);
                    // Decoded once for the counters, handlers and
                    // taint summaries; the bytes themselves are reused.
                    get_analysis(&mut Reader::new(&out.bytes))
                        .ok()
                        .map(|analysis| (analysis, Some(out.bytes)))
                })
                .and_then(|decoded| match decoded {
                    Some(pair) => Ok(pair),
                    // Funnel bytes always decode; re-run defensively.
                    None => analyze_firmware_cancellable(
                        &fw,
                        classifier,
                        &job.config,
                        shared.cfg.unit_jobs,
                        &mut NullObserver,
                        &job.token,
                    )
                    .map(|analysis| (analysis, None)),
                }),
                None => analyze_firmware_cancellable(
                    &fw,
                    classifier,
                    &job.config,
                    shared.cfg.unit_jobs,
                    observer,
                    &job.token,
                )
                .map(|analysis| (analysis, None)),
            }
        }
        // An unpackable image degrades exactly as the local pipeline
        // does: a stub analysis carrying an Input diagnostic.
        Err(_) => Ok((analyze_packed(&job.packed, classifier, &job.config), None)),
    };

    shared.running_tokens.lock().remove(&job.id);

    match outcome {
        Ok((analysis, encoded)) => {
            let (c, a) = (&shared.counters, &analysis.counters);
            c.lib_fns_matched
                .fetch_add(a[Counter::LibFnsMatched], Ordering::Relaxed);
            c.lib_traversals_skipped
                .fetch_add(a[Counter::LibTraversalsSkipped], Ordering::Relaxed);
            c.lib_summary_applies
                .fetch_add(a[Counter::LibSummaryApplies], Ordering::Relaxed);
            let payload = encoded.unwrap_or_else(|| {
                let mut payload = Vec::new();
                put_analysis(&mut payload, &analysis);
                payload
            });
            if let Some(cache) = &shared.cache {
                let key = CacheKey::of_packed(&job.packed, classifier, &job.config);
                // A full store or unwritable directory degrades the
                // cache, not the response.
                let _ = cache.store_encoded(&key, &analysis, &payload);
            }
            shared.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
            shared.counters.jobs_served.fetch_add(1, Ordering::Relaxed);
            send(
                &job.reply,
                &Response::Analysis {
                    job_id: job.id,
                    from_cache: false,
                    payload,
                },
            );
        }
        Err(Error::Cancelled { deadline_exceeded }) => {
            shared
                .counters
                .jobs_cancelled
                .fetch_add(1, Ordering::Relaxed);
            send(
                &job.reply,
                &Response::Cancelled {
                    job_id: job.id,
                    reason: if deadline_exceeded {
                        "deadline exceeded".to_string()
                    } else {
                        "cancelled".to_string()
                    },
                },
            );
        }
        Err(e) => {
            // The cancellable pipeline has no other error source today;
            // report rather than crash the worker if that changes.
            send(
                &job.reply,
                &Response::Cancelled {
                    job_id: job.id,
                    reason: format!("analysis failed: {e}"),
                },
            );
        }
    }
    job.conn_inflight.fetch_sub(1, Ordering::AcqRel);
}

// ---- the multiplexer ----------------------------------------------------

/// One socket as an io shard sees it: the stream, its shared outbound
/// handle, and the reassembly / flush state the sweep loop threads
/// through.
struct Conn {
    stream: TcpStream,
    handle: ConnHandle,
    /// Unparsed inbound bytes (partial frames carry across sweeps).
    rbuf: Vec<u8>,
    /// The frame currently being written, and how much of it went out.
    wbuf: Vec<u8>,
    woff: usize,
    hello_done: bool,
    /// Stop parsing input (post-Drain, or after a fatal protocol
    /// error); the socket stays open until the outbound queue drains.
    stop_reading: bool,
    /// Clean EOF seen; the connection closes once every in-flight job
    /// has answered and the answers are flushed.
    eof: bool,
    /// Io error: drop the connection at the end of the sweep.
    dead: bool,
    conn_inflight: Arc<AtomicU32>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.woff == self.wbuf.len() && self.handle.state.lock().outbound.is_empty()
    }
}

fn io_shard_loop(
    shared: &Arc<Shared>,
    inbox: &parking_lot::Mutex<Vec<TcpStream>>,
    wake: &Arc<ShardWake>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        for stream in inbox.lock().drain(..) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Response frames are one write each; without NODELAY every
            // round-trip rides a delayed-ACK timer.
            let _ = stream.set_nodelay(true);
            conns.push(Conn {
                stream,
                handle: ConnHandle {
                    state: Arc::new(parking_lot::Mutex::new(ConnState::default())),
                    wake: Arc::clone(wake),
                },
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                woff: 0,
                hello_done: false,
                stop_reading: false,
                eof: false,
                dead: false,
                conn_inflight: Arc::new(AtomicU32::new(0)),
            });
        }

        let mut progressed = false;
        for conn in &mut conns {
            progressed |= flush_conn(conn);
            if !conn.dead && !conn.stop_reading && !conn.eof {
                progressed |= read_conn(conn);
                progressed |= dispatch_frames(shared, conn);
            }
            // Give frames queued by the dispatch a same-sweep flush:
            // the common request→response round trip never waits for
            // the next park cycle.
            progressed |= flush_conn(conn);
        }

        conns.retain(|conn| {
            let close_requested = conn.handle.state.lock().close_after_flush;
            let done = conn.flushed()
                && (close_requested
                    || (conn.eof && conn.conn_inflight.load(Ordering::Acquire) == 0));
            if conn.dead || done {
                conn.handle.state.lock().closed = true;
                false
            } else {
                true
            }
        });

        if shared.shutdown.load(Ordering::Acquire) {
            final_flush(&mut conns);
            return;
        }
        if !progressed {
            wake.park(SHARD_PARK);
        }
    }
}

/// Write queued frames until the socket would block. Returns whether
/// any bytes moved.
fn flush_conn(conn: &mut Conn) -> bool {
    let mut progressed = false;
    loop {
        if conn.woff == conn.wbuf.len() {
            let mut st = conn.handle.state.lock();
            match st.outbound.pop_front() {
                Some(frame) => {
                    drop(st);
                    conn.wbuf = frame;
                    conn.woff = 0;
                }
                None => return progressed,
            }
        }
        match conn.stream.write(&conn.wbuf[conn.woff..]) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.woff += n;
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progressed,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
}

/// Pull available bytes into the reassembly buffer, up to the fairness
/// quantum. Returns whether anything arrived.
fn read_conn(conn: &mut Conn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    let mut taken = 0usize;
    while taken < READ_QUANTUM {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    taken > 0
}

/// Reassemble and dispatch every complete frame in the buffer. Returns
/// whether any frame was handled.
fn dispatch_frames(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut consumed = 0usize;
    let mut progressed = false;
    while !conn.stop_reading && !conn.dead {
        let pending = &conn.rbuf[consumed..];
        if pending.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            // Same contract as the old per-connection reader: oversized
            // frames answer BadRequest and end the conversation.
            shared.reject(
                &conn.handle,
                RejectReason::BadRequest {
                    detail: format!("frame of {len} bytes exceeds the cap"),
                },
            );
            close_conn(conn);
            break;
        }
        if pending.len() < 4 + len {
            break;
        }
        let body = pending[4..4 + len].to_vec();
        consumed += 4 + len;
        progressed = true;
        dispatch_one(shared, conn, &body);
    }
    if consumed > 0 {
        conn.rbuf.drain(..consumed);
    }
    progressed
}

/// Finish the conversation: stop parsing, flush what is queued, close.
fn close_conn(conn: &mut Conn) {
    conn.stop_reading = true;
    conn.handle.state.lock().close_after_flush = true;
}

fn dispatch_one(shared: &Arc<Shared>, conn: &mut Conn, body: &[u8]) {
    // The handshake must come first; anything else is a protocol error.
    if !conn.hello_done {
        match Request::decode(body) {
            Ok(Request::Hello { version }) if version == PROTOCOL_VERSION => {
                conn.hello_done = true;
                send(
                    &conn.handle,
                    &Response::HelloOk {
                        version: PROTOCOL_VERSION,
                    },
                );
            }
            Ok(Request::Hello { .. }) => {
                shared.reject(
                    &conn.handle,
                    RejectReason::VersionMismatch {
                        server: PROTOCOL_VERSION,
                    },
                );
                close_conn(conn);
            }
            Ok(_) => {
                shared.reject(
                    &conn.handle,
                    RejectReason::BadRequest {
                        detail: "first frame must be Hello".to_string(),
                    },
                );
                close_conn(conn);
            }
            Err(e) => {
                shared.reject(
                    &conn.handle,
                    RejectReason::BadRequest {
                        detail: e.to_string(),
                    },
                );
                close_conn(conn);
            }
        }
        return;
    }
    match Request::decode(body) {
        Ok(Request::Hello { .. }) => shared.reject(
            &conn.handle,
            RejectReason::BadRequest {
                detail: "duplicate Hello".to_string(),
            },
        ),
        Ok(Request::Submit {
            image,
            config,
            want_events,
            deadline_ms,
        }) => handle_submit(
            shared,
            &conn.handle,
            &conn.conn_inflight,
            image,
            config,
            want_events,
            deadline_ms,
        ),
        Ok(Request::Status) => send(&conn.handle, &Response::StatusInfo(shared.status())),
        Ok(Request::Cancel { job_id }) => handle_cancel(shared, &conn.handle, job_id),
        Ok(Request::Drain) => {
            // Drain blocks until the queue idles. That wait must not
            // stall the shard's other connections, so it gets its own
            // waiter thread; the shard stops parsing this socket and
            // closes it once DrainOk is flushed.
            conn.stop_reading = true;
            let shared = Arc::clone(shared);
            let handle = conn.handle.clone();
            thread::spawn(move || {
                handle_drain(&shared, &handle);
                handle.state.lock().close_after_flush = true;
                handle.wake.wake();
            });
        }
        Err(e) => shared.reject(
            &conn.handle,
            RejectReason::BadRequest {
                detail: e.to_string(),
            },
        ),
    }
}

/// Post-shutdown epilogue: keep writing until every surviving client
/// has its queued frames (the drainer's `DrainOk` above all), bounded
/// by [`FINAL_FLUSH`].
fn final_flush(conns: &mut [Conn]) {
    let deadline = Instant::now() + FINAL_FLUSH;
    loop {
        let mut pending = false;
        for conn in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            flush_conn(conn);
            pending |= !conn.dead && !conn.flushed();
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        thread::sleep(SHARD_PARK);
    }
    for conn in conns {
        conn.handle.state.lock().closed = true;
    }
}

// ---- request handlers ----------------------------------------------------

fn handle_submit(
    shared: &Shared,
    tx: &ConnHandle,
    conn_inflight: &Arc<AtomicU32>,
    image: SubmitImage,
    config: AnalysisConfig,
    want_events: bool,
    deadline_ms: u64,
) {
    if shared.draining.load(Ordering::Acquire) {
        return shared.reject(tx, RejectReason::Draining);
    }

    let classifier = shared.classifier.as_ref();
    let packed = match image {
        SubmitImage::Bytes(packed) => {
            // Cache first: a warm hit never touches the queue.
            if let Some(cache) = &shared.cache {
                let key = CacheKey::of_packed(&packed, classifier, &config);
                if let Ok(entry) = cache.load(&key) {
                    return serve_hit(shared, tx, &entry.analysis);
                }
            }
            packed
        }
        SubmitImage::Hash(hash) => {
            // Hash-addressed submits are cache-only by construction:
            // the daemon cannot analyze bytes it was never sent.
            if let Some(cache) = &shared.cache {
                let key = CacheKey::of_hash(hash, classifier, &config);
                if let Ok(entry) = cache.load(&key) {
                    return serve_hit(shared, tx, &entry.analysis);
                }
            }
            return shared.reject(tx, RejectReason::UnknownImage);
        }
    };

    let cap = shared.cfg.conn_inflight_cap;
    if conn_inflight.load(Ordering::Acquire) >= cap {
        return shared.reject(tx, RejectReason::InFlightCap { cap });
    }

    let mut qs = shared.qs.lock().unwrap_or_else(PoisonError::into_inner);
    if qs.queue.len() >= shared.cfg.queue_cap {
        let depth = qs.queue.len() as u32;
        drop(qs);
        return shared.reject(
            tx,
            RejectReason::QueueFull {
                depth,
                retry_after_ms: shared.cfg.retry_after_ms,
            },
        );
    }
    let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        CancelToken::new()
    };
    conn_inflight.fetch_add(1, Ordering::AcqRel);
    // Accepted goes on the connection's outbound queue before the job
    // becomes visible to any worker, so no streamed Event frame can
    // precede it.
    send(tx, &Response::Accepted { job_id });
    qs.queue.push_back(Job {
        id: job_id,
        packed,
        config,
        want_events,
        token,
        reply: tx.clone(),
        conn_inflight: Arc::clone(conn_inflight),
    });
    shared.work_cv.notify_one();
    drop(qs);
}

/// Answer a submit straight from the cache: `Accepted` then a terminal
/// `Analysis` frame re-encoded through the same codec a pipeline run
/// uses, so hit and miss payloads are byte-comparable.
fn serve_hit(shared: &Shared, tx: &ConnHandle, analysis: &firmres::FirmwareAnalysis) {
    let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    let mut payload = Vec::new();
    put_analysis(&mut payload, analysis);
    shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
    shared.counters.jobs_served.fetch_add(1, Ordering::Relaxed);
    send(tx, &Response::Accepted { job_id });
    send(
        tx,
        &Response::Analysis {
            job_id,
            from_cache: true,
            payload,
        },
    );
}

fn handle_cancel(shared: &Shared, tx: &ConnHandle, job_id: u64) {
    // Queued first: remove the job before a worker can claim it. The
    // terminal Cancelled frame goes out under the queue lock, before
    // the idle condvar fires, so a drain blocked on this job cannot
    // slip its DrainOk ahead of the job's terminal frame.
    let queued = {
        let mut qs = shared.qs.lock().unwrap_or_else(PoisonError::into_inner);
        let mut removed = None;
        qs.queue.retain(|job| {
            if job.id == job_id {
                removed = Some((job.reply.clone(), Arc::clone(&job.conn_inflight)));
                false
            } else {
                true
            }
        });
        if let Some((reply, conn_inflight)) = &removed {
            shared
                .counters
                .jobs_cancelled
                .fetch_add(1, Ordering::Relaxed);
            send(
                reply,
                &Response::Cancelled {
                    job_id,
                    reason: "cancelled while queued".to_string(),
                },
            );
            conn_inflight.fetch_sub(1, Ordering::AcqRel);
        }
        if qs.queue.is_empty() && qs.running == 0 {
            shared.idle_cv.notify_all();
        }
        removed.is_some()
    };
    if queued {
        return send(
            tx,
            &Response::CancelOk {
                job_id,
                state: JobState::Queued,
            },
        );
    }
    if let Some(token) = shared.running_tokens.lock().get(&job_id) {
        token.cancel();
        return send(
            tx,
            &Response::CancelOk {
                job_id,
                state: JobState::Running,
            },
        );
    }
    send(
        tx,
        &Response::CancelOk {
            job_id,
            state: JobState::Unknown,
        },
    );
}

fn handle_drain(shared: &Shared, tx: &ConnHandle) {
    shared.draining.store(true, Ordering::Release);
    {
        let mut qs = shared.qs.lock().unwrap_or_else(PoisonError::into_inner);
        while !(qs.queue.is_empty() && qs.running == 0) {
            qs = shared
                .idle_cv
                .wait(qs)
                .unwrap_or_else(PoisonError::into_inner);
        }
        qs.stop = true;
        shared.work_cv.notify_all();
    }
    send(
        tx,
        &Response::DrainOk {
            jobs_served: shared.counters.jobs_served.load(Ordering::Relaxed),
        },
    );
    shared.shutdown.store(true, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_usable() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.io_threads >= 1);
        assert!(cfg.queue_cap >= 1);
        assert!(cfg.conn_inflight_cap >= 1);
        assert!(cfg.cache_dir.is_none());
        assert_eq!(cfg.store, StorePolicy::default());
    }

    #[test]
    fn status_snapshot_starts_clean() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let status = server.shared.status();
        assert_eq!(status.queue_depth, 0);
        assert_eq!(status.queue_cap, ServerConfig::default().queue_cap as u32);
        assert_eq!(status.inflight, 0);
        assert_eq!(status.jobs_served, 0);
        assert!(!status.draining);
        assert!(server.local_addr().expect("addr").port() > 0);
    }

    #[test]
    fn a_poisoned_queue_lock_does_not_wedge_the_daemon() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let poisoner = Arc::clone(&shared);
        let panicked = thread::spawn(move || {
            let _qs = poisoner.qs.lock().unwrap();
            panic!("poison the queue lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.qs.is_poisoned());

        // The in-process snapshot still answers...
        assert_eq!(shared.status().queue_depth, 0);
        // ...and so does a live daemon: workers start, status answers
        // over the wire and a drain completes and shuts the server down.
        let runner = thread::spawn(move || server.run());
        let mut client = crate::Client::connect(addr).expect("connect");
        assert_eq!(client.status().expect("status").inflight, 0);
        assert_eq!(client.drain().expect("drain"), 0);
        let final_status = runner.join().expect("server thread");
        assert!(final_status.draining);
    }
}
