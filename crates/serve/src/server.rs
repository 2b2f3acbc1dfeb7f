//! The serving loop: admission, connection handling, drain, report.
//!
//! One listener thread accepts connections and spawns a handler per
//! connection; handlers parse frames, apply admission control and the
//! load-shedding ladder, and park on a rendezvous channel while one of
//! the worker threads ([`crate::worker`]) executes the request as part
//! of a batch. Every wait in the building is bounded — socket reads and
//! writes carry timeouts, queue pops time out, response waits time out —
//! so a drain can never hang on a stuck peer.
//!
//! The degradation ladder (level is re-evaluated at every admission):
//!
//! | level | trigger               | effect                               |
//! |------:|-----------------------|--------------------------------------|
//! | 0     | queue below ½ capacity| normal batching                      |
//! | 1     | queue ≥ ½ capacity    | max batch shrinks to 1 (lower latency per request) |
//! | 2     | queue ≥ ¾ capacity    | low-priority requests rejected `ServerBusy` at admission |
//! | 3     | SIGINT / fatal error  | drain: stop accepting, finish in-flight, answer queued `Draining` |

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mupod_nn::{KernelTier, Network};
use mupod_obs::{FlightStage, RollingHistogram};
use mupod_runtime::{CancelToken, StatusCode};

use crate::frame::{self, FrameError, Priority, ReqKind, ShardState};
use crate::listen::{self, Frame};
use crate::queue::{BoundedQueue, PushError};
use crate::tally::{tally_table, Tallies};
use crate::telemetry::{self, Telemetry};
use crate::{admin, worker};

/// Grace on top of a request's deadline for the worker's answer to
/// arrive before the handler gives up (covers batch execution time).
const RESPONSE_GRACE: Duration = Duration::from_secs(10);

/// Everything `mupod serve` needs to know.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (0 = ephemeral port).
    pub addr: String,
    /// Worker threads, each with its own batch arena.
    pub workers: usize,
    /// Bounded queue capacity — the admission-control limit.
    pub queue_depth: usize,
    /// Largest batch a worker gathers per forward pass.
    pub max_batch: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Worker panics tolerated before the server gives up and drains.
    pub restart_budget: u32,
    /// Honor `ChaosPanic` frames (fault injection for the chaos tests).
    pub chaos: bool,
    /// Test hook: sleep this long before executing each batch, making
    /// deadline-expiry and drain windows deterministic in tests.
    pub slow_batch: Option<Duration>,
    /// Bind address for the admin/scrape plane (`/metrics`, `/health`,
    /// `/flight`); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Where worker panics and budget exhaustion seal the flight
    /// recorder; `None` disables automatic dumps.
    pub flight_out: Option<PathBuf>,
    /// Kernel tier the workers' batch arenas run on. `Exact` (default)
    /// keeps bit-exact inference; `Fast` dispatches to the SIMD/FMA
    /// microkernels (`mupod_tensor::fast`). Surfaces in the readiness
    /// line and the `mupod_serve_kernel_tier` gauge so chaos/soak logs
    /// record which tier was under test.
    pub kernel_tier: KernelTier,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 32,
            max_batch: 4,
            default_deadline: Duration::from_secs(1),
            restart_budget: 8,
            chaos: false,
            slow_batch: None,
            metrics_addr: None,
            flight_out: None,
            kernel_tier: KernelTier::default(),
        }
    }
}

/// The addresses a running server actually bound, delivered through
/// `on_ready` — with port 0 in the config this is the only way to
/// learn the real ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// The frame-protocol listener.
    pub addr: SocketAddr,
    /// The admin/scrape listener, when `metrics_addr` was set.
    pub metrics_addr: Option<SocketAddr>,
}

/// What happened over one serving run, computed at drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Requests answered `Ok` with a class.
    pub requests_ok: u64,
    /// Fast-rejected at admission (queue full or low-priority shed).
    pub rejected_busy: u64,
    /// Answered `Draining` (at admission or dequeued unexecuted).
    pub rejected_draining: u64,
    /// Low-priority requests shed by ladder level ≥ 2 (subset of
    /// `rejected_busy`).
    pub shed_low_priority: u64,
    /// Requests whose deadline expired before or during service.
    pub deadline_expired: u64,
    /// Malformed / truncated / oversized frames answered `BadRequest`.
    pub bad_frames: u64,
    /// Worker panics caught and answered `WorkerCrashed`.
    pub worker_crashes: u64,
    /// Peers that vanished mid-request or mid-response.
    pub client_disconnects: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Requests served through those batches.
    pub batched_requests: u64,
    /// Median OK-request latency, microseconds (0 if none).
    pub p50_latency_us: u64,
    /// 99th-percentile OK-request latency, microseconds (0 if none).
    pub p99_latency_us: u64,
}

tally_table! {
    /// The shard's tallies, one per [`ServeReport`] counter field.
    ServeTally, "mupod_", "serve." {
        RequestsOk requests_ok "Requests answered Ok with a class.",
        RejectedBusy rejected_busy "Fast-rejected at admission (queue full or shed).",
        RejectedDraining rejected_draining "Answered Draining at admission or dequeue.",
        ShedLowPriority shed_low_priority "Low-priority requests shed by ladder level 2.",
        DeadlineExpired deadline_expired
            "Requests whose deadline expired before or during service.",
        BadFrames bad_frames "Malformed frames answered BadRequest.",
        WorkerCrashes worker_crashes "Worker panics caught and isolated.",
        ClientDisconnects client_disconnects "Peers that vanished mid-request or mid-response.",
        Batches batches "Batched forward passes executed.",
        BatchedRequests batched_requests "Requests served through those batches.",
    }
}

/// Terminal serving failures (everything else degrades and continues).
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// Workers panicked more often than the restart budget allows;
    /// the server drained rather than thrash.
    RestartBudgetExhausted {
        /// Panics observed.
        crashes: u32,
        /// The configured budget.
        budget: u32,
        /// What the server did before giving up — filled in by
        /// [`run`] at drain so callers can still print a summary.
        report: Box<ServeReport>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            ServeError::RestartBudgetExhausted {
                crashes, budget, ..
            } => write!(
                f,
                "worker restart budget exhausted ({crashes} crashes > budget {budget}); drained"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::RestartBudgetExhausted { .. } => None,
        }
    }
}

/// One admitted request travelling from handler to worker.
pub(crate) struct Job {
    /// Requested operation.
    pub(crate) kind: ReqKind,
    /// Raw image data (empty for chaos frames).
    pub(crate) image: Vec<f32>,
    /// When the request must be answered by.
    pub(crate) deadline: Instant,
    /// When the handler admitted it (latency base).
    pub(crate) accepted: Instant,
    /// Wire trace ID (0 = untraced), stamped on flight events.
    pub(crate) trace_id: u64,
    /// Rendezvous back to the waiting handler.
    pub(crate) resp: mpsc::SyncSender<(StatusCode, Vec<u8>)>,
}

/// Rebuilds a freshly calibrated [`Network`] from a reload seed; the
/// CLI injects one that re-runs model build + head calibration. `None`
/// makes the server answer reload requests `BadRequest`.
pub type Reloader = dyn Fn(u64) -> Result<Network, String> + Sync;

/// State shared by the listener, every handler and every worker.
pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<Job>,
    /// The served network. Workers hold an [`Arc`] clone and re-check
    /// [`Self::net_epoch`] between batches, so a reload swap never
    /// blocks the hot path on this mutex.
    pub(crate) net: Mutex<Arc<Network>>,
    /// Bumped once per successful hot reload; workers rebuild their
    /// arenas when it moves.
    pub(crate) net_epoch: AtomicU64,
    /// A reload build is in progress (health pings report `Reloading`).
    pub(crate) reloading: AtomicBool,
    /// Serializes concurrent reload requests without holding
    /// [`Self::net`] across the (slow) rebuild.
    reload_gate: Mutex<()>,
    /// Elements of one input image; a reload may not change it.
    input_elems: usize,
    /// Level-3 flag: set by SIGINT or a fatal worker error.
    pub(crate) draining: AtomicBool,
    /// Current ladder level (0–2; 3 is `draining`).
    pub(crate) degrade: AtomicU8,
    /// First terminal error wins; returned from [`run`].
    pub(crate) fatal: Mutex<Option<ServeError>>,
    pub(crate) tally: Tallies<ServeTally>,
    /// Live instruments for the scrape endpoint and flight recorder.
    pub(crate) telemetry: Telemetry,
    /// Queue depth sampled at every admission.
    pub(crate) queue_depth: RollingHistogram,
    /// Live jobs per executed batch (batch occupancy).
    pub(crate) batch_fill: RollingHistogram,
}

impl Shared {
    fn new(net: Network, cfg: &ServeConfig) -> Self {
        Self {
            queue: BoundedQueue::new(cfg.queue_depth.max(1)),
            input_elems: net.input_dims().iter().product(),
            net: Mutex::new(Arc::new(net)),
            net_epoch: AtomicU64::new(0),
            reloading: AtomicBool::new(false),
            reload_gate: Mutex::new(()),
            draining: AtomicBool::new(false),
            degrade: AtomicU8::new(0),
            fatal: Mutex::new(None),
            tally: Tallies::new(),
            telemetry: Telemetry::new(),
            queue_depth: telemetry::rolling(),
            batch_fill: telemetry::rolling(),
        }
    }

    /// The currently served network (cheap Arc clone).
    pub(crate) fn current_net(&self) -> Arc<Network> {
        self.net
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// What a health ping should report right now.
    pub(crate) fn shard_state(&self) -> ShardState {
        if self.is_draining() {
            ShardState::Draining
        } else if self.reloading.load(Ordering::SeqCst) {
            ShardState::Reloading
        } else if self.degrade.load(Ordering::SeqCst) > 0 {
            ShardState::Degraded
        } else {
            ShardState::Ok
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Enters ladder level 3: no new admissions, queued work is answered
    /// `Draining`, workers exit once the queue is dry.
    pub(crate) fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            mupod_obs::event(
                mupod_obs::Level::Info,
                "serve.drain_begin",
                &[("queued", &self.queue.len().to_string())],
            );
        }
        self.queue.close();
    }
}

/// Sends a job's response back to its handler; the handler may already
/// have timed out and gone, which is fine — the send just fizzles.
pub(crate) fn respond_job(job: &Job, status: StatusCode, payload: Vec<u8>) {
    let _ = job.resp.send((status, payload));
}

/// Sorts `latencies_us` in place and returns `(p50, p99)` in
/// microseconds — `(0, 0)` for an empty slice. The benches use it for
/// client-side latencies; the drain report reads the same ranks from
/// its lifetime histogram.
pub fn percentiles_us(latencies_us: &mut [u64]) -> (u64, u64) {
    if latencies_us.is_empty() {
        return (0, 0);
    }
    latencies_us.sort_unstable();
    let n = latencies_us.len();
    let p50 = latencies_us[n / 2];
    let p99 = latencies_us[(n * 99 / 100).min(n - 1)];
    (p50, p99)
}

/// Runs the server until `token` cancels (graceful drain → `Ok`) or a
/// terminal error occurs.
///
/// `on_ready` fires once with the bound addresses — with port 0 in the
/// config this is the only way to learn the real ports, and tests use
/// it to synchronize.
///
/// # Errors
///
/// [`ServeError::Bind`] if either listener cannot bind;
/// [`ServeError::RestartBudgetExhausted`] if workers panic more often
/// than `cfg.restart_budget` tolerates (the server drains first, so
/// in-flight clients still get answers).
pub fn run(
    net: &Network,
    cfg: &ServeConfig,
    token: &CancelToken,
    on_ready: impl FnOnce(Bound),
) -> Result<ServeReport, ServeError> {
    run_reloadable(net.clone(), cfg, token, None, on_ready)
}

/// [`run`], plus hot model reload: when `reloader` is `Some`, a
/// `Reload` frame rebuilds the network from the carried seed on the
/// requesting connection's thread and swaps it in atomically. Workers
/// pick the new network up at their next batch boundary; requests
/// already queued or in flight finish on whichever network they
/// dequeued with, so zero accepted requests are dropped.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_reloadable(
    net: Network,
    cfg: &ServeConfig,
    token: &CancelToken,
    reloader: Option<&Reloader>,
    on_ready: impl FnOnce(Bound),
) -> Result<ServeReport, ServeError> {
    let (listener, admin_listener, bound) = listen::bind(&cfg.addr, cfg.metrics_addr.as_deref())
        .map_err(|(addr, source)| ServeError::Bind { addr, source })?;
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.listening",
        &[
            ("addr", &bound.addr.to_string()),
            ("workers", &cfg.workers.to_string()),
            ("queue_depth", &cfg.queue_depth.to_string()),
            ("max_batch", &cfg.max_batch.to_string()),
        ],
    );
    let shared = Shared::new(net, cfg);
    on_ready(bound);
    std::thread::scope(|s| {
        let shared = &shared;
        for idx in 0..cfg.workers.max(1) {
            s.spawn(move || worker::worker_loop(idx, cfg, shared));
        }
        if let Some(admin_listener) = admin_listener {
            s.spawn(move || {
                admin::admin_loop(
                    &admin_listener,
                    &|| shared.is_draining(),
                    &|| telemetry::render_metrics(cfg, shared),
                    &|| telemetry::render_health(cfg, shared),
                    &shared.telemetry.flight,
                );
            });
        }
        // Handlers end once their bounded reads and waits see the drain;
        // workers once the closed queue runs dry.
        listen::accept_loop(
            &listener,
            &|| token.is_cancelled() || shared.is_draining(),
            &|| shared.begin_drain(),
            "serve.connections",
            "serve.accept_error",
            &|stream| {
                let serve = |stream: &mut TcpStream, frame| {
                    serve_frame(stream, frame, cfg, shared, reloader)
                };
                if listen::handle_conn(stream, &|| shared.is_draining(), &serve) {
                    shared.tally.bump(ServeTally::ClientDisconnects, 1);
                }
            },
        );
    });
    let (p50, p99) = shared.telemetry.lifetime_us.percentiles();
    let t = |tally| shared.tally.get(tally);
    let report = ServeReport {
        requests_ok: t(ServeTally::RequestsOk),
        rejected_busy: t(ServeTally::RejectedBusy),
        rejected_draining: t(ServeTally::RejectedDraining),
        shed_low_priority: t(ServeTally::ShedLowPriority),
        deadline_expired: t(ServeTally::DeadlineExpired),
        bad_frames: t(ServeTally::BadFrames),
        worker_crashes: t(ServeTally::WorkerCrashes),
        client_disconnects: t(ServeTally::ClientDisconnects),
        batches: t(ServeTally::Batches),
        batched_requests: t(ServeTally::BatchedRequests),
        p50_latency_us: p50,
        p99_latency_us: p99,
    };
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.drained",
        &[
            ("requests_ok", &report.requests_ok.to_string()),
            ("worker_crashes", &report.worker_crashes.to_string()),
        ],
    );
    let fatal = shared
        .fatal
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    if let Some(mut e) = fatal {
        // The drain still happened; attach what it measured so callers
        // can summarize even on the error path.
        if let ServeError::RestartBudgetExhausted { report: r, .. } = &mut e {
            **r = report;
        }
        return Err(e);
    }
    Ok(report)
}

/// The ladder level the current queue depth maps to (0–2).
fn ladder_level(queue_len: usize, capacity: usize) -> u8 {
    if queue_len * 4 >= capacity * 3 {
        2
    } else if queue_len * 2 >= capacity {
        1
    } else {
        0
    }
}

/// Writes a response frame, echoing the request's trace ID when
/// nonzero; `false` means the peer vanished.
fn write_response(
    stream: &mut TcpStream,
    shared: &Shared,
    status: StatusCode,
    trace_id: u64,
    payload: &[u8],
) -> bool {
    let frame = frame::encode_response_traced(status, Some(trace_id), payload);
    match stream.write_all(&frame).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(e) => {
            shared.tally.bump(ServeTally::ClientDisconnects, 1);
            mupod_obs::event(
                mupod_obs::Level::Warn,
                "serve.client_disconnect",
                &[("during", "response write"), ("error", &e.to_string())],
            );
            false
        }
    }
}

/// Answers a frame error with `BadRequest`; the connection then closes
/// (a malformed binary stream cannot be re-synchronized).
fn reject_bad_frame(stream: &mut TcpStream, shared: &Shared, err: &FrameError) -> bool {
    shared.tally.bump(ServeTally::BadFrames, 1);
    mupod_obs::event(
        mupod_obs::Level::Warn,
        "serve.bad_frame",
        &[("error", &err.to_string())],
    );
    write_response(
        stream,
        shared,
        StatusCode::BadRequest,
        0,
        err.to_string().as_bytes(),
    );
    false
}

/// Answers `Draining` to a request arriving during the drain; the
/// connection then closes.
fn reject_draining(stream: &mut TcpStream, shared: &Shared, trace_id: u64) -> bool {
    shared.tally.bump(ServeTally::RejectedDraining, 1);
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Shed, -1, StatusCode::Draining.wire());
    write_response(
        stream,
        shared,
        StatusCode::Draining,
        trace_id,
        b"server draining; not accepting work",
    );
    false
}

/// Serves one request frame, or answers its read error. Returns
/// whether the connection should stay open.
fn serve_frame(
    stream: &mut TcpStream,
    frame: Result<Frame, FrameError>,
    cfg: &ServeConfig,
    shared: &Shared,
    reloader: Option<&Reloader>,
) -> bool {
    let frame = match frame {
        Ok(frame) => frame,
        Err(e) => return reject_bad_frame(stream, shared, &e),
    };
    let (h, trace_id, payload) = (frame.header, frame.trace_id, frame.payload());
    match h.kind {
        ReqKind::Classify => {
            let want = shared.input_elems * 4;
            if h.payload_len != want {
                return reject_bad_frame(
                    stream,
                    shared,
                    &FrameError::WrongPayloadLen {
                        got: h.payload_len,
                        want,
                    },
                );
            }
        }
        ReqKind::ChaosPanic => {
            if !cfg.chaos {
                return reject_bad_frame(stream, shared, &FrameError::BadKind(2));
            }
        }
        // Control ops are answered inline on the handler thread — they
        // never enter the queue, so they work even under full-queue
        // pressure and (for pings) report the drain honestly.
        ReqKind::HealthPing => {
            let state = shared.shard_state();
            return write_response(stream, shared, StatusCode::Ok, trace_id, &[state.wire()]);
        }
        ReqKind::Reload => {
            if h.payload_len != 8 {
                return reject_bad_frame(
                    stream,
                    shared,
                    &FrameError::WrongPayloadLen {
                        got: h.payload_len,
                        want: 8,
                    },
                );
            }
            let Some(seed) = frame::decode_reload_seed(payload) else {
                return reject_bad_frame(stream, shared, &FrameError::Truncated);
            };
            let (status, body) = do_reload(seed, shared, reloader);
            return write_response(stream, shared, status, trace_id, &body);
        }
    }
    if shared.is_draining() {
        return reject_draining(stream, shared, trace_id);
    }
    // Re-evaluate the degradation ladder at every admission.
    let depth = shared.queue.len();
    mupod_obs::histogram_record("serve.queue_depth", depth as f64);
    shared.queue_depth.record(depth as u64);
    let level = ladder_level(depth, shared.queue.capacity());
    let prev = shared.degrade.swap(level, Ordering::SeqCst);
    if level != prev {
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "serve.degrade_level",
            &[
                ("from", &prev.to_string()),
                ("to", &level.to_string()),
                ("queue_depth", &depth.to_string()),
            ],
        );
    }
    if level >= 2 && h.priority == Priority::Low {
        shared.tally.bump(ServeTally::ShedLowPriority, 1);
        shared.tally.bump(ServeTally::RejectedBusy, 1);
        shared.telemetry.flight.record(
            trace_id,
            FlightStage::Shed,
            -1,
            StatusCode::ServerBusy.wire(),
        );
        return write_response(
            stream,
            shared,
            StatusCode::ServerBusy,
            trace_id,
            b"shedding low-priority traffic",
        );
    }
    let accepted = Instant::now();
    let deadline = accepted + h.budget(cfg.default_deadline);
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job {
        kind: h.kind,
        image: frame::decode_image(payload),
        deadline,
        accepted,
        trace_id,
        resp: tx,
    };
    // Recorded before the push: once the job is in the queue a worker
    // may dequeue it instantly, and admit must order before dequeue in
    // the flight ring. A failed push follows up with a shed event.
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Admit, -1, 0);
    match shared.queue.try_push(job, h.priority) {
        Ok(()) => {}
        Err((PushError::Full, _)) => {
            shared.tally.bump(ServeTally::RejectedBusy, 1);
            shared.telemetry.flight.record(
                trace_id,
                FlightStage::Shed,
                -1,
                StatusCode::ServerBusy.wire(),
            );
            return write_response(
                stream,
                shared,
                StatusCode::ServerBusy,
                trace_id,
                b"request queue full",
            );
        }
        Err((PushError::Closed, _)) => return reject_draining(stream, shared, trace_id),
    }
    shared.telemetry.in_flight.add(1);
    let wait = deadline.saturating_duration_since(Instant::now())
        + RESPONSE_GRACE
        + cfg.slow_batch.unwrap_or(Duration::ZERO);
    let outcome = rx.recv_timeout(wait);
    shared.telemetry.in_flight.sub(1);
    let (status, body): (StatusCode, Vec<u8>) = match outcome {
        Ok((status, body)) => (status, body),
        Err(RecvTimeoutError::Timeout) => {
            shared.tally.bump(ServeTally::DeadlineExpired, 1);
            (
                StatusCode::DeadlineExceeded,
                b"no worker answered in time".to_vec(),
            )
        }
        Err(RecvTimeoutError::Disconnected) => (
            StatusCode::WorkerCrashed,
            b"worker dropped the request".to_vec(),
        ),
    };
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Reply, -1, status.wire());
    write_response(stream, shared, status, trace_id, &body)
}

/// The drain-and-swap reload handshake: rebuild from the seed (slow,
/// on the requesting connection's thread, gate held so concurrent
/// reloads serialize), verify the input dims are unchanged, then swap
/// the [`Arc`] and bump the epoch. The OK payload is the new epoch as
/// 8 LE bytes; every failure is `BadRequest` with a diagnostic and the
/// old network stays in service untouched.
fn do_reload(seed: u64, shared: &Shared, reloader: Option<&Reloader>) -> (StatusCode, Vec<u8>) {
    let Some(reloader) = reloader else {
        return (
            StatusCode::BadRequest,
            b"reload not supported by this server".to_vec(),
        );
    };
    let _gate = shared
        .reload_gate
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    shared.reloading.store(true, Ordering::SeqCst);
    mupod_obs::event(
        mupod_obs::Level::Info,
        "serve.reload_begin",
        &[("seed", &seed.to_string())],
    );
    let outcome = match reloader(seed) {
        Ok(new_net) => {
            let old_dims = shared.current_net().input_dims().to_vec();
            if new_net.input_dims() != old_dims.as_slice() {
                (
                    StatusCode::BadRequest,
                    format!(
                        "reload changed input dims {:?} -> {:?}; rejected",
                        old_dims,
                        new_net.input_dims()
                    )
                    .into_bytes(),
                )
            } else {
                *shared.net.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(new_net);
                // ordering: epoch publication, not a tally — workers
                // poll this with SeqCst loads to notice a reload
                // between batches; keep the RMW SeqCst so the bump is
                // never observed before the net swap above.
                let epoch = shared
                    .net_epoch
                    .fetch_add(1, Ordering::SeqCst)
                    .wrapping_add(1);
                mupod_obs::event(
                    mupod_obs::Level::Info,
                    "serve.reloaded",
                    &[("seed", &seed.to_string()), ("epoch", &epoch.to_string())],
                );
                (StatusCode::Ok, epoch.to_le_bytes().to_vec())
            }
        }
        Err(msg) => (
            StatusCode::BadRequest,
            format!("reload failed: {msg}").into_bytes(),
        ),
    };
    if outcome.0 != StatusCode::Ok {
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "serve.reload_rejected",
            &[("seed", &seed.to_string())],
        );
    }
    shared.reloading.store(false, Ordering::SeqCst);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_levels_follow_queue_pressure() {
        // Capacity 8: level 1 at 4 queued, level 2 at 6.
        assert_eq!(ladder_level(0, 8), 0);
        assert_eq!(ladder_level(3, 8), 0);
        assert_eq!(ladder_level(4, 8), 1);
        assert_eq!(ladder_level(5, 8), 1);
        assert_eq!(ladder_level(6, 8), 2);
        assert_eq!(ladder_level(8, 8), 2);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(percentiles_us(&mut empty), (0, 0));
        let mut one = vec![42];
        assert_eq!(percentiles_us(&mut one), (42, 42));
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let (p50, p99) = percentiles_us(&mut v);
        assert_eq!(p50, 51);
        assert_eq!(p99, 100);
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let net = crate::test_util::tiny_net();
        let cfg = ServeConfig {
            addr: "256.256.256.256:1".to_string(),
            ..ServeConfig::default()
        };
        let token = CancelToken::new();
        let err = run(&net, &cfg, &token, |_| {}).unwrap_err();
        assert!(matches!(err, ServeError::Bind { .. }));
        assert!(err.to_string().contains("cannot bind"));
    }
}
