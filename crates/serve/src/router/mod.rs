//! `mupod route`: the fault-tolerant multi-shard serving front.
//!
//! The router speaks the same framed protocol as `mupod serve` on both
//! sides: clients connect to it exactly as they would to a single
//! shard, and it forwards each request — **byte-for-byte**, trace ID
//! and deadline included — to one of N backend shards over pooled
//! persistent connections. What one node cannot survive, the fleet
//! does:
//!
//! * **Health checking** ([`health`]): a periodic ping per shard feeds
//!   per-shard circuit breakers ([`breaker`]) — closed → open on
//!   consecutive failures, open → half-open after a deterministic
//!   jittered cooldown, half-open → closed on the next healthy ping.
//! * **Retry** — idempotent (classify) requests that fail with a
//!   connect/transport error, `WorkerCrashed`, or `Draining` are
//!   retried on another shard, bounded by a per-request budget and the
//!   request's own wire deadline.
//! * **Hedging** — when the primary attempt outlives a p99-informed
//!   timer, a duplicate goes to a second shard and the first answer
//!   wins. Hedges are capped at ~10% of traffic and never launched
//!   past the deadline.
//! * **Reload awareness** — a shard rebuilding its model (`mupod
//!   reload`, see [`reload`]) reports `Reloading`/`Draining` states
//!   and the router steers traffic to the remaining shards; zero
//!   accepted requests are dropped on either side of the handshake.
//! * **Observability** — the same admin plane as a shard
//!   (`/metrics`, `/health`, `/flight`) with `mupod_route_*` metric
//!   families and `forward`/`hedge` flight-recorder stages, so one
//!   trace ID is greppable from client through router to shard.
//!
//! `DESIGN.md` §14 describes the architecture end to end.

pub(crate) mod breaker;
pub(crate) mod health;
pub(crate) mod pool;
pub(crate) mod reload;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mupod_obs::{Exposition, FlightStage};
use mupod_runtime::{CancelToken, StatusCode};

use crate::admin;
use crate::frame::{self, FrameError, ReqKind, ShardState, HEADER_LEN, TRACE_ID_LEN};
use crate::listen::{self, Frame};
use crate::server::Bound;
use crate::tally::{tally_table, Tallies};
use crate::telemetry::Telemetry;

pub use breaker::BreakerState;
pub use reload::{reload_shard, ReloadError};

/// Connect budget per forwarding attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Write budget per forwarding attempt.
const ATTEMPT_WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// Grace past a request's deadline before the router answers
/// `DeadlineExceeded` itself (covers shard-side execution overrun).
const RELAY_GRACE: Duration = Duration::from_secs(2);
/// Shard-state byte meaning "last ping could not reach the shard".
const STATE_UNREACHABLE: u8 = 0xFF;

/// Router health-document schema tag.
pub const ROUTE_HEALTH_SCHEMA: &str = "mupod-route-health v1";

/// Everything `mupod route` needs to know.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Front bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Backend `mupod serve` shards (at least one).
    pub shards: Vec<SocketAddr>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Extra attempts a retryable request may spend beyond the first.
    pub retry_budget: u32,
    /// Hedge-timer floor; the effective timer is
    /// `max(hedge_after, windowed p99 of routed latency)`.
    pub hedge_after: Duration,
    /// Cadence of the active health pings.
    pub health_interval: Duration,
    /// Consecutive failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Base open→half-open cooldown (jittered, doubling per re-open).
    pub breaker_cooldown: Duration,
    /// Bind address for the admin plane; `None` disables it.
    pub metrics_addr: Option<String>,
    /// Where to seal the flight recorder at drain; `None` disables it.
    pub flight_out: Option<PathBuf>,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            default_deadline: Duration::from_secs(1),
            retry_budget: 2,
            hedge_after: Duration::from_millis(25),
            health_interval: Duration::from_millis(200),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            metrics_addr: None,
            flight_out: None,
        }
    }
}

/// What happened over one routing run, computed at drain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Client requests received (control ops excluded).
    pub requests: u64,
    /// Requests answered with a relayed `Ok`.
    pub relayed_ok: u64,
    /// Requests answered with a relayed non-OK status.
    pub relayed_errors: u64,
    /// Requests answered `NoHealthyShard` by the router itself.
    pub no_healthy_shard: u64,
    /// Requests answered `DeadlineExceeded` by the router itself.
    pub deadline_exceeded: u64,
    /// Forwarding attempts launched (first tries + retries + hedges).
    pub forwarded_attempts: u64,
    /// Retries launched after a failed or retryable attempt.
    pub retries: u64,
    /// Hedged duplicates launched.
    pub hedges: u64,
    /// Requests whose winning answer came from the hedge attempt.
    pub hedge_wins: u64,
    /// Malformed client frames answered `BadRequest`.
    pub bad_frames: u64,
    /// Clients that vanished mid-request or mid-response.
    pub client_disconnects: u64,
    /// Breaker closed→open transitions observed.
    pub breaker_opens: u64,
    /// Breaker half-open→closed recoveries observed.
    pub breaker_closes: u64,
    /// Median relayed-OK latency, microseconds (0 if none).
    pub p50_latency_us: u64,
    /// 99th-percentile relayed-OK latency, microseconds (0 if none).
    pub p99_latency_us: u64,
}

tally_table! {
    /// The router's tallies, one per [`RouteReport`] counter field.
    RouteTally, "mupod_route_", "route." {
        Requests requests "Client requests received (control ops excluded).",
        RelayedOk relayed_ok "Requests answered with a relayed Ok.",
        RelayedErrors relayed_errors "Requests answered with a relayed non-OK status.",
        NoHealthyShard no_healthy_shard "Requests answered NoHealthyShard by the router.",
        DeadlineExceeded deadline_exceeded "Requests answered DeadlineExceeded by the router.",
        ForwardedAttempts forwarded_attempts
            "Forwarding attempts launched (first tries, retries, hedges).",
        Retries retries "Retries launched after a failed or retryable attempt.",
        Hedges hedges "Hedged duplicate attempts launched.",
        HedgeWins hedge_wins "Requests whose winning answer came from the hedge.",
        BadFrames bad_frames "Malformed client frames answered BadRequest.",
        ClientDisconnects client_disconnects "Clients that vanished mid-request or mid-response.",
        BreakerOpens breaker_opens "Breaker closed-to-open transitions.",
        BreakerCloses breaker_closes "Breaker half-open-to-closed recoveries.",
    }
}

/// Terminal routing failures.
#[derive(Debug)]
pub enum RouteError {
    /// A listener could not bind.
    Bind {
        /// The requested address.
        addr: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// The shard list was empty.
    NoShards,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            RouteError::NoShards => write!(f, "no shards configured; pass at least one --shard"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Bind { source, .. } => Some(source),
            RouteError::NoShards => None,
        }
    }
}

/// One backend shard as the router sees it.
pub(crate) struct Shard {
    pub(crate) addr: SocketAddr,
    pub(crate) pool: pool::ConnPool,
    pub(crate) breaker: breaker::Breaker,
    /// Last pinged [`ShardState`] wire byte; [`STATE_UNREACHABLE`]
    /// when the last ping could not connect.
    state: AtomicU8,
    /// Forwarding attempts sent here.
    forwarded: AtomicU64,
    /// Forwarding attempts that failed here (health pings excluded).
    failures: AtomicU64,
}

impl Shard {
    fn new(addr: SocketAddr, cfg: &RouteConfig, idx: usize) -> Self {
        Shard {
            addr,
            pool: pool::ConnPool::new(),
            breaker: breaker::Breaker::new(
                cfg.breaker_threshold,
                cfg.breaker_cooldown,
                0xB0_5EED ^ (idx as u64),
            ),
            // Optimistic start: routable until a ping says otherwise.
            state: AtomicU8::new(ShardState::Ok.wire()),
            forwarded: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    pub(crate) fn set_state(&self, wire: u8) {
        self.state.store(wire, Ordering::SeqCst);
    }

    pub(crate) fn set_unreachable(&self) {
        self.state.store(STATE_UNREACHABLE, Ordering::SeqCst);
    }

    fn last_state(&self) -> Option<ShardState> {
        ShardState::from_wire(self.state.load(Ordering::SeqCst))
    }

    /// Whether client traffic may go here right now.
    fn routable(&self) -> bool {
        self.breaker.allows_traffic() && self.last_state().is_some_and(ShardState::routable)
    }
}

/// State shared by the front listener, handlers, the health loop and
/// the admin plane. Lives in an [`Arc`] because a hedge race's threads
/// are detached (a slow losing attempt must not block the winner's
/// reply).
pub(crate) struct RouterShared {
    pub(crate) cfg: RouteConfig,
    pub(crate) shards: Vec<Shard>,
    draining: AtomicBool,
    rr: AtomicUsize,
    tally: Tallies<RouteTally>,
    telemetry: Telemetry,
}

impl RouterShared {
    fn new(cfg: RouteConfig) -> Self {
        let shards = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(i, &addr)| Shard::new(addr, &cfg, i))
            .collect();
        RouterShared {
            cfg,
            shards,
            draining: AtomicBool::new(false),
            rr: AtomicUsize::new(0),
            tally: Tallies::new(),
            telemetry: Telemetry::new(),
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            mupod_obs::event(mupod_obs::Level::Info, "route.drain_begin", &[]);
        }
    }

    /// Round-robin pick of a routable shard, preferring ones not in
    /// `used`; falls back to a used-but-routable shard (a restarted
    /// worker may well serve a retry), `None` when nothing is routable.
    fn pick_shard(&self, used: &[usize]) -> Option<usize> {
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            let idx = (start + i) % n;
            if !used.contains(&idx) && self.shards[idx].routable() {
                return Some(idx);
            }
        }
        for i in 0..n {
            let idx = (start + i) % n;
            if self.shards[idx].routable() {
                return Some(idx);
            }
        }
        None
    }

    /// Like [`Self::pick_shard`] but never falls back to a used shard:
    /// a hedge to the shard already working the request duplicates its
    /// load without buying any independence, so with no fresh shard
    /// available the hedge simply does not launch.
    fn pick_unused_shard(&self, used: &[usize]) -> Option<usize> {
        let n = self.shards.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&idx| !used.contains(&idx) && self.shards[idx].routable())
    }

    fn healthy_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.routable()).count()
    }

    /// The p99-informed hedge timer (floored at `cfg.hedge_after`).
    fn hedge_delay(&self) -> Duration {
        let p99_us = self.telemetry.latency_us.summarize().quantile(0.99);
        self.cfg.hedge_after.max(Duration::from_micros(p99_us))
    }

    /// Hedges are budgeted to ~10% of client requests.
    fn hedge_budget_ok(&self) -> bool {
        let hedges = self.tally.get(RouteTally::Hedges);
        let requests = self.tally.get(RouteTally::Requests);
        hedges.saturating_mul(10) < requests.max(1)
    }

    /// What the router's own health ping answers.
    fn router_state(&self) -> ShardState {
        if self.is_draining() {
            ShardState::Draining
        } else if self.healthy_shards() == 0 {
            ShardState::Degraded
        } else {
            ShardState::Ok
        }
    }

    /// Books a failed forwarding attempt on shard `idx`.
    fn attempt_failed(&self, idx: usize, err: &AttemptError) {
        self.shards[idx].failures.fetch_add(1, Ordering::Relaxed);
        self.shard_failed(idx, err);
    }

    /// A failed contact with shard `idx` (forwarding attempt or health
    /// ping): its pooled connections are suspect, and its breaker takes
    /// a notch.
    pub(crate) fn shard_failed(&self, idx: usize, err: &dyn std::fmt::Display) {
        let shard = &self.shards[idx];
        shard.pool.clear();
        if shard.breaker.on_failure() == breaker::Transition::Opened {
            self.tally.bump(RouteTally::BreakerOpens, 1);
            mupod_obs::event(
                mupod_obs::Level::Warn,
                "route.breaker_opened",
                &[
                    ("shard", &shard.addr.to_string()),
                    ("error", &err.to_string()),
                ],
            );
        }
    }

    /// A successful contact with shard `idx`; closes a half-open
    /// breaker.
    pub(crate) fn shard_succeeded(&self, idx: usize) {
        let shard = &self.shards[idx];
        if shard.breaker.on_success() == breaker::Transition::Closed {
            self.tally.bump(RouteTally::BreakerCloses, 1);
            mupod_obs::event(
                mupod_obs::Level::Info,
                "route.breaker_closed",
                &[("shard", &shard.addr.to_string())],
            );
        }
    }
}

/// Runs the routing front until `token` cancels. `on_ready` fires once
/// with the bound addresses (front + admin), exactly like
/// [`crate::server::run`].
///
/// # Errors
///
/// [`RouteError::NoShards`] for an empty shard list,
/// [`RouteError::Bind`] if a listener cannot bind.
pub fn route(
    cfg: &RouteConfig,
    token: &CancelToken,
    on_ready: impl FnOnce(Bound),
) -> Result<RouteReport, RouteError> {
    if cfg.shards.is_empty() {
        return Err(RouteError::NoShards);
    }
    let (listener, admin_listener, bound) = listen::bind(&cfg.addr, cfg.metrics_addr.as_deref())
        .map_err(|(addr, source)| RouteError::Bind { addr, source })?;
    mupod_obs::event(
        mupod_obs::Level::Info,
        "route.listening",
        &[
            ("addr", &bound.addr.to_string()),
            ("shards", &cfg.shards.len().to_string()),
        ],
    );
    let shared = Arc::new(RouterShared::new(cfg.clone()));
    on_ready(bound);
    std::thread::scope(|s| {
        let sh = &shared;
        s.spawn(move || health::health_loop(sh));
        if let Some(admin_listener) = admin_listener {
            s.spawn(move || {
                admin::admin_loop(
                    &admin_listener,
                    &|| sh.is_draining(),
                    &|| render_metrics(sh),
                    &|| render_health(sh),
                    &sh.telemetry.flight,
                );
            });
        }
        listen::accept_loop(
            &listener,
            &|| token.is_cancelled() || sh.is_draining(),
            &|| sh.begin_drain(),
            "route.connections",
            "route.accept_error",
            &|stream| {
                let serve = |stream: &mut TcpStream, frame| serve_front_one(stream, frame, sh);
                if listen::handle_conn(stream, &|| sh.is_draining(), &serve) {
                    sh.tally.bump(RouteTally::ClientDisconnects, 1);
                }
            },
        );
    });
    shared.telemetry.dump_flight(
        cfg.flight_out.as_deref(),
        "route.flight_dumped",
        "route.flight_dump_failed",
    );
    let (p50, p99) = shared.telemetry.lifetime_us.percentiles();
    let t = |tally| shared.tally.get(tally);
    let report = RouteReport {
        requests: t(RouteTally::Requests),
        relayed_ok: t(RouteTally::RelayedOk),
        relayed_errors: t(RouteTally::RelayedErrors),
        no_healthy_shard: t(RouteTally::NoHealthyShard),
        deadline_exceeded: t(RouteTally::DeadlineExceeded),
        forwarded_attempts: t(RouteTally::ForwardedAttempts),
        retries: t(RouteTally::Retries),
        hedges: t(RouteTally::Hedges),
        hedge_wins: t(RouteTally::HedgeWins),
        bad_frames: t(RouteTally::BadFrames),
        client_disconnects: t(RouteTally::ClientDisconnects),
        breaker_opens: t(RouteTally::BreakerOpens),
        breaker_closes: t(RouteTally::BreakerCloses),
        p50_latency_us: p50,
        p99_latency_us: p99,
    };
    mupod_obs::event(
        mupod_obs::Level::Info,
        "route.drained",
        &[
            ("requests", &report.requests.to_string()),
            ("retries", &report.retries.to_string()),
            ("hedges", &report.hedges.to_string()),
        ],
    );
    Ok(report)
}

/// Writes router-originated (not relayed) response bytes to the client.
fn answer(
    stream: &mut TcpStream,
    shared: &RouterShared,
    status: StatusCode,
    trace_id: u64,
    payload: &[u8],
) -> bool {
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Reply, -1, status.wire());
    let bytes = frame::encode_response_traced(status, Some(trace_id), payload);
    write_raw(stream, shared, &bytes)
}

/// Writes raw response bytes; `false` means the client vanished.
fn write_raw(stream: &mut TcpStream, shared: &RouterShared, bytes: &[u8]) -> bool {
    match stream.write_all(bytes).and_then(|()| stream.flush()) {
        Ok(()) => true,
        Err(_) => {
            shared.tally.bump(RouteTally::ClientDisconnects, 1);
            false
        }
    }
}

/// Serves one client frame (or answers its read error): parse enough
/// to route, then relay. Returns whether the connection should stay
/// open.
fn serve_front_one(
    stream: &mut TcpStream,
    frame: Result<Frame, FrameError>,
    shared: &Arc<RouterShared>,
) -> bool {
    let frame = match frame {
        Ok(frame) => frame,
        Err(e) => return reject_bad_frame(stream, shared, &e),
    };
    let (h, trace_id) = (frame.header, frame.trace_id);
    match h.kind {
        ReqKind::HealthPing => {
            // The router answers for itself; `Degraded` warns a
            // meta-router that no shard is currently routable.
            let state = shared.router_state();
            return answer(stream, shared, StatusCode::Ok, trace_id, &[state.wire()]);
        }
        ReqKind::Reload => {
            // Reloads target one shard's model; fanning one out to a
            // round-robin pick would be a surprise. Callers reload
            // shards directly (`mupod reload --addr <shard>`).
            return answer(
                stream,
                shared,
                StatusCode::BadRequest,
                trace_id,
                b"send reload directly to a shard, not the router",
            );
        }
        ReqKind::Classify | ReqKind::ChaosPanic => {}
    }
    if shared.is_draining() {
        answer(
            stream,
            shared,
            StatusCode::Draining,
            trace_id,
            b"router draining; not accepting work",
        );
        return false;
    }
    shared.tally.bump(RouteTally::Requests, 1);
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Admit, -1, 0);
    shared.telemetry.in_flight.add(1);
    let keep = relay(stream, shared, h, trace_id, &frame.raw);
    shared.telemetry.in_flight.sub(1);
    keep
}

fn reject_bad_frame(stream: &mut TcpStream, shared: &RouterShared, err: &FrameError) -> bool {
    shared.tally.bump(RouteTally::BadFrames, 1);
    answer(
        stream,
        shared,
        StatusCode::BadRequest,
        0,
        err.to_string().as_bytes(),
    );
    false
}

/// One relayed response: parsed status plus the raw bytes to echo.
struct Relayed {
    status: StatusCode,
    raw: Vec<u8>,
}

/// Why a forwarding attempt failed.
#[derive(Debug)]
enum AttemptError {
    /// Could not connect to the shard.
    Connect(std::io::Error),
    /// Transport failure after connecting (stale pooled connection,
    /// shard died mid-request).
    Io(std::io::Error),
    /// The shard's response frame was malformed.
    Frame(FrameError),
    /// No answer before the final deadline.
    Deadline,
}

impl AttemptError {
    /// A post-connect transport error. A socket timeout counts as the
    /// deadline running out: reads wait for the final deadline itself,
    /// and writes give up no later than it.
    fn io(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => AttemptError::Deadline,
            _ => AttemptError::Io(e),
        }
    }
}

impl std::fmt::Display for AttemptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptError::Connect(e) => write!(f, "connect: {e}"),
            AttemptError::Io(e) => write!(f, "transport: {e}"),
            AttemptError::Frame(e) => write!(f, "bad shard frame: {e}"),
            AttemptError::Deadline => write!(f, "no answer by the deadline"),
        }
    }
}

type Attempt = Result<Relayed, AttemptError>;

/// Outcomes worth retrying on another shard (idempotent requests
/// only): a transport failure, or a status saying the request never
/// executed to completion usefully and a sibling can do better.
fn retryable(outcome: &Attempt) -> bool {
    match outcome {
        Ok(r) => matches!(r.status, StatusCode::WorkerCrashed | StatusCode::Draining),
        Err(_) => true,
    }
}

/// The relay loop, on the client's connection thread: send to a shard,
/// wait for its answer, retry retryable outcomes on another shard
/// (bounded by the retry budget and the wire deadline), and hedge once
/// to an unused shard if the p99 timer fires first — all answered by
/// the request's wire deadline (+ grace).
fn relay(
    stream: &mut TcpStream,
    shared: &Arc<RouterShared>,
    h: frame::RequestHeader,
    trace_id: u64,
    raw_req: &[u8],
) -> bool {
    let accepted = Instant::now();
    let deadline = accepted + h.budget(shared.cfg.default_deadline);
    let final_deadline = deadline + RELAY_GRACE;
    let idempotent = h.kind == ReqKind::Classify;
    let mut used: Vec<usize> = Vec::new();
    let mut retries_used = 0u32;
    let mut hedged = false;
    let mut hedge_idx: Option<usize> = None;

    let Some(mut idx) = shared.pick_shard(&used) else {
        shared.tally.bump(RouteTally::NoHealthyShard, 1);
        return answer(
            stream,
            shared,
            StatusCode::NoHealthyShard,
            trace_id,
            b"no healthy shard to route to",
        );
    };
    loop {
        used.push(idx);
        let hedge_at = (idempotent && !hedged && shared.hedge_budget_ok())
            .then(|| accepted + shared.hedge_delay())
            .filter(|&at| at < final_deadline);
        let (answered_by, outcome) = match send(shared, idx, raw_req, final_deadline, trace_id) {
            Err(e) => (idx, Err(e)),
            Ok(conn) => match hedge_at {
                Some(at) if !first_byte_by(&conn, at) => {
                    // The attempt outlived the p99 timer: hedge once.
                    hedged = true;
                    match shared.pick_unused_shard(&used) {
                        Some(next) => {
                            hedge_idx = Some(next);
                            used.push(next);
                            shared.tally.bump(RouteTally::Hedges, 1);
                            shared.telemetry.flight.record(
                                trace_id,
                                FlightStage::Hedge,
                                next as i64,
                                0,
                            );
                            race(shared, idx, conn, next, raw_req, final_deadline, trace_id)
                        }
                        // Nowhere to hedge to; wait the attempt out.
                        None => (idx, receive(shared, idx, conn, final_deadline)),
                    }
                }
                _ => (idx, receive(shared, idx, conn, final_deadline)),
            },
        };
        if idempotent
            && retryable(&outcome)
            && retries_used < shared.cfg.retry_budget
            && Instant::now() < deadline
        {
            if let Some(next) = shared.pick_shard(&used) {
                retries_used += 1;
                shared.tally.bump(RouteTally::Retries, 1);
                shared.telemetry.flight.record(
                    trace_id,
                    FlightStage::Forward,
                    next as i64,
                    StatusCode::Rerouted.wire(),
                );
                idx = next;
                continue;
            }
        }
        return match outcome {
            Ok(relayed) => {
                if relayed.status == StatusCode::Ok {
                    shared.tally.bump(RouteTally::RelayedOk, 1);
                    shared.telemetry.record_latency(accepted);
                } else {
                    shared.tally.bump(RouteTally::RelayedErrors, 1);
                }
                if hedge_idx == Some(answered_by) {
                    shared.tally.bump(RouteTally::HedgeWins, 1);
                }
                shared.telemetry.flight.record(
                    trace_id,
                    FlightStage::Reply,
                    answered_by as i64,
                    relayed.status.wire(),
                );
                write_raw(stream, shared, &relayed.raw)
            }
            Err(e) if matches!(e, AttemptError::Deadline) || Instant::now() >= final_deadline => {
                shared.tally.bump(RouteTally::DeadlineExceeded, 1);
                answer(
                    stream,
                    shared,
                    StatusCode::DeadlineExceeded,
                    trace_id,
                    b"no shard answered in time",
                )
            }
            Err(e) => {
                shared.tally.bump(RouteTally::NoHealthyShard, 1);
                let msg = format!("all shard attempts failed: {e}");
                answer(
                    stream,
                    shared,
                    StatusCode::NoHealthyShard,
                    trace_id,
                    msg.as_bytes(),
                )
            }
        };
    }
}

/// Time left before `at`, floored at 1 ms (a zero socket timeout is an
/// error, not "expired").
fn left(at: Instant) -> Duration {
    at.saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// Waits until `at` for the first response byte on `conn`; `false` only
/// when the timer fired first (every other outcome is `receive`'s to
/// report).
fn first_byte_by(conn: &TcpStream, at: Instant) -> bool {
    if conn.set_read_timeout(Some(left(at))).is_err() {
        return true;
    }
    !matches!(
        conn.peek(&mut [0u8; 1]),
        Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
    )
}

/// Sends the raw request bytes to shard `idx` over a pooled (or fresh)
/// connection and returns the connection awaiting the answer. A failure
/// feeds the shard's breaker.
fn send(
    shared: &RouterShared,
    idx: usize,
    raw_req: &[u8],
    final_deadline: Instant,
    trace_id: u64,
) -> Result<TcpStream, AttemptError> {
    shared.tally.bump(RouteTally::ForwardedAttempts, 1);
    shared
        .telemetry
        .flight
        .record(trace_id, FlightStage::Forward, idx as i64, 0);
    let shard = &shared.shards[idx];
    shard.forwarded.fetch_add(1, Ordering::Relaxed);
    let sent = (|| {
        let mut conn = match shard.pool.take() {
            Some(conn) => conn,
            None => {
                let timeout = CONNECT_TIMEOUT.min(left(final_deadline));
                let conn = TcpStream::connect_timeout(&shard.addr, timeout)
                    .map_err(AttemptError::Connect)?;
                let _ = conn.set_nodelay(true);
                conn
            }
        };
        conn.set_write_timeout(Some(ATTEMPT_WRITE_TIMEOUT.min(left(final_deadline))))
            .and_then(|()| conn.write_all(raw_req))
            .and_then(|()| conn.flush())
            .map_err(AttemptError::io)?;
        Ok(conn)
    })();
    if let Err(e) = &sent {
        shared.attempt_failed(idx, e);
    }
    sent
}

/// Reads shard `idx`'s raw response on `conn` (by `final_deadline`) and
/// pools the connection back on success. Either way the outcome feeds
/// the shard's breaker.
fn receive(
    shared: &RouterShared,
    idx: usize,
    mut conn: TcpStream,
    final_deadline: Instant,
) -> Attempt {
    let shard = &shared.shards[idx];
    let mut read = || -> Attempt {
        conn.set_read_timeout(Some(left(final_deadline)))
            .map_err(AttemptError::io)?;
        let mut header = [0u8; HEADER_LEN];
        conn.read_exact(&mut header).map_err(AttemptError::io)?;
        let rh = frame::parse_response_header(&header).map_err(AttemptError::Frame)?;
        let ext_len = if rh.has_trace_id { TRACE_ID_LEN } else { 0 };
        let mut raw = vec![0u8; HEADER_LEN + ext_len + rh.payload_len];
        raw[..HEADER_LEN].copy_from_slice(&header);
        conn.read_exact(&mut raw[HEADER_LEN..])
            .map_err(AttemptError::io)?;
        Ok(Relayed {
            status: rh.status,
            raw,
        })
    };
    let outcome = read();
    match &outcome {
        Ok(relayed) => {
            shard.pool.put(conn);
            shared.shard_succeeded(idx);
            match relayed.status {
                StatusCode::Draining => shard.set_state(ShardState::Draining.wire()),
                StatusCode::WorkerCrashed => {
                    shard.failures.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        Err(e) => shared.attempt_failed(idx, e),
    }
    outcome
}

/// Races the pending answer on `conn` (shard `idx`) against a hedge to
/// shard `next`, each on its own detached thread: a slow loser must not
/// hold up the winner's reply, and its socket timeouts bound its life.
/// The first `Ok` wins, otherwise the last error counts; the wait ends
/// no later than `final_deadline`.
fn race(
    shared: &Arc<RouterShared>,
    idx: usize,
    conn: TcpStream,
    next: usize,
    raw_req: &[u8],
    final_deadline: Instant,
    trace_id: u64,
) -> (usize, Attempt) {
    let (tx, rx) = std::sync::mpsc::channel();
    let (sh, tx_primary) = (Arc::clone(shared), tx.clone());
    std::thread::spawn(move || {
        let _ = tx_primary.send((idx, receive(&sh, idx, conn, final_deadline)));
    });
    let (sh, raw_req) = (Arc::clone(shared), raw_req.to_vec());
    std::thread::spawn(move || {
        let outcome = send(&sh, next, &raw_req, final_deadline, trace_id)
            .and_then(|conn| receive(&sh, next, conn, final_deadline));
        let _ = tx.send((next, outcome));
    });
    let mut last = (idx, Err(AttemptError::Deadline));
    for _ in 0..2 {
        let wait = final_deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(wait) {
            Ok((i, Ok(relayed))) => return (i, Ok(relayed)),
            Ok(failed) => last = failed,
            Err(_) => return (idx, Err(AttemptError::Deadline)),
        }
    }
    last
}

/// Renders the router's `/metrics` payload (`mupod_route_*` families).
fn render_metrics(shared: &RouterShared) -> String {
    let t = &shared.telemetry;
    let mut e = Exposition::new();
    e.gauge_f64(
        "mupod_route_uptime_seconds",
        "Seconds since the router started.",
        t.start.elapsed().as_secs_f64(),
    );
    shared.tally.expose(&mut e);
    e.gauge(
        "mupod_route_in_flight",
        "Client requests admitted but not yet answered.",
        t.in_flight.get(),
    );
    e.gauge(
        "mupod_route_healthy_shards",
        "Shards currently routable (breaker closed, state routable).",
        shared.healthy_shards() as i64,
    );
    e.gauge_set(
        "mupod_route_shard_up",
        "1 if the shard is currently routable.",
        "shard",
        &shared
            .shards
            .iter()
            .map(|s| (s.addr.to_string(), i64::from(s.routable())))
            .collect::<Vec<_>>(),
    );
    e.gauge_set(
        "mupod_route_shard_breaker_open",
        "0 closed, 1 open, 2 half-open.",
        "shard",
        &shared
            .shards
            .iter()
            .map(|s| {
                let v = match s.breaker.state() {
                    BreakerState::Closed => 0,
                    BreakerState::Open => 1,
                    BreakerState::HalfOpen => 2,
                };
                (s.addr.to_string(), v)
            })
            .collect::<Vec<_>>(),
    );
    e.counter_set(
        "mupod_route_shard_forwarded_total",
        "Forwarding attempts sent to each shard.",
        "shard",
        &shared
            .shards
            .iter()
            .map(|s| (s.addr.to_string(), s.forwarded.load(Ordering::SeqCst)))
            .collect::<Vec<_>>(),
    );
    e.counter_set(
        "mupod_route_shard_failures_total",
        "Attempt failures observed at each shard.",
        "shard",
        &shared
            .shards
            .iter()
            .map(|s| (s.addr.to_string(), s.failures.load(Ordering::SeqCst)))
            .collect::<Vec<_>>(),
    );
    e.counter(
        "mupod_route_flight_events_dropped_total",
        "Flight-recorder events evicted because the ring was full.",
        t.flight.dropped(),
    );
    let lat = t.latency_us.summarize();
    e.histogram(
        "mupod_route_latency_us",
        "Relayed-OK latency in microseconds over the rolling window.",
        &lat,
    );
    e.summary(
        "mupod_route_latency_window_us",
        "Windowed relayed-OK latency quantiles, microseconds.",
        &[("0.5", lat.quantile(0.5)), ("0.99", lat.quantile(0.99))],
        &lat,
    );
    e.finish()
}

/// Renders the router's `/health` payload; 503 while draining.
fn render_health(shared: &RouterShared) -> (u16, String) {
    let draining = shared.is_draining();
    let healthy = shared.healthy_shards();
    let state = if draining {
        "draining"
    } else if healthy == 0 {
        "no_healthy_shard"
    } else if healthy < shared.shards.len() {
        "degraded"
    } else {
        "ok"
    };
    let body = format!(
        concat!(
            "{{\n",
            "  \"schema\": {schema},\n",
            "  \"state\": {state},\n",
            "  \"shards\": {shards},\n",
            "  \"healthy_shards\": {healthy},\n",
            "  \"uptime_s\": {uptime},\n",
            "  \"in_flight\": {in_flight}\n",
            "}}\n"
        ),
        schema = mupod_obs::json::escape(ROUTE_HEALTH_SCHEMA),
        state = mupod_obs::json::escape(state),
        shards = shared.shards.len(),
        healthy = healthy,
        uptime = mupod_obs::json::fmt_f64(shared.telemetry.start.elapsed().as_secs_f64()),
        in_flight = shared.telemetry.in_flight.get(),
    );
    (if draining { 503 } else { 200 }, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Connection;
    use crate::frame::Priority;
    use crate::server::{run, ServeConfig, ServeError, ServeReport};
    use crate::test_util::{image, tiny_net};
    use mupod_runtime::{CancelReason, CancelToken};
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::thread::JoinHandle;

    /// Starts one backend shard on an ephemeral port.
    fn start_shard(
        cfg: ServeConfig,
        token: CancelToken,
    ) -> (SocketAddr, JoinHandle<Result<ServeReport, ServeError>>) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let net = tiny_net();
            run(&net, &cfg, &token, move |b| {
                tx.send(b.addr).expect("ready receiver alive")
            })
        });
        let addr = rx.recv_timeout(Duration::from_secs(10)).expect("shard up");
        (addr, handle)
    }

    /// Starts a router over `shards` on an ephemeral port.
    fn start_router(
        mut cfg: RouteConfig,
        shards: Vec<SocketAddr>,
        token: CancelToken,
    ) -> (Bound, JoinHandle<Result<RouteReport, RouteError>>) {
        cfg.shards = shards;
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            route(&cfg, &token, move |b| {
                tx.send(b).expect("ready receiver alive")
            })
        });
        let bound = rx.recv_timeout(Duration::from_secs(10)).expect("router up");
        (bound, handle)
    }

    fn fast_route_cfg() -> RouteConfig {
        RouteConfig {
            health_interval: Duration::from_millis(50),
            default_deadline: Duration::from_secs(5),
            // Hedging off by default: these tests assert exact request
            // counts, and a cold-start hedge would duplicate work. The
            // dedicated hedge test opts back in.
            hedge_after: Duration::from_secs(30),
            ..RouteConfig::default()
        }
    }

    fn connect(addr: SocketAddr) -> Connection {
        Connection::connect(addr, Duration::from_secs(10)).expect("loopback connect")
    }

    /// What a fake shard does with a classify frame.
    #[derive(Clone, Copy)]
    enum FakeClassify {
        /// Answer `Draining`.
        Drain,
        /// Never answer; hold the connection until the router drops it.
        Hang,
        /// Close the connection without answering.
        Close,
    }

    /// Starts a fake shard that answers health pings `Ok` and treats
    /// classify frames per `mode`. Its threads are detached; they end
    /// with the test process.
    fn start_fake_shard(mode: FakeClassify) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("fake shard binds");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut s) = conn else { continue };
                std::thread::spawn(move || loop {
                    let mut header = [0u8; HEADER_LEN];
                    if s.read_exact(&mut header).is_err() {
                        return;
                    }
                    let h =
                        frame::parse_request_header(&header).expect("router sends valid frames");
                    let ext_len = if h.has_trace_id { TRACE_ID_LEN } else { 0 };
                    let mut rest = vec![0u8; ext_len + h.payload_len];
                    if s.read_exact(&mut rest).is_err() {
                        return;
                    }
                    let reply = match (h.kind, mode) {
                        (ReqKind::HealthPing, _) => {
                            frame::encode_response(StatusCode::Ok, &[ShardState::Ok.wire()])
                        }
                        (_, FakeClassify::Drain) => {
                            frame::encode_response(StatusCode::Draining, b"draining")
                        }
                        (_, FakeClassify::Hang) => {
                            let _ = std::io::copy(&mut s, &mut std::io::sink());
                            return;
                        }
                        (_, FakeClassify::Close) => return,
                    };
                    if s.write_all(&reply).is_err() {
                        return;
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn empty_shard_list_is_rejected() {
        let token = CancelToken::new();
        let err =
            route(&RouteConfig::default(), &token, |_| {}).expect_err("no shards must not route");
        assert!(matches!(err, RouteError::NoShards));
    }

    #[test]
    fn routes_to_shards_and_echoes_trace_ids() {
        let shard_token = CancelToken::new();
        let (a, ha) = start_shard(ServeConfig::default(), shard_token.clone());
        let (b, hb) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let (bound, hr) = start_router(fast_route_cfg(), vec![a, b], route_token.clone());
        let mut conn = connect(bound.addr);
        let net = tiny_net();
        for seed in 0..6u32 {
            let img = image(seed);
            let trace = 0xAB00 + u64::from(seed);
            let reply = conn
                .classify_traced(&img, 0, Priority::High, trace)
                .expect("routed reply");
            assert_eq!(reply.status, StatusCode::Ok);
            // The shard's answer (and trace echo) crossed the hop intact.
            assert_eq!(reply.trace_id, Some(trace));
            let want = net.classify(&mupod_tensor::Tensor::from_vec(&[1, 6, 6], img));
            assert_eq!(reply.class, Some(want as u32));
        }
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.requests, 6);
        assert_eq!(report.relayed_ok, 6);
        assert_eq!(report.no_healthy_shard, 0);
        // Round-robin really spread the load over both shards.
        shard_token.cancel(CancelReason::Interrupt);
        let ra = ha.join().expect("shard a").expect("drain a");
        let rb = hb.join().expect("shard b").expect("drain b");
        assert!(ra.requests_ok > 0, "shard a got traffic");
        assert!(rb.requests_ok > 0, "shard b got traffic");
        assert_eq!(ra.requests_ok + rb.requests_ok, 6);
    }

    #[test]
    fn forwarded_bytes_are_identical_to_what_the_client_sent() {
        // A fake shard that captures the exact bytes the router sends,
        // answers Ok, and lets us compare against the client encoding:
        // trace ext and deadline field must survive re-encapsulation
        // byte for byte.
        let listener = TcpListener::bind("127.0.0.1:0").expect("fake shard binds");
        let shard_addr = listener.local_addr().expect("addr");
        let req = frame::encode_request_traced(
            ReqKind::Classify,
            Priority::Low,
            123_456,
            Some(0xDEAD_BEEF_F00D),
            &image(3),
        );
        let want_len = req.len();
        let capture = std::thread::spawn(move || {
            // The health loop pings this fake shard too; answer pings
            // until the forwarded classify frame shows up.
            loop {
                let (mut s, _) = listener.accept().expect("router connects");
                let mut header = [0u8; HEADER_LEN];
                if s.read_exact(&mut header).is_err() {
                    continue; // ping connection torn down mid-frame
                }
                let h = frame::parse_request_header(&header).expect("router sends valid frames");
                if h.kind == ReqKind::HealthPing {
                    let pong = frame::encode_response(StatusCode::Ok, &[ShardState::Ok.wire()]);
                    let _ = s.write_all(&pong);
                    continue;
                }
                let mut got = vec![0u8; want_len];
                got[..HEADER_LEN].copy_from_slice(&header);
                s.read_exact(&mut got[HEADER_LEN..])
                    .expect("full forwarded frame");
                let resp =
                    frame::encode_response_traced(StatusCode::Ok, Some(0xDEAD_BEEF_F00D), &[]);
                s.write_all(&resp).expect("reply");
                return got;
            }
        });
        let route_token = CancelToken::new();
        let (bound, hr) = start_router(fast_route_cfg(), vec![shard_addr], route_token.clone());
        let mut stream = TcpStream::connect(bound.addr).expect("client connects");
        stream.write_all(&req).expect("send");
        let mut header = [0u8; HEADER_LEN];
        stream.read_exact(&mut header).expect("response header");
        let rh = frame::parse_response_header(&header).expect("parseable relay");
        assert_eq!(rh.status, StatusCode::Ok);
        assert!(rh.has_trace_id);
        let got = capture.join().expect("capture thread");
        assert_eq!(got, req, "forwarded request bytes must be identical");
        route_token.cancel(CancelReason::Interrupt);
        hr.join().expect("router thread").expect("router drains");
    }

    #[test]
    fn dead_shard_is_retried_on_a_live_one() {
        // Shard A is a bound-then-dropped port (connection refused);
        // shard B works. Every classify must still succeed — the
        // client never sees A's failure.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let shard_token = CancelToken::new();
        let (live, hl) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let (bound, hr) =
            start_router(fast_route_cfg(), vec![dead_addr, live], route_token.clone());
        let mut conn = connect(bound.addr);
        for seed in 0..4u32 {
            let reply = conn
                .classify(&image(seed), 0, Priority::High)
                .expect("reply despite dead shard");
            assert_eq!(reply.status, StatusCode::Ok, "seed {seed}");
        }
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.relayed_ok, 4);
        assert_eq!(
            report.no_healthy_shard, 0,
            "client never saw the dead shard"
        );
        shard_token.cancel(CancelReason::Interrupt);
        hl.join().expect("live shard").expect("drain");
    }

    #[test]
    fn slow_primary_is_hedged_to_a_fast_shard() {
        // Shard 0 sits on every batch for 600ms; shard 1 is fast. The
        // first pick is round-robin slot 0, so the request lands on
        // the slow shard, outlives the 30ms hedge floor, and the
        // hedged duplicate on the fast shard wins.
        let shard_token = CancelToken::new();
        let slow_cfg = ServeConfig {
            slow_batch: Some(Duration::from_millis(600)),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let (slow, hs) = start_shard(slow_cfg, shard_token.clone());
        let (fast, hf) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let cfg = RouteConfig {
            hedge_after: Duration::from_millis(30),
            ..fast_route_cfg()
        };
        let (bound, hr) = start_router(cfg, vec![slow, fast], route_token.clone());
        let mut conn = connect(bound.addr);
        let started = Instant::now();
        let reply = conn.classify(&image(0), 0, Priority::High).expect("reply");
        let latency = started.elapsed();
        assert_eq!(reply.status, StatusCode::Ok);
        assert!(
            latency < Duration::from_millis(500),
            "hedge should beat the 600ms slow shard, took {latency:?}"
        );
        // Give the losing slow attempt time to finish so the drain is
        // quiet, then check the books.
        std::thread::sleep(Duration::from_millis(700));
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.requests, 1);
        assert_eq!(report.relayed_ok, 1);
        assert_eq!(report.hedges, 1, "exactly one hedge launched");
        assert_eq!(report.hedge_wins, 1, "the hedge won the race");
        shard_token.cancel(CancelReason::Interrupt);
        hs.join().expect("slow shard").expect("drain");
        hf.join().expect("fast shard").expect("drain");
    }

    #[test]
    fn draining_status_is_retried_on_a_live_one() {
        // Slot 0 answers every classify `Draining`; the retry lands on
        // the live shard and the client only sees its `Ok`.
        let draining = start_fake_shard(FakeClassify::Drain);
        let shard_token = CancelToken::new();
        let (live, hl) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let (bound, hr) = start_router(fast_route_cfg(), vec![draining, live], route_token.clone());
        let mut conn = connect(bound.addr);
        let reply = conn.classify(&image(0), 0, Priority::High).expect("reply");
        assert_eq!(reply.status, StatusCode::Ok);
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.retries, 1);
        assert_eq!(report.relayed_ok, 1);
        shard_token.cancel(CancelReason::Interrupt);
        hl.join().expect("live shard").expect("drain");
    }

    #[test]
    fn silent_shard_is_answered_deadline_exceeded() {
        let silent = start_fake_shard(FakeClassify::Hang);
        let route_token = CancelToken::new();
        let (bound, hr) = start_router(fast_route_cfg(), vec![silent], route_token.clone());
        let mut conn = connect(bound.addr);
        let started = Instant::now();
        let reply = conn.classify(&image(0), 50, Priority::High).expect("reply");
        let took = started.elapsed();
        assert_eq!(reply.status, StatusCode::DeadlineExceeded);
        let bound_by = Duration::from_millis(50) + RELAY_GRACE + Duration::from_secs(1);
        assert!(took < bound_by, "answered after {took:?}");
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.deadline_exceeded, 1);
        assert_eq!(report.no_healthy_shard, 0);
    }

    #[test]
    fn failed_hedge_defers_to_the_pending_primary() {
        // Slot 0 is slow but healthy; the hedge goes to a shard that
        // drops classify connections. The router must wait for the
        // primary rather than spend a retry.
        let shard_token = CancelToken::new();
        let slow_cfg = ServeConfig {
            slow_batch: Some(Duration::from_millis(300)),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let (slow, hs) = start_shard(slow_cfg, shard_token.clone());
        let closing = start_fake_shard(FakeClassify::Close);
        let route_token = CancelToken::new();
        let cfg = RouteConfig {
            hedge_after: Duration::from_millis(30),
            ..fast_route_cfg()
        };
        let (bound, hr) = start_router(cfg, vec![slow, closing], route_token.clone());
        let mut conn = connect(bound.addr);
        let reply = conn.classify(&image(0), 0, Priority::High).expect("reply");
        assert_eq!(reply.status, StatusCode::Ok);
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.relayed_ok, 1);
        assert_eq!(report.hedges, 1);
        assert_eq!(report.hedge_wins, 0);
        assert_eq!(report.retries, 0);
        shard_token.cancel(CancelReason::Interrupt);
        hs.join().expect("slow shard").expect("drain");
    }

    #[test]
    fn all_shards_dead_answers_no_healthy_shard() {
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let route_token = CancelToken::new();
        let cfg = RouteConfig {
            // Keep the breaker closed long enough for the request to
            // exercise the attempt path rather than the routing guard.
            breaker_threshold: 100,
            ..fast_route_cfg()
        };
        let (bound, hr) = start_router(cfg, vec![dead], route_token.clone());
        let mut conn = connect(bound.addr);
        let reply = conn.classify(&image(0), 0, Priority::High).expect("reply");
        assert_eq!(reply.status, StatusCode::NoHealthyShard);
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert_eq!(report.no_healthy_shard, 1);
        assert_eq!(report.relayed_ok, 0);
    }

    #[test]
    fn router_health_ping_and_admin_plane_respond() {
        let shard_token = CancelToken::new();
        let (a, ha) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let cfg = RouteConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..fast_route_cfg()
        };
        let (bound, hr) = start_router(cfg, vec![a], route_token.clone());
        let mut conn = connect(bound.addr);
        // The router answers health pings for itself.
        let state = conn.ping().expect("router ping");
        assert_eq!(state, ShardState::Ok);
        // One classified request so the metrics have something to say.
        let reply = conn
            .classify_traced(&image(0), 0, Priority::High, 424_242)
            .expect("reply");
        assert_eq!(reply.status, StatusCode::Ok);
        let metrics_addr = bound.metrics_addr.expect("admin plane bound");
        let timeout = Duration::from_secs(5);
        let (code, body) =
            crate::admin::http_get(metrics_addr, "/metrics", timeout).expect("scrape");
        assert_eq!(code, 200);
        let text = String::from_utf8(body).expect("utf-8 exposition");
        mupod_obs::expo::validate(&text).expect("valid exposition");
        assert!(text.contains("mupod_route_requests_total 1\n"), "{text}");
        assert!(text.contains("mupod_route_relayed_ok_total 1\n"));
        assert!(text.contains("mupod_route_healthy_shards 1\n"));
        assert!(text.contains("mupod_route_shard_up{shard=\""));
        let (code, body) =
            crate::admin::http_get(metrics_addr, "/health", timeout).expect("health");
        assert_eq!(code, 200);
        let doc = mupod_obs::json::parse(&String::from_utf8(body).expect("utf-8 health"))
            .expect("health is JSON");
        let obj = doc.as_object().expect("health object");
        assert_eq!(obj["schema"].as_str(), Some(ROUTE_HEALTH_SCHEMA));
        assert_eq!(obj["state"].as_str(), Some("ok"));
        // The flight recorder saw the routed request under its trace ID.
        let (code, body) =
            crate::admin::http_get(metrics_addr, "/flight", timeout).expect("flight");
        assert_eq!(code, 200);
        let doc = mupod_obs::json::parse(&String::from_utf8(body).expect("utf-8 flight"))
            .expect("flight is JSON");
        let events = doc.as_object().expect("flight object")["events"]
            .as_array()
            .expect("events array")
            .iter()
            .filter(|e| e.as_object().and_then(|o| o["trace_id"].as_f64()) == Some(424_242.0))
            .count();
        assert!(events >= 3, "admit + forward + reply at minimum");
        // Reload frames are refused at the router with guidance.
        let refused = conn.reload(1, 1_000).expect("reload answered");
        assert_eq!(refused.status, StatusCode::BadRequest);
        assert!(refused
            .message
            .expect("diagnostic")
            .contains("directly to a shard"));
        route_token.cancel(CancelReason::Interrupt);
        hr.join().expect("router thread").expect("router drains");
        shard_token.cancel(CancelReason::Interrupt);
        ha.join().expect("shard").expect("drain");
    }

    #[test]
    fn breaker_opens_on_killed_shard_and_recovers_after_restart() {
        // Kill a shard (drop its listener by cancelling it), watch the
        // breaker open via failed pings, restart a shard on the same
        // port, and watch the half-open probe close the breaker again.
        let shard_token = CancelToken::new();
        let (addr, hs) = start_shard(ServeConfig::default(), shard_token.clone());
        let route_token = CancelToken::new();
        let cfg = RouteConfig {
            // One failed ping trips the breaker, so the open is
            // guaranteed before the shard comes back.
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(100),
            ..fast_route_cfg()
        };
        let (bound, hr) = start_router(cfg, vec![addr], route_token.clone());
        let mut conn = connect(bound.addr);
        assert_eq!(
            conn.classify(&image(0), 0, Priority::High)
                .expect("reply")
                .status,
            StatusCode::Ok
        );
        // Kill the shard; pings start failing and open the breaker.
        shard_token.cancel(CancelReason::Interrupt);
        hs.join().expect("shard").expect("drain");
        let opened_by = Instant::now() + Duration::from_secs(5);
        loop {
            let reply = conn.ping().expect("router still answers pings");
            // Router itself degrades: no routable shard remains.
            if reply == ShardState::Degraded {
                break;
            }
            assert!(Instant::now() < opened_by, "breaker never opened");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Restart a shard on the same port and wait for recovery.
        let revive_token = CancelToken::new();
        let cfg2 = ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let t2 = revive_token.clone();
        let hs2 = std::thread::spawn(move || {
            let net = tiny_net();
            run(&net, &cfg2, &t2, move |b| {
                tx.send(b.addr).expect("ready receiver alive")
            })
        });
        rx.recv_timeout(Duration::from_secs(10)).expect("revived");
        let recovered_by = Instant::now() + Duration::from_secs(10);
        loop {
            if conn.ping().expect("ping") == ShardState::Ok {
                break;
            }
            assert!(Instant::now() < recovered_by, "breaker never closed");
            std::thread::sleep(Duration::from_millis(20));
        }
        // Traffic flows again.
        assert_eq!(
            conn.classify(&image(1), 0, Priority::High)
                .expect("reply")
                .status,
            StatusCode::Ok
        );
        route_token.cancel(CancelReason::Interrupt);
        let report = hr.join().expect("router thread").expect("router drains");
        assert!(report.breaker_opens >= 1, "breaker opened");
        assert!(report.breaker_closes >= 1, "breaker closed again");
        revive_token.cancel(CancelReason::Interrupt);
        hs2.join().expect("revived shard").expect("drain");
    }

    #[test]
    fn hot_reload_swaps_the_model_without_dropping_requests() {
        // A reloadable shard: the reloader rebuilds the same tiny net
        // (dims match, contents identical — determinism keeps answers
        // comparable) while classify traffic keeps flowing.
        let token = CancelToken::new();
        let cfg = ServeConfig::default();
        let (tx, rx) = mpsc::channel();
        let t = token.clone();
        let handle = std::thread::spawn(move || {
            let reloader = |_seed: u64| Ok(tiny_net());
            crate::server::run_reloadable(tiny_net(), &cfg, &t, Some(&reloader), move |b| {
                tx.send(b.addr).expect("ready receiver alive")
            })
        });
        let addr = rx.recv_timeout(Duration::from_secs(10)).expect("shard up");
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let load = std::thread::spawn(move || {
            let mut conn = connect(addr);
            let mut ok = 0u64;
            let mut seed = 0u32;
            while !stop2.load(Ordering::SeqCst) {
                let reply = conn
                    .classify(&image(seed), 0, Priority::High)
                    .expect("reply during reload");
                assert_eq!(
                    reply.status,
                    StatusCode::Ok,
                    "request dropped during reload"
                );
                ok += 1;
                seed = seed.wrapping_add(1);
            }
            ok
        });
        std::thread::sleep(Duration::from_millis(50));
        let epoch = reload_shard(addr, 42, Duration::from_secs(10)).expect("reload succeeds");
        assert_eq!(epoch, 1);
        let epoch2 = reload_shard(addr, 43, Duration::from_secs(10)).expect("second reload");
        assert_eq!(epoch2, 2);
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::SeqCst);
        let served = load.join().expect("load thread");
        assert!(served > 0, "load ran across the reloads");
        token.cancel(CancelReason::Interrupt);
        let report = handle.join().expect("server thread").expect("clean drain");
        assert_eq!(report.requests_ok, served, "zero dropped requests");
    }
}
