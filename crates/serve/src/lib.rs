//! Fault-tolerant batched inference serving over plain std TCP.
//!
//! The north star is a service that survives real request streams, so
//! this crate's headline is robustness, not just throughput:
//!
//! * **Batched execution** — workers gather up to `max_batch` requests
//!   and run them as one batch through [`mupod_nn::Network::run`],
//!   which is *bit-identical* to serving each request alone
//!   (property-tested in `mupod-nn`): batching is invisible to clients.
//! * **Admission control** — one bounded queue ([`BoundedQueue`]) is
//!   the only buffer; a full queue fast-rejects with a typed
//!   `ServerBusy`, so memory stays bounded no matter the offered load.
//! * **Deadlines** — every request carries one (or inherits the server
//!   default); expired requests are answered `DeadlineExceeded` and
//!   never executed.
//! * **Panic isolation** — a worker panic is confined to its batch
//!   (`WorkerCrashed` answers), the arena is rebuilt, and the worker
//!   restarts under a counter-backed budget with deterministic backoff;
//!   exhausting the budget drains the server with a typed error.
//! * **Graceful drain** — SIGINT (via
//!   [`CancelToken`](mupod_runtime::CancelToken)) stops the accept
//!   loop, finishes in-flight batches, answers queued-but-unstarted
//!   requests `Draining`, and returns a [`ServeReport`] so metrics can
//!   be flushed atomically. A load-shedding ladder (shrink batch →
//!   reject low-priority → drain) degrades service loudly before that.
//!
//! * **Live telemetry** — `--metrics-addr` binds a second listener
//!   ([`admin`](crate::http_get)) answering `/metrics` (Prometheus text
//!   exposition with rolling-window p50/p99), `/health` (degradation
//!   state as JSON) and `/flight` (the flight-recorder ring). Requests
//!   may carry a trace ID the server echoes and stamps on every
//!   lifecycle event, so one ID links a client timeout to the
//!   server-side post-mortem. `DESIGN.md` §13 has the details.
//!
//! Status codes on the wire come from the shared
//! [`StatusCode`](mupod_runtime::StatusCode) table; the frame format
//! lives in [`frame`]. `DESIGN.md` §12 describes the architecture.

mod admin;
mod client;
pub mod frame;
mod listen;
mod queue;
pub mod router;
mod server;
mod tally;
mod telemetry;
mod worker;

pub use admin::http_get;
pub use client::{run_load, ClientError, Connection, LoadReport, ReloadReply, Reply};
pub use frame::{FrameError, Priority, ReqKind, ShardState};
pub use queue::{BoundedQueue, Pop, PushError};
pub use router::{
    reload_shard, route, BreakerState, ReloadError, RouteConfig, RouteError, RouteReport,
    ROUTE_HEALTH_SCHEMA,
};
pub use server::{
    percentiles_us, run, run_reloadable, Bound, Reloader, ServeConfig, ServeError, ServeReport,
};
pub use telemetry::HEALTH_SCHEMA;

#[cfg(test)]
pub(crate) mod test_util {
    use mupod_nn::{Network, NetworkBuilder};
    use mupod_tensor::{conv::Conv2dParams, Tensor};

    /// A deterministic 1×6×6 → 3-class model for in-process tests.
    pub(crate) fn tiny_net() -> Network {
        let mut b = NetworkBuilder::new(&[1, 6, 6]);
        let input = b.input();
        let w: Vec<f32> = (0..27).map(|i| ((i % 5) as f32 - 2.0) * 0.21).collect();
        let conv = b.conv2d(
            "c",
            input,
            Conv2dParams::new(1, 3, 3, 1, 1),
            Tensor::from_vec(&[3, 1, 3, 3], w),
            vec![0.05, -0.02, 0.01],
        );
        let relu = b.relu("r", conv);
        let gap = b.global_avg_pool("g", relu);
        b.build(gap).expect("tiny net builds")
    }

    /// A valid input image for [`tiny_net`], varying with `seed`.
    pub(crate) fn image(seed: u32) -> Vec<f32> {
        (0..36)
            .map(|i| ((i as u32 * 7 + seed * 13) % 11) as f32 * 0.1 - 0.5)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mupod_runtime::{CancelReason, CancelToken, StatusCode};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Starts a server on an ephemeral port; returns its bound
    /// addresses and the join handle yielding the final report.
    fn start_bound(
        cfg: ServeConfig,
        token: CancelToken,
    ) -> (
        Bound,
        std::thread::JoinHandle<Result<ServeReport, ServeError>>,
    ) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let net = test_util::tiny_net();
            run(&net, &cfg, &token, move |bound| {
                tx.send(bound).expect("ready receiver alive")
            })
        });
        let bound = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("server binds");
        (bound, handle)
    }

    /// [`start_bound`] for tests that only need the frame port.
    fn start(
        cfg: ServeConfig,
        token: CancelToken,
    ) -> (
        std::net::SocketAddr,
        std::thread::JoinHandle<Result<ServeReport, ServeError>>,
    ) {
        let (bound, handle) = start_bound(cfg, token);
        (bound.addr, handle)
    }

    fn connect(addr: std::net::SocketAddr) -> Connection {
        Connection::connect(addr, Duration::from_secs(10)).expect("loopback connect")
    }

    #[test]
    fn serves_classifications_and_drains_on_cancel() {
        let token = CancelToken::new();
        let (addr, handle) = start(ServeConfig::default(), token.clone());
        let mut conn = connect(addr);
        let net = test_util::tiny_net();
        for seed in 0..5 {
            let img = test_util::image(seed);
            let reply = conn.classify(&img, 0, Priority::High).expect("reply");
            assert_eq!(reply.status, StatusCode::Ok);
            // Served result matches a local forward bit-for-bit.
            let want = net.classify(&mupod_tensor::Tensor::from_vec(&[1, 6, 6], img));
            assert_eq!(reply.class, Some(want as u32));
        }
        token.cancel(CancelReason::Interrupt);
        let report = handle.join().expect("server thread").expect("clean drain");
        assert_eq!(report.requests_ok, 5);
        assert_eq!(report.worker_crashes, 0);
        assert!(report.p50_latency_us > 0);
    }

    #[test]
    fn cancellation_drains_queued_requests_without_executing_them() {
        // One slow worker, serial batches: the first request occupies the
        // worker while the rest sit queued; cancelling then must answer
        // the queued ones `Draining` — executed batches stays at 1.
        let token = CancelToken::new();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_depth: 16,
            slow_batch: Some(Duration::from_millis(400)),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let (addr, handle) = start(cfg, token.clone());
        let clients: Vec<_> = (0..4)
            .map(|seed| {
                std::thread::spawn(move || {
                    let mut conn = connect(addr);
                    conn.classify(&test_util::image(seed), 0, Priority::High)
                        .expect("reply")
                        .status
                })
            })
            .collect();
        // Let every request land in the queue, then pull the plug while
        // the first batch is still executing.
        std::thread::sleep(Duration::from_millis(150));
        token.cancel(CancelReason::Interrupt);
        let statuses: Vec<StatusCode> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect();
        let report = handle.join().expect("server thread").expect("clean drain");
        assert_eq!(report.batches, 1, "queued requests must not execute");
        assert_eq!(report.requests_ok, 1);
        assert_eq!(report.rejected_draining, 3);
        assert_eq!(statuses.iter().filter(|s| **s == StatusCode::Ok).count(), 1);
        assert_eq!(
            statuses
                .iter()
                .filter(|s| **s == StatusCode::Draining)
                .count(),
            3
        );
    }

    #[test]
    fn full_queue_fast_rejects_server_busy() {
        // Worker busy for 800ms, queue depth 1: the third request must
        // bounce with ServerBusy long before the worker frees up.
        let token = CancelToken::new();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_depth: 1,
            slow_batch: Some(Duration::from_millis(800)),
            default_deadline: Duration::from_secs(10),
            ..ServeConfig::default()
        };
        let (addr, handle) = start(cfg, token.clone());
        let spawn_classify = |seed: u32| {
            std::thread::spawn(move || {
                let mut conn = connect(addr);
                conn.classify(&test_util::image(seed), 0, Priority::High)
                    .expect("reply")
            })
        };
        let a = spawn_classify(0);
        std::thread::sleep(Duration::from_millis(200)); // a is executing
        let b = spawn_classify(1);
        std::thread::sleep(Duration::from_millis(200)); // b is queued
        let start_c = Instant::now();
        let mut conn = connect(addr);
        let c = conn
            .classify(&test_util::image(2), 0, Priority::High)
            .expect("reply");
        let c_latency = start_c.elapsed();
        assert_eq!(c.status, StatusCode::ServerBusy);
        assert!(
            c_latency < Duration::from_millis(350),
            "busy rejection took {c_latency:?}; admission control must not queue-wait"
        );
        assert_eq!(a.join().expect("client a").status, StatusCode::Ok);
        assert_eq!(b.join().expect("client b").status, StatusCode::Ok);
        token.cancel(CancelReason::Interrupt);
        let report = handle.join().expect("server thread").expect("clean drain");
        assert_eq!(report.rejected_busy, 1);
        assert_eq!(report.requests_ok, 2);
    }

    #[test]
    fn exhausted_restart_budget_is_a_typed_terminal_error() {
        let token = CancelToken::new();
        let cfg = ServeConfig {
            workers: 1,
            chaos: true,
            restart_budget: 0,
            ..ServeConfig::default()
        };
        let (addr, handle) = start(cfg, token.clone());
        let mut conn = connect(addr);
        let reply = conn.chaos_panic().expect("reply");
        assert_eq!(reply.status, StatusCode::WorkerCrashed);
        let err = handle
            .join()
            .expect("server thread")
            .expect_err("budget of 0 cannot survive a crash");
        assert!(matches!(
            err,
            ServeError::RestartBudgetExhausted {
                crashes: 1,
                budget: 0,
                ..
            }
        ));
        // The drain's report rides along on the error path.
        if let ServeError::RestartBudgetExhausted { report, .. } = err {
            assert_eq!(report.worker_crashes, 1);
        }
    }

    #[test]
    fn trace_id_is_echoed_and_untraced_requests_stay_untraced() {
        let token = CancelToken::new();
        let (addr, handle) = start(ServeConfig::default(), token.clone());
        let mut conn = connect(addr);
        let img = test_util::image(0);
        let traced = conn
            .classify_traced(&img, 0, Priority::High, 0xBEEF_CAFE)
            .expect("reply");
        assert_eq!(traced.status, StatusCode::Ok);
        assert_eq!(traced.trace_id, Some(0xBEEF_CAFE));
        let plain = conn.classify(&img, 0, Priority::High).expect("reply");
        assert_eq!(plain.status, StatusCode::Ok);
        assert_eq!(plain.trace_id, None);
        token.cancel(CancelReason::Interrupt);
        handle.join().expect("server thread").expect("clean drain");
    }

    #[test]
    fn metrics_and_health_scrape_a_live_server() {
        let token = CancelToken::new();
        let cfg = ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        let (bound, handle) = start_bound(cfg, token.clone());
        let metrics_addr = bound.metrics_addr.expect("metrics listener bound");
        let mut conn = connect(bound.addr);
        for seed in 0..3 {
            let reply = conn
                .classify(&test_util::image(seed), 0, Priority::High)
                .expect("reply");
            assert_eq!(reply.status, StatusCode::Ok);
        }
        let timeout = Duration::from_secs(5);
        let (code, body) = http_get(metrics_addr, "/metrics", timeout).expect("scrape");
        assert_eq!(code, 200);
        let text = String::from_utf8(body).expect("utf-8 exposition");
        mupod_obs::expo::validate(&text).expect("valid exposition");
        assert!(text.contains("mupod_requests_ok_total 3\n"), "{text}");
        assert!(text.contains("mupod_request_latency_us_count 3\n"));
        assert!(text.contains("mupod_request_latency_window_us{quantile=\"0.5\"}"));
        assert!(text.contains("mupod_request_latency_window_us{quantile=\"0.99\"}"));
        assert!(text.contains("mupod_restart_budget_remaining 8\n"));

        let (code, body) = http_get(metrics_addr, "/health", timeout).expect("health");
        assert_eq!(code, 200);
        let doc = mupod_obs::json::parse(&String::from_utf8(body).expect("utf-8 health"))
            .expect("health is JSON");
        let obj = doc.as_object().expect("health object");
        assert_eq!(obj["schema"].as_str(), Some(HEALTH_SCHEMA));
        assert_eq!(obj["state"].as_str(), Some("ok"));
        assert_eq!(obj["worker_crashes"].as_f64(), Some(0.0));

        let (code, _) = http_get(metrics_addr, "/nope", timeout).expect("404 route");
        assert_eq!(code, 404);

        token.cancel(CancelReason::Interrupt);
        handle.join().expect("server thread").expect("clean drain");
    }

    #[test]
    fn flight_recorder_carries_a_request_lifecycle() {
        let token = CancelToken::new();
        let cfg = ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        let (bound, handle) = start_bound(cfg, token.clone());
        let metrics_addr = bound.metrics_addr.expect("metrics listener bound");
        let mut conn = connect(bound.addr);
        let reply = conn
            .classify_traced(&test_util::image(0), 0, Priority::High, 77)
            .expect("reply");
        assert_eq!(reply.status, StatusCode::Ok);
        let (code, body) =
            http_get(metrics_addr, "/flight", Duration::from_secs(5)).expect("flight");
        assert_eq!(code, 200);
        let doc = mupod_obs::json::parse(&String::from_utf8(body).expect("utf-8 flight"))
            .expect("flight is JSON");
        let obj = doc.as_object().expect("flight object");
        assert_eq!(obj["schema"].as_str(), Some(mupod_obs::FLIGHT_SCHEMA));
        let stages: Vec<String> = obj["events"]
            .as_array()
            .expect("events array")
            .iter()
            .filter_map(|e| {
                let ev = e.as_object()?;
                (ev["trace_id"].as_f64() == Some(77.0))
                    .then(|| ev["stage"].as_str().map(str::to_string))
                    .flatten()
            })
            .collect();
        assert_eq!(stages, ["admit", "dequeue", "exec", "reply"]);
        token.cancel(CancelReason::Interrupt);
        handle.join().expect("server thread").expect("clean drain");
    }

    #[test]
    fn worker_panic_recovers_within_budget() {
        let token = CancelToken::new();
        let cfg = ServeConfig {
            workers: 1,
            chaos: true,
            restart_budget: 4,
            ..ServeConfig::default()
        };
        let (addr, handle) = start(cfg, token.clone());
        let mut conn = connect(addr);
        let crash = conn.chaos_panic().expect("reply");
        assert_eq!(crash.status, StatusCode::WorkerCrashed);
        // The restarted worker serves normally afterwards.
        let ok = conn
            .classify(&test_util::image(1), 0, Priority::High)
            .expect("reply");
        assert_eq!(ok.status, StatusCode::Ok);
        token.cancel(CancelReason::Interrupt);
        let report = handle.join().expect("server thread").expect("clean drain");
        assert_eq!(report.worker_crashes, 1);
        assert_eq!(report.requests_ok, 1);
    }
}
