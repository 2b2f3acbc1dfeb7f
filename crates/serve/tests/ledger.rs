//! Every report tally of `mupod serve` and `mupod route` reads the same
//! in the drain report, the `/metrics` `_total` sample and the
//! `mupod-obs` counter.
//!
//! This file holds its own test binary because the obs recorder is
//! process-global: installed here, it sees no other test's traffic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use mupod_nn::{Network, NetworkBuilder};
use mupod_obs::{Level, Recorder};
use mupod_runtime::{CancelReason, CancelToken, StatusCode};
use mupod_serve::{
    frame, http_get, route, run, Bound, Connection, Priority, RouteConfig, ServeConfig, ServeReport,
};
use mupod_tensor::{conv::Conv2dParams, Tensor};

const TIMEOUT: Duration = Duration::from_secs(10);

/// A deterministic 1×6×6 → 3-class model.
fn tiny_net() -> Network {
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

fn image(seed: u32) -> Vec<f32> {
    (0..36)
        .map(|i| ((i as u32 * 7 + seed * 13) % 11) as f32 * 0.1 - 0.5)
        .collect()
}

fn start_shard(cfg: ServeConfig, token: CancelToken) -> (Bound, JoinHandle<ServeReport>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        run(&tiny_net(), &cfg, &token, move |b| {
            tx.send(b).expect("ready")
        })
        .expect("shard drains")
    });
    (rx.recv_timeout(TIMEOUT).expect("shard up"), handle)
}

fn classify(addr: SocketAddr, seed: u32, priority: Priority) -> StatusCode {
    let mut conn = Connection::connect(addr, TIMEOUT).expect("connect");
    conn.classify(&image(seed), 0, priority)
        .expect("reply")
        .status
}

/// Sends a frame with a bad magic; the server answers `BadRequest` and
/// closes the connection.
fn send_bad_frame(addr: SocketAddr) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&[0xFF; frame::HEADER_LEN]).expect("send");
    s.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("answer");
    let header: [u8; frame::HEADER_LEN] = raw[..frame::HEADER_LEN].try_into().expect("header");
    let status = frame::parse_response_header(&header)
        .expect("response")
        .status;
    assert_eq!(status, StatusCode::BadRequest);
}

/// Scrapes `/metrics` once the servers are idle.
fn scrape(metrics_addr: SocketAddr) -> String {
    std::thread::sleep(Duration::from_millis(200));
    let (code, body) = http_get(metrics_addr, "/metrics", TIMEOUT).expect("scrape");
    assert_eq!(code, 200);
    String::from_utf8(body).expect("utf-8 exposition")
}

/// Asserts each `(field, report value)` equals the `/metrics` sample
/// `<metric_prefix><field>_total` and the obs counter `<obs_prefix><field>`.
fn assert_ledgers_agree(
    fields: &[(&str, u64)],
    exposition: &str,
    metric_prefix: &str,
    recorder: &Recorder,
    obs_prefix: &str,
) {
    let counters = recorder.snapshot().counters;
    for &(field, report) in fields {
        let metric = format!("{metric_prefix}{field}_total");
        let sample = exposition
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{metric} ")))
            .and_then(|v| v.parse::<u64>().ok());
        assert_eq!(sample, Some(report), "{metric} vs report field {field}");
        let obs = counters
            .get(&format!("{obs_prefix}{field}"))
            .copied()
            .unwrap_or(0);
        assert_eq!(
            obs, report,
            "obs {obs_prefix}{field} vs report field {field}"
        );
    }
}

#[test]
fn shard_report_metrics_and_obs_counters_agree() {
    let recorder = Recorder::new(Level::Off);
    let _guard = recorder.install();
    let token = CancelToken::new();
    // One slow worker and a queue of 4: three queued requests put the
    // ladder at level 2, where a low-priority request is shed.
    let cfg = ServeConfig {
        workers: 1,
        queue_depth: 4,
        slow_batch: Some(Duration::from_millis(800)),
        default_deadline: Duration::from_secs(20),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    let (bound, handle) = start_shard(cfg, token.clone());
    assert_eq!(classify(bound.addr, 0, Priority::High), StatusCode::Ok);
    send_bad_frame(bound.addr);
    let queued: Vec<_> = (1..=4)
        .map(|seed| {
            let client = std::thread::spawn(move || classify(bound.addr, seed, Priority::High));
            // The first is executing, the others queue one by one.
            std::thread::sleep(Duration::from_millis(60));
            client
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        classify(bound.addr, 9, Priority::Low),
        StatusCode::ServerBusy
    );
    for client in queued {
        assert_eq!(client.join().expect("client"), StatusCode::Ok);
    }
    let text = scrape(bound.metrics_addr.expect("admin plane"));
    token.cancel(CancelReason::Interrupt);
    let r = handle.join().expect("shard thread");
    assert_eq!(r.requests_ok, 5);
    assert_eq!(r.bad_frames, 1);
    assert_eq!(r.shed_low_priority, 1);
    assert_eq!(r.rejected_busy, 1);
    assert_eq!(r.batched_requests, 5);
    let fields = [
        ("requests_ok", r.requests_ok),
        ("rejected_busy", r.rejected_busy),
        ("rejected_draining", r.rejected_draining),
        ("shed_low_priority", r.shed_low_priority),
        ("deadline_expired", r.deadline_expired),
        ("bad_frames", r.bad_frames),
        ("worker_crashes", r.worker_crashes),
        ("client_disconnects", r.client_disconnects),
        ("batches", r.batches),
        ("batched_requests", r.batched_requests),
    ];
    assert_ledgers_agree(&fields, &text, "mupod_", &recorder, "serve.");
}

#[test]
fn router_report_metrics_and_obs_counters_agree() {
    let recorder = Recorder::new(Level::Off);
    let _guard = recorder.install();
    let shard_token = CancelToken::new();
    let (shard, shard_handle) = start_shard(ServeConfig::default(), shard_token.clone());
    let token = CancelToken::new();
    let cfg = RouteConfig {
        shards: vec![shard.addr],
        health_interval: Duration::from_millis(50),
        default_deadline: Duration::from_secs(5),
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..RouteConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let router_token = token.clone();
    let handle = std::thread::spawn(move || {
        route(&cfg, &router_token, move |b| tx.send(b).expect("ready")).expect("router drains")
    });
    let bound: Bound = rx.recv_timeout(TIMEOUT).expect("router up");
    for seed in 0..3 {
        assert_eq!(classify(bound.addr, seed, Priority::High), StatusCode::Ok);
    }
    send_bad_frame(bound.addr);
    let text = scrape(bound.metrics_addr.expect("admin plane"));
    token.cancel(CancelReason::Interrupt);
    let r = handle.join().expect("router thread");
    assert_eq!(r.requests, 3);
    assert_eq!(r.relayed_ok, 3);
    assert_eq!(r.bad_frames, 1);
    let fields = [
        ("requests", r.requests),
        ("relayed_ok", r.relayed_ok),
        ("relayed_errors", r.relayed_errors),
        ("no_healthy_shard", r.no_healthy_shard),
        ("deadline_exceeded", r.deadline_exceeded),
        ("forwarded_attempts", r.forwarded_attempts),
        ("retries", r.retries),
        ("hedges", r.hedges),
        ("hedge_wins", r.hedge_wins),
        ("bad_frames", r.bad_frames),
        ("client_disconnects", r.client_disconnects),
        ("breaker_opens", r.breaker_opens),
        ("breaker_closes", r.breaker_closes),
    ];
    assert_ledgers_agree(&fields, &text, "mupod_route_", &recorder, "route.");
    shard_token.cancel(CancelReason::Interrupt);
    shard_handle.join().expect("shard thread");
}
