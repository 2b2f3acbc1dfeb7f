//! A fresh connection to `mupod serve` or `mupod route` is served as
//! soon as it arrives, not at the accept loop's next 50 ms poll.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mupod_nn::{Network, NetworkBuilder};
use mupod_runtime::{CancelReason, CancelToken, StatusCode};
use mupod_serve::{route, run, Bound, Connection, Priority, RouteConfig, ServeConfig};
use mupod_tensor::{conv::Conv2dParams, Tensor};

const TIMEOUT: Duration = Duration::from_secs(10);
/// Half the 50 ms accept poll: a connection that waits for a poll to
/// come round misses it.
const FIRST_REPLY_BOUND: Duration = Duration::from_millis(25);

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

/// Opens 5 fresh connections to `addr` one after another and checks
/// that each one's first reply arrives within [`FIRST_REPLY_BOUND`] of
/// its `connect`.
fn assert_fresh_connections_served_promptly(addr: SocketAddr, what: &str) {
    let image: Vec<f32> = (0..36).map(|i| (i % 11) as f32 * 0.1 - 0.5).collect();
    for i in 0..5 {
        let start = Instant::now();
        let mut conn = Connection::connect(addr, TIMEOUT).expect("connect");
        let reply = conn.classify(&image, 0, Priority::High).expect("reply");
        let took = start.elapsed();
        assert_eq!(reply.status, StatusCode::Ok);
        assert!(
            took < FIRST_REPLY_BOUND,
            "{what} connection #{i}: first reply after {took:?}"
        );
    }
}

#[test]
fn fresh_connections_to_a_shard_and_a_router_are_served_without_a_poll_wait() {
    let shard_token = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let token = shard_token.clone();
    let shard_handle = std::thread::spawn(move || {
        run(&tiny_net(), &ServeConfig::default(), &token, move |b| {
            tx.send(b).expect("ready")
        })
        .expect("shard drains")
    });
    let shard: Bound = rx.recv_timeout(TIMEOUT).expect("shard up");
    assert_fresh_connections_served_promptly(shard.addr, "shard");

    let router_token = CancelToken::new();
    let cfg = RouteConfig {
        shards: vec![shard.addr],
        default_deadline: Duration::from_secs(5),
        ..RouteConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    let token = router_token.clone();
    let router_handle = std::thread::spawn(move || {
        route(&cfg, &token, move |b| tx.send(b).expect("ready")).expect("router drains")
    });
    let router: Bound = rx.recv_timeout(TIMEOUT).expect("router up");
    assert_fresh_connections_served_promptly(router.addr, "router");

    // Both still see the stop while blocked in `accept`.
    let stopping = Instant::now();
    router_token.cancel(CancelReason::Interrupt);
    let r = router_handle.join().expect("router thread");
    shard_token.cancel(CancelReason::Interrupt);
    let s = shard_handle.join().expect("shard thread");
    assert!(
        stopping.elapsed() < TIMEOUT,
        "drain took {:?}",
        stopping.elapsed()
    );
    assert_eq!(r.relayed_ok, 5);
    assert_eq!(s.requests_ok, 10);
}
