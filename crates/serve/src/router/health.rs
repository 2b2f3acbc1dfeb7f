//! Active health checking: the router pings every shard on a fixed
//! cadence and feeds the results to the breakers.
//!
//! Each tick opens a short-lived connection per shard and sends a
//! health-ping frame (answered inline by the shard, never queued, so a
//! full queue does not fail the probe). A reachable shard reports a
//! [`ShardState`](crate::frame::ShardState) — `Draining`/`Reloading`
//! steer the routing decision without touching the breaker — while an
//! unreachable one counts a breaker failure. The ping is also the
//! **half-open probe**: once an open breaker's cooldown lapses, the
//! next successful ping closes it, so a recovered shard rejoins the
//! rotation without risking a client request.

use std::time::Duration;

use crate::client::Connection;
use crate::listen::POLL;
use crate::router::RouterShared;

/// Per-ping connect/read budget; kept short so one dead shard cannot
/// stretch the tick far past the configured interval.
const PING_TIMEOUT: Duration = Duration::from_millis(500);

/// The health loop: ping every shard, sleep the interval, repeat until
/// the router drains.
pub(crate) fn health_loop(shared: &RouterShared) {
    while !shared.is_draining() {
        for idx in 0..shared.shards.len() {
            check_shard(shared, idx);
        }
        // Sleep in POLL slices so a drain lands promptly.
        let mut left = shared.cfg.health_interval;
        while left > Duration::ZERO && !shared.is_draining() {
            let step = left.min(POLL);
            std::thread::sleep(step);
            left -= step;
        }
    }
}

/// One shard's health check (see module docs).
fn check_shard(shared: &RouterShared, idx: usize) {
    let shard = &shared.shards[idx];
    // Observing the state promotes open → half-open once the cooldown
    // has lapsed, making this ping the probe.
    let _ = shard.breaker.state();
    let outcome = Connection::connect(shard.addr, PING_TIMEOUT).and_then(|mut c| c.ping());
    match outcome {
        Ok(state) => {
            shard.set_state(state.wire());
            shared.shard_succeeded(idx);
        }
        Err(e) => {
            shard.set_unreachable();
            shared.shard_failed(idx, &e);
        }
    }
}
