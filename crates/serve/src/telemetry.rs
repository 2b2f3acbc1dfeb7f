//! The live telemetry plane: the instruments both servers share, the
//! shard's `/metrics` and `/health` renderers, and the flight-recorder
//! dump.
//!
//! Everything here reads the server's shared state without stopping
//! it: the rolling histograms ([`mupod_obs::RollingHistogram`]) are
//! written lock-free on the hot path and merged at scrape time, the
//! report tallies ([`crate::tally`]) and the lifetime histogram are
//! plain atomics, and the flight recorder holds a short mutex per
//! event. A scrape therefore never blocks admission or a worker's
//! batch.
//!
//! `DESIGN.md` §13 describes the plane end to end; the exposition
//! syntax is checked by [`mupod_obs::expo::validate`] in the tests and
//! the CI `telemetry-smoke` job.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mupod_obs::{Exposition, FlightRecorder, Gauge, RollingHistogram};

use crate::server::{ServeConfig, ServeTally, Shared};

/// Sliding window the scrape quantiles cover.
const WINDOW: Duration = Duration::from_secs(60);
/// Slots per window: 5-second resolution on expiry.
const WINDOW_SLOTS: usize = 12;
/// Lifecycle events the flight recorder retains.
const FLIGHT_CAPACITY: usize = 4096;

/// Health-document schema tag.
pub const HEALTH_SCHEMA: &str = "mupod-health v1";

/// A histogram over the sliding scrape window.
pub(crate) fn rolling() -> RollingHistogram {
    RollingHistogram::new(WINDOW, WINDOW_SLOTS)
}

/// The instruments every server keeps: the shard and the router each
/// own one, and the shard adds its queue-depth and batch-fill
/// histograms on top.
pub(crate) struct Telemetry {
    /// Server start (uptime base).
    pub(crate) start: Instant,
    /// OK-request latency, microseconds, rolling window.
    pub(crate) latency_us: RollingHistogram,
    /// OK-request latency, microseconds, since start (drain report).
    pub(crate) lifetime_us: LifetimeHistogram,
    /// Requests admitted but not yet answered.
    pub(crate) in_flight: Gauge,
    /// Request-lifecycle ring for post-mortem dumps.
    pub(crate) flight: FlightRecorder,
}

impl Telemetry {
    pub(crate) fn new() -> Self {
        Telemetry {
            start: Instant::now(),
            latency_us: rolling(),
            lifetime_us: LifetimeHistogram::new(),
            in_flight: Gauge::new(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
        }
    }

    /// Records the latency of an OK request admitted at `accepted` in
    /// both latency histograms; returns it in microseconds.
    pub(crate) fn record_latency(&self, accepted: Instant) -> u64 {
        let us = accepted.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.latency_us.record(us);
        self.lifetime_us.record(us);
        us
    }

    /// Seals the flight recorder to `path`, if one is configured,
    /// logging `dumped` or `failed`. Failures are never propagated: a
    /// broken disk must not take down serving.
    pub(crate) fn dump_flight(
        &self,
        path: Option<&Path>,
        dumped: &'static str,
        failed: &'static str,
    ) {
        let Some(path) = path else {
            return;
        };
        let doc = self.flight.to_json();
        match mupod_runtime::write_atomic(path, doc.as_bytes()) {
            Ok(()) => mupod_obs::event(
                mupod_obs::Level::Info,
                dumped,
                &[
                    ("path", &path.display().to_string()),
                    ("events", &self.flight.events().len().to_string()),
                ],
            ),
            Err(e) => mupod_obs::event(
                mupod_obs::Level::Error,
                failed,
                &[
                    ("path", &path.display().to_string()),
                    ("error", &e.to_string()),
                ],
            ),
        }
    }
}

/// Linear sub-buckets per power of two, as a bit count: 32 sub-buckets
/// bound the relative error of a reported quantile by 1/32.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// The bucket holding `v`: values below `2·SUB` get one bucket each,
/// every later power of two is split into `SUB` equal-width buckets.
fn lifetime_bucket(v: u64) -> usize {
    let shift = v.checked_ilog2().unwrap_or(0).saturating_sub(SUB_BITS);
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// The smallest value bucket `i` holds.
fn lifetime_floor(i: usize) -> u64 {
    let shift = (i as u64 / SUB).saturating_sub(1);
    (i as u64 - shift * SUB) << shift
}

/// A log-linear histogram over a server's whole life: a fixed array of
/// atomic counts covering all of `u64`, so it takes constant memory and
/// no lock however many requests it sees.
pub(crate) struct LifetimeHistogram {
    buckets: Box<[AtomicU64]>,
}

impl LifetimeHistogram {
    fn new() -> Self {
        LifetimeHistogram {
            buckets: (0..=lifetime_bucket(u64::MAX))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[lifetime_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// `(p50, p99)` at the ranks [`crate::percentiles_us`] takes from
    /// the sorted samples; each is the floor of the bucket holding that
    /// sample, so it lies at most 1/32 below it. `(0, 0)` when empty.
    pub(crate) fn percentiles(&self) -> (u64, u64) {
        // ordering: Relaxed — the counts guard no other data; the drain
        // reads them once the servers' threads have stopped recording.
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return (0, 0);
        }
        let at = |rank: u64| {
            let mut seen = 0;
            let i = counts.iter().position(|&c| {
                seen += c;
                seen > rank
            });
            lifetime_floor(i.unwrap_or(0))
        };
        (
            at(n / 2),
            at(((u128::from(n) * 99 / 100) as u64).min(n - 1)),
        )
    }
}

/// Renders the `/metrics` payload: every report tally, the pressure
/// gauges, and the rolling-window histograms with p50/p99 summaries.
pub(crate) fn render_metrics(cfg: &ServeConfig, shared: &Shared) -> String {
    let t = &shared.telemetry;
    let mut e = Exposition::new();
    e.gauge_f64(
        "mupod_uptime_seconds",
        "Seconds since the server started.",
        t.start.elapsed().as_secs_f64(),
    );
    shared.tally.expose(&mut e);
    e.counter(
        "mupod_flight_events_dropped_total",
        "Flight-recorder events evicted because the ring was full.",
        t.flight.dropped(),
    );
    e.gauge(
        "mupod_queue_depth",
        "Requests queued right now.",
        shared.queue.len() as i64,
    );
    e.gauge(
        "mupod_in_flight",
        "Requests admitted but not yet answered.",
        t.in_flight.get(),
    );
    e.gauge(
        "mupod_degrade_level",
        "Current degradation-ladder level (3 = draining).",
        if shared.is_draining() {
            3
        } else {
            i64::from(shared.degrade.load(Ordering::SeqCst))
        },
    );
    e.gauge(
        "mupod_restart_budget_remaining",
        "Worker panics the restart budget still tolerates.",
        restart_budget_remaining(cfg, shared) as i64,
    );
    e.gauge(
        "mupod_serve_kernel_tier",
        "Kernel tier the workers run on (0 = exact, 1 = fast).",
        match cfg.kernel_tier {
            mupod_nn::KernelTier::Exact => 0,
            mupod_nn::KernelTier::Fast => 1,
        },
    );
    let lat = t.latency_us.summarize();
    e.histogram(
        "mupod_request_latency_us",
        "OK-request latency in microseconds over the rolling window.",
        &lat,
    );
    e.summary(
        "mupod_request_latency_window_us",
        "Windowed OK-request latency quantiles, microseconds.",
        &[("0.5", lat.quantile(0.5)), ("0.99", lat.quantile(0.99))],
        &lat,
    );
    e.histogram(
        "mupod_admission_queue_depth",
        "Queue depth sampled at each admission over the rolling window.",
        &shared.queue_depth.summarize(),
    );
    e.histogram(
        "mupod_batch_fill",
        "Live jobs per executed batch over the rolling window.",
        &shared.batch_fill.summarize(),
    );
    e.finish()
}

/// Worker panics the restart budget still tolerates.
fn restart_budget_remaining(cfg: &ServeConfig, shared: &Shared) -> u64 {
    u64::from(cfg.restart_budget).saturating_sub(shared.tally.get(ServeTally::WorkerCrashes))
}

/// Renders the `/health` payload; the status code is 503 while
/// draining (a load balancer should stop sending work) and 200
/// otherwise, degraded included.
pub(crate) fn render_health(cfg: &ServeConfig, shared: &Shared) -> (u16, String) {
    let t = &shared.telemetry;
    let draining = shared.is_draining();
    let level = if draining {
        3
    } else {
        shared.degrade.load(Ordering::SeqCst)
    };
    let state = if draining {
        "draining"
    } else if level > 0 {
        "degraded"
    } else {
        "ok"
    };
    let body = format!(
        concat!(
            "{{\n",
            "  \"schema\": {schema},\n",
            "  \"state\": {state},\n",
            "  \"degrade_level\": {level},\n",
            "  \"uptime_s\": {uptime},\n",
            "  \"in_flight\": {in_flight},\n",
            "  \"queue_depth\": {depth},\n",
            "  \"queue_capacity\": {capacity},\n",
            "  \"worker_crashes\": {crashes},\n",
            "  \"restart_budget\": {budget},\n",
            "  \"restart_budget_remaining\": {remaining},\n",
            "  \"workers\": {workers}\n",
            "}}\n"
        ),
        schema = mupod_obs::json::escape(HEALTH_SCHEMA),
        state = mupod_obs::json::escape(state),
        level = level,
        uptime = mupod_obs::json::fmt_f64(t.start.elapsed().as_secs_f64()),
        in_flight = t.in_flight.get(),
        depth = shared.queue.len(),
        capacity = shared.queue.capacity(),
        crashes = shared.tally.get(ServeTally::WorkerCrashes),
        budget = cfg.restart_budget,
        remaining = restart_budget_remaining(cfg, shared),
        workers = cfg.workers.max(1),
    );
    (if draining { 503 } else { 200 }, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::percentiles_us;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_contiguous_and_log_linear() {
        // Exact below 64, then 32 buckets per octave, up to u64::MAX.
        for v in 0..64 {
            assert_eq!(lifetime_bucket(v), v as usize);
            assert_eq!(lifetime_floor(v as usize), v);
        }
        assert_eq!(lifetime_bucket(64), 64);
        assert_eq!(lifetime_bucket(65), 64);
        assert_eq!(lifetime_bucket(127), 95);
        assert_eq!(lifetime_bucket(128), 96);
        for i in 1..=lifetime_bucket(u64::MAX) {
            let floor = lifetime_floor(i);
            assert_eq!(lifetime_bucket(floor), i, "bucket {i} starts at {floor}");
            assert_eq!(
                lifetime_bucket(floor - 1),
                i - 1,
                "bucket {i} has no gap below"
            );
        }
        let empty = LifetimeHistogram::new();
        assert_eq!(empty.percentiles(), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantiles_are_within_a_32nd_of_the_exact_order_statistic(
            samples in prop::collection::vec(0u64..5_000_000, 1..400),
            scale in 0u32..40,
        ) {
            // `scale` spreads the samples over many octaves, up to 2^62.
            let mut exact: Vec<u64> = samples.iter().map(|&v| v << scale).collect();
            let h = LifetimeHistogram::new();
            for &v in &exact {
                h.record(v);
            }
            let (p50, p99) = h.percentiles();
            let (e50, e99) = percentiles_us(&mut exact);
            for (got, want) in [(p50, e50), (p99, e99)] {
                prop_assert!(got <= want, "estimate {} above exact {}", got, want);
                prop_assert!(want - got <= want / 32, "estimate {} vs exact {}", got, want);
            }
        }
    }
}
