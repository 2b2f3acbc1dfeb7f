//! Worker threads: batch collection, execution, panic isolation,
//! supervised restart with a counter-backed budget.
//!
//! Each worker owns a batch-sized [`ExecArena`] and loops on the shared queue:
//! take one job (bounded wait), top the batch up to the *effective* max
//! batch (the degradation ladder shrinks it to 1 under pressure),
//! answer already-expired jobs `DeadlineExceeded` without executing
//! them, then run one batched forward under `catch_unwind`.
//!
//! A panic — real or injected by a `ChaosPanic` frame — is isolated to
//! the batch that hit it: every job in it is answered `WorkerCrashed`,
//! the arena is discarded and rebuilt (a half-written arena never
//! serves again), and the worker restarts after a deterministic
//! backoff from [`RetryPolicy`]'s seed-stable jitter stream. Each crash
//! spends one unit of the shared restart budget; exhausting it flips
//! the server into drain with
//! [`ServeError::RestartBudgetExhausted`](crate::ServeError).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use mupod_nn::{ExecArena, Network, Run};
use mupod_obs::FlightStage;
use mupod_runtime::{RetryPolicy, StatusCode};
use mupod_tensor::Tensor;

use crate::frame::ReqKind;
use crate::listen::POLL;
use crate::queue::Pop;
use crate::server::{respond_job, Job, ServeConfig, ServeError, ServeTally, Shared};

/// Backoff between a worker crash and its restart: fast first retry,
/// capped well under a request deadline, deterministic per worker so
/// the chaos tests replay schedules exactly.
fn restart_policy(worker: usize) -> RetryPolicy {
    RetryPolicy {
        max_attempts: u32::MAX,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(250),
        jitter_seed: 0x5EED ^ (worker as u64),
    }
}

/// The batch size the ladder currently allows.
fn effective_max_batch(cfg: &ServeConfig, shared: &Shared) -> usize {
    if shared.degrade.load(Ordering::SeqCst) >= 1 {
        1
    } else {
        cfg.max_batch.max(1)
    }
}

/// One worker thread's whole life: runs until the queue closes and
/// drains dry. The served network is re-checked at every batch
/// boundary: when a hot reload bumps the epoch, the worker picks up
/// the new `Arc<Network>` and rebuilds its arena before the next
/// batch — jobs already collected ran on the old network, which stays
/// alive through the `Arc` until the last holder drops it.
pub(crate) fn worker_loop(idx: usize, cfg: &ServeConfig, shared: &Shared) {
    let mut epoch = shared.net_epoch.load(Ordering::SeqCst);
    let mut net: Arc<Network> = shared.current_net();
    let mut arena = ExecArena::new(&net, cfg.max_batch.max(1), cfg.kernel_tier);
    let policy = restart_policy(idx);
    loop {
        let now_epoch = shared.net_epoch.load(Ordering::SeqCst);
        if now_epoch != epoch {
            epoch = now_epoch;
            net = shared.current_net();
            arena = ExecArena::new(&net, cfg.max_batch.max(1), cfg.kernel_tier);
            mupod_obs::event(
                mupod_obs::Level::Info,
                "serve.worker_reloaded",
                &[("worker", &idx.to_string()), ("epoch", &epoch.to_string())],
            );
        }
        let job = match shared.queue.pop_timeout(POLL) {
            Pop::Closed => break,
            Pop::Empty => continue,
            Pop::Item(job) => job,
        };
        let mut batch = vec![job];
        let limit = effective_max_batch(cfg, shared);
        while batch.len() < limit {
            match shared.queue.try_pop() {
                Some(j) => batch.push(j),
                None => break,
            }
        }
        for job in &batch {
            shared
                .telemetry
                .flight
                .record(job.trace_id, FlightStage::Dequeue, idx as i64, 0);
        }
        process_batch(idx, &net, cfg, shared, &mut arena, batch, &policy);
    }
}

/// Executes one collected batch, answering every job exactly once.
fn process_batch(
    idx: usize,
    net: &Network,
    cfg: &ServeConfig,
    shared: &Shared,
    arena: &mut ExecArena,
    batch: Vec<Job>,
    policy: &RetryPolicy,
) {
    // Drain observed between dequeue and execution: answer `Draining`
    // without running anything (queued-but-unstarted requests are never
    // executed once cancellation lands).
    if shared.is_draining() {
        for job in &batch {
            shared.tally.bump(ServeTally::RejectedDraining, 1);
            respond_job(job, StatusCode::Draining, b"server draining".to_vec());
        }
        return;
    }
    // Expired-in-queue requests are answered, never executed.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if now >= job.deadline {
            shared.tally.bump(ServeTally::DeadlineExpired, 1);
            respond_job(
                &job,
                StatusCode::DeadlineExceeded,
                b"deadline expired while queued".to_vec(),
            );
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    shared.tally.bump(ServeTally::Batches, 1);
    shared
        .tally
        .bump(ServeTally::BatchedRequests, live.len() as u64);
    mupod_obs::histogram_record("serve.batch_size", live.len() as f64);
    shared.batch_fill.record(live.len() as u64);
    for job in &live {
        shared
            .telemetry
            .flight
            .record(job.trace_id, FlightStage::Exec, idx as i64, 0);
    }
    let chaos = live.iter().any(|j| j.kind == ReqKind::ChaosPanic);
    let images: Vec<Tensor> = live
        .iter_mut()
        .filter(|j| j.kind == ReqKind::Classify)
        .map(|j| Tensor::from_vec(net.input_dims(), std::mem::take(&mut j.image)))
        .collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(d) = cfg.slow_batch {
            std::thread::sleep(d);
        }
        if chaos {
            // lint:allow(no-panic-path) reason=deliberate fault injection behind the --chaos flag; the recovery path around this panic is what the chaos tests exercise
            panic!("injected chaos fault");
        }
        if images.is_empty() {
            return Vec::new();
        }
        if let Err(e) = net.run(Run::images(&images), arena) {
            // lint:allow(no-panic-path) reason=only a validated run can fail and serving validates nothing; were it to fail, the batch is answered WorkerCrashed like any other worker panic
            panic!("batch forward failed: {e}");
        }
        (0..images.len())
            .map(|b| net.output(arena.activations(b)).argmax())
            .collect()
    }));
    match outcome {
        Ok(classes) => {
            let done = Instant::now();
            // Without chaos every live job is a classify job, in the
            // same order the images were gathered.
            for (job, class) in live.iter().zip(classes) {
                if done >= job.deadline {
                    shared.tally.bump(ServeTally::DeadlineExpired, 1);
                    respond_job(
                        job,
                        StatusCode::DeadlineExceeded,
                        b"deadline expired during execution".to_vec(),
                    );
                } else {
                    shared.tally.bump(ServeTally::RequestsOk, 1);
                    let us = shared.telemetry.record_latency(job.accepted);
                    mupod_obs::histogram_record("serve.latency_us", us as f64);
                    respond_job(job, StatusCode::Ok, (class as u32).to_le_bytes().to_vec());
                }
            }
        }
        Err(_) => {
            // Each crash draws a distinct count against the budget.
            let crashes = shared.tally.bump(ServeTally::WorkerCrashes, 1);
            let crashes = u32::try_from(crashes).unwrap_or(u32::MAX);
            for job in &live {
                shared
                    .telemetry
                    .flight
                    .record(job.trace_id, FlightStage::Crash, idx as i64, 0);
                respond_job(
                    job,
                    StatusCode::WorkerCrashed,
                    b"worker panicked serving this batch; restarted".to_vec(),
                );
            }
            // Seal the ring's final moments while they are still final:
            // the panic is the event a post-mortem will ask about.
            shared.telemetry.dump_flight(
                cfg.flight_out.as_deref(),
                "serve.flight_dumped",
                "serve.flight_dump_failed",
            );
            if crashes > cfg.restart_budget {
                mupod_obs::event(
                    mupod_obs::Level::Error,
                    "serve.restart_budget_exhausted",
                    &[
                        ("crashes", &crashes.to_string()),
                        ("budget", &cfg.restart_budget.to_string()),
                    ],
                );
                let mut fatal = shared.fatal.lock().unwrap_or_else(PoisonError::into_inner);
                if fatal.is_none() {
                    *fatal = Some(ServeError::RestartBudgetExhausted {
                        crashes,
                        budget: cfg.restart_budget,
                        // run() fills this in once the drain completes.
                        report: Box::default(),
                    });
                }
                drop(fatal);
                shared.begin_drain();
                return;
            }
            // Poison isolation: the old arena may hold half-written
            // activations — rebuild from scratch before serving again.
            *arena = ExecArena::new(net, cfg.max_batch.max(1), cfg.kernel_tier);
            let backoff = policy.delay_for(crashes);
            mupod_obs::counter_add("serve.worker_restarts", 1);
            mupod_obs::event(
                mupod_obs::Level::Warn,
                "serve.worker_restarted",
                &[
                    ("crashes", &crashes.to_string()),
                    ("backoff_ms", &backoff.as_millis().to_string()),
                ],
            );
            std::thread::sleep(backoff);
        }
    }
}
