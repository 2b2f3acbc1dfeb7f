//! The serving workload: one in-process shard behind an in-process
//! router, loaded by a closed-loop capacity phase and an open-loop
//! fixed-rate phase, with servers and load generator sharing one CPU.
//! The traced run also loads the shard directly, which separates the
//! router hop from the shard's own cost.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mupod_data::Dataset;
use mupod_models::{ModelKind, ModelScale};
use mupod_nn::{ExecArena, Network};
use mupod_runtime::{CancelReason, CancelToken, StatusCode};
use mupod_serve::{Connection, Priority, RouteConfig, RouteReport, ServeConfig, ServeReport};

use crate::report::Report;
use crate::setup;
use crate::stats::{self, median, percentile_sorted, DueTimed};
use crate::trace::{Span, Tracer};
use crate::Args;

/// Client connections, each one synchronous request at a time.
const CONNS: usize = 2;
/// Open-loop arrival rate, the same for the routed and the direct path:
/// about a tenth of what the routed path sustains over two connections,
/// so the generator keeps its schedule when other guests take CPU time from
/// the host (`host.steal_pct`).
const OPEN_RPS: f64 = 500.0;
/// Distinct request images, cycled through.
const POOL_IMAGES: usize = 64;
/// Capacity and open-loop phases alternate in this many rounds, so a
/// burst of load from elsewhere on the host hits both alike.
const ROUNDS: usize = 20;
/// Set-ups per run; `setup_s` is their median. A set-up takes tens of
/// milliseconds, so more of them than a pipeline makes spread the
/// median over a few seconds of the host's load.
const SETUP_REPS: usize = 31;
/// Untimed warm-up before the measured phases.
const WARMUP: Duration = Duration::from_millis(500);
/// Socket timeout for the load generator's connections.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// An open-loop phase gives up on requests still unsent this long
/// after its schedule ends; they count as failed.
const OPEN_GRACE: Duration = Duration::from_secs(5);

/// Full-precision inference: every served layer computes in f32.
const SERVED_BITS: f64 = 32.0;

/// CPU mask as `sched_setaffinity(2)` takes it: room for 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it starts from now on,
/// to the first CPU it may run on; returns that CPU.
///
/// A request passes from client to router to shard to worker and back,
/// one thread waking the next. Spread over two CPUs, each hand-off
/// wakes an idle virtual CPU, which waits for the hypervisor whenever
/// the host is busy, and that slowed the whole chain several times
/// over. On one CPU the next thread is already queued where the last
/// one ran, so the figures follow the serving code's own cost.
fn pin_to_one_cpu() -> Result<usize, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let cpu = (0..size * 8)
        .find(|&i| allowed[i / 64] >> (i % 64) & 1 == 1)
        .ok_or("no CPU in this thread's affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!("cannot pin to CPU {cpu}"));
    }
    Ok(cpu)
}

/// A running shard and the router in front of it.
struct Service {
    token: CancelToken,
    shard: SocketAddr,
    front: SocketAddr,
    shard_thread: JoinHandle<Result<ServeReport, String>>,
    router_thread: JoinHandle<Result<RouteReport, String>>,
}

fn ready<T>(rx: &std::sync::mpsc::Receiver<T>, what: &str) -> Result<T, String> {
    rx.recv_timeout(Duration::from_secs(10))
        .map_err(|_| format!("{what} did not become ready"))
}

impl Service {
    /// Starts a shard (1 worker, batches of up to 8, telemetry plane
    /// bound) and a router in front of it; returns once both listen.
    fn start(net: &Network) -> Result<Self, String> {
        let token = CancelToken::new();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 8,
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let shard_thread = {
            let (net, token) = (net.clone(), token.clone());
            std::thread::spawn(move || {
                mupod_serve::run(&net, &cfg, &token, move |b| {
                    let _ = tx.send(b.addr);
                })
                .map_err(|e| e.to_string())
            })
        };
        let shard = ready(&rx, "shard")?;
        let cfg = RouteConfig {
            shards: vec![shard],
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..RouteConfig::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let router_thread = {
            let token = token.clone();
            std::thread::spawn(move || {
                mupod_serve::route(&cfg, &token, move |b| {
                    let _ = tx.send(b.addr);
                })
                .map_err(|e| e.to_string())
            })
        };
        let front = ready(&rx, "router")?;
        Ok(Self {
            token,
            shard,
            front,
            shard_thread,
            router_thread,
        })
    }

    /// Drains and joins both servers.
    fn stop(self) -> Result<(ServeReport, RouteReport), String> {
        self.token.cancel(CancelReason::Interrupt);
        let join = |what: &str| format!("{what} thread panicked");
        let route = self.router_thread.join().map_err(|_| join("router"))??;
        let serve = self.shard_thread.join().map_err(|_| join("shard"))??;
        Ok((serve, route))
    }
}

/// Request images and the class the model gives each, computed locally.
struct Pool {
    images: Dataset,
    expected: Vec<u32>,
}

impl Pool {
    fn len(&self) -> usize {
        self.images.len()
    }
}

/// Counts and timings of one load phase.
#[derive(Debug, Default)]
struct Phase {
    sent: u64,
    ok: u64,
    failed: u64,
    wrong: u64,
    /// Open loop only: requests given up on before they were sent.
    unsent: u64,
    elapsed_s: f64,
    /// Open loop only: per-request due-time accounting.
    timed: Vec<DueTimed>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.unsent += other.unsent;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.timed.extend(other.timed);
    }

    /// Correct answers per second.
    fn rps(&self) -> f64 {
        self.ok as f64 / self.elapsed_s
    }

    /// Open-loop median latency from due time.
    fn p50_us(&self) -> f64 {
        percentile_sorted(&self.sorted_latencies_us(), 5000) as f64
    }

    fn sorted_latencies_us(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.timed.iter().map(DueTimed::latency_us).collect();
        v.sort_unstable();
        v
    }
}

/// One load-generator connection, kept open across phases: the servers
/// accept new connections on a 50 ms poll, which a fresh connection per
/// phase would pay every time. It reconnects after a transport error.
struct Client {
    addr: SocketAddr,
    conn: Option<Connection>,
    tracer: Tracer,
}

impl Client {
    /// `CONNS` clients of `addr`; client `j` records spans as thread
    /// `first_thread + j`.
    fn connect_all(addr: SocketAddr, epoch: Instant, first_thread: u32) -> Vec<Client> {
        (0..CONNS as u32)
            .map(|j| Client {
                addr,
                conn: Connection::connect(addr, IO_TIMEOUT).ok(),
                tracer: Tracer::new(epoch, first_thread + j),
            })
            .collect()
    }

    /// Sends pool image `idx`; `Some(true)` for the expected class,
    /// `Some(false)` for a wrong one, `None` for a failure. A traced
    /// request carries `request_id` on the wire and in its span.
    fn request(&mut self, pool: &Pool, idx: usize, request_id: u64, traced: bool) -> Option<bool> {
        if self.conn.is_none() {
            self.conn = Connection::connect(self.addr, IO_TIMEOUT).ok();
        }
        let conn = self.conn.as_mut()?;
        let image = pool.images.images()[idx].data();
        let reply = if traced {
            self.tracer.begin("serve.classify", Some(request_id));
            let r = conn.classify_traced(image, 0, Priority::High, request_id);
            self.tracer.end();
            r
        } else {
            conn.classify(image, 0, Priority::High)
        };
        match reply {
            Ok(r) if r.status == StatusCode::Ok => Some(r.class == Some(pool.expected[idx])),
            Ok(_) => None,
            Err(_) => {
                self.conn = None;
                None
            }
        }
    }

    fn record(phase: &mut Phase, outcome: Option<bool>) {
        phase.sent += 1;
        match outcome {
            Some(true) => phase.ok += 1,
            Some(false) => phase.wrong += 1,
            None => phase.failed += 1,
        }
    }
}

/// Runs `body` on one thread per client and merges their phases.
fn on_clients(clients: &mut [Client], body: impl Fn(usize, &mut Client) -> Phase + Sync) -> Phase {
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(j, client)| {
                let body = &body;
                s.spawn(move || body(j, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Phase::default();
    for p in phases {
        merged.absorb(p);
    }
    merged
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one is answered, for `duration`.
fn closed_loop(
    clients: &mut [Client],
    pool: &Pool,
    duration: Duration,
    traced: bool,
    id_base: u64,
) -> Phase {
    on_clients(clients, |j, client| {
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut k = 0u64;
        while start.elapsed() < duration {
            let n = j as u64 + k * CONNS as u64;
            let outcome = client.request(pool, n as usize % pool.len(), id_base + n + 1, traced);
            Client::record(&mut phase, outcome);
            k += 1;
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    })
}

/// Open loop at `OPEN_RPS` for `duration`: request `n` is due at
/// `n / OPEN_RPS` and goes out on connection `n % CONNS`, sleeping
/// until due (spinning would take the CPU from the servers); its
/// latency runs from the due time.
fn open_loop(
    clients: &mut [Client],
    pool: &Pool,
    duration: Duration,
    traced: bool,
    id_base: u64,
) -> Phase {
    let total = (OPEN_RPS * duration.as_secs_f64()).round() as u64;
    let start = Instant::now();
    let give_up = duration + OPEN_GRACE;
    let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    on_clients(clients, |j, client| {
        let mut phase = Phase::default();
        let mut n = j as u64;
        while n < total {
            let due = Duration::from_secs_f64(n as f64 / OPEN_RPS);
            let now = start.elapsed();
            if now > give_up {
                phase.unsent += 1;
                phase.timed.push(DueTimed {
                    due_us: us(due),
                    sent_us: us(now),
                    done_us: None,
                });
                n += CONNS as u64;
                continue;
            }
            let id = id_base + n + 1;
            if traced {
                client.tracer.begin("loadgen.request", Some(id));
                client.tracer.begin("loadgen.wait", Some(id));
            }
            if due > now {
                std::thread::sleep(due - now);
            }
            if traced {
                client.tracer.end();
            }
            let sent = start.elapsed();
            let outcome = client.request(pool, n as usize % pool.len(), id, traced);
            let done = start.elapsed();
            if traced {
                client.tracer.end();
            }
            Client::record(&mut phase, outcome);
            phase.timed.push(DueTimed {
                due_us: us(due),
                sent_us: us(sent),
                done_us: (outcome == Some(true)).then(|| us(done)),
            });
            n += CONNS as u64;
        }
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase
    })
}

/// Prints a phase's counts and folds them into the report's totals and
/// checks.
fn account(report: &mut Report, label: &str, phase: &Phase) {
    println!(
        "phase {label}: sent {} ok {} failed {} wrong {} unsent {} in {:.3} s",
        phase.sent, phase.ok, phase.failed, phase.wrong, phase.unsent, phase.elapsed_s
    );
    report.attempted += phase.sent + phase.unsent;
    report.failed += phase.failed + phase.wrong + phase.unsent;
    report.check(phase.wrong == 0, || {
        format!(
            "{label}: {} served classes differ from Network::classify",
            phase.wrong
        )
    });
}

/// The routed serving workload.
pub struct Serving;

impl Serving {
    fn prepare(&self, seed: u64, t: &mut Tracer) -> Result<(Network, Pool, Service), String> {
        let scale = ModelScale::tiny();
        let p = setup::prepare(ModelKind::SqueezeNet, scale, seed, 0xC, POOL_IMAGES, t)?;
        t.begin("serve.start", None);
        let service = Service::start(&p.net)?;
        t.end();
        let pool = Pool {
            images: p.images,
            expected: Vec::new(),
        };
        Ok((p.net, pool, service))
    }

    /// Repeated set-up (the last service stays up), then the reference
    /// classes, computed locally outside the timed set-up.
    fn start(
        &self,
        args: &Args,
        epoch: Instant,
    ) -> Result<(Network, Pool, Service, f64, Vec<Span>), String> {
        let cpu = pin_to_one_cpu()?;
        println!("pinned to CPU {cpu}");
        let ((net, mut pool, service), setups, spans) = setup::repeated(
            SETUP_REPS,
            epoch,
            |t| self.prepare(args.seed, t),
            |(_, _, service)| service.stop().map(|_| ()),
        )?;
        pool.expected = pool
            .images
            .images()
            .iter()
            .map(|img| net.classify(img) as u32)
            .collect();
        Ok((net, pool, service, median(&setups), spans))
    }

    /// The untraced run: set-up, warm-up, then rounds of a closed-loop
    /// capacity phase and an open-loop phase at `OPEN_RPS`.
    pub fn measure(&self, args: &Args, report: &mut Report) -> Result<(), String> {
        let (_net, pool, service, setup_s, _) = self.start(args, Instant::now())?;
        report.set("setup_s", setup_s);
        let mut clients = Client::connect_all(service.front, Instant::now(), 2);
        let mut ids = PhaseIds::default();
        let warm = closed_loop(&mut clients, &pool, WARMUP, false, ids.next());
        account(report, "warmup", &warm);
        let round = Duration::from_secs_f64(args.seconds / ROUNDS as f64);
        let (mut capacity, mut open) = (Vec::new(), Vec::new());
        for r in 0..ROUNDS {
            let c = closed_loop(&mut clients, &pool, round.mul_f64(0.4), false, ids.next());
            let o = open_loop(&mut clients, &pool, round.mul_f64(0.6), false, ids.next());
            println!(
                "round {r}: capacity {:.1} rps, open-loop p50 {} us",
                c.rps(),
                o.p50_us()
            );
            capacity.push(c);
            open.push(o);
        }
        drop(clients);
        let (serve, route) = service.stop()?;
        check_reports(report, &serve, &route);

        // Pooled over the rounds, which averages the host's bursts of
        // load from other guests over the whole run.
        let (capacity, open) = (merged(capacity), merged(open));
        report.set("throughput_per_s", capacity.rps());
        report.set("latency_ms", open.p50_us() / 1e3);
        report.set("effective_bits", SERVED_BITS);
        account(report, "capacity", &capacity);
        account(report, "open", &open);
        set_loadgen(report, &capacity, &open);
        Ok(())
    }

    /// The traced run, in rounds: capacity untraced then traced (the
    /// difference is the tracing overhead), a traced open-loop phase,
    /// and the same open loop straight at the shard, which gives the hop
    /// cost. The program's counters are on while traced.
    pub fn trace(&self, args: &Args, report: &mut Report) -> Result<Vec<Span>, String> {
        let epoch = Instant::now();
        let (net, pool, service, _, mut spans) = self.start(args, epoch)?;
        let mut main = Tracer::new(epoch, 1);
        check_classify_arena(&net, &pool, report, &mut main);
        spans.extend(main.into_spans());
        let classify_ns: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "nn.classify")
            .map(|s| s.duration_ns() as f64)
            .collect();
        let classify = median(&classify_ns) / 1e3;
        report.set("nn.classify_us", classify);

        let mut front = Client::connect_all(service.front, epoch, 2);
        let mut shard = Client::connect_all(service.shard, epoch, 2 + CONNS as u32);
        let mut ids = PhaseIds::default();
        let warm = closed_loop(&mut front, &pool, WARMUP, false, ids.next());
        account(report, "warmup", &warm);
        let warm = closed_loop(&mut shard, &pool, WARMUP, false, ids.next());
        account(report, "warmup-direct", &warm);
        let window = Duration::from_secs_f64(args.seconds / (4 * ROUNDS) as f64);
        let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Off);
        let (mut plain, mut traced, mut open, mut direct) = (vec![], vec![], vec![], vec![]);
        let mut traced_s = 0.0;
        for _ in 0..ROUNDS {
            plain.push(closed_loop(&mut front, &pool, window, false, ids.next()));
            let guard = recorder.install();
            let start = Instant::now();
            traced.push(closed_loop(&mut front, &pool, window, true, ids.next()));
            open.push(open_loop(&mut front, &pool, window, true, ids.next()));
            direct.push(open_loop(&mut shard, &pool, window, true, ids.next()));
            traced_s += start.elapsed().as_secs_f64();
            drop(guard);
        }
        for c in front.into_iter().chain(shard) {
            spans.extend(c.tracer.into_spans());
        }
        let (serve, route) = service.stop()?;
        check_reports(report, &serve, &route);

        // Round by round, so each routed phase is compared with the
        // direct one next to it in time.
        let hops: Vec<f64> = open
            .iter()
            .zip(&direct)
            .map(|(o, d)| o.p50_us() - d.p50_us())
            .collect();
        report.set("router.hop_p50_us", median(&hops));
        let (plain, traced) = (merged(plain), merged(traced));
        let (open, direct) = (merged(open), merged(direct));
        report.set(
            "trace.overhead_pct",
            100.0 * (plain.rps() / traced.rps() - 1.0),
        );
        report.set("serve.overhead_us", direct.p50_us() - classify);
        report.set(
            "serve.batch_mean",
            serve.batched_requests as f64 / serve.batches.max(1) as f64,
        );
        report.set(
            "serve.rejected",
            (serve.rejected_busy + serve.rejected_draining) as f64,
        );
        report.set(
            "router.attempts_per_request",
            route.forwarded_attempts as f64 / route.requests.max(1) as f64,
        );
        report.set("router.hedges", route.hedges as f64);
        report.set("router.retries", route.retries as f64);
        account(report, "capacity", &plain);
        account(report, "capacity-traced", &traced);
        account(report, "open", &open);
        account(report, "open-direct", &direct);
        set_loadgen(report, &traced, &open);

        let counters = recorder.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        crate::set_kernel_counters(report, count, traced_s);
        Ok(spans)
    }
}

/// Request-ID ranges, one per phase, so IDs stay unique in a run.
#[derive(Default)]
struct PhaseIds(u64);

impl PhaseIds {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0 << 32
    }
}

/// One phase summing the rounds' counts and durations.
fn merged(rounds: Vec<Phase>) -> Phase {
    let mut total = Phase::default();
    let mut elapsed_s = 0.0;
    for r in rounds {
        elapsed_s += r.elapsed_s;
        total.absorb(r);
    }
    total.elapsed_s = elapsed_s;
    total
}

/// Runs `Network::classify_arena` over the pool, each call in an
/// `nn.classify` span, and checks it agrees with `Network::classify`.
fn check_classify_arena(net: &Network, pool: &Pool, report: &mut Report, t: &mut Tracer) {
    let mut arena = ExecArena::for_network(net);
    for _ in 0..20 {
        for (tensor, &want) in pool.images.images().iter().zip(&pool.expected) {
            let class = t.time("nn.classify", || net.classify_arena(tensor, &mut arena));
            report.check(class as u32 == want, || {
                "classify_arena disagrees with classify".to_string()
            });
        }
    }
}

/// Checks the servers' own accounts: nothing rejected or lost.
fn check_reports(report: &mut Report, serve: &ServeReport, route: &RouteReport) {
    report.check(serve.worker_crashes == 0 && serve.bad_frames == 0, || {
        format!("shard reported faults: {serve:?}")
    });
    report.check(route.no_healthy_shard == 0 && route.bad_frames == 0, || {
        format!("router reported faults: {route:?}")
    });
}

/// Phase counts, generator lateness and the client tail.
fn set_loadgen(report: &mut Report, capacity: &Phase, open: &Phase) {
    report.set("loadgen.capacity.sent", capacity.sent as f64);
    report.set("loadgen.capacity.ok", capacity.ok as f64);
    report.set(
        "loadgen.capacity.failed",
        (capacity.failed + capacity.wrong) as f64,
    );
    report.set("loadgen.open.sent", open.sent as f64);
    report.set("loadgen.open.ok", open.ok as f64);
    report.set(
        "loadgen.open.failed",
        (open.failed + open.wrong + open.unsent) as f64,
    );
    let mut late: Vec<u64> = open.timed.iter().map(DueTimed::lateness_us).collect();
    late.sort_unstable();
    report.set("loadgen.late_p50_us", percentile_sorted(&late, 5000) as f64);
    report.set(
        "loadgen.late_max_us",
        late.last().copied().unwrap_or(0) as f64,
    );
    let lat = open.sorted_latencies_us();
    report.set("client.samples", lat.len() as f64);
    let p99 = if stats::tail_percentile_bp(lat.len()).is_some_and(|bp| bp >= 9900) {
        percentile_sorted(&lat, 9900) as f64
    } else {
        0.0
    };
    report.set("client.p99_us", p99);
    let bp = stats::tail_percentile_bp(lat.len()).unwrap_or(5000);
    report.set("client.tail_pct", bp as f64 / 100.0);
    report.set("client.tail_us", percentile_sorted(&lat, bp) as f64);
}
