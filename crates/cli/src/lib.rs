//! Argument parsing and command implementations for the `mupod` CLI.
//!
//! The binary exposes the paper's workflow as three subcommands, plus a
//! serving pair:
//!
//! ```text
//! mupod inspect  --model alexnet [--scale tiny|small]
//! mupod profile  --model alexnet --out profile.csv [--images N]
//! mupod optimize --model alexnet --objective bandwidth --loss 1
//!                [--profile profile.csv] [--scheme equal|gaussian]
//! mupod serve    --model alexnet [--addr 127.0.0.1:0] [--workers N]
//! mupod query    --model alexnet --addr 127.0.0.1:PORT [--count N]
//! ```
//!
//! `profile` is the expensive stage; its CSV can be fed to any number of
//! later `optimize` invocations with different constraints — the
//! workflow §VI-A of the paper describes. `serve` runs the calibrated
//! model behind the fault-tolerant batched TCP server in `mupod-serve`
//! (DESIGN.md §12) and `query` is its loopback client. With
//! `--metrics-addr` the server also binds a live telemetry plane
//! (`/metrics`, `/health`, `/flight`; DESIGN.md §13), and
//! `query --dump-flight` seals its flight recorder to disk.
//!
//! Every subcommand also accepts the observability flags: `--log-level`
//! controls structured stderr events, `--metrics-out` writes the final
//! counter/histogram/span snapshot as JSON, and `--trace-out` writes a
//! Chrome `trace_event` timeline loadable in `chrome://tracing` (see
//! DESIGN.md §8).

use mupod_core::{Objective, PrecisionOptimizer, Profile, ProfileConfig, SearchScheme};
use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head_quick, ModelKind, ModelScale};
use mupod_nn::inventory::LayerInventory;
use mupod_nn::{KernelTier, Network};
use mupod_runtime::{CancelToken, ErrorClass, RetryPolicy, StageError, StagePolicy, Supervisor};
use std::fmt::Write as _;
use std::time::Duration;

/// Test hook: when set to a number of milliseconds, every supervised
/// pipeline inserts a cancellable delay inside its first stage. This
/// gives the integration tests a deterministic window in which to
/// deliver SIGINT or let a `--stage-timeout` watchdog fire, without
/// depending on how fast profiling happens to run on the host.
pub const TEST_STAGE_DELAY_ENV: &str = "MUPOD_TEST_STAGE_DELAY_MS";

/// Test hook: when set to a number of milliseconds, `mupod serve`
/// workers sleep that long before executing each batch. The chaos tests
/// use it to hold a batch in flight while they deliver SIGINT or let a
/// request deadline expire, without guessing at host speed.
pub const SERVE_TEST_SLOW_ENV: &str = "MUPOD_SERVE_TEST_SLOW_MS";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the per-layer inventory of a model.
    Inspect(CommonArgs),
    /// Profile λ/θ and write the CSV.
    Profile(CommonArgs, ProfileArgs),
    /// Run the optimizer and print the allocation.
    Optimize(CommonArgs, OptimizeArgs),
    /// Serve the calibrated model over TCP until SIGINT drains it.
    Serve(CommonArgs, ServeArgs),
    /// Send classify requests to a running `mupod serve`.
    Query(CommonArgs, QueryArgs),
    /// Run the multi-shard routing front until SIGINT drains it.
    /// Model-free: the router forwards frames, it never executes them.
    Route(RouteArgs),
    /// Hot-swap the model of a running shard (drain-and-swap).
    Reload(ReloadArgs),
    /// Print usage.
    Help,
}

/// Arguments shared by all subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Which zoo model to build.
    pub model: ModelKind,
    /// Scale preset.
    pub scale: ModelScale,
    /// Master seed (weights, data).
    pub seed: u64,
    /// Dataset size for calibration + evaluation.
    pub images: usize,
    /// Verbosity of structured stderr events.
    pub log_level: mupod_obs::Level,
    /// Optional path for the final metrics snapshot (JSON).
    pub metrics_out: Option<String>,
    /// Optional path for the Chrome `trace_event` timeline (JSON).
    pub trace_out: Option<String>,
    /// Watchdog deadline per pipeline stage (`--stage-timeout`);
    /// `None` means unbounded.
    pub stage_timeout: Option<Duration>,
    /// Attempt budget per stage for transient failures (`--retries`).
    pub retries: u32,
    /// Worker threads for the profiling sweep and parallel evaluators
    /// (`--threads`); `0` means "use the machine's available
    /// parallelism". Results are bit-identical for any value.
    pub threads: usize,
    /// Kernel tier for every forward pass (`--kernel-tier`). `Exact`
    /// (the default) keeps artifacts byte-reproducible; `Fast` trades
    /// bit-exactness for SIMD/FMA throughput (DESIGN.md §16).
    pub kernel_tier: KernelTier,
}

/// `profile` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// Output CSV path.
    pub out: String,
    /// Noise magnitudes per layer.
    pub n_deltas: usize,
    /// Optional checkpoint journal: completed layers are appended here
    /// and skipped on re-runs after an interruption.
    pub journal: Option<String>,
}

/// `optimize` options.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeArgs {
    /// Hardware criterion.
    pub objective: Objective,
    /// Relative accuracy loss budget (fraction, e.g. 0.01).
    pub loss: f64,
    /// Optional pre-computed profile CSV.
    pub profile: Option<String>,
    /// σ-search scheme.
    pub scheme: SearchScheme,
    /// Optional path to write the resulting allocation CSV.
    pub save: Option<String>,
}

/// `serve` options; defaults mirror [`mupod_serve::ServeConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`--addr`); port 0 picks an ephemeral port, printed
    /// on the "serving on ..." line once the listener is live.
    pub addr: String,
    /// Worker threads, each with its own batch arena (`--workers`).
    pub workers: usize,
    /// Bounded admission queue capacity (`--queue-depth`).
    pub queue_depth: usize,
    /// Largest batch gathered per forward pass (`--max-batch`).
    pub max_batch: usize,
    /// Default per-request deadline, ms (`--deadline-ms`).
    pub deadline_ms: u64,
    /// Worker panics tolerated before the server drains
    /// (`--restart-budget`).
    pub restart_budget: u32,
    /// Honor fault-injection frames (`--chaos`; tests only).
    pub chaos: bool,
    /// Bind address for the telemetry plane (`--metrics-addr`);
    /// `None` disables the `/metrics`, `/health` and `/flight`
    /// endpoints. Printed on the "metrics on ..." line once live.
    pub metrics_addr: Option<String>,
    /// Where worker panics and budget exhaustion seal the flight
    /// recorder (`--flight-out`); `None` disables automatic dumps.
    pub flight_out: Option<String>,
}

/// `query` options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryArgs {
    /// Server address (`--addr`, required).
    pub addr: String,
    /// Number of sequential requests to send (`--count`).
    pub count: usize,
    /// Per-request deadline, ms; 0 uses the server default
    /// (`--deadline-ms`).
    pub deadline_ms: u32,
    /// Mark requests sheddable under load (`--low-priority`).
    pub low_priority: bool,
    /// Fetch `/flight` from the telemetry plane at `--addr` (the
    /// server's *metrics* address, not its frame port) and seal it to
    /// this path instead of sending classify requests
    /// (`--dump-flight`).
    pub dump_flight: Option<String>,
    /// Attempts per request for connect failures and retryable wire
    /// statuses (`--retries`; shares the flag with the pipeline's
    /// per-stage budget). Exhaustion exits 3.
    pub retries: u32,
    /// Base delay between attempts (`--retry-backoff-ms`), doubled per
    /// retry with deterministic jitter from `--seed`.
    pub retry_backoff_ms: u64,
}

/// `route` options; defaults mirror [`mupod_serve::RouteConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct RouteArgs {
    /// Front bind address (`--addr`); port 0 picks an ephemeral port,
    /// printed on the "routing on ..." line once live.
    pub addr: String,
    /// Backend shard addresses (`--shard`, repeatable, at least one).
    pub shards: Vec<String>,
    /// Deadline for requests that do not carry one, ms
    /// (`--deadline-ms`).
    pub deadline_ms: u64,
    /// Extra attempts per retryable request (`--retry-budget`).
    pub retry_budget: u32,
    /// Hedge-timer floor, ms (`--hedge-ms`); the effective timer is
    /// the max of this and the windowed p99.
    pub hedge_ms: u64,
    /// Active health-ping cadence, ms (`--health-interval-ms`).
    pub health_interval_ms: u64,
    /// Consecutive failures that open a shard's breaker
    /// (`--breaker-threshold`).
    pub breaker_threshold: u32,
    /// Base breaker cooldown, ms (`--breaker-cooldown-ms`).
    pub breaker_cooldown_ms: u64,
    /// Bind address for the router's own telemetry plane
    /// (`--metrics-addr`).
    pub metrics_addr: Option<String>,
    /// Seal the router flight recorder here at drain (`--flight-out`).
    pub flight_out: Option<String>,
    /// Verbosity of structured stderr events (`--log-level`).
    pub log_level: mupod_obs::Level,
}

/// `reload` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ReloadArgs {
    /// The shard's frame address (`--addr`, required) — reloads go
    /// directly to a shard, never through the router.
    pub addr: String,
    /// Seed for the rebuilt model's weights (`--seed`).
    pub seed: u64,
    /// How long to wait for the rebuild + swap, ms (`--deadline-ms`).
    pub deadline_ms: u64,
    /// Verbosity of structured stderr events (`--log-level`).
    pub log_level: mupod_obs::Level,
}

/// Errors from parsing or running a command.
///
/// Each variant maps to a distinct process exit status drawn from the
/// shared [`mupod_runtime::StatusCode`] table (see `main.rs` and
/// DESIGN.md §9): `Usage` → 2, `Run` → 1, `StageFailed` → 3,
/// `StageTimeout` → 4, `Interrupted` → 130.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; payload is the message to show.
    Usage(String),
    /// Any downstream failure outside a supervised stage.
    Run(String),
    /// A supervised stage exhausted its retry budget (and had no
    /// fallback); partial artifacts on disk are intact.
    StageFailed(String),
    /// A stage overran its `--stage-timeout` watchdog and drained.
    StageTimeout(String),
    /// SIGINT arrived; the pipeline drained to a graceful stop.
    Interrupted,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Run(m) => write!(f, "{m}"),
            CliError::StageFailed(m) => write!(f, "{m}"),
            CliError::StageTimeout(m) => write!(f, "{m}"),
            CliError::Interrupted => {
                write!(f, "interrupted; drained to a graceful stop")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// A supervised stage's failure, tagged with whether a retry could
/// plausibly help. Flaky I/O and panicked workers are transient;
/// deterministic pipeline errors (bad model, failed validation,
/// malformed input files) are permanent — retrying replays the same
/// deterministic computation.
#[derive(Debug)]
enum StageFault {
    Transient(String),
    Permanent(String),
}

impl std::fmt::Display for StageFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageFault::Transient(m) | StageFault::Permanent(m) => write!(f, "{m}"),
        }
    }
}

fn classify(fault: &StageFault) -> ErrorClass {
    match fault {
        StageFault::Transient(_) => ErrorClass::Transient,
        StageFault::Permanent(_) => ErrorClass::Permanent,
    }
}

/// Lowers a supervisor verdict into the CLI's exit-code-bearing error.
fn stage_err(e: StageError<StageFault>) -> CliError {
    match e {
        StageError::Cancelled { .. } => CliError::Interrupted,
        StageError::TimedOut { stage, timeout } => CliError::StageTimeout(format!(
            "stage `{stage}` exceeded its {:.1}s deadline and was drained \
             (raise --stage-timeout for larger models)",
            timeout.as_secs_f64()
        )),
        StageError::Failed {
            stage,
            attempts,
            error,
        } => CliError::StageFailed(format!(
            "stage `{stage}` failed after {attempts} attempt(s): {error}"
        )),
    }
}

/// The cancellable test-hook delay (see [`TEST_STAGE_DELAY_ENV`]).
fn test_stage_delay(token: &CancelToken) -> Result<(), StageFault> {
    if let Ok(ms) = std::env::var(TEST_STAGE_DELAY_ENV) {
        let ms: u64 = ms.parse().unwrap_or(0);
        token
            .sleep_cancellable(Duration::from_millis(ms))
            .map_err(|c| StageFault::Permanent(c.to_string()))?;
    }
    Ok(())
}

/// Usage text shown by `mupod help`.
pub const USAGE: &str = "\
mupod — multi-objective precision optimization (DATE 2019 reproduction)

USAGE:
  mupod inspect  --model <name> [--scale tiny|small] [--seed N] [--images N]
  mupod profile  --model <name> --out <file.csv> [--deltas N]
                 [--journal <file.journal>] [common flags]
  mupod optimize --model <name> --objective <bandwidth|mac|unweighted>
                 [--loss <percent>] [--profile <file.csv>]
                 [--scheme equal|gaussian] [--save <alloc.csv>]
                 [common flags]
  mupod serve    --model <name> [--addr 127.0.0.1:0] [--workers N]
                 [--queue-depth N] [--max-batch N] [--deadline-ms MS]
                 [--restart-budget N] [--metrics-addr host:port]
                 [--flight-out <file.json>] [--kernel-tier exact|fast]
                 [--chaos] [common flags]
  mupod query    --model <name> --addr <host:port> [--count N]
                 [--deadline-ms MS] [--low-priority]
                 [--retries N] [--retry-backoff-ms MS]
                 [--dump-flight <file.json>]
  mupod route    --shard <host:port> [--shard ...] [--addr 127.0.0.1:0]
                 [--retry-budget N] [--hedge-ms MS]
                 [--health-interval-ms MS] [--breaker-threshold N]
                 [--breaker-cooldown-ms MS] [--deadline-ms MS]
                 [--metrics-addr host:port] [--flight-out <file.json>]
  mupod reload   --addr <shard host:port> [--seed N] [--deadline-ms MS]
  mupod help

COMMON FLAGS (observability):
  --log-level off|error|warn|info|debug|trace   stderr event verbosity
                                                (default warn; info adds
                                                per-layer progress lines)
  --metrics-out <file.json>   write final counters/histograms/span timings
  --trace-out <file.json>     write a Chrome trace_event timeline
                              (open in chrome://tracing or Perfetto)

COMMON FLAGS (performance):
  --threads <n>               worker threads for the profiling sweep and
                              accuracy evaluation (default 0 = all cores;
                              results are identical for any value)
  --kernel-tier exact|fast    forward-pass kernel tier (default exact).
                              `exact` is bit-reproducible everywhere;
                              `fast` enables SIMD/FMA reassociated
                              kernels — faster, not byte-comparable
                              against exact artifacts (DESIGN.md §16)

COMMON FLAGS (robustness):
  --stage-timeout <secs>      watchdog deadline per pipeline stage; an
                              overrunning stage drains and exits 4
  --retries <n>               attempts per stage for transient failures
                              (default 3; deterministic errors never retry)

SERVING (see DESIGN.md §12):
  `serve` prints `serving on <addr> kernel-tier=<tier>` once live
  (the active tier also lands in the drain summary and the
  `mupod_serve_kernel_tier` gauge, so chaos/soak logs record which
  tier was under test; `query` answers come from whichever tier the
  server was started with) and runs until SIGINT, then drains:
  in-flight requests finish, queued ones are answered
  `13 draining`, metrics flush, and the process exits 0. Admission
  rejects with `10 server busy` when the queue is full; expired
  requests get `11 deadline exceeded`; a crashed worker answers its
  batch `14 worker crashed` and restarts under --restart-budget.

TELEMETRY (see DESIGN.md §13):
  With --metrics-addr the server binds a second, read-only listener:
  GET /metrics is Prometheus text exposition (counters, gauges, a
  cumulative latency histogram and a 60 s rolling window with
  p50/p99), /health is a JSON liveness document (HTTP 503 while
  draining), and /flight is the bounded in-memory ring of
  request-lifecycle events (admit/dequeue/exec/reply/shed/crash),
  each tagged with the client's optional 8-byte trace ID. Worker
  panics and budget exhaustion seal the ring to --flight-out as a
  verified artifact; `mupod query --addr <metrics-addr>
  --dump-flight <file>` fetches and seals it on demand.

SCALING OUT (see DESIGN.md §14):
  `route` is a model-free front over N `mupod serve` shards speaking
  the same frame protocol: health-checked round-robin with per-shard
  circuit breakers, bounded retry of idempotent requests on another
  shard, and p99-informed hedging — all inside each request's
  deadline. `reload` hot-swaps one shard's model (rebuild at --seed,
  calibrate, drain-and-swap) with zero dropped requests; during the
  swap the router steers traffic to the remaining shards. `query
  --retries` adds the matching client-side retry with deterministic
  jittered backoff; exhausting it exits 3.

EXIT CODES: 0 ok (incl. a drained `serve`), 1 run error, 2 usage,
            3 stage failed after retries / serve restart budget
            exhausted, 4 stage timeout, 130 interrupted (Ctrl-C;
            `serve` only on a forced second Ctrl-C)

MODELS: alexnet nin googlenet vgg19 resnet50 resnet152 squeezenet mobilenet
";

fn parse_model(name: &str) -> Result<ModelKind, CliError> {
    let normalized: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    ModelKind::ALL
        .iter()
        .copied()
        .find(|k| {
            k.name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_ascii_lowercase()
                == normalized
        })
        .ok_or_else(|| CliError::Usage(format!("unknown model `{name}`")))
}

/// Validates `--addr` at parse time so a typo is a usage error (exit
/// 2), not a runtime bind failure.
fn parse_sock_addr(addr: &str) -> Result<std::net::SocketAddr, CliError> {
    addr.parse()
        .map_err(|_| CliError::Usage(format!("bad --addr `{addr}` (want host:port)")))
}

fn take_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, CliError> {
    *i += 1;
    args.get(*i)
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::Usage(format!("missing value for {flag}")))
}

/// Parses a full argument vector (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] with a human-readable message on any
/// malformed input.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    if sub == "help" || sub == "--help" || sub == "-h" {
        return Ok(Command::Help);
    }
    let mut model = None;
    let mut scale = ModelScale::small();
    let mut seed = 42u64;
    let mut images = 160usize;
    let mut out = None;
    let mut n_deltas = 20usize;
    let mut journal = None;
    let mut objective = None;
    let mut loss = 0.01f64;
    let mut profile = None;
    let mut scheme = SearchScheme::EqualScheme;
    let mut save = None;
    let mut log_level = mupod_obs::Level::Warn;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut stage_timeout = None;
    let mut retries = 3u32;
    let mut threads = 0usize;
    let mut kernel_tier = KernelTier::Exact;
    let mut addr = None;
    let mut workers = 2usize;
    let mut queue_depth = 32usize;
    let mut max_batch = 4usize;
    let mut deadline_ms = None;
    let mut restart_budget = 8u32;
    let mut chaos = false;
    let mut metrics_addr = None;
    let mut flight_out = None;
    let mut count = 1usize;
    let mut low_priority = false;
    let mut dump_flight = None;
    let mut retry_backoff_ms = 50u64;
    let mut shards: Vec<String> = Vec::new();
    let mut retry_budget = 2u32;
    let mut hedge_ms = 25u64;
    let mut health_interval_ms = 200u64;
    let mut breaker_threshold = 3u32;
    let mut breaker_cooldown_ms = 500u64;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--model" => model = Some(parse_model(take_value(args, &mut i, "--model")?)?),
            "--scale" => {
                scale = match take_value(args, &mut i, "--scale")? {
                    "tiny" => ModelScale::tiny(),
                    "small" => ModelScale::small(),
                    other => return Err(CliError::Usage(format!("unknown scale `{other}`"))),
                }
            }
            "--seed" => {
                seed = take_value(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --seed".into()))?
            }
            "--images" => {
                images = take_value(args, &mut i, "--images")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --images".into()))?
            }
            "--out" => out = Some(take_value(args, &mut i, "--out")?.to_string()),
            "--journal" => journal = Some(take_value(args, &mut i, "--journal")?.to_string()),
            "--deltas" => {
                n_deltas = take_value(args, &mut i, "--deltas")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --deltas".into()))?
            }
            "--objective" => {
                objective = Some(match take_value(args, &mut i, "--objective")? {
                    "bandwidth" | "bw" | "input" => Objective::Bandwidth,
                    "mac" | "energy" | "mac-energy" => Objective::MacEnergy,
                    "unweighted" => Objective::Unweighted,
                    other => return Err(CliError::Usage(format!("unknown objective `{other}`"))),
                })
            }
            "--loss" => {
                let pct: f64 = take_value(args, &mut i, "--loss")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --loss".into()))?;
                loss = pct / 100.0;
            }
            "--profile" => profile = Some(take_value(args, &mut i, "--profile")?.to_string()),
            "--save" => save = Some(take_value(args, &mut i, "--save")?.to_string()),
            "--log-level" => {
                log_level = mupod_obs::Level::parse(take_value(args, &mut i, "--log-level")?)
                    .map_err(CliError::Usage)?
            }
            "--metrics-out" => {
                metrics_out = Some(take_value(args, &mut i, "--metrics-out")?.to_string())
            }
            "--trace-out" => trace_out = Some(take_value(args, &mut i, "--trace-out")?.to_string()),
            "--stage-timeout" => {
                let secs: f64 = take_value(args, &mut i, "--stage-timeout")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --stage-timeout".into()))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(CliError::Usage(
                        "--stage-timeout must be a positive number of seconds".into(),
                    ));
                }
                stage_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--retries" => {
                let n: u32 = take_value(args, &mut i, "--retries")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --retries".into()))?;
                retries = n.max(1);
            }
            "--threads" => {
                threads = take_value(args, &mut i, "--threads")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --threads".into()))?
            }
            "--kernel-tier" => {
                let v = take_value(args, &mut i, "--kernel-tier")?;
                kernel_tier = KernelTier::parse(v).ok_or_else(|| {
                    CliError::Usage(format!("bad --kernel-tier `{v}` (want exact|fast)"))
                })?;
            }
            "--addr" => addr = Some(take_value(args, &mut i, "--addr")?.to_string()),
            "--workers" => {
                let n: usize = take_value(args, &mut i, "--workers")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --workers".into()))?;
                workers = n.max(1);
            }
            "--queue-depth" => {
                let n: usize = take_value(args, &mut i, "--queue-depth")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --queue-depth".into()))?;
                queue_depth = n.max(1);
            }
            "--max-batch" => {
                let n: usize = take_value(args, &mut i, "--max-batch")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --max-batch".into()))?;
                max_batch = n.max(1);
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    take_value(args, &mut i, "--deadline-ms")?
                        .parse::<u64>()
                        .map_err(|_| CliError::Usage("bad --deadline-ms".into()))?,
                )
            }
            "--restart-budget" => {
                restart_budget = take_value(args, &mut i, "--restart-budget")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --restart-budget".into()))?
            }
            "--chaos" => chaos = true,
            "--metrics-addr" => {
                metrics_addr = Some(take_value(args, &mut i, "--metrics-addr")?.to_string())
            }
            "--flight-out" => {
                flight_out = Some(take_value(args, &mut i, "--flight-out")?.to_string())
            }
            "--dump-flight" => {
                dump_flight = Some(take_value(args, &mut i, "--dump-flight")?.to_string())
            }
            "--count" => {
                let n: usize = take_value(args, &mut i, "--count")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --count".into()))?;
                count = n.max(1);
            }
            "--low-priority" => low_priority = true,
            "--retry-backoff-ms" => {
                retry_backoff_ms = take_value(args, &mut i, "--retry-backoff-ms")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --retry-backoff-ms".into()))?
            }
            "--shard" => {
                let s = take_value(args, &mut i, "--shard")?;
                parse_sock_addr(s)
                    .map_err(|_| CliError::Usage(format!("bad --shard `{s}` (want host:port)")))?;
                shards.push(s.to_string());
            }
            "--retry-budget" => {
                retry_budget = take_value(args, &mut i, "--retry-budget")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --retry-budget".into()))?
            }
            "--hedge-ms" => {
                hedge_ms = take_value(args, &mut i, "--hedge-ms")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --hedge-ms".into()))?
            }
            "--health-interval-ms" => {
                let n: u64 = take_value(args, &mut i, "--health-interval-ms")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --health-interval-ms".into()))?;
                health_interval_ms = n.max(10);
            }
            "--breaker-threshold" => {
                let n: u32 = take_value(args, &mut i, "--breaker-threshold")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --breaker-threshold".into()))?;
                breaker_threshold = n.max(1);
            }
            "--breaker-cooldown-ms" => {
                let n: u64 = take_value(args, &mut i, "--breaker-cooldown-ms")?
                    .parse()
                    .map_err(|_| CliError::Usage("bad --breaker-cooldown-ms".into()))?;
                breaker_cooldown_ms = n.max(1);
            }
            "--scheme" => {
                scheme = match take_value(args, &mut i, "--scheme")? {
                    "equal" | "scheme1" => SearchScheme::EqualScheme,
                    "gaussian" | "scheme2" => SearchScheme::GaussianApprox,
                    other => return Err(CliError::Usage(format!("unknown scheme `{other}`"))),
                }
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }

    // Model-free subcommands resolve before CommonArgs demands --model.
    match sub.as_str() {
        "route" => {
            let addr = addr.unwrap_or_else(|| "127.0.0.1:0".to_string());
            parse_sock_addr(&addr)?;
            if shards.is_empty() {
                return Err(CliError::Usage(
                    "route needs at least one --shard <host:port>".into(),
                ));
            }
            if let Some(m) = &metrics_addr {
                parse_sock_addr(m).map_err(|_| {
                    CliError::Usage(format!("bad --metrics-addr `{m}` (want host:port)"))
                })?;
            }
            return Ok(Command::Route(RouteArgs {
                addr,
                shards,
                deadline_ms: deadline_ms.unwrap_or(1_000),
                retry_budget,
                hedge_ms,
                health_interval_ms,
                breaker_threshold,
                breaker_cooldown_ms,
                metrics_addr,
                flight_out,
                log_level,
            }));
        }
        "reload" => {
            let addr = addr.ok_or_else(|| CliError::Usage("--addr is required".into()))?;
            parse_sock_addr(&addr)?;
            return Ok(Command::Reload(ReloadArgs {
                addr,
                seed,
                deadline_ms: deadline_ms.unwrap_or(30_000),
                log_level,
            }));
        }
        _ => {}
    }
    let common = CommonArgs {
        model: model.ok_or_else(|| CliError::Usage("--model is required".into()))?,
        scale,
        seed,
        images,
        log_level,
        metrics_out,
        trace_out,
        stage_timeout,
        retries,
        threads,
        kernel_tier,
    };
    match sub.as_str() {
        "inspect" => Ok(Command::Inspect(common)),
        "profile" => Ok(Command::Profile(
            common,
            ProfileArgs {
                out: out.ok_or_else(|| CliError::Usage("--out is required".into()))?,
                n_deltas,
                journal,
            },
        )),
        "optimize" => Ok(Command::Optimize(
            common,
            OptimizeArgs {
                objective: objective
                    .ok_or_else(|| CliError::Usage("--objective is required".into()))?,
                loss,
                profile,
                scheme,
                save,
            },
        )),
        "serve" => {
            let addr = addr.unwrap_or_else(|| "127.0.0.1:0".to_string());
            parse_sock_addr(&addr)?;
            if let Some(m) = &metrics_addr {
                parse_sock_addr(m).map_err(|_| {
                    CliError::Usage(format!("bad --metrics-addr `{m}` (want host:port)"))
                })?;
            }
            Ok(Command::Serve(
                common,
                ServeArgs {
                    addr,
                    workers,
                    queue_depth,
                    max_batch,
                    deadline_ms: deadline_ms.unwrap_or(1_000),
                    restart_budget,
                    chaos,
                    metrics_addr,
                    flight_out,
                },
            ))
        }
        "query" => {
            let addr = addr.ok_or_else(|| CliError::Usage("--addr is required".into()))?;
            parse_sock_addr(&addr)?;
            let deadline_ms = deadline_ms.unwrap_or(0);
            let deadline_ms = u32::try_from(deadline_ms)
                .map_err(|_| CliError::Usage("bad --deadline-ms".into()))?;
            Ok(Command::Query(
                common,
                QueryArgs {
                    addr,
                    count,
                    deadline_ms,
                    low_priority,
                    dump_flight,
                    retries,
                    retry_backoff_ms,
                },
            ))
        }
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Emits one structured warn event per fallback layer — the single
/// place the fallback warning is formatted, shared by `profile` and
/// `optimize`. The events reach stderr when `--log-level` is `warn` or
/// higher and land in the `--trace-out` timeline either way.
fn warn_fallback_layers(profile: &Profile) {
    for (name, reason) in profile.fallback_layers() {
        mupod_obs::event(
            mupod_obs::Level::Warn,
            "profile.fallback",
            &[("layer", name), ("reason", &reason.to_string())],
        );
    }
}

/// Forwards per-layer profiling progress as info-level events; the
/// recorder prints them to stderr when `--log-level` is `info`+.
fn progress_event(done: usize, total: usize, layer: &str) {
    mupod_obs::event(
        mupod_obs::Level::Info,
        "profile.progress",
        &[
            ("done", &done.to_string()),
            ("total", &total.to_string()),
            ("layer", layer),
        ],
    );
}

/// Renders the post-drain serving summary. The terminal status is part
/// of the first line, so the summary alone distinguishes a clean drain
/// (`status 0 (ok)`) from a budget-exhausted one (`status 3 (stage
/// failed after retries)`).
fn drain_summary(
    report: &mupod_serve::ServeReport,
    status: mupod_runtime::StatusCode,
    tier: KernelTier,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "drained: {} ok, {} busy, {} deadline-expired, {} draining, \
         {} bad frames, {} crashes, {} disconnects — status {status}",
        report.requests_ok,
        report.rejected_busy,
        report.deadline_expired,
        report.rejected_draining,
        report.bad_frames,
        report.worker_crashes,
        report.client_disconnects,
    );
    let _ = writeln!(
        s,
        "{} batches served {} requests; latency p50 {} µs, p99 {} µs; kernel-tier {}",
        report.batches,
        report.batched_requests,
        report.p50_latency_us,
        report.p99_latency_us,
        tier.name(),
    );
    s
}

/// Renders the post-drain routing summary (the router's counterpart to
/// [`drain_summary`]).
fn route_summary(report: &mupod_serve::RouteReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "routed: {} requests, {} ok, {} relayed errors, {} no-healthy-shard, \
         {} deadline-expired, {} bad frames, {} disconnects",
        report.requests,
        report.relayed_ok,
        report.relayed_errors,
        report.no_healthy_shard,
        report.deadline_exceeded,
        report.bad_frames,
        report.client_disconnects,
    );
    let _ = writeln!(
        s,
        "{} attempts ({} retries, {} hedges, {} hedge wins); breaker {} opens / {} closes; \
         latency p50 {} µs, p99 {} µs",
        report.forwarded_attempts,
        report.retries,
        report.hedges,
        report.hedge_wins,
        report.breaker_opens,
        report.breaker_closes,
        report.p50_latency_us,
        report.p99_latency_us,
    );
    s
}

/// Writes `--metrics-out` / `--trace-out` files from the run's recorder.
///
/// Both go through the atomic sealed writer: an export interrupted by a
/// crash leaves any previous snapshot intact, and a truncated file is
/// detected on load. The integrity footer starts with `#` — strip
/// `#mupod-artifact` lines (or use [`mupod_runtime::unseal`]) before
/// handing the JSON to a strict parser.
fn write_observability(
    common: &CommonArgs,
    recorder: &mupod_obs::Recorder,
) -> Result<(), CliError> {
    if let Some(path) = &common.metrics_out {
        let json = recorder.snapshot().to_json();
        mupod_runtime::write_atomic(std::path::Path::new(path), json.as_bytes())
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &common.trace_out {
        let mut buf = Vec::new();
        recorder
            .write_chrome_trace(&mut buf)
            .map_err(|e| CliError::Run(format!("cannot render trace: {e}")))?;
        mupod_runtime::write_atomic(std::path::Path::new(path), &buf)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
    }
    Ok(())
}

fn prepare(common: &CommonArgs) -> Result<(Network, Dataset), CliError> {
    let _span = mupod_obs::span("cli.prepare");
    let mut net = common.model.build(&common.scale, common.seed);
    let spec = DatasetSpec::new(
        common.scale.classes,
        3,
        common.scale.input_hw,
        common.scale.input_hw,
    )
    .with_class_seed(common.seed);
    let calib = Dataset::generate(&spec, common.seed ^ 0xA, common.images);
    let eval = Dataset::generate(&spec, common.seed ^ 0xB, common.images / 2);
    calibrate_head_quick(&mut net, &calib, 0.1)
        .map_err(|e| CliError::Run(format!("calibration failed: {e}")))?;
    Ok((net, eval))
}

/// Executes a parsed command with a private cancellation token (no
/// SIGINT wiring), returning the text to print. See [`run_with_token`].
///
/// # Errors
///
/// Returns [`CliError::Run`] when a pipeline stage fails (with the
/// underlying message).
pub fn run(cmd: &Command) -> Result<String, CliError> {
    run_with_token(cmd, &CancelToken::new())
}

/// Executes a parsed command under supervision.
///
/// `token` is the run's cancellation token; `main` wires it to SIGINT
/// via [`mupod_runtime::install_sigint`] so Ctrl-C drains the pipeline
/// at the next checkpoint — observability exports still happen, partial
/// artifacts stay intact — and the process exits 130.
///
/// # Errors
///
/// [`CliError::Run`] for unsupervised failures, [`CliError::StageFailed`]
/// / [`CliError::StageTimeout`] / [`CliError::Interrupted`] from the
/// supervisor (distinct exit codes; see [`CliError`]).
pub fn run_with_token(cmd: &Command, token: &CancelToken) -> Result<String, CliError> {
    // Route/reload are model-free and carry their own log level; the
    // pipeline subcommands share CommonArgs (and its export flags).
    let (log_level, common) = match cmd {
        Command::Help => return Ok(USAGE.to_string()),
        Command::Route(r) => (r.log_level, None),
        Command::Reload(r) => (r.log_level, None),
        Command::Inspect(c)
        | Command::Profile(c, _)
        | Command::Optimize(c, _)
        | Command::Serve(c, _)
        | Command::Query(c, _) => (c.log_level, Some(c)),
    };
    // One recorder per invocation. Installing serializes concurrent
    // `run` calls in one process (the facade is process-global); the
    // guard is dropped before the exporters read the snapshot so every
    // span has closed.
    let recorder = mupod_obs::Recorder::new(log_level);
    let guard = recorder.install();
    let result = run_inner(cmd, token);
    drop(guard);
    // Export even when the pipeline failed or was cancelled — a trace of
    // a failed run is exactly what one wants to look at — but report the
    // run error first.
    let exported = match common {
        Some(c) => write_observability(c, &recorder),
        None => Ok(()),
    };
    let text = result?;
    exported?;
    Ok(text)
}

/// The per-stage supervision policy from the common flags.
fn stage_policy(common: &CommonArgs) -> StagePolicy {
    StagePolicy {
        timeout: common.stage_timeout,
        retry: RetryPolicy {
            max_attempts: common.retries.max(1),
            ..RetryPolicy::default()
        },
    }
}

fn run_inner(cmd: &Command, token: &CancelToken) -> Result<String, CliError> {
    let supervisor = Supervisor::new(token.clone());
    // The model/dataset build is deterministic — no retry — but it still
    // runs under the watchdog and honors the test-hook delay, so every
    // subcommand has a cancellable first stage.
    let supervised_prepare = |common: &CommonArgs| -> Result<(Network, Dataset), CliError> {
        supervisor
            .run_stage(
                "prepare",
                StagePolicy {
                    timeout: common.stage_timeout,
                    retry: RetryPolicy::no_retry(),
                },
                classify,
                |tok| {
                    test_stage_delay(tok)?;
                    prepare(common).map_err(|e| StageFault::Permanent(e.to_string()))
                },
            )
            .map(|o| o.value)
            .map_err(stage_err)
    };
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Inspect(common) => {
            let _span = mupod_obs::span("cli.inspect");
            let (net, eval) = supervised_prepare(common)?;
            let layers = common.model.analyzable_layers(&net);
            let inventory = LayerInventory::measure(&net, eval.images().iter().cloned());
            let _ = writeln!(
                out,
                "{} — {} analyzable layers, {} parameters, held-out accuracy {:.1}%",
                common.model,
                layers.len(),
                net.parameter_count(),
                eval.accuracy_of(|img| net.classify(img)) * 100.0
            );
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12} {:>10}",
                "layer", "#inputs", "#MACs", "max|X|"
            );
            for &id in &layers {
                let info = inventory
                    .find(id)
                    .ok_or_else(|| CliError::Run(format!("layer {id} missing from inventory")))?;
                let _ = writeln!(
                    out,
                    "{:<14} {:>10} {:>12} {:>10.1}",
                    info.name, info.input_elems, info.macs, info.max_abs
                );
            }
        }
        Command::Profile(common, pargs) => {
            let _span = mupod_obs::span("cli.profile");
            let (net, eval) = supervised_prepare(common)?;
            let layers = common.model.analyzable_layers(&net);
            let images = &eval.images()[..eval.len().min(24)];
            // Journal I/O and panicked workers are worth a retry — a
            // journaled re-attempt resumes from the layers already
            // committed. Everything else in the sweep is deterministic.
            let classify_profile = |e: &mupod_core::CoreError| match e {
                mupod_core::CoreError::Journal(mupod_core::JournalError::Io(_)) => {
                    StageFault::Transient(format!("profiling failed: {e}"))
                }
                mupod_core::CoreError::Profile(mupod_core::ProfileError::WorkerPanicked) => {
                    StageFault::Transient(format!("profiling failed: {e}"))
                }
                _ => StageFault::Permanent(format!("profiling failed: {e}")),
            };
            let outcome = supervisor
                .run_stage("profile", stage_policy(common), classify, |tok| {
                    let profiler = mupod_core::Profiler::new(&net, images)
                        .with_config(ProfileConfig {
                            n_deltas: pargs.n_deltas,
                            threads: common.threads,
                            kernel_tier: common.kernel_tier,
                            ..Default::default()
                        })
                        .with_progress(progress_event)
                        .with_cancel(tok.clone());
                    match &pargs.journal {
                        Some(journal) => profiler
                            .profile_journaled(&layers, std::path::Path::new(journal))
                            .map(|(p, s)| (p, Some(s)))
                            .map_err(|e| classify_profile(&e)),
                        None => profiler
                            .profile(&layers)
                            .map(|p| (p, None))
                            .map_err(|e| classify_profile(&e.into())),
                    }
                })
                .map_err(stage_err)?;
            let (profile, summary) = outcome.value;
            if let (Some(summary), Some(journal)) = (&summary, &pargs.journal) {
                if summary.resumed > 0 {
                    let _ = writeln!(
                        out,
                        "resumed {} of {} layers from {journal}{}",
                        summary.resumed,
                        profile.len(),
                        if summary.dropped_partial_record {
                            " (dropped one interrupted record)"
                        } else {
                            ""
                        },
                    );
                }
            }
            let mut buf = Vec::new();
            profile
                .save_csv(&mut buf)
                .map_err(|e| CliError::Run(format!("cannot write profile: {e}")))?;
            mupod_runtime::write_atomic(std::path::Path::new(&pargs.out), &buf)
                .map_err(|e| CliError::Run(format!("cannot write {}: {e}", pargs.out)))?;
            let _ = writeln!(
                out,
                "profiled {} layers (min R² {:.4}, worst rel err {:.1}%) -> {}",
                profile.len(),
                profile.min_r_squared(),
                profile.max_relative_error() * 100.0,
                pargs.out
            );
            warn_fallback_layers(&profile);
        }
        Command::Optimize(common, oargs) => {
            let _span = mupod_obs::span("cli.optimize");
            let (net, eval) = supervised_prepare(common)?;
            let layers = common.model.analyzable_layers(&net);
            // A pre-computed profile is validated against its integrity
            // footer before parsing: corruption is a typed diagnostic
            // here, never a silently-wrong allocation downstream.
            let loaded_profile = match &oargs.profile {
                Some(path) => {
                    let bytes = mupod_runtime::read_verified(std::path::Path::new(path))
                        .map_err(|e| CliError::Run(format!("cannot open {path}: {e}")))?;
                    Some(
                        Profile::load_csv(bytes.as_slice())
                            .map_err(|e| CliError::Run(format!("cannot parse {path}: {e}")))?,
                    )
                }
                None => None,
            };
            let run_opt = |scheme: SearchScheme, tok: &CancelToken| {
                let mut optimizer = PrecisionOptimizer::new(&net, &eval)
                    .layers(layers.clone())
                    .relative_accuracy_loss(oargs.loss)
                    .scheme(scheme)
                    .profile_config(ProfileConfig {
                        threads: common.threads,
                        kernel_tier: common.kernel_tier,
                        ..Default::default()
                    })
                    .with_cancel(tok.clone());
                if let Some(profile) = &loaded_profile {
                    optimizer = optimizer.with_profile(profile.clone());
                }
                optimizer
                    .run(oargs.objective.clone())
                    .map_err(|e| StageFault::Permanent(format!("optimization failed: {e}")))
            };
            // Degradation ladder: the Gaussian σ-search is the fragile
            // refinement — if it exhausts its budget, fall back to the
            // conservative equal-σ scheme and flag the result degraded
            // rather than ship nothing.
            let outcome = if oargs.scheme == SearchScheme::GaussianApprox {
                supervisor.run_stage_with_fallback(
                    "optimize",
                    stage_policy(common),
                    classify,
                    |tok| run_opt(SearchScheme::GaussianApprox, tok),
                    |tok| run_opt(SearchScheme::EqualScheme, tok),
                )
            } else {
                supervisor.run_stage("optimize", stage_policy(common), classify, |tok| {
                    run_opt(oargs.scheme, tok)
                })
            }
            .map_err(stage_err)?;
            if outcome.degraded {
                let _ = writeln!(
                    out,
                    "warning: gaussian σ-search failed; allocation below is the \
                     conservative equal-scheme fallback (degraded)"
                );
            }
            let result = outcome.value;
            let _ = writeln!(
                out,
                "{} | objective {} | σ_YŁ {:.4} | fp acc {:.3} -> quantized {:.3}",
                common.model,
                oargs.objective.name(),
                result.sigma.sigma,
                result.fp_accuracy,
                result.validated_accuracy
            );
            let _ = writeln!(out, "{:<14} {:>8} {:>6}", "layer", "format", "bits");
            for (lf, bits) in result
                .allocation
                .layers()
                .iter()
                .zip(result.allocation.bits())
            {
                let _ = writeln!(
                    out,
                    "{:<14} {:>8} {:>6}",
                    lf.layer,
                    lf.format.to_string(),
                    bits
                );
            }
            warn_fallback_layers(&result.profile);
            if let Some(path) = &oargs.save {
                let mut buf = Vec::new();
                result
                    .allocation
                    .save_csv(&mut buf)
                    .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
                mupod_runtime::write_atomic(std::path::Path::new(path), &buf)
                    .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "allocation written to {path}");
            }
        }
        Command::Serve(common, sargs) => {
            let _span = mupod_obs::span("cli.serve");
            let (net, _eval) = supervised_prepare(common)?;
            let slow_batch = std::env::var(SERVE_TEST_SLOW_ENV)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_millis);
            let cfg = mupod_serve::ServeConfig {
                addr: sargs.addr.clone(),
                workers: sargs.workers,
                queue_depth: sargs.queue_depth,
                max_batch: sargs.max_batch,
                default_deadline: Duration::from_millis(sargs.deadline_ms),
                restart_budget: sargs.restart_budget,
                chaos: sargs.chaos,
                slow_batch,
                metrics_addr: sargs.metrics_addr.clone(),
                flight_out: sargs.flight_out.clone().map(std::path::PathBuf::from),
                kernel_tier: common.kernel_tier,
            };
            // The serve stage is not retried: its internal supervisor
            // (worker restarts under the budget) is the retry layer, and
            // the exit mapping must distinguish a bind failure (run
            // error, 1) from an exhausted restart budget (stage failed,
            // 3) — see `mupod_runtime::StatusCode`.
            //
            // The "serving on" line is the first stdout line by contract
            // (the chaos harness parses it); "metrics on" follows when
            // the telemetry plane is up.
            //
            // The reloader rebuilds this model at the requested seed and
            // re-runs quick calibration; `mupod reload --addr <shard>`
            // swaps it in without dropping accepted requests.
            let model = common.model;
            let scale = common.scale;
            let images = common.images;
            let reloader = move |seed: u64| -> Result<Network, String> {
                let mut net = model.build(&scale, seed);
                let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw)
                    .with_class_seed(seed);
                let calib = Dataset::generate(&spec, seed ^ 0xA, images);
                calibrate_head_quick(&mut net, &calib, 0.1)
                    .map_err(|e| format!("calibration failed: {e}"))?;
                Ok(net)
            };
            let tier = cfg.kernel_tier;
            let report = mupod_serve::run_reloadable(net, &cfg, token, Some(&reloader), |bound| {
                println!("serving on {} kernel-tier={}", bound.addr, tier.name());
                if let Some(m) = bound.metrics_addr {
                    println!("metrics on {m}");
                }
                let _ = std::io::Write::flush(&mut std::io::stdout());
            })
            .map_err(|e| match &e {
                mupod_serve::ServeError::Bind { .. } => CliError::Run(e.to_string()),
                mupod_serve::ServeError::RestartBudgetExhausted { report, .. } => {
                    // The drain still completed; the summary goes to
                    // stderr (stdout is the success channel) tagged with
                    // the failure status before the typed error exits 3.
                    eprint!(
                        "{}",
                        drain_summary(report, mupod_runtime::StatusCode::StageFailed, tier)
                    );
                    CliError::StageFailed(format!("serve: {e}"))
                }
            })?;
            out.push_str(&drain_summary(&report, mupod_runtime::StatusCode::Ok, tier));
        }
        Command::Route(rargs) => {
            let _span = mupod_obs::span("cli.route");
            let mut shard_addrs = Vec::with_capacity(rargs.shards.len());
            for s in &rargs.shards {
                shard_addrs.push(parse_sock_addr(s)?);
            }
            let cfg = mupod_serve::RouteConfig {
                addr: rargs.addr.clone(),
                shards: shard_addrs,
                default_deadline: Duration::from_millis(rargs.deadline_ms),
                retry_budget: rargs.retry_budget,
                hedge_after: Duration::from_millis(rargs.hedge_ms),
                health_interval: Duration::from_millis(rargs.health_interval_ms),
                breaker_threshold: rargs.breaker_threshold,
                breaker_cooldown: Duration::from_millis(rargs.breaker_cooldown_ms),
                metrics_addr: rargs.metrics_addr.clone(),
                flight_out: rargs.flight_out.clone().map(std::path::PathBuf::from),
            };
            // "routing on" is the first stdout line by contract, like
            // serve's "serving on" (the chaos harness parses both).
            let report = mupod_serve::route(&cfg, token, |bound| {
                println!("routing on {}", bound.addr);
                if let Some(m) = bound.metrics_addr {
                    println!("metrics on {m}");
                }
                let _ = std::io::Write::flush(&mut std::io::stdout());
            })
            .map_err(|e| CliError::Run(e.to_string()))?;
            out.push_str(&route_summary(&report));
        }
        Command::Reload(rargs) => {
            let _span = mupod_obs::span("cli.reload");
            let addr = parse_sock_addr(&rargs.addr)?;
            let epoch = mupod_serve::reload_shard(
                addr,
                rargs.seed,
                Duration::from_millis(rargs.deadline_ms),
            )
            .map_err(|e| match e {
                // Transport trouble is exit 1; a shard that answered but
                // refused (dims mismatch, unsupported, build failure) is
                // a stage failure, exit 3 — scripts can tell them apart.
                mupod_serve::ReloadError::Client(_) => CliError::Run(e.to_string()),
                mupod_serve::ReloadError::Rejected { .. } => CliError::StageFailed(e.to_string()),
            })?;
            let _ = writeln!(
                out,
                "reloaded {addr} with seed {}: model epoch {epoch}",
                rargs.seed
            );
        }
        Command::Query(common, qargs) => {
            let _span = mupod_obs::span("cli.query");
            let addr = parse_sock_addr(&qargs.addr)?;
            if let Some(path) = &qargs.dump_flight {
                // `--addr` is the telemetry-plane address in this mode:
                // one GET against /flight, sealed to disk, no classify
                // traffic.
                let (code, body) = mupod_serve::http_get(addr, "/flight", Duration::from_secs(10))
                    .map_err(|e| CliError::Run(format!("cannot fetch /flight from {addr}: {e}")))?;
                if code != 200 {
                    return Err(CliError::Run(format!(
                        "/flight returned HTTP {code} (is --addr the server's --metrics-addr?)"
                    )));
                }
                let text = std::str::from_utf8(&body)
                    .map_err(|e| CliError::Run(format!("flight dump is not UTF-8: {e}")))?;
                let doc = mupod_obs::json::parse(text)
                    .map_err(|e| CliError::Run(format!("bad flight document: {e}")))?;
                let events = doc
                    .as_object()
                    .and_then(|o| o.get("events"))
                    .and_then(|v| v.as_array())
                    .map_or(0, <[mupod_obs::json::Value]>::len);
                mupod_runtime::write_atomic(std::path::Path::new(path), &body)
                    .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "flight recorder: {events} events sealed to {path}");
                return Ok(out);
            }
            // Deterministic query images from the same generator the
            // pipeline uses; --model/--scale/--seed pick the input shape
            // the server expects (a mismatch is answered BadRequest).
            let spec = DatasetSpec::new(
                common.scale.classes,
                3,
                common.scale.input_hw,
                common.scale.input_hw,
            )
            .with_class_seed(common.seed);
            let data = Dataset::generate(&spec, common.seed ^ 0xC, qargs.count);
            let priority = if qargs.low_priority {
                mupod_serve::Priority::Low
            } else {
                mupod_serve::Priority::High
            };
            // Client-side resilience: connect failures, transport
            // errors, and retryable wire statuses are retried with the
            // runtime's deterministic jittered backoff. Transport
            // exhaustion is a stage failure (exit 3) — the arguments
            // were fine, the fleet wasn't; a non-retryable rejection is
            // still printed, never retried.
            let retry = RetryPolicy {
                max_attempts: qargs.retries.max(1),
                base_delay: Duration::from_millis(qargs.retry_backoff_ms.max(1)),
                max_delay: Duration::from_millis(qargs.retry_backoff_ms.saturating_mul(8).max(1)),
                jitter_seed: common.seed,
            };
            let retryable_status = |s: mupod_runtime::StatusCode| {
                matches!(
                    s,
                    mupod_runtime::StatusCode::ServerBusy
                        | mupod_runtime::StatusCode::Draining
                        | mupod_runtime::StatusCode::WorkerCrashed
                        | mupod_runtime::StatusCode::NoHealthyShard
                )
            };
            let backoff = |attempt: u32| -> Result<(), CliError> {
                token
                    .sleep_cancellable(retry.delay_for(attempt))
                    .map_err(|_| CliError::Interrupted)
            };
            let mut conn: Option<mupod_serve::Connection> = None;
            let mut ok = 0u64;
            let mut retried = 0u64;
            for i in 0..qargs.count {
                token.checkpoint().map_err(|_| CliError::Interrupted)?;
                let (img, _) = data.sample(i);
                let mut attempt = 1u32;
                let reply = loop {
                    let c = match conn.as_mut() {
                        Some(c) => c,
                        None => {
                            match mupod_serve::Connection::connect(addr, Duration::from_secs(10)) {
                                Ok(c) => conn.insert(c),
                                Err(e) => {
                                    if attempt >= retry.max_attempts {
                                        return Err(CliError::StageFailed(format!(
                                            "request {i}: cannot reach {addr} after \
                                         {attempt} attempt(s): {e}"
                                        )));
                                    }
                                    backoff(attempt)?;
                                    attempt += 1;
                                    retried += 1;
                                    continue;
                                }
                            }
                        }
                    };
                    match c.classify(img.data(), qargs.deadline_ms, priority) {
                        Ok(r) if retryable_status(r.status) && attempt < retry.max_attempts => {
                            backoff(attempt)?;
                            attempt += 1;
                            retried += 1;
                        }
                        Ok(r) => break r,
                        Err(e) => {
                            // Transport broke mid-request; the stream is
                            // unusable — reconnect on the next attempt.
                            conn = None;
                            if attempt >= retry.max_attempts {
                                return Err(CliError::StageFailed(format!(
                                    "request {i} failed after {attempt} attempt(s): {e}"
                                )));
                            }
                            backoff(attempt)?;
                            attempt += 1;
                            retried += 1;
                        }
                    }
                };
                match reply.status {
                    mupod_runtime::StatusCode::Ok => {
                        ok += 1;
                        let _ = writeln!(
                            out,
                            "#{i}: class {} in {} µs",
                            reply.class.unwrap_or(0),
                            reply.latency.as_micros()
                        );
                    }
                    status => {
                        let _ = writeln!(
                            out,
                            "#{i}: rejected with status {status}{}",
                            reply
                                .message
                                .as_deref()
                                .map(|m| format!(" — {m}"))
                                .unwrap_or_default()
                        );
                    }
                }
            }
            if retried > 0 {
                let _ = writeln!(out, "{ok}/{} ok ({retried} retried)", qargs.count);
            } else {
                let _ = writeln!(out, "{ok}/{} ok", qargs.count);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    /// Serializes the tests that do pipeline work. `run` installs a
    /// process-global recorder, and instrumented work another test does
    /// meanwhile outside its own `run` — cancelling a token counts
    /// `runtime.cancellations` — lands in that recorder and breaks the
    /// exact counter comparison of the exports test.
    fn pipeline_lock() -> std::sync::MutexGuard<'static, ()> {
        static PIPELINE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        PIPELINE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parses_inspect() {
        let cmd = parse(&argv("inspect --model alexnet --scale tiny")).unwrap();
        match cmd {
            Command::Inspect(c) => {
                assert_eq!(c.model, ModelKind::AlexNet);
                assert_eq!(c.scale, ModelScale::tiny());
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_model_aliases() {
        for (alias, kind) in [
            ("vgg19", ModelKind::Vgg19),
            ("VGG-19", ModelKind::Vgg19),
            ("resnet152", ModelKind::ResNet152),
            ("NiN", ModelKind::Nin),
        ] {
            let cmd = parse(&argv(&format!("inspect --model {alias}"))).unwrap();
            match cmd {
                Command::Inspect(c) => assert_eq!(c.model, kind, "{alias}"),
                _ => panic!("wrong command"),
            }
        }
    }

    #[test]
    fn parses_optimize_with_all_flags() {
        let cmd = parse(&argv(
            "optimize --model nin --objective mac --loss 5 --scheme gaussian --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Optimize(c, o) => {
                assert_eq!(c.model, ModelKind::Nin);
                assert_eq!(c.seed, 7);
                assert_eq!(o.objective, Objective::MacEnergy);
                assert!((o.loss - 0.05).abs() < 1e-12);
                assert_eq!(o.scheme, SearchScheme::GaussianApprox);
            }
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(&argv(
            "inspect --model alexnet --log-level debug --metrics-out m.json --trace-out t.json",
        ))
        .unwrap();
        match cmd {
            Command::Inspect(c) => {
                assert_eq!(c.log_level, mupod_obs::Level::Debug);
                assert_eq!(c.metrics_out.as_deref(), Some("m.json"));
                assert_eq!(c.trace_out.as_deref(), Some("t.json"));
            }
            _ => panic!("wrong command"),
        }
        match parse(&argv("inspect --model alexnet")).unwrap() {
            Command::Inspect(c) => {
                assert_eq!(c.log_level, mupod_obs::Level::Warn);
                assert!(c.metrics_out.is_none() && c.trace_out.is_none());
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse(&argv("inspect --model alexnet --log-level loud")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_supervision_flags() {
        let cmd = parse(&argv(
            "inspect --model alexnet --stage-timeout 2.5 --retries 5",
        ))
        .unwrap();
        match cmd {
            Command::Inspect(c) => {
                assert_eq!(c.stage_timeout, Some(Duration::from_secs_f64(2.5)));
                assert_eq!(c.retries, 5);
            }
            _ => panic!("wrong command"),
        }
        match parse(&argv("inspect --model alexnet")).unwrap() {
            Command::Inspect(c) => {
                assert_eq!(c.stage_timeout, None);
                assert_eq!(c.retries, 3);
            }
            _ => panic!("wrong command"),
        }
        for bad in [
            "inspect --model alexnet --stage-timeout 0",
            "inspect --model alexnet --stage-timeout -3",
            "inspect --model alexnet --stage-timeout soon",
            "inspect --model alexnet --retries many",
        ] {
            assert!(
                matches!(parse(&argv(bad)), Err(CliError::Usage(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn parses_threads_flag() {
        match parse(&argv("profile --model alexnet --out p.csv --threads 4")).unwrap() {
            Command::Profile(c, _) => assert_eq!(c.threads, 4),
            _ => panic!("wrong command"),
        }
        // Default is 0: "use the machine's available parallelism".
        match parse(&argv("inspect --model alexnet")).unwrap() {
            Command::Inspect(c) => assert_eq!(c.threads, 0),
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse(&argv("inspect --model alexnet --threads lots")),
            Err(CliError::Usage(_))
        ));
        assert!(USAGE.contains("--threads"), "--threads missing from help");
    }

    #[test]
    fn parses_kernel_tier_flag() {
        match parse(&argv(
            "profile --model alexnet --out p.csv --kernel-tier fast",
        ))
        .unwrap()
        {
            Command::Profile(c, _) => assert_eq!(c.kernel_tier, KernelTier::Fast),
            _ => panic!("wrong command"),
        }
        match parse(&argv("serve --model alexnet --kernel-tier exact")).unwrap() {
            Command::Serve(c, _) => assert_eq!(c.kernel_tier, KernelTier::Exact),
            _ => panic!("wrong command"),
        }
        // The exact tier is the default: byte-reproducible artifacts
        // unless the user explicitly opts into the fast tier.
        match parse(&argv("inspect --model alexnet")).unwrap() {
            Command::Inspect(c) => assert_eq!(c.kernel_tier, KernelTier::Exact),
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse(&argv("inspect --model alexnet --kernel-tier turbo")),
            Err(CliError::Usage(_))
        ));
        assert!(
            USAGE.contains("--kernel-tier"),
            "--kernel-tier missing from help"
        );
    }

    #[test]
    fn explicit_exact_tier_matches_default_profile_artifact() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_kernel_tier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = format!(
            "profile --model alexnet --scale tiny --images 24 --deltas 4 --out {}",
            dir.join("t.csv").display()
        );
        let mut outputs = Vec::new();
        for suffix in ["", " --kernel-tier exact"] {
            let line = format!("{base}{suffix}");
            run(&parse(&argv(&line)).unwrap()).unwrap();
            outputs.push(std::fs::read(dir.join("t.csv")).unwrap());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "`--kernel-tier exact` must reproduce the default artifact byte-for-byte"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_does_not_change_profile_artifact() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = format!(
            "profile --model alexnet --scale tiny --images 24 --deltas 4 --out {}",
            dir.join("t.csv").display()
        );
        let mut outputs = Vec::new();
        for threads in [1usize, 3] {
            let line = format!("{base} --threads {threads}");
            run(&parse(&argv(&line)).unwrap()).unwrap();
            outputs.push(std::fs::read(dir.join("t.csv")).unwrap());
        }
        assert_eq!(
            outputs[0], outputs[1],
            "profile CSV must be byte-identical for any --threads value"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saved_artifacts_are_sealed_and_verifiable() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_seal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("p.csv");
        let line = format!(
            "profile --model alexnet --scale tiny --images 24 --deltas 6 --out {}",
            csv.display()
        );
        run(&parse(&argv(&line)).unwrap()).unwrap();
        mupod_runtime::verify_file(&csv).expect("fresh artifact must verify");
        // Flip one payload byte: verification must fail with a typed
        // error, and the profile loader must never see the bad bytes.
        let mut bytes = std::fs::read(&csv).unwrap();
        bytes[10] ^= 0x40;
        std::fs::write(&csv, &bytes).unwrap();
        assert!(matches!(
            mupod_runtime::verify_file(&csv),
            Err(mupod_runtime::ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pre_cancelled_token_exits_interrupted() {
        let _serial = pipeline_lock();
        let cmd = parse(&argv("inspect --model alexnet --scale tiny --images 24")).unwrap();
        let token = CancelToken::new();
        token.cancel(mupod_runtime::CancelReason::Interrupt);
        assert!(matches!(
            run_with_token(&cmd, &token),
            Err(CliError::Interrupted)
        ));
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        match parse(&argv("serve --model alexnet")).unwrap() {
            Command::Serve(c, s) => {
                assert_eq!(c.model, ModelKind::AlexNet);
                assert_eq!(s.addr, "127.0.0.1:0");
                assert_eq!(s.workers, 2);
                assert_eq!(s.queue_depth, 32);
                assert_eq!(s.max_batch, 4);
                assert_eq!(s.deadline_ms, 1_000);
                assert_eq!(s.restart_budget, 8);
                assert!(!s.chaos);
                assert_eq!(s.metrics_addr, None);
                assert_eq!(s.flight_out, None);
            }
            _ => panic!("wrong command"),
        }
        match parse(&argv(
            "serve --model nin --addr 0.0.0.0:7700 --workers 4 --queue-depth 64 \
             --max-batch 8 --deadline-ms 250 --restart-budget 2 --chaos \
             --metrics-addr 127.0.0.1:9100 --flight-out flight.json",
        ))
        .unwrap()
        {
            Command::Serve(_, s) => {
                assert_eq!(s.addr, "0.0.0.0:7700");
                assert_eq!(s.workers, 4);
                assert_eq!(s.queue_depth, 64);
                assert_eq!(s.max_batch, 8);
                assert_eq!(s.deadline_ms, 250);
                assert_eq!(s.restart_budget, 2);
                assert!(s.chaos);
                assert_eq!(s.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
                assert_eq!(s.flight_out.as_deref(), Some("flight.json"));
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(
            parse(&argv("serve --model alexnet --addr not-an-addr")),
            Err(CliError::Usage(_))
        ));
        // A bad telemetry address is a usage error too, at parse time.
        assert!(matches!(
            parse(&argv("serve --model alexnet --metrics-addr nope")),
            Err(CliError::Usage(_))
        ));
        assert!(USAGE.contains("--metrics-addr"), "help lists telemetry");
    }

    #[test]
    fn parses_query_flags() {
        match parse(&argv(
            "query --model alexnet --addr 127.0.0.1:7700 --count 3 \
             --deadline-ms 50 --low-priority",
        ))
        .unwrap()
        {
            Command::Query(_, q) => {
                assert_eq!(q.addr, "127.0.0.1:7700");
                assert_eq!(q.count, 3);
                assert_eq!(q.deadline_ms, 50);
                assert!(q.low_priority);
                assert_eq!(q.dump_flight, None);
            }
            _ => panic!("wrong command"),
        }
        match parse(&argv(
            "query --model alexnet --addr 127.0.0.1:9100 --dump-flight f.json",
        ))
        .unwrap()
        {
            Command::Query(_, q) => assert_eq!(q.dump_flight.as_deref(), Some("f.json")),
            _ => panic!("wrong command"),
        }
        // --addr is required for query (there is no sensible default
        // port), and it must be a parseable socket address.
        assert!(matches!(
            parse(&argv("query --model alexnet")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("query --model alexnet --addr localhost")),
            Err(CliError::Usage(_))
        ));
        assert!(USAGE.contains("serve"), "serve missing from help");
        assert!(USAGE.contains("query"), "query missing from help");
    }

    #[test]
    fn parses_query_retry_flags() {
        match parse(&argv(
            "query --model alexnet --addr 127.0.0.1:7700 --retries 5 \
             --retry-backoff-ms 20",
        ))
        .unwrap()
        {
            Command::Query(_, q) => {
                assert_eq!(q.retries, 5);
                assert_eq!(q.retry_backoff_ms, 20);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: the shared --retries default and a 50 ms backoff.
        match parse(&argv("query --model alexnet --addr 127.0.0.1:7700")).unwrap() {
            Command::Query(_, q) => {
                assert_eq!(q.retries, 3);
                assert_eq!(q.retry_backoff_ms, 50);
            }
            _ => panic!("wrong command"),
        }
        assert!(
            USAGE.contains("--retry-backoff-ms"),
            "help lists retry knobs"
        );
    }

    #[test]
    fn parses_route_flags() {
        match parse(&argv(
            "route --shard 127.0.0.1:9001 --shard 127.0.0.1:9002 \
             --retry-budget 4 --hedge-ms 15 --health-interval-ms 100 \
             --breaker-threshold 5 --breaker-cooldown-ms 250 \
             --deadline-ms 800 --metrics-addr 127.0.0.1:0 \
             --flight-out rf.json",
        ))
        .unwrap()
        {
            Command::Route(r) => {
                assert_eq!(r.shards, vec!["127.0.0.1:9001", "127.0.0.1:9002"]);
                assert_eq!(r.addr, "127.0.0.1:0", "default front bind");
                assert_eq!(r.retry_budget, 4);
                assert_eq!(r.hedge_ms, 15);
                assert_eq!(r.health_interval_ms, 100);
                assert_eq!(r.breaker_threshold, 5);
                assert_eq!(r.breaker_cooldown_ms, 250);
                assert_eq!(r.deadline_ms, 800);
                assert_eq!(r.metrics_addr.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(r.flight_out.as_deref(), Some("rf.json"));
            }
            _ => panic!("wrong command"),
        }
        // No --model needed, but at least one --shard is.
        assert!(matches!(parse(&argv("route")), Err(CliError::Usage(_))));
        // Shard addresses are validated at parse time.
        assert!(matches!(
            parse(&argv("route --shard nonsense")),
            Err(CliError::Usage(_))
        ));
        assert!(USAGE.contains("route"), "route missing from help");
        assert!(
            USAGE.contains("--breaker-threshold"),
            "breaker knobs listed"
        );
    }

    #[test]
    fn parses_reload_flags() {
        match parse(&argv(
            "reload --addr 127.0.0.1:9001 --seed 77 --deadline-ms 5000",
        ))
        .unwrap()
        {
            Command::Reload(r) => {
                assert_eq!(r.addr, "127.0.0.1:9001");
                assert_eq!(r.seed, 77);
                assert_eq!(r.deadline_ms, 5_000);
            }
            _ => panic!("wrong command"),
        }
        // Defaults: master seed and a rebuild-sized deadline.
        match parse(&argv("reload --addr 127.0.0.1:9001")).unwrap() {
            Command::Reload(r) => {
                assert_eq!(r.seed, 42);
                assert_eq!(r.deadline_ms, 30_000);
            }
            _ => panic!("wrong command"),
        }
        assert!(matches!(parse(&argv("reload")), Err(CliError::Usage(_))));
        assert!(USAGE.contains("reload"), "reload missing from help");
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(matches!(
            parse(&argv("optimize --model alexnet")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("profile --model alexnet")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&argv("inspect")), Err(CliError::Usage(_))));
    }

    #[test]
    fn unknown_inputs_error() {
        assert!(matches!(
            parse(&argv("inspect --model hal9000")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("inspect --model alexnet --bogus")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&argv("frobnicate --model alexnet")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert!(run(&Command::Help).unwrap().contains("USAGE"));
    }

    #[test]
    fn inspect_runs_end_to_end() {
        let _serial = pipeline_lock();
        let cmd = parse(&argv("inspect --model squeezenet --scale tiny --images 24")).unwrap();
        let text = run(&cmd).unwrap();
        assert!(text.contains("26 analyzable layers"), "{text}");
        assert!(text.contains("conv10"));
    }

    #[test]
    fn optimize_saves_allocation_csv() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_save_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_csv = dir.join("alloc.csv").to_string_lossy().to_string();
        let cmd = parse(&argv(&format!(
            "optimize --model alexnet --scale tiny --images 24 --objective mac --loss 5 --save {out_csv}"
        )))
        .unwrap();
        let text = run(&cmd).unwrap();
        assert!(text.contains("allocation written"), "{text}");
        let reloaded =
            mupod_quant::BitwidthAllocation::load_csv(std::fs::File::open(&out_csv).unwrap())
                .unwrap();
        assert_eq!(reloaded.len(), 5);
    }

    #[test]
    fn parses_profile_journal_flag() {
        let cmd = parse(&argv(
            "profile --model alexnet --out p.csv --journal p.journal",
        ))
        .unwrap();
        match cmd {
            Command::Profile(_, p) => assert_eq!(p.journal.as_deref(), Some("p.journal")),
            _ => panic!("wrong command"),
        }
    }

    #[test]
    fn journaled_profile_resumes_and_matches() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("p.csv").to_string_lossy().to_string();
        let journal = dir.join("p.journal").to_string_lossy().to_string();
        let _ = std::fs::remove_file(&journal);
        let line = format!(
            "profile --model alexnet --scale tiny --images 24 --deltas 6 --out {csv} --journal {journal}"
        );
        let first = run(&parse(&argv(&line)).unwrap()).unwrap();
        assert!(first.contains("profiled 5 layers"), "{first}");
        let first_csv = std::fs::read_to_string(&csv).unwrap();

        // Chop the last journal record mid-line, simulating a kill during
        // the final append; the re-run must resume the intact layers and
        // regenerate a bit-identical CSV.
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep = text.trim_end().rfind('\n').unwrap() + 20;
        std::fs::write(&journal, &text[..keep]).unwrap();

        let second = run(&parse(&argv(&line)).unwrap()).unwrap();
        assert!(second.contains("resumed 4 of 5 layers"), "{second}");
        assert_eq!(std::fs::read_to_string(&csv).unwrap(), first_csv);
    }

    /// Asserts through the exported files only: `run` installs its own
    /// recorder, so the test must not install one of its own around it.
    #[test]
    fn metrics_and_trace_exports_are_deterministic() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_once = |tag: &str| {
            let csv = dir.join(format!("p{tag}.csv"));
            let metrics = dir.join(format!("m{tag}.json"));
            let trace = dir.join(format!("t{tag}.json"));
            let line = format!(
                "profile --model alexnet --scale tiny --images 24 --deltas 6 --out {} --metrics-out {} --trace-out {}",
                csv.display(),
                metrics.display(),
                trace.display()
            );
            run(&parse(&argv(&line)).unwrap()).unwrap();
            (
                std::fs::read_to_string(metrics).unwrap(),
                std::fs::read_to_string(trace).unwrap(),
            )
        };
        let (metrics_a, trace_a) = run_once("a");
        let (metrics_b, _) = run_once("b");

        let counters = |text: &str| {
            // Exports are sealed artifacts; drop the `#mupod-artifact`
            // footer before handing the payload to the strict parser.
            let payload = mupod_runtime::unseal(text.as_bytes()).expect("footer");
            let value = mupod_obs::json::parse(std::str::from_utf8(payload).unwrap())
                .expect("metrics parse");
            value.as_object().unwrap()["counters"].clone()
        };
        let counters_a = counters(&metrics_a);
        assert_eq!(
            counters_a,
            counters(&metrics_b),
            "counters must be bit-identical across identically-seeded runs"
        );
        let map = counters_a.as_object().unwrap();
        for key in [
            "nn.forward_passes",
            "profile.deltas_injected",
            "profile.layers_profiled",
        ] {
            assert!(map[key].as_f64().unwrap() > 0.0, "{key} missing");
        }

        let trace_payload = mupod_runtime::unseal(trace_a.as_bytes()).expect("footer");
        let trace = mupod_obs::json::parse(std::str::from_utf8(trace_payload).unwrap())
            .expect("trace parse");
        let events = trace.as_object().unwrap()["traceEvents"]
            .as_array()
            .unwrap();
        let phase_count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.as_object().unwrap()["ph"].as_str() == Some(ph))
                .count()
        };
        assert!(!events.is_empty());
        assert_eq!(phase_count("B"), phase_count("E"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_then_optimize_via_csv() {
        let _serial = pipeline_lock();
        let dir = std::env::temp_dir().join("mupod_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("p.csv").to_string_lossy().to_string();
        let cmd = parse(&argv(&format!(
            "profile --model alexnet --scale tiny --images 24 --deltas 8 --out {csv}"
        )))
        .unwrap();
        let text = run(&cmd).unwrap();
        assert!(text.contains("profiled 5 layers"), "{text}");

        let cmd = parse(&argv(&format!(
            "optimize --model alexnet --scale tiny --images 24 --objective bandwidth --loss 5 --profile {csv}"
        )))
        .unwrap();
        let text = run(&cmd).unwrap();
        assert!(text.contains("conv1"), "{text}");
        assert!(text.contains("quantized"), "{text}");
    }
}
