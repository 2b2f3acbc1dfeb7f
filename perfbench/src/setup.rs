//! Model and dataset preparation shared by every workload, timed the
//! way a user pays for it: build, generate, calibrate.

use std::time::Instant;

use mupod_data::{Dataset, DatasetSpec};
use mupod_models::{calibrate::calibrate_head_quick, ModelKind, ModelScale};
use mupod_nn::Network;

use crate::trace::{Span, Tracer};

/// Calibration images, as the CLI uses by default.
const CALIB_IMAGES: usize = 160;

/// Set-ups per run of a pipeline workload; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// A calibrated model and the images a workload feeds it.
pub struct Prepared {
    /// The head-calibrated network.
    pub net: Network,
    /// Evaluation set (pipelines) or request pool (serving).
    pub images: Dataset,
}

/// Seed of the model weights and of the class definitions. It is fixed
/// so that every benchmark seed poses the same task to the same
/// network and only draws different images: seeds that changed the
/// network would change how far it can be quantized, and with it the
/// bitwidths and the σ-search's length, by more than any bound.
const MODEL_SEED: u64 = 42;

/// Builds `kind` at `scale`, generates the calibration set and `images`
/// further images from the run's `seed` (stream `stream`), and
/// calibrates the head, as `mupod`'s prepare stage does.
///
/// # Errors
///
/// Calibration failures.
pub fn prepare(
    kind: ModelKind,
    scale: ModelScale,
    seed: u64,
    stream: u64,
    images: usize,
    t: &mut Tracer,
) -> Result<Prepared, String> {
    let mut net = t.time("models.build", || kind.build(&scale, MODEL_SEED));
    let spec = DatasetSpec::new(scale.classes, 3, scale.input_hw, scale.input_hw)
        .with_class_seed(MODEL_SEED);
    let calib = t.time("data.generate", || {
        Dataset::generate(&spec, seed ^ 0xA, CALIB_IMAGES)
    });
    let images = t.time("data.generate", || {
        Dataset::generate(&spec, seed ^ stream, images)
    });
    t.time("models.calibrate", || {
        calibrate_head_quick(&mut net, &calib, 0.1)
    })
    .map_err(|e| format!("calibration failed: {e}"))?;
    Ok(Prepared { net, images })
}

/// Seed of the `draw`-th image draw in a run seeded `seed`.
pub fn draw_seed(seed: u64, draw: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(draw)
}

/// Runs `setup` `reps` times (at least once), each on a fresh tracer,
/// handing every result but the last to `discard` outside the timed
/// region.
/// Returns the last result, each set-up's time in seconds, and the
/// last set-up's spans.
///
/// # Errors
///
/// The first set-up error.
pub fn repeated<T>(
    reps: usize,
    epoch: Instant,
    mut setup: impl FnMut(&mut Tracer) -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>, Vec<Span>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        if let Some((prev, _)) = kept.take() {
            discard(prev)?;
        }
        let mut t = Tracer::new(epoch, 0);
        let start = Instant::now();
        t.begin("setup", None);
        let value = setup(&mut t)?;
        t.end();
        times.push(start.elapsed().as_secs_f64());
        kept = Some((value, t.into_spans()));
    }
    let (value, spans) = kept.expect("at least one set-up");
    Ok((value, times, spans))
}
