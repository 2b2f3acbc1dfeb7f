//! The precision-optimization workloads: profile a calibrated model,
//! then allocate and validate bitwidths for one or more objectives.

use std::time::Instant;

use mupod_core::{
    allocate, AccuracyEvaluator, AccuracyMode, AllocateConfig, Objective, PrecisionOptimizer,
    ProfileConfig, Profiler, SearchScheme, SigmaSearch,
};
use mupod_models::{ModelKind, ModelScale};
use mupod_nn::inventory::LayerInventory;
use mupod_nn::NodeId;

use crate::report::Report;
use crate::setup::{self, Prepared};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::Args;

/// Relative top-1 accuracy loss each allocation may cost (paper: 1 %).
const LOSS: f64 = 0.01;
/// Images the profiling sweep injects noise into.
const PROFILE_IMAGES: usize = 24;
/// Evaluation images (the CLI's default split of 160).
const EVAL_IMAGES: usize = 80;
/// Worker threads for profiling and evaluation.
const THREADS: usize = 2;

/// One pipeline workload.
pub struct Pipeline {
    /// Network to optimize.
    pub kind: ModelKind,
    /// Its scale preset.
    pub scale: ModelScale,
    /// Objectives allocated against one profile, in order.
    pub objectives: Vec<Objective>,
    /// Profile once up front and hand the profile to every objective
    /// (Table II workflow), rather than letting the optimizer profile.
    pub shared_profile: bool,
}

/// What one objective produced.
struct Allocated {
    csv: Vec<u8>,
    effective_bits: f64,
    meets_target: bool,
}

fn profile_config() -> ProfileConfig {
    ProfileConfig {
        threads: THREADS,
        ..ProfileConfig::default()
    }
}

/// Whether `validated` meets the optimizer's acceptance rule for an
/// evaluation set of `n` images: the loss target with a slack of 2 %
/// plus two images.
fn meets_target(fp: f64, validated: f64, n: usize) -> bool {
    let slack = 0.02 + 2.0 / n as f64;
    validated + 1e-9 >= fp * (1.0 - LOSS) - slack
}

fn allocated(
    objective: &Objective,
    profile: &mupod_core::Profile,
    allocation: &mupod_quant::BitwidthAllocation,
    fp: f64,
    validated: f64,
    n: usize,
) -> Result<Allocated, String> {
    let mut csv = Vec::new();
    allocation
        .save_csv(&mut csv)
        .map_err(|e| format!("allocation CSV: {e}"))?;
    Ok(Allocated {
        csv,
        effective_bits: allocation.effective_bitwidth(&objective.rho(profile)),
        meets_target: meets_target(fp, validated, n),
    })
}

impl Pipeline {
    fn layers(&self, p: &Prepared) -> Vec<NodeId> {
        self.kind.analyzable_layers(&p.net)
    }

    /// The path a user takes: `Profiler::profile` (when shared) and
    /// `PrecisionOptimizer::run` per objective.
    fn run_optimizer(&self, p: &Prepared) -> Result<Vec<Allocated>, String> {
        let layers = self.layers(p);
        let shared = if self.shared_profile {
            let images = &p.images.images()[..PROFILE_IMAGES];
            let profile = Profiler::new(&p.net, images)
                .with_config(profile_config())
                .profile(&layers)
                .map_err(|e| format!("profiling failed: {e}"))?;
            Some(profile)
        } else {
            None
        };
        self.objectives
            .iter()
            .map(|objective| {
                let mut opt = PrecisionOptimizer::new(&p.net, &p.images)
                    .layers(layers.clone())
                    .relative_accuracy_loss(LOSS)
                    .profile_images(PROFILE_IMAGES)
                    .profile_config(profile_config());
                if let Some(profile) = &shared {
                    opt = opt.with_profile(profile.clone());
                }
                let r = opt
                    .run(objective.clone())
                    .map_err(|e| format!("{}: {e}", objective.name()))?;
                allocated(
                    objective,
                    &r.profile,
                    &r.allocation,
                    r.fp_accuracy,
                    r.validated_accuracy,
                    p.images.len(),
                )
            })
            .collect()
    }

    /// The same computation stage by stage through the public calls
    /// `PrecisionOptimizer::run` makes, each inside a span. Returns the
    /// allocations and the σ-search evaluations spent.
    fn run_stages(&self, p: &Prepared, t: &mut Tracer) -> Result<(Vec<Allocated>, usize), String> {
        let layers = self.layers(p);
        let profile_images = &p.images.images()[..PROFILE_IMAGES];
        let run_profiler = |t: &mut Tracer| {
            t.time("core.profile", || {
                Profiler::new(&p.net, profile_images)
                    .with_config(profile_config())
                    .profile(&layers)
            })
            .map_err(|e| format!("profiling failed: {e}"))
        };
        t.begin("pipeline", None);
        let shared = if self.shared_profile {
            Some(run_profiler(t)?)
        } else {
            None
        };
        let mut out = Vec::new();
        let mut evaluations = 0;
        for objective in &self.objectives {
            t.begin("objective", None);
            let mut profile = match &shared {
                Some(s) => s.clone(),
                None => run_profiler(t)?,
            };
            let inventory = t.time("nn.inventory", || {
                LayerInventory::measure(&p.net, p.images.images().iter().cloned())
            });
            profile.update_ranges(inventory);
            let cfg = profile_config();
            let evaluator = t.time("core.eval.fp", || {
                AccuracyEvaluator::with_threads_tier(
                    &p.net,
                    &p.images,
                    AccuracyMode::FpAgreement,
                    cfg.threads,
                    cfg.kernel_tier,
                )
            });
            let fp = evaluator.fp_accuracy();
            let target = fp * (1.0 - LOSS);
            let search = SigmaSearch {
                scheme: SearchScheme::EqualScheme,
                ..SigmaSearch::default()
            };
            let outcome = t.time("core.search", || {
                search.search(&profile, &evaluator, target)
            });
            evaluations += outcome.evaluations;
            // The optimizer's refinement: validate, and on a miss shrink
            // the budget and re-allocate, at most four times.
            let mut sigma = outcome.sigma.max(1e-6);
            let mut result = None;
            for attempt in 0..4 {
                let alloc = t.time("optim.allocate", || {
                    allocate(&profile, sigma, objective, &AllocateConfig::default())
                });
                let acc = t.time("core.validate", || {
                    evaluator.accuracy_of_allocation(&layers, &alloc.allocation)
                });
                if meets_target(fp, acc, evaluator.len()) {
                    result = Some(allocated(
                        objective,
                        &profile,
                        &alloc.allocation,
                        fp,
                        acc,
                        evaluator.len(),
                    )?);
                    break;
                }
                if attempt < 3 {
                    sigma *= 0.6;
                }
            }
            t.end();
            out.push(result.ok_or_else(|| format!("{}: validation failed", objective.name()))?);
        }
        t.end();
        Ok((out, evaluations))
    }

    fn prepare(&self, seed: u64, t: &mut Tracer) -> Result<Prepared, String> {
        setup::prepare(self.kind, self.scale, seed, 0xB, EVAL_IMAGES, t)
    }

    /// The untraced run: repeated set-up of the first image draw, then
    /// whole pipelines for `args.seconds`, each on a fresh draw that is
    /// prepared (and timed as set-up) just before it. Medians over
    /// draws keep one draw's easy or hard images (a single fragile image
    /// can pin the σ-search near zero) from setting a run's figures.
    pub fn measure(&self, args: &Args, report: &mut Report) -> Result<(), String> {
        let epoch = Instant::now();
        let (mut p, mut setups, _) = setup::repeated(
            setup::SETUP_REPS,
            epoch,
            |t| self.prepare(setup::draw_seed(args.seed, 0), t),
            |_| Ok(()),
        )?;
        let n = self.objectives.len() as u64;
        let (mut times, mut bits) = (Vec::new(), Vec::new());
        let start = Instant::now();
        for draw in 1u64.. {
            let t0 = Instant::now();
            let result = self.run_optimizer(&p);
            times.push(t0.elapsed().as_secs_f64());
            report.attempted += n;
            match result {
                Ok(allocs) => {
                    self.check(&allocs, report);
                    bits.push(allocs.iter().map(|a| a.effective_bits).sum::<f64>() / n as f64);
                }
                Err(e) => {
                    report.failed += n;
                    report.check(false, || e);
                }
            }
            if start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
            let t0 = Instant::now();
            p = self.prepare(
                setup::draw_seed(args.seed, draw),
                &mut Tracer::new(epoch, 0),
            )?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        if bits.is_empty() {
            return Err("no pipeline produced an allocation".to_string());
        }
        let per_run = median(&times);
        report.set("setup_s", median(&setups));
        report.set("latency_ms", per_run * 1e3);
        report.set("throughput_per_s", n as f64 / per_run);
        report.set("effective_bits", median(&bits));
        Ok(())
    }

    fn check(&self, allocs: &[Allocated], report: &mut Report) {
        for (a, objective) in allocs.iter().zip(&self.objectives) {
            if !a.meets_target {
                report.failed += 1;
            }
            report.check(a.meets_target, || {
                format!("{} allocation misses its accuracy target", objective.name())
            });
        }
    }

    /// The traced run: one untraced pipeline, then the same pipeline
    /// stage by stage with spans and the program's counters on, which
    /// must reproduce it byte for byte.
    pub fn trace(&self, args: &Args, report: &mut Report) -> Result<Vec<Span>, String> {
        let epoch = Instant::now();
        let (p, _, mut spans) = setup::repeated(
            setup::SETUP_REPS,
            epoch,
            |t| self.prepare(setup::draw_seed(args.seed, 0), t),
            |_| Ok(()),
        )?;
        report.attempted += 2 * self.objectives.len() as u64;

        let mut t = Tracer::new(epoch, 1);
        let plain = t.time("core.optimizer", || self.run_optimizer(&p))?;
        self.check(&plain, report);

        let recorder = mupod_obs::Recorder::new(mupod_obs::Level::Off);
        let guard = recorder.install();
        let staged = self.run_stages(&p, &mut t);
        drop(guard);
        let (staged, evaluations) = staged?;
        self.check(&staged, report);
        for ((a, b), objective) in plain.iter().zip(&staged).zip(&self.objectives) {
            report.check(a.csv == b.csv, || {
                format!(
                    "{}: stage-by-stage allocation CSV differs from PrecisionOptimizer::run",
                    objective.name()
                )
            });
        }
        let counters = recorder.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        report.check(count("search.evaluations") == evaluations as f64, || {
            "search.evaluations counter disagrees with SearchOutcome".to_string()
        });

        spans.extend(t.into_spans());
        let totals = trace::totals_by_name(&spans);
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        let (plain_s, traced_s) = (total("core.optimizer"), total("pipeline"));
        let stages = [
            ("core.profile", "core.profile_s"),
            ("nn.inventory", "nn.inventory_s"),
            ("core.eval.fp", "core.eval.fp_s"),
            ("core.search", "core.search_s"),
            ("optim.allocate", "optim.allocate_s"),
            ("core.validate", "core.validate_s"),
        ];
        let mut covered = 0.0;
        for (span, metric) in stages {
            covered += total(span);
            report.set(metric, total(span));
        }
        report.set("alloc.coverage", covered / traced_s);
        report.set("trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
        report.set("core.search.evaluations", evaluations as f64);
        report.set(
            "core.search.ms_per_eval",
            total("core.search") * 1e3 / evaluations.max(1) as f64,
        );
        let validations = totals.get("core.validate").map_or(0, |t| t.count);
        report.set(
            "core.validate.attempts_per_objective",
            validations as f64 / self.objectives.len() as f64,
        );
        // The solve runs no network; the other stages do.
        let network_s = traced_s - total("optim.allocate");
        crate::set_kernel_counters(report, count, network_s);
        Ok(spans)
    }
}
