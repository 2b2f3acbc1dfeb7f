//! Persistence for [`Profile`]s: CSV export and the crash-safe sweep
//! journal.
//!
//! Profiling is the expensive stage (§VI-A: minutes per network); the
//! paper notes that "changing the user constraints only requires
//! re-running the last optimization step". Two mechanisms make that
//! workflow concrete:
//!
//! * **CSV** ([`Profile::save_csv`] / [`Profile::load_csv`]): profile
//!   once, then re-optimize under as many constraints as desired without
//!   touching the network again.
//! * **Journal** ([`Profiler::profile_journaled`]): each layer's profile
//!   is appended to a checksummed journal the moment it completes, so a
//!   run killed mid-sweep resumes from the journal and re-profiles only
//!   the missing layers. Per-layer RNG streams are keyed by the layer's
//!   position in the request (not by execution order), so a resumed run
//!   is bit-identical to an uninterrupted one.
//!
//! # Journal format
//!
//! Line-oriented text, one record per completed layer:
//!
//! ```text
//! mupod-journal v1 config=<16-hex fingerprint>
//! <16-hex FNV-1a checksum> <index> <node>,<name>,<lambda>,...,<fallback>,<sweep>
//! ```
//!
//! The fingerprint hashes every profiling input that affects the result
//! (config knobs, layer list, image count); a journal written under a
//! different configuration is rejected with
//! [`JournalError::ConfigMismatch`] rather than silently mixed in. Each
//! record line carries an FNV-1a 64 checksum of everything after it; a
//! complete line that fails its checksum is [`JournalError::Corrupt`]. A
//! *final* line with no trailing newline is the expected artifact of a
//! killed run — it is dropped and its layer re-profiled. `f64` values are
//! printed with Rust's shortest-roundtrip formatting, so reloaded sweeps
//! are bit-identical.

use crate::profile::{FallbackReason, LayerProfile, Profile, ProfileError, Profiler};
use mupod_nn::NodeId;
use mupod_stats::regression::FitError;
use mupod_stats::SeededRng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from profile persistence.
#[derive(Debug)]
pub enum ProfileIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid profile CSV; payload is line number and
    /// message.
    Parse(usize, String),
}

impl std::fmt::Display for ProfileIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileIoError::Io(e) => write!(f, "profile io error: {e}"),
            ProfileIoError::Parse(line, msg) => {
                write!(f, "profile parse error at line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for ProfileIoError {}

impl From<std::io::Error> for ProfileIoError {
    fn from(e: std::io::Error) -> Self {
        ProfileIoError::Io(e)
    }
}

const HEADER: &str =
    "node,name,lambda,theta,r_squared,max_relative_error,max_abs,input_elems,macs,fallback";
const HEADER_V1: &str =
    "node,name,lambda,theta,r_squared,max_relative_error,max_abs,input_elems,macs";

/// Serializes a fallback flag as a single CSV-safe token.
fn fallback_to_token(fb: Option<FallbackReason>) -> String {
    match fb {
        None => "-".into(),
        Some(FallbackReason::NegativeSlope) => "neg_slope".into(),
        Some(FallbackReason::LowRSquared(r2)) => format!("low_r2:{r2}"),
        Some(FallbackReason::TooFewPoints(n)) => format!("few_points:{n}"),
        Some(FallbackReason::FitFailed(e)) => {
            let code = match e {
                FitError::NotEnoughData => "not_enough_data",
                FitError::DegenerateX => "degenerate_x",
                FitError::NonFiniteInput => "non_finite",
            };
            format!("fit_failed:{code}")
        }
    }
}

/// Parses a token written by [`fallback_to_token`].
fn fallback_from_token(s: &str) -> Result<Option<FallbackReason>, String> {
    if s == "-" {
        return Ok(None);
    }
    if s == "neg_slope" {
        return Ok(Some(FallbackReason::NegativeSlope));
    }
    if let Some(rest) = s.strip_prefix("low_r2:") {
        let r2 = rest
            .parse::<f64>()
            .map_err(|_| format!("bad low_r2 payload `{rest}`"))?;
        return Ok(Some(FallbackReason::LowRSquared(r2)));
    }
    if let Some(rest) = s.strip_prefix("few_points:") {
        let n = rest
            .parse::<usize>()
            .map_err(|_| format!("bad few_points payload `{rest}`"))?;
        return Ok(Some(FallbackReason::TooFewPoints(n)));
    }
    if let Some(rest) = s.strip_prefix("fit_failed:") {
        let e = match rest {
            "not_enough_data" => FitError::NotEnoughData,
            "degenerate_x" => FitError::DegenerateX,
            "non_finite" => FitError::NonFiniteInput,
            other => return Err(format!("unknown fit failure `{other}`")),
        };
        return Ok(Some(FallbackReason::FitFailed(e)));
    }
    Err(format!("unknown fallback token `{s}`"))
}

impl Profile {
    /// Writes the profile as CSV (header + one row per layer). The raw
    /// sweep points are not persisted — they are diagnostics, not inputs
    /// to the optimization (the journal, by contrast, keeps them).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save_csv<W: Write>(&self, mut w: W) -> Result<(), ProfileIoError> {
        writeln!(w, "{HEADER}")?;
        for l in self.layers() {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{},{}",
                l.node.index(),
                l.name,
                l.lambda,
                l.theta,
                l.r_squared,
                l.max_relative_error,
                l.max_abs,
                l.input_elems,
                l.macs,
                fallback_to_token(l.fallback),
            )?;
        }
        Ok(())
    }

    /// Reads a profile previously written by [`Profile::save_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`ProfileIoError::Parse`] on malformed rows (wrong column
    /// count, unparseable numbers, missing header, pre-fallback schema)
    /// and [`ProfileIoError::Io`] on reader failures. Layer names
    /// containing commas are rejected at save time by construction
    /// (builder names never contain commas) and will fail parsing here.
    pub fn load_csv<R: Read>(r: R) -> Result<Profile, ProfileIoError> {
        let reader = BufReader::new(r);
        let mut lines = reader.lines().enumerate();
        match lines.next() {
            Some((_, Ok(h))) if h.trim() == HEADER => {}
            Some((_, Ok(h))) if h.trim() == HEADER_V1 => {
                return Err(ProfileIoError::Parse(
                    1,
                    "old profile schema (no fallback column); re-profile to regenerate".into(),
                ))
            }
            Some((_, Ok(h))) => return Err(ProfileIoError::Parse(1, format!("bad header `{h}`"))),
            Some((_, Err(e))) => return Err(e.into()),
            None => return Err(ProfileIoError::Parse(1, "empty file".into())),
        }
        let mut layers = Vec::new();
        for (i, line) in lines {
            let line = line?;
            // `#` lines: comments and the sealed-artifact integrity
            // footer (`#mupod-artifact v1 ...`) appended by the atomic
            // writer.
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            layers.push(
                parse_layer_fields(&line, &[]).map_err(|msg| ProfileIoError::Parse(i + 1, msg))?,
            );
        }
        Ok(Profile::from_layers(layers))
    }
}

/// Parses the 10 CSV fields shared by the CSV format and journal records
/// into a [`LayerProfile`] carrying `sweep`.
fn parse_layer_fields(line: &str, sweep: &[(f64, f64)]) -> Result<LayerProfile, String> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 10 {
        return Err(format!("expected 10 fields, got {}", fields.len()));
    }
    let parse_f = |s: &str, what: &str| s.parse::<f64>().map_err(|_| format!("bad {what} `{s}`"));
    let parse_u = |s: &str, what: &str| s.parse::<u64>().map_err(|_| format!("bad {what} `{s}`"));
    Ok(LayerProfile {
        node: NodeId::from_index_for_tests(parse_u(fields[0], "node id")? as usize),
        name: fields[1].to_string(),
        lambda: parse_f(fields[2], "lambda")?,
        theta: parse_f(fields[3], "theta")?,
        r_squared: parse_f(fields[4], "r_squared")?,
        max_relative_error: parse_f(fields[5], "max_relative_error")?,
        max_abs: parse_f(fields[6], "max_abs")?,
        input_elems: parse_u(fields[7], "input_elems")?,
        macs: parse_u(fields[8], "macs")?,
        fallback: fallback_from_token(fields[9])?,
        sweep: sweep.to_vec(),
    })
}

// ---------------------------------------------------------------------
// Sweep journal
// ---------------------------------------------------------------------

/// Errors from reading or validating a profiling journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file exists but does not start with the journal magic.
    BadHeader(String),
    /// The journal was written by an incompatible format version.
    UnsupportedVersion(String),
    /// The journal was written under different profiling inputs (config,
    /// layer list or image count); resuming from it would mix
    /// incompatible measurements.
    ConfigMismatch {
        /// Fingerprint of the current run.
        expected: String,
        /// Fingerprint found in the journal.
        found: String,
    },
    /// A complete record line failed validation (bad checksum, malformed
    /// fields, impossible index). Payload is the 1-based line number and
    /// a description. Note: an *incomplete final* line (no trailing
    /// newline) is not corruption — it is the expected artifact of a
    /// killed run, and is dropped silently.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::BadHeader(h) => {
                write!(f, "not a profiling journal (header `{h}`)")
            }
            JournalError::UnsupportedVersion(v) => {
                write!(f, "unsupported journal version `{v}`")
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal belongs to a different profiling run \
                 (config fingerprint {found}, this run is {expected}); \
                 delete it or match the original configuration"
            ),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

const JOURNAL_MAGIC: &str = "mupod-journal";
const JOURNAL_VERSION: &str = "v1";

/// FNV-1a 64-bit — the same hash the sealed-artifact footer uses, so
/// journal records and final artifacts share one integrity primitive.
use mupod_runtime::artifact::fnv1a64;

/// Fingerprint of every profiling input that affects the journal's
/// contents. Thread count and replay mode are excluded: results are
/// bit-identical across both.
fn journal_fingerprint(
    config: &crate::profile::ProfileConfig,
    layers: &[NodeId],
    n_images: usize,
) -> String {
    let layer_ids: Vec<usize> = layers.iter().map(|l| l.index()).collect();
    let canon = format!(
        "n_deltas={};delta_max_fraction={};delta_step_octaves={};repeats={};seed={};\
         min_r_squared={};min_points={};strict={};validate={};layers={:?};images={}",
        config.n_deltas,
        config.delta_max_fraction,
        config.delta_step_octaves,
        config.repeats,
        config.seed,
        config.guard.min_r_squared,
        config.guard.min_points,
        config.guard.strict,
        config.guard.validate_activations,
        layer_ids,
        n_images,
    );
    format!("{:016x}", fnv1a64(canon.as_bytes()))
}

fn serialize_sweep(sweep: &[(f64, f64)]) -> String {
    if sweep.is_empty() {
        return "-".into();
    }
    sweep
        .iter()
        .map(|(s, d)| format!("{s}:{d}"))
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_sweep(s: &str) -> Result<Vec<(f64, f64)>, String> {
    if s == "-" {
        return Ok(vec![]);
    }
    s.split(';')
        .map(|pair| {
            let (a, b) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad sweep pair `{pair}`"))?;
            let sig = a
                .parse::<f64>()
                .map_err(|_| format!("bad sweep sigma `{a}`"))?;
            let del = b
                .parse::<f64>()
                .map_err(|_| format!("bad sweep delta `{b}`"))?;
            Ok((sig, del))
        })
        .collect()
}

/// The payload of one journal record (the part covered by the checksum).
fn record_payload(index: usize, l: &LayerProfile) -> String {
    format!(
        "{} {},{},{},{},{},{},{},{},{},{},{}",
        index,
        l.node.index(),
        l.name,
        l.lambda,
        l.theta,
        l.r_squared,
        l.max_relative_error,
        l.max_abs,
        l.input_elems,
        l.macs,
        fallback_to_token(l.fallback),
        serialize_sweep(&l.sweep),
    )
}

fn journal_header(fingerprint: &str) -> String {
    format!("{JOURNAL_MAGIC} {JOURNAL_VERSION} config={fingerprint}")
}

/// Parses a journal's text, validating header, fingerprint and record
/// checksums. Returns the completed layers keyed by request index. An
/// unterminated final line is dropped (crash artifact), reported via the
/// second tuple element.
fn parse_journal(
    text: &str,
    expected_fp: &str,
    n_layers: usize,
) -> Result<(BTreeMap<usize, LayerProfile>, bool), JournalError> {
    // Only lines terminated by '\n' are trusted; anything after the last
    // newline is an interrupted append.
    let (complete, dropped_partial) = match text.rfind('\n') {
        Some(pos) => (&text[..=pos], pos + 1 < text.len()),
        None => ("", !text.is_empty()),
    };
    let mut lines = complete.lines().enumerate();
    match lines.next() {
        None => {
            // Empty (or partial-header-only) file: treat as a fresh
            // journal — nothing completed yet.
            return Ok((BTreeMap::new(), dropped_partial));
        }
        Some((_, h)) => {
            let mut parts = h.split_whitespace();
            match parts.next() {
                Some(JOURNAL_MAGIC) => {}
                _ => return Err(JournalError::BadHeader(h.to_string())),
            }
            match parts.next() {
                Some(JOURNAL_VERSION) => {}
                Some(v) => return Err(JournalError::UnsupportedVersion(v.to_string())),
                None => return Err(JournalError::BadHeader(h.to_string())),
            }
            match parts.next().and_then(|p| p.strip_prefix("config=")) {
                Some(fp) if fp == expected_fp => {}
                Some(fp) => {
                    return Err(JournalError::ConfigMismatch {
                        expected: expected_fp.to_string(),
                        found: fp.to_string(),
                    })
                }
                None => return Err(JournalError::BadHeader(h.to_string())),
            }
        }
    }
    let mut done = BTreeMap::new();
    for (i, line) in lines {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let corrupt = |reason: String| JournalError::Corrupt {
            line: lineno,
            reason,
        };
        let (sum_hex, payload) = line
            .split_once(' ')
            .ok_or_else(|| corrupt("missing checksum separator".into()))?;
        let stored = u64::from_str_radix(sum_hex, 16)
            .map_err(|_| corrupt(format!("bad checksum `{sum_hex}`")))?;
        let actual = fnv1a64(payload.as_bytes());
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch (stored {stored:016x}, computed {actual:016x})"
            )));
        }
        let (idx_str, rest) = payload
            .split_once(' ')
            .ok_or_else(|| corrupt("missing record index".into()))?;
        let index = idx_str
            .parse::<usize>()
            .map_err(|_| corrupt(format!("bad record index `{idx_str}`")))?;
        if index >= n_layers {
            return Err(corrupt(format!(
                "record index {index} out of range (run has {n_layers} layers)"
            )));
        }
        let (row, sweep_str) = rest
            .rsplit_once(',')
            .ok_or_else(|| corrupt("missing sweep field".into()))?;
        let sweep = parse_sweep(sweep_str).map_err(corrupt)?;
        let layer = parse_layer_fields(row, &sweep).map_err(corrupt)?;
        if done.insert(index, layer).is_some() {
            return Err(corrupt(format!("duplicate record for layer {index}")));
        }
    }
    Ok((done, dropped_partial))
}

/// Outcome metadata of a journaled profiling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalSummary {
    /// Layers restored from the journal (skipped this run).
    pub resumed: usize,
    /// Layers profiled (and appended) this run.
    pub computed: usize,
    /// Whether an unterminated trailing record was dropped (evidence of
    /// an interrupted previous run).
    pub dropped_partial_record: bool,
}

impl<'a> Profiler<'a> {
    /// Profiles `layers` with a crash-safe journal at `path`.
    ///
    /// Every completed layer is appended (and flushed) to the journal
    /// before the next begins; if the process dies mid-sweep, re-running
    /// with the same configuration validates the journal, restores the
    /// completed layers and profiles only the rest. Restored and
    /// recomputed layers are bit-identical to an uninterrupted run
    /// because each layer's RNG streams are keyed by its request-order
    /// position.
    ///
    /// # Errors
    ///
    /// [`ProfileError`]s as in [`Profiler::profile`], and
    /// [`JournalError`] (via [`crate::CoreError`]) when the journal is
    /// corrupt, schema-incompatible or belongs to a different
    /// configuration. Corrupt journals are never silently discarded —
    /// delete the file explicitly to start over.
    pub fn profile_journaled(
        &self,
        layers: &[NodeId],
        path: &Path,
    ) -> Result<(Profile, JournalSummary), crate::CoreError> {
        if self.images.is_empty() {
            return Err(ProfileError::NoImages.into());
        }
        if layers.is_empty() {
            return Err(ProfileError::NoLayers.into());
        }
        let _sweep_span = mupod_obs::span("profile.sweep");
        let fp = journal_fingerprint(&self.config, layers, self.images.len());

        let (mut done, dropped_partial) = if path.exists() {
            let _span = mupod_obs::span("journal.load");
            let text = std::fs::read_to_string(path).map_err(JournalError::Io)?;
            parse_journal(&text, &fp, layers.len())?
        } else {
            (BTreeMap::new(), false)
        };
        let resumed = done.len();
        if resumed > 0 {
            mupod_obs::counter_add("journal.layers_resumed", resumed as u64);
            if let Some(last) = done.values().next_back() {
                self.report_progress(resumed, layers.len(), &last.name);
            }
        }

        let remaining: Vec<(usize, NodeId)> = layers
            .iter()
            .enumerate()
            .filter(|(li, _)| !done.contains_key(li))
            .map(|(li, &l)| (li, l))
            .collect();

        // Rewrite the file when starting fresh or when a partial trailing
        // record must be dropped; otherwise append. The rewrite replays
        // the already-valid records verbatim and goes through the atomic
        // writer so a crash mid-rewrite can never lose the old journal —
        // the per-record checksums (not a whole-file footer) remain the
        // integrity mechanism because the file is append-mostly.
        let mut file = if resumed == 0 || dropped_partial {
            let mut contents = journal_header(&fp);
            contents.push('\n');
            for (li, l) in &done {
                let payload = record_payload(*li, l);
                contents.push_str(&format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes())));
            }
            mupod_runtime::artifact::write_atomic_unsealed(path, contents.as_bytes())
                .map_err(|e| JournalError::Io(e.into_io()))?;
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(JournalError::Io)?
        } else {
            std::fs::OpenOptions::new()
                .append(true)
                .open(path)
                .map_err(JournalError::Io)?
        };

        let computed = remaining.len();
        if !remaining.is_empty() {
            let (clean, inventory) = self.sweep_inputs(layers)?;
            let rng = SeededRng::new(self.config.seed);
            // Sequential commit order keeps the journal deterministic;
            // computation itself still parallelizes below.
            let threads = if self.config.threads == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                self.config.threads
            };
            let threads = threads.min(remaining.len());
            let computed_profiles: Vec<(usize, LayerProfile)> = if threads <= 1 {
                let mut arena = crate::profile::replay_arena(self.net, &self.config);
                let mut out = Vec::with_capacity(remaining.len());
                for &(li, layer) in &remaining {
                    let p = self.profile_one(li, layer, &clean, &inventory, &rng, &mut arena)?;
                    append_record(&mut file, li, &p)?;
                    self.report_progress(resumed + out.len() + 1, layers.len(), &p.name);
                    out.push((li, p));
                }
                out
            } else {
                self.profile_parallel_journaled(
                    &remaining,
                    threads,
                    &clean,
                    &inventory,
                    &rng,
                    &mut file,
                    resumed,
                    layers.len(),
                )?
            };
            for (li, p) in computed_profiles {
                done.insert(li, p);
            }
        }

        let mut out = Vec::with_capacity(layers.len());
        for li in 0..layers.len() {
            out.push(done.remove(&li).ok_or(ProfileError::WorkerPanicked)?);
        }
        Ok((
            Profile::from_layers(out),
            JournalSummary {
                resumed,
                computed,
                dropped_partial_record: dropped_partial,
            },
        ))
    }

    /// Parallel per-layer profiling with *ordered commit*: workers claim
    /// jobs off an atomic cursor, results stream back over a channel, and
    /// the journal is appended strictly in request order so its contents
    /// stay deterministic (and resumable prefixes stay meaningful).
    /// `resumed`/`total` feed the progress callback, which fires in
    /// commit order.
    #[allow(clippy::too_many_arguments)]
    fn profile_parallel_journaled(
        &self,
        jobs: &[(usize, NodeId)],
        threads: usize,
        clean: &[mupod_nn::Activations],
        inventory: &mupod_nn::inventory::LayerInventory,
        rng: &SeededRng,
        file: &mut std::fs::File,
        resumed: usize,
        total: usize,
    ) -> Result<Vec<(usize, LayerProfile)>, crate::CoreError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let next_job = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<LayerProfile, ProfileError>)>();
        std::thread::scope(
            |scope| -> Result<Vec<(usize, LayerProfile)>, crate::CoreError> {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let next_job = &next_job;
                    scope.spawn(move || {
                        let mut arena = crate::profile::replay_arena(self.net, &self.config);
                        loop {
                            let pos = next_job.fetch_add(1, Ordering::Relaxed);
                            let Some(&(li, layer)) = jobs.get(pos) else {
                                break;
                            };
                            let res =
                                self.profile_one(li, layer, clean, inventory, rng, &mut arena);
                            // A send failure means the committer bailed on
                            // an earlier error; just stop working.
                            if tx.send((pos, res)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);

                let mut buffer: BTreeMap<usize, LayerProfile> = BTreeMap::new();
                let mut committed = Vec::with_capacity(jobs.len());
                let mut next_commit = 0usize;
                for (pos, res) in rx {
                    buffer.insert(pos, res?);
                    while let Some(p) = buffer.remove(&next_commit) {
                        let li = jobs[next_commit].0;
                        append_record(file, li, &p)?;
                        self.report_progress(resumed + committed.len() + 1, total, &p.name);
                        committed.push((li, p));
                        next_commit += 1;
                    }
                }
                if committed.len() != jobs.len() {
                    return Err(ProfileError::WorkerPanicked.into());
                }
                Ok(committed)
            },
        )
    }
}

/// Appends one checksummed record and flushes it to the OS, so a kill
/// after this point can lose at most the line being written (which the
/// reader then drops as a partial record).
fn append_record(
    file: &mut std::fs::File,
    index: usize,
    l: &LayerProfile,
) -> Result<(), JournalError> {
    let payload = record_payload(index, l);
    let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
    file.write_all(line.as_bytes())?;
    file.flush()?;
    mupod_obs::counter_add("journal.records_appended", 1);
    mupod_obs::counter_add("journal.bytes_written", line.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        Profile::from_layers(vec![
            LayerProfile {
                node: NodeId::from_index_for_tests(1),
                name: "conv1".into(),
                lambda: 0.52,
                theta: 0.013,
                r_squared: 0.999,
                max_relative_error: 0.03,
                max_abs: 161.0,
                input_elems: 154_600,
                macs: 105_000_000,
                sweep: vec![(0.1, 0.06)],
                fallback: None,
            },
            LayerProfile {
                node: NodeId::from_index_for_tests(4),
                name: "conv2".into(),
                lambda: 1.7,
                theta: -0.002,
                r_squared: 0.995,
                max_relative_error: 0.08,
                max_abs: 139.0,
                input_elems: 70_000,
                macs: 225_000_000,
                sweep: vec![],
                fallback: Some(FallbackReason::LowRSquared(0.41)),
            },
        ])
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let p = sample_profile();
        let mut buf = Vec::new();
        p.save_csv(&mut buf).unwrap();
        let q = Profile::load_csv(buf.as_slice()).unwrap();
        assert_eq!(q.len(), 2);
        for (a, b) in p.layers().iter().zip(q.layers()) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.name, b.name);
            assert_eq!(a.lambda, b.lambda);
            assert_eq!(a.theta, b.theta);
            assert_eq!(a.max_abs, b.max_abs);
            assert_eq!(a.input_elems, b.input_elems);
            assert_eq!(a.macs, b.macs);
            assert_eq!(a.fallback, b.fallback);
        }
        // Sweep points are intentionally not persisted in CSV.
        assert!(q.layers()[0].sweep.is_empty());
    }

    #[test]
    fn rejects_bad_header() {
        let err = Profile::load_csv("nope\n1,a,1,1,1,1,1,1,1,-\n".as_bytes()).unwrap_err();
        match err {
            ProfileIoError::Parse(1, _) => {}
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rejects_old_schema_with_guidance() {
        let text = format!("{HEADER_V1}\n1,conv1,0.5,0,1,0,1,1,1\n");
        let err = Profile::load_csv(text.as_bytes()).unwrap_err();
        match err {
            ProfileIoError::Parse(1, msg) => assert!(msg.contains("re-profile"), "{msg}"),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rejects_short_row() {
        let text = format!("{HEADER}\n1,conv1,0.5\n");
        let err = Profile::load_csv(text.as_bytes()).unwrap_err();
        match err {
            ProfileIoError::Parse(2, msg) => assert!(msg.contains("10 fields")),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rejects_bad_number() {
        let text = format!("{HEADER}\n1,conv1,abc,0,1,0,1,1,1,-\n");
        let err = Profile::load_csv(text.as_bytes()).unwrap_err();
        match err {
            ProfileIoError::Parse(2, msg) => assert!(msg.contains("lambda")),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rejects_unknown_fallback_token() {
        let text = format!("{HEADER}\n1,conv1,0.5,0,1,0,1,1,1,??\n");
        let err = Profile::load_csv(text.as_bytes()).unwrap_err();
        match err {
            ProfileIoError::Parse(2, msg) => assert!(msg.contains("fallback"), "{msg}"),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn skips_blank_lines() {
        let p = sample_profile();
        let mut buf = Vec::new();
        p.save_csv(&mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let q = Profile::load_csv(buf.as_slice()).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn fallback_tokens_roundtrip() {
        for fb in [
            None,
            Some(FallbackReason::NegativeSlope),
            Some(FallbackReason::LowRSquared(0.123_456_789_012_345)),
            Some(FallbackReason::TooFewPoints(2)),
            Some(FallbackReason::FitFailed(FitError::DegenerateX)),
            Some(FallbackReason::FitFailed(FitError::NonFiniteInput)),
        ] {
            let token = fallback_to_token(fb);
            assert_eq!(fallback_from_token(&token).unwrap(), fb, "token `{token}`");
        }
    }

    #[test]
    fn sweep_serialization_is_bit_exact() {
        let sweep = vec![
            (0.1, 0.333_333_333_333_333_3),
            (f64::MIN_POSITIVE, 1.0e300),
            (1.0 / 3.0, 2.0_f64.powi(-40)),
        ];
        let s = serialize_sweep(&sweep);
        assert_eq!(parse_sweep(&s).unwrap(), sweep);
        assert_eq!(parse_sweep("-").unwrap(), vec![]);
    }

    #[test]
    fn journal_record_roundtrip() {
        let p = sample_profile();
        let l = &p.layers()[0];
        let payload = record_payload(3, l);
        let line = format!("{:016x} {payload}\n", fnv1a64(payload.as_bytes()));
        let text = format!("{}\n{line}", journal_header("00000000deadbeef"));
        let (done, partial) = parse_journal(&text, "00000000deadbeef", 5).unwrap();
        assert!(!partial);
        assert_eq!(done.len(), 1);
        let got = &done[&3];
        assert_eq!(got.lambda, l.lambda);
        assert_eq!(got.sweep, l.sweep);
        assert_eq!(got.name, l.name);
    }

    #[test]
    fn journal_rejects_flipped_byte() {
        let p = sample_profile();
        let payload = record_payload(0, &p.layers()[0]);
        let mut line = format!("{:016x} {payload}", fnv1a64(payload.as_bytes()));
        // Flip a digit inside lambda.
        let flip_at = line.find("0.52").unwrap() + 2;
        line.replace_range(flip_at..flip_at + 1, "7");
        let text = format!("{}\n{line}\n", journal_header("ab"));
        match parse_journal(&text, "ab", 5).unwrap_err() {
            JournalError::Corrupt { line: 2, reason } => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn journal_drops_unterminated_tail() {
        let p = sample_profile();
        let pay0 = record_payload(0, &p.layers()[0]);
        let pay1 = record_payload(1, &p.layers()[1]);
        let text = format!(
            "{}\n{:016x} {pay0}\n{:016x} {}",
            journal_header("ff"),
            fnv1a64(pay0.as_bytes()),
            fnv1a64(pay1.as_bytes()),
            // Truncated mid-payload, no trailing newline: a killed append.
            &pay1[..pay1.len() / 2],
        );
        let (done, partial) = parse_journal(&text, "ff", 5).unwrap();
        assert!(partial);
        assert_eq!(done.len(), 1);
        assert!(done.contains_key(&0));
    }

    #[test]
    fn journal_rejects_wrong_fingerprint_version_and_magic() {
        let hdr_ok = journal_header("aa");
        match parse_journal(&format!("{hdr_ok}\n"), "bb", 1).unwrap_err() {
            JournalError::ConfigMismatch { expected, found } => {
                assert_eq!(expected, "bb");
                assert_eq!(found, "aa");
            }
            e => panic!("unexpected error {e:?}"),
        }
        match parse_journal("mupod-journal v9 config=aa\n", "aa", 1).unwrap_err() {
            JournalError::UnsupportedVersion(v) => assert_eq!(v, "v9"),
            e => panic!("unexpected error {e:?}"),
        }
        match parse_journal("something else\n", "aa", 1).unwrap_err() {
            JournalError::BadHeader(_) => {}
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn journal_rejects_out_of_range_and_duplicate_index() {
        let p = sample_profile();
        let pay = record_payload(7, &p.layers()[0]);
        let text = format!(
            "{}\n{:016x} {pay}\n",
            journal_header("cc"),
            fnv1a64(pay.as_bytes())
        );
        match parse_journal(&text, "cc", 3).unwrap_err() {
            JournalError::Corrupt { reason, .. } => {
                assert!(reason.contains("out of range"), "{reason}")
            }
            e => panic!("unexpected error {e:?}"),
        }
        let pay = record_payload(0, &p.layers()[0]);
        let line = format!("{:016x} {pay}\n", fnv1a64(pay.as_bytes()));
        let text = format!("{}\n{line}{line}", journal_header("cc"));
        match parse_journal(&text, "cc", 3).unwrap_err() {
            JournalError::Corrupt { reason, .. } => {
                assert!(reason.contains("duplicate"), "{reason}")
            }
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn empty_journal_file_is_a_fresh_start() {
        let (done, partial) = parse_journal("", "aa", 3).unwrap();
        assert!(done.is_empty());
        assert!(!partial);
    }

    #[test]
    fn fingerprint_tracks_profiling_inputs() {
        use crate::profile::ProfileConfig;
        let layers = [
            NodeId::from_index_for_tests(1),
            NodeId::from_index_for_tests(4),
        ];
        let base = ProfileConfig::default();
        let fp = journal_fingerprint(&base, &layers, 10);
        assert_eq!(fp, journal_fingerprint(&base, &layers, 10));
        assert_ne!(
            fp,
            journal_fingerprint(&ProfileConfig { seed: 1, ..base }, &layers, 10)
        );
        assert_ne!(fp, journal_fingerprint(&base, &layers[..1], 10));
        assert_ne!(fp, journal_fingerprint(&base, &layers, 11));
        // Thread count must NOT change the fingerprint: results are
        // bit-identical for any thread count.
        assert_eq!(
            fp,
            journal_fingerprint(&ProfileConfig { threads: 7, ..base }, &layers, 10)
        );
    }
}
