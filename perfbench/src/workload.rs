//! The three workloads: set-up, the timed closed loop with one client, and
//! the traced variants of their serving calls.
//!
//! Each loop drives the program through its public API. With a
//! [`Tracer`], the loop wraps a span around every call into a layer and
//! makes, for each serve call, the three public calls that
//! [`FocusService::serve`] makes (`tail_snapshot` → `plan_with_tail` per
//! request → `serve_resolved`); for the fleet it makes `scatter` then
//! `gather`. The decomposition skips only the service's own counters.

use std::path::{Path, PathBuf};
use std::time::Instant;

use focus_cnn::GroundTruthCnn;
use focus_core::fleet::{FleetConfig, FleetCoordinator, FleetError};
use focus_core::query::{AnytimeOutcome, QueryOutcome, QueryRequest};
use focus_core::service::FocusService;
use focus_index::segment::{DEFAULT_CACHE_CAPACITY, DEFAULT_RAW_CACHE_BYTES};
use focus_index::{SegmentAccess, SegmentError};
use focus_runtime::{GpuMeter, GpuSchedulerStats, NetCostModel};
use focus_video::{Frame, StreamId, VideoDataset};

use crate::inputs::{self, RequestGen, ANYTIME_SHARE};
use crate::oracle::{check_anytime, Digest, Oracle};
use crate::pace::{Pace, Stopwatch};
use crate::report::dir_bytes;
use crate::trace::Tracer;

/// Nodes of the fleet workload.
pub const FLEET_NODES: usize = 4;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ingest and serve on one live service, one wave per second of video.
    LiveMixed,
    /// Single-request calls on a service that ingested a long archive.
    ArchiveScan,
    /// Small waves through a four-node fleet's scatter and gather.
    FleetScatter,
}

impl Workload {
    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "live_mixed" => Some(Self::LiveMixed),
            "archive_scan" => Some(Self::ArchiveScan),
            "fleet_scatter" => Some(Self::FleetScatter),
            _ => None,
        }
    }

    /// Requests per second of `--seconds` a loop times, so that every run
    /// with one `--seconds` times the same requests however fast the
    /// machine is at the moment. Live and archive time a little over half
    /// of what they serve on an idle two-core machine; the fleet times
    /// about what it serves, because its p99 rests on few heavy waves.
    pub fn timed_rate(self) -> f64 {
        match self {
            Self::LiveMixed => 1500.0,
            Self::ArchiveScan => 250.0,
            Self::FleetScatter => 700.0,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::LiveMixed => "live_mixed",
            Self::ArchiveScan => "archive_scan",
            Self::FleetScatter => "fleet_scatter",
        }
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark measures; tests use
/// smaller ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Seconds per stream of one live session.
    pub live_secs: usize,
    /// Seconds per stream the archive set-up ingests.
    pub archive_secs: usize,
    /// Seconds per stream the fleet set-up ingests.
    pub fleet_secs: usize,
    /// Requests of the archive and fleet loops that are scored and
    /// digested (the live loop scores its first session).
    pub prefix_requests: usize,
    /// Requests after the prefix a loop times at least.
    pub timed_requests: usize,
    /// Least set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Sizes {
    /// Requests a loop of `workload` times after its prefix for `seconds`.
    pub fn timed_target(&self, workload: Workload, seconds: f64) -> usize {
        self.timed_requests
            .max((seconds * workload.timed_rate()).ceil() as usize)
    }

    /// The measured sizes.
    pub fn full() -> Self {
        Self {
            live_secs: 600,
            archive_secs: 3000,
            fleet_secs: 300,
            prefix_requests: 1000,
            timed_requests: 1000,
            setup_reps: 3,
        }
    }
}

/// What one set-up cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Setup {
    /// Wall time of the whole set-up.
    pub secs: f64,
    /// Frames pushed and time inside `advance` plus `maintain`, per
    /// second of video.
    pub ingest: Vec<(usize, f64)>,
    /// Frames ingested.
    pub frames: usize,
    /// The machine's slowdown while setting up (see [`crate::pace`]).
    pub slowdown: f64,
}

/// Work counted at the layer boundaries.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub advance_frames: usize,
    pub advance_objects: usize,
    pub advance_sealed: usize,
    pub advance_bytes_written: u64,
    pub maintain_sealed: usize,
    pub maintain_folded: usize,
    pub maintain_prefetched: usize,
    pub tail_calls: usize,
    pub tail_records: usize,
    pub plan_requests: usize,
    pub plan_candidates: usize,
    pub plan_tail_records: usize,
    pub plan_opened: usize,
    pub plan_pruned: usize,
    /// Every planned request's segment access, merged.
    pub access: SegmentAccess,
    pub verify_requests: usize,
    pub verify_candidates: usize,
    pub verify_fresh: usize,
    pub verify_confirmed: usize,
    pub verify_frames: usize,
    pub anytime_requests: usize,
    pub anytime_rounds: usize,
    pub anytime_with_result: usize,
    pub anytime_inferences_to_first: usize,
    pub anytime_results: usize,
    pub anytime_fresh: usize,
    pub scatter_calls: usize,
    pub scatter_requests: usize,
    pub scatter_width: usize,
    pub wire_bytes: u64,
    pub gpu_ingest_s: f64,
    pub gpu_query_s: f64,
    pub gpu_anytime_s: f64,
    pub gpu_served_s: f64,
    pub gpu_offered_s: f64,
}

impl Layers {
    fn note_outcomes(&mut self, outcomes: &[QueryOutcome]) {
        for outcome in outcomes {
            self.verify_requests += 1;
            self.verify_candidates += outcome.matched_clusters;
            self.verify_fresh += outcome.centroid_inferences;
            self.verify_confirmed += outcome.confirmed_clusters;
            self.verify_frames += outcome.frames.len();
        }
    }

    fn note_anytime(&mut self, result: &AnytimeOutcome) {
        self.anytime_requests += 1;
        self.anytime_rounds += result.partials.len();
        self.anytime_results += result.outcome.objects.len();
        self.anytime_fresh += result.fresh_inferences;
        let mut spent = 0;
        for partial in &result.partials {
            spent += partial.inferences_spent;
            if !partial.new_results.is_empty() {
                self.anytime_with_result += 1;
                self.anytime_inferences_to_first += spent;
                break;
            }
        }
    }

    /// Adds the scheduler activity between two snapshots.
    fn note_gpu(&mut self, before: &GpuSchedulerStats, after: &GpuSchedulerStats) {
        let phase = |stats: &GpuSchedulerStats, name: &str| {
            stats.submitted_by_phase.get(name).copied().unwrap_or(0.0)
        };
        self.gpu_ingest_s += phase(after, "ingest") - phase(before, "ingest");
        self.gpu_query_s += phase(after, "query") - phase(before, "query");
        self.gpu_anytime_s += phase(after, "anytime") - phase(before, "anytime");
        self.gpu_served_s += after.ingest_served_secs + after.query_served_secs
            - before.ingest_served_secs
            - before.query_served_secs;
        self.gpu_offered_s += (after.ticks - before.ticks) as f64 * after.capacity_secs_per_tick;
    }
}

/// The scored, digested first part of a loop: the first live session, or
/// the first [`Sizes::prefix_requests`] archive or fleet requests. It is
/// the same on every run with one seed.
#[derive(Debug, Clone, Default)]
pub struct Prefix {
    pub requests: usize,
    /// Fresh GT-CNN inferences the prefix's answers report.
    pub fresh_inferences: usize,
    /// Fresh GT-CNN inferences the service's query server counted during
    /// the prefix (zero for the fleet, whose API does not expose it).
    pub server_misses: usize,
    pub recall_sum: f64,
    pub precision_sum: f64,
    pub digest: Digest,
    /// Time inside the program's public calls during the prefix.
    pub path_s: f64,
}

/// Facts about the ingested store and its cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    pub ingest_gpu_ms_per_frame: f64,
    pub store_bytes: u64,
    pub store_frames: usize,
}

/// What one timed loop measured.
///
/// The prefix is checked and scored, and warms the caches; timings come
/// from the requests after it (for the live loop, from the sessions after
/// the first).
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests whose call returned an error.
    pub failed: usize,
    /// Per timed request: the duration of the call that served it.
    pub latencies: Vec<f64>,
    /// Time inside the timed requests' serving calls.
    pub serve_s: f64,
    /// `serve_s` before scaling to the reference speed.
    pub raw_serve_s: f64,
    /// Per timed request with results: time from its call's start to the
    /// first result (the first partial with results for anytime requests,
    /// the call's return otherwise).
    pub first_result: Vec<f64>,
    /// Timed requests that produced no result.
    pub no_result: usize,
    /// Frames ingested in the loop, and per timed tick the frames pushed
    /// and the time in `advance` plus `maintain`.
    pub frames: usize,
    pub ingest: Vec<(usize, f64)>,
    /// Wall time of the loop.
    pub loop_s: f64,
    pub prefix: Prefix,
    pub layers: Layers,
    pub facts: Facts,
    /// The machine's slowdown during the loop (see [`crate::pace`]).
    pub slowdown: f64,
    /// Human-readable regime lines.
    pub regime: Vec<String>,
    /// Failed checks.
    pub errors: Vec<String>,
}

impl LoopStats {
    fn fail(&mut self, message: String) {
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    /// Records one call that served `requests` in `secs`, `scale` times
    /// slower than the reference speed.
    fn record_call(&mut self, requests: usize, secs: f64, scale: f64, ok: bool, timed: bool) {
        self.attempted += requests;
        if timed {
            self.raw_serve_s += secs;
            self.serve_s += secs / scale;
            self.latencies
                .extend(std::iter::repeat_n(secs / scale, requests));
        }
        if !ok {
            self.failed += requests;
        }
    }

    /// Records the time to the first result of a timed request, if any.
    fn record_first_result(&mut self, first: Option<f64>, timed: bool) {
        match first {
            _ if !timed => {}
            Some(secs) => self.first_result.push(secs),
            None => self.no_result += 1,
        }
    }

    /// Whether the loop has timed its `target` requests.
    fn done(&self, target: usize) -> bool {
        self.latencies.len() >= target
    }
}

fn in_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, request, f),
        None => f(),
    }
}

/// A fresh service at `dir` with `streams` registered.
fn new_service(dir: &Path, streams: &[(StreamId, u32)]) -> Result<FocusService, String> {
    let mut service =
        FocusService::create(dir, inputs::service_config(), GroundTruthCnn::resnet152())
            .map_err(|e| format!("create service: {e:?}"))?;
    for &(stream, fps) in streams {
        service
            .register_stream(stream, fps)
            .map_err(|e| format!("register stream: {e:?}"))?;
    }
    Ok(service)
}

fn streams_of(datasets: &[VideoDataset]) -> Vec<(StreamId, u32)> {
    datasets
        .iter()
        .map(|ds| (ds.profile.stream_id, ds.profile.fps))
        .collect()
}

/// Pushes each second of every stream through `advance`, then calls
/// `maintain`, and seals the tails at the end. Returns, per second, the
/// frames pushed and the time inside `advance` and `maintain`.
fn ingest_all(
    service: &mut FocusService,
    datasets: &[VideoDataset],
    secs: usize,
    pace: &mut Pace,
) -> Result<Vec<(usize, f64)>, String> {
    let mut ticks = Vec::with_capacity(secs);
    for second in 0..secs {
        pace.maybe_sample();
        let call = Stopwatch::start();
        let mut frames = 0;
        for ds in datasets {
            let slice = inputs::second_of(ds, second);
            service
                .advance(slice)
                .map_err(|e| format!("advance: {e:?}"))?;
            frames += slice.len();
        }
        service.maintain().map_err(|e| format!("maintain: {e:?}"))?;
        ticks.push((frames, call.secs()));
    }
    service.seal_all().map_err(|e| format!("seal: {e:?}"))?;
    Ok(ticks)
}

/// Frames per second of ingest time in each block of one seal period.
/// `ingest_fps` is their median, which shrugs off stalls of the shared
/// disk that a plain ratio of sums would absorb.
pub fn block_fps(ticks: &[(usize, f64)]) -> Vec<f64> {
    ticks
        .chunks_exact(inputs::SEAL_SECS as usize)
        .map(|block| {
            let frames: usize = block.iter().map(|t| t.0).sum();
            let secs: f64 = block.iter().map(|t| t.1).sum();
            crate::report::ratio(frames as f64, secs)
        })
        .collect()
}

fn frame_count(datasets: &[VideoDataset]) -> usize {
    datasets.iter().map(|ds| ds.frames.len()).sum()
}

fn ingest_gpu_ms_per_frame(service: &FocusService, frames: usize) -> f64 {
    let gpu = service.stats().gpu;
    let ingest = gpu.submitted_by_phase.get("ingest").copied().unwrap_or(0.0);
    crate::report::ratio(ingest * 1e3, frames as f64)
}

fn regime_line(service: &FocusService, dir: &Path) -> String {
    let lru = service.store().cache_occupancy();
    format!(
        "store_bytes={} segments={} decoded={}/{} raw_bytes={}/{} disk_reads={}",
        dir_bytes(dir),
        service.store().len(),
        lru.occupancy,
        DEFAULT_CACHE_CAPACITY,
        lru.raw_occupancy_bytes,
        DEFAULT_RAW_CACHE_BYTES,
        lru.disk_reads
    )
}

/// Serves `wave` on `service` the way [`FocusService::serve`] does, with
/// a span around each public call: `service.serve` encloses
/// `service.tail_snapshot`, one `query.plan` per request and
/// `query_server.verify`. Outcomes equal `serve`'s; the service's own
/// counters are not updated.
pub fn serve_traced(
    service: &FocusService,
    wave: &[QueryRequest],
    first: u64,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<QueryOutcome>, SegmentError> {
    let root = t.begin("service.serve", first);
    let result = serve_decomposed(service, wave, first, t, layers);
    t.end(root);
    result
}

fn serve_decomposed(
    service: &FocusService,
    wave: &[QueryRequest],
    first: u64,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<QueryOutcome>, SegmentError> {
    let tail = t.span("service.tail_snapshot", first, || service.tail_snapshot());
    layers.tail_calls += 1;
    layers.tail_records += tail.len();
    let corpus = service.corpus();
    let mut plans = Vec::with_capacity(wave.len());
    let mut records = Vec::with_capacity(wave.len());
    for (i, request) in (first..).zip(wave) {
        let planned = t.span("query.plan", i, || {
            corpus.plan_with_tail(request, Some(&tail))
        })?;
        layers.plan_requests += 1;
        layers.plan_candidates += planned.plan.candidates.len();
        layers.plan_tail_records += planned.tail_records;
        layers.plan_opened += planned.access.segments_opened();
        layers.plan_pruned += planned.access.segments_pruned();
        layers.access.merge(&planned.access);
        plans.push(planned.plan);
        records.push(planned.records);
    }
    let meter = GpuMeter::new();
    let outcomes = t.span("query_server.verify", first, || {
        service.query_server().serve_resolved(
            &plans,
            &records,
            |id| {
                corpus
                    .centroids
                    .get(&id)
                    .or_else(|| tail.centroid(id))
                    .cloned()
            },
            &meter,
        )
    });
    service.scheduler().submit("query", meter.phase("query"));
    Ok(outcomes)
}

/// Serves `wave` through [`FleetCoordinator::scatter`] then
/// [`FleetCoordinator::gather`] under a `fleet.serve` span, exactly as
/// [`FleetCoordinator::serve`] does.
pub fn serve_fleet_traced(
    fleet: &mut FleetCoordinator,
    wave: &[QueryRequest],
    first: u64,
    t: &mut Tracer,
    layers: &mut Layers,
) -> Result<Vec<QueryOutcome>, FleetError> {
    let root = t.begin("fleet.serve", first);
    let result = t
        .span("fleet.scatter", first, || fleet.scatter(wave, true))
        .and_then(|batch| {
            layers.scatter_calls += 1;
            layers.scatter_requests += wave.len();
            layers.scatter_width += batch.contacted.len();
            t.span("fleet.gather", first, || fleet.gather(wave, batch))
        });
    t.end(root);
    result
}

fn serve_wave(
    service: &FocusService,
    wave: &[QueryRequest],
    first: u64,
    tracer: &mut Option<&mut Tracer>,
    layers: &mut Layers,
) -> Result<Vec<QueryOutcome>, SegmentError> {
    match tracer {
        Some(t) => serve_traced(service, wave, first, t, layers),
        None => service.serve(wave),
    }
}

/// Serves one anytime request; returns the result, the call's duration
/// and the time to the first partial carrying results.
fn serve_anytime(
    service: &FocusService,
    request: &QueryRequest,
    id: u64,
    tracer: &mut Option<&mut Tracer>,
) -> (Result<AnytimeOutcome, SegmentError>, f64, Option<f64>) {
    let call = Stopwatch::start();
    let mut first = None;
    let result = in_span(tracer, "query.anytime", id, || {
        service.serve_anytime_with(request, |partial| {
            if first.is_none() && !partial.new_results.is_empty() {
                first = Some(call.secs());
            }
        })
    });
    (result, call.secs(), first)
}

/// Checks and scores one outcome of the prefix and adds it to the prefix.
fn score(
    stats: &mut LoopStats,
    oracle: &Oracle,
    request: &QueryRequest,
    outcome: &QueryOutcome,
    fresh: usize,
    ingested_secs: f64,
) {
    match oracle.check(request, outcome, ingested_secs) {
        Ok(score) => {
            let prefix = &mut stats.prefix;
            prefix.requests += 1;
            prefix.fresh_inferences += fresh;
            prefix.recall_sum += score.recall;
            prefix.precision_sum += score.precision;
            prefix.digest.add(outcome);
        }
        Err(message) => stats.fail(format!("answer check: {message} (request {request:?})")),
    }
}

/// The live workload: every session replays the same seeded ticks on a
/// fresh service, with the session's own seeded waves.
pub struct Live {
    dir: PathBuf,
    streams: Vec<(StreamId, u32)>,
    ticks: Vec<Vec<Frame>>,
    gen: RequestGen,
    first: Option<FocusService>,
}

impl Live {
    /// Generates the inputs and builds the first session's service.
    pub fn setup(
        seed: u64,
        sizes: &Sizes,
        dir: &Path,
    ) -> Result<(Self, Vec<VideoDataset>, Setup), String> {
        let mut pace = Pace::default();
        let clock = Stopwatch::start();
        let datasets = inputs::datasets(seed, sizes.live_secs);
        let ticks = inputs::ticks(&datasets, sizes.live_secs);
        let gen = RequestGen::new(seed, &datasets, 0.0);
        let streams = streams_of(&datasets);
        let first = new_service(&dir.join("session-0"), &streams)?;
        let secs = clock.secs();
        pace.sample();
        let setup = Setup {
            secs,
            slowdown: pace.slowdown(),
            ..Setup::default()
        };
        let live = Self {
            dir: dir.to_path_buf(),
            streams,
            ticks,
            gen,
            first: Some(first),
        };
        Ok((live, datasets, setup))
    }

    /// Runs the first session, the prefix, which is scored, then sessions
    /// with their own requests until the requests for `seconds` are timed
    /// (see [`Sizes::timed_target`]); their answers are checked too.
    pub fn run(
        &mut self,
        oracle: &Oracle,
        seconds: f64,
        sizes: &Sizes,
        mut tracer: Option<&mut Tracer>,
    ) -> LoopStats {
        let mut stats = LoopStats::default();
        let target = sizes.timed_target(Workload::LiveMixed, seconds);
        let start = Instant::now();
        let mut max_decoded = 0usize;
        let mut next_request = 0u64;
        let mut pace = Pace::default();
        for session in 0.. {
            let dir = self.dir.join(format!("session-{session}"));
            let service = match self.first.take() {
                Some(service) => Ok(service),
                None => in_span(&mut tracer, "bench.session", next_request, || {
                    new_service(&dir, &self.streams)
                }),
            };
            let mut service = match service {
                Ok(service) => service,
                Err(message) => {
                    stats.fail(message);
                    break;
                }
            };
            let gpu_before = service.stats().gpu;
            let mut gen = self.gen.session(session);
            let mut completed = true;
            let mut store_bytes = 0u64;
            for (tick, frames) in self.ticks.iter().enumerate() {
                if session > 0 && stats.done(target) {
                    completed = false;
                    break;
                }
                let now = (tick + 1) as f64;
                let id = next_request;
                in_span(&mut tracer, "bench.pace", id, || pace.maybe_sample());
                let scale = pace.recent();
                let call = Stopwatch::start();
                let advanced = in_span(&mut tracer, "service.advance", id, || {
                    service.advance(frames)
                });
                let advance_s = call.secs();
                let call = Stopwatch::start();
                let maintained =
                    in_span(&mut tracer, "service.maintain", id, || service.maintain());
                let maintain_s = call.secs();
                stats.frames += frames.len();
                if session == 0 {
                    stats.prefix.path_s += advance_s + maintain_s;
                } else {
                    stats
                        .ingest
                        .push((frames.len(), (advance_s + maintain_s) / scale));
                }
                let layers = &mut stats.layers;
                layers.advance_frames += frames.len();
                layers.advance_objects += frames.iter().map(|f| f.objects.len()).sum::<usize>();
                match advanced {
                    Ok(report) => layers.advance_sealed += report.segments_sealed,
                    Err(e) => stats.fail(format!("advance: {e:?}")),
                }
                match maintained {
                    Ok(report) => {
                        let layers = &mut stats.layers;
                        layers.maintain_sealed += report.segments_sealed;
                        layers.maintain_folded += report.segments_folded;
                        layers.maintain_prefetched += report.segments_prefetched;
                    }
                    Err(e) => stats.fail(format!("maintain: {e:?}")),
                }
                if tracer.is_some() {
                    let bytes = in_span(&mut tracer, "bench.check", id, || dir_bytes(&dir));
                    stats.layers.advance_bytes_written += bytes.saturating_sub(store_bytes);
                    store_bytes = bytes;
                }

                let wave = gen.live_wave(now);
                next_request += wave.len() as u64;
                let call = Stopwatch::start();
                let served = serve_wave(&service, &wave, id, &mut tracer, &mut stats.layers);
                let serve_s = call.secs();
                stats.record_call(wave.len(), serve_s, scale, served.is_ok(), session > 0);
                if session == 0 {
                    stats.prefix.path_s += serve_s;
                }
                in_span(&mut tracer, "bench.check", id, || {
                    match &served {
                        Ok(outcomes) => {
                            stats.layers.note_outcomes(outcomes);
                            for (request, outcome) in wave.iter().zip(outcomes) {
                                let first =
                                    (!outcome.objects.is_empty()).then_some(serve_s / scale);
                                stats.record_first_result(first, session > 0);
                                if session == 0 {
                                    let fresh = outcome.centroid_inferences;
                                    score(&mut stats, oracle, request, outcome, fresh, now);
                                } else if let Err(message) = oracle.check(request, outcome, now) {
                                    stats.fail(format!("answer check: {message} ({request:?})"));
                                }
                            }
                        }
                        Err(e) => stats.fail(format!("serve: {e:?}")),
                    }
                    max_decoded = max_decoded.max(service.store().cache_occupancy().occupancy);
                });
            }
            let gpu_after = service.stats().gpu;
            stats.layers.note_gpu(&gpu_before, &gpu_after);
            if session == 0 {
                stats.prefix.server_misses = service.query_server().cache_stats().misses;
                stats.facts = Facts {
                    ingest_gpu_ms_per_frame: ingest_gpu_ms_per_frame(&service, stats.frames),
                    store_bytes: dir_bytes(&dir),
                    store_frames: stats.frames,
                };
                stats.regime.push(regime_line(&service, &dir));
            }
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
            if !completed || stats.done(target) {
                break;
            }
        }
        stats.loop_s = start.elapsed().as_secs_f64();
        stats.slowdown = pace.slowdown();
        stats.regime.push(format!(
            "max_decoded={max_decoded}/{DEFAULT_CACHE_CAPACITY}"
        ));
        if max_decoded >= DEFAULT_CACHE_CAPACITY {
            stats.fail("live_mixed: the decoded segment cache filled up and evicted".into());
        }
        stats
    }
}

/// The archive workload: one service that ingested the whole archive.
pub struct Archive {
    dir: PathBuf,
    service: FocusService,
    gen: RequestGen,
    horizon: f64,
    frames: usize,
}

impl Archive {
    /// Generates the archive, ingests it into a fresh service and seals.
    pub fn setup(
        seed: u64,
        sizes: &Sizes,
        dir: &Path,
    ) -> Result<(Self, Vec<VideoDataset>, Setup), String> {
        let mut pace = Pace::default();
        let clock = Stopwatch::start();
        let datasets = inputs::datasets(seed, sizes.archive_secs);
        let mut service = new_service(dir, &streams_of(&datasets))?;
        let ingest = ingest_all(&mut service, &datasets, sizes.archive_secs, &mut pace)?;
        let secs = clock.secs();
        pace.sample();
        let setup = Setup {
            secs,
            ingest,
            frames: frame_count(&datasets),
            slowdown: pace.slowdown(),
        };
        let archive = Self {
            dir: dir.to_path_buf(),
            service,
            gen: RequestGen::new(seed, &datasets, ANYTIME_SHARE),
            horizon: sizes.archive_secs as f64,
            frames: setup.frames,
        };
        Ok((archive, datasets, setup))
    }

    /// Makes single-request calls: the prefix, then the requests timed
    /// for `seconds` (see [`Sizes::timed_target`]).
    pub fn run(
        &mut self,
        oracle: &Oracle,
        seconds: f64,
        sizes: &Sizes,
        mut tracer: Option<&mut Tracer>,
    ) -> LoopStats {
        let service = &self.service;
        let mut stats = LoopStats {
            facts: Facts {
                ingest_gpu_ms_per_frame: ingest_gpu_ms_per_frame(service, self.frames),
                store_bytes: dir_bytes(&self.dir),
                store_frames: self.frames,
            },
            ..LoopStats::default()
        };
        stats.regime.push(regime_line(service, &self.dir));
        let reads_before = service.store().cache_occupancy().disk_reads;
        let misses_before = service.query_server().cache_stats().misses;
        let gpu_before = service.stats().gpu;
        let mut gen = self.gen.clone();
        let mut pace = Pace::default();
        let target = sizes.timed_target(Workload::ArchiveScan, seconds);
        let start = Instant::now();
        let mut id = 0u64;
        while (id as usize) < sizes.prefix_requests || !stats.done(target) {
            in_span(&mut tracer, "bench.pace", id, || pace.maybe_sample());
            let scale = pace.recent();
            let request = gen.archive_request(self.horizon);
            let in_prefix = (id as usize) < sizes.prefix_requests;
            if request.anytime.incremental {
                let (result, secs, first) = serve_anytime(service, &request, id, &mut tracer);
                stats.record_call(1, secs, scale, result.is_ok(), !in_prefix);
                if in_prefix {
                    stats.prefix.path_s += secs;
                }
                in_span(&mut tracer, "bench.check", id, || match result {
                    Ok(result) => {
                        stats.record_first_result(first.map(|f| f / scale), !in_prefix);
                        stats.layers.note_anytime(&result);
                        if let Err(message) = check_anytime(&result) {
                            stats.fail(format!("anytime check: {message}"));
                        }
                        if in_prefix {
                            let (fresh, outcome) = (result.fresh_inferences, &result.outcome);
                            score(&mut stats, oracle, &request, outcome, fresh, self.horizon);
                        }
                    }
                    Err(e) => stats.fail(format!("serve_anytime: {e:?}")),
                });
            } else {
                let wave = std::slice::from_ref(&request);
                let call = Stopwatch::start();
                let served = serve_wave(service, wave, id, &mut tracer, &mut stats.layers);
                let secs = call.secs();
                stats.record_call(1, secs, scale, served.is_ok(), !in_prefix);
                if in_prefix {
                    stats.prefix.path_s += secs;
                }
                in_span(&mut tracer, "bench.check", id, || match served {
                    Ok(outcomes) => {
                        stats.layers.note_outcomes(&outcomes);
                        let outcome = &outcomes[0];
                        let first = (!outcome.objects.is_empty()).then_some(secs / scale);
                        stats.record_first_result(first, !in_prefix);
                        if in_prefix {
                            let fresh = outcome.centroid_inferences;
                            score(&mut stats, oracle, &request, outcome, fresh, self.horizon);
                        }
                    }
                    Err(e) => stats.fail(format!("serve: {e:?}")),
                });
            }
            id += 1;
            if id as usize == sizes.prefix_requests {
                let misses = service.query_server().cache_stats().misses;
                stats.prefix.server_misses = misses - misses_before;
            }
        }
        stats.loop_s = start.elapsed().as_secs_f64();
        stats.slowdown = pace.slowdown();
        stats.layers.note_gpu(&gpu_before, &service.stats().gpu);
        let reads = service.store().cache_occupancy().disk_reads - reads_before;
        stats.regime.push(regime_line(service, &self.dir));
        stats.regime.push(format!("loop_disk_reads={reads}"));
        if reads == 0 {
            stats.fail("archive_scan: the timed loop read nothing from disk".into());
        }
        stats
    }
}

/// The fleet workload: a four-node fleet over the three streams, and a
/// single-node twin fed the same frames.
pub struct Fleet {
    dir: PathBuf,
    fleet: FleetCoordinator,
    twin: Option<FocusService>,
    gen: RequestGen,
    horizon: f64,
    frames: usize,
}

impl Fleet {
    /// Generates the inputs, creates the fleet, ingests and seals.
    pub fn setup(
        seed: u64,
        sizes: &Sizes,
        dir: &Path,
    ) -> Result<(Self, Vec<VideoDataset>, Setup), String> {
        let mut pace = Pace::default();
        let clock = Stopwatch::start();
        let datasets = inputs::datasets(seed, sizes.fleet_secs);
        let config = FleetConfig {
            nodes: FLEET_NODES,
            service: inputs::service_config(),
            net: NetCostModel::default(),
        };
        let fleet_err = |e: FleetError| format!("fleet: {e:?}");
        let mut fleet =
            FleetCoordinator::create(dir.join("fleet"), config, GroundTruthCnn::resnet152())
                .map_err(fleet_err)?;
        for (stream, fps) in streams_of(&datasets) {
            fleet.register_stream(stream, fps).map_err(fleet_err)?;
        }
        let mut ingest = Vec::with_capacity(sizes.fleet_secs);
        for second in 0..sizes.fleet_secs {
            pace.maybe_sample();
            let call = Stopwatch::start();
            let mut frames = 0;
            for ds in &datasets {
                let slice = inputs::second_of(ds, second);
                fleet.advance(slice).map_err(fleet_err)?;
                frames += slice.len();
            }
            fleet.maintain().map_err(fleet_err)?;
            ingest.push((frames, call.secs()));
        }
        fleet.seal_all().map_err(fleet_err)?;
        let secs = clock.secs();
        pace.sample();
        let setup = Setup {
            secs,
            ingest,
            frames: frame_count(&datasets),
            slowdown: pace.slowdown(),
        };
        let fleet = Self {
            dir: dir.to_path_buf(),
            fleet,
            twin: None,
            gen: RequestGen::new(seed, &datasets, 0.0),
            horizon: sizes.fleet_secs as f64,
            frames: setup.frames,
        };
        Ok((fleet, datasets, setup))
    }

    /// Builds the single-node twin over the same inputs. The fleet API
    /// exposes no GPU meter, and its shards are services with the same
    /// configuration, so the twin's ingest cost is the fleet's; its answers
    /// are the reference the fleet's must equal.
    pub fn attach_twin(&mut self, datasets: &[VideoDataset], secs: usize) -> Result<(), String> {
        let mut twin = new_service(&self.dir.join("twin"), &streams_of(datasets))?;
        ingest_all(&mut twin, datasets, secs, &mut Pace::default())?;
        self.twin = Some(twin);
        Ok(())
    }

    /// Sends waves of one to three requests: the prefix, then the requests
    /// timed for `seconds` (see [`Sizes::timed_target`]).
    pub fn run(
        &mut self,
        oracle: &Oracle,
        seconds: f64,
        sizes: &Sizes,
        mut tracer: Option<&mut Tracer>,
    ) -> LoopStats {
        let twin = self.twin.as_ref().expect("twin attached before the loop");
        let fleet_dir = self.dir.join("fleet");
        let mut stats = LoopStats {
            facts: Facts {
                ingest_gpu_ms_per_frame: ingest_gpu_ms_per_frame(twin, self.frames),
                store_bytes: dir_bytes(&fleet_dir),
                store_frames: self.frames,
            },
            ..LoopStats::default()
        };
        let before = self.fleet.stats();
        stats.regime.push(format!(
            "fleet_store_bytes={} nodes={} shards={}",
            stats.facts.store_bytes, before.nodes, before.shards
        ));
        let mut gen = self.gen.clone();
        let mut pace = Pace::default();
        let target = sizes.timed_target(Workload::FleetScatter, seconds);
        let start = Instant::now();
        let mut id = 0u64;
        while (id as usize) < sizes.prefix_requests || !stats.done(target) {
            in_span(&mut tracer, "bench.pace", id, || pace.maybe_sample());
            let scale = pace.recent();
            let wave = gen.archive_wave(self.horizon);
            let in_prefix = (id as usize) < sizes.prefix_requests;
            let call = Stopwatch::start();
            let served = match tracer.as_deref_mut() {
                Some(t) => serve_fleet_traced(&mut self.fleet, &wave, id, t, &mut stats.layers),
                None => self.fleet.serve(&wave),
            };
            let secs = call.secs();
            stats.record_call(wave.len(), secs, scale, served.is_ok(), !in_prefix);
            if in_prefix {
                stats.prefix.path_s += secs;
            }
            in_span(&mut tracer, "bench.check", id, || match served {
                Ok(outcomes) => {
                    stats.layers.note_outcomes(&outcomes);
                    let reference = if in_prefix {
                        Some(twin.serve(&wave))
                    } else {
                        None
                    };
                    for (i, (request, outcome)) in wave.iter().zip(&outcomes).enumerate() {
                        let first = (!outcome.objects.is_empty()).then_some(secs / scale);
                        stats.record_first_result(first, !in_prefix);
                        if let Some(reference) = &reference {
                            let fresh = outcome.centroid_inferences;
                            score(&mut stats, oracle, request, outcome, fresh, self.horizon);
                            let same = reference.as_ref().is_ok_and(|r| {
                                r[i].frames == outcome.frames && r[i].objects == outcome.objects
                            });
                            if !same {
                                stats.fail(format!(
                                    "fleet answer differs from one node: {request:?}"
                                ));
                            }
                        }
                    }
                }
                Err(e) => stats.fail(format!("fleet serve: {e:?}")),
            });
            id += wave.len() as u64;
        }
        stats.loop_s = start.elapsed().as_secs_f64();
        stats.slowdown = pace.slowdown();
        let after = self.fleet.stats();
        stats.layers.wire_bytes += after.net.bytes_total() - before.net.bytes_total();
        stats.layers.gpu_query_s += after.query_gpu_secs - before.query_gpu_secs;
        stats
    }
}
