//! A repeatable benchmark of the Focus system: one command runs a named
//! workload with a seed against the public API of `focus_core`, checks the
//! answers, and prints every end-to-end metric, or, in a traced run, every
//! per-layer metric.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload archive_scan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The untraced run sets up at least [`Sizes::setup_reps`] times and for at
//! least [`SETUP_MIN_S`] seconds (`setup_s` is the median), then runs the
//! timed loop once. The traced run sets up twice: it
//! runs the loop untraced on the first set-up and traced on the second, for
//! half the seconds each, so `trace.overhead_fraction` compares the two on
//! the same requests.

pub mod inputs;
pub mod oracle;
pub mod pace;
pub mod report;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use focus_video::VideoDataset;

use crate::oracle::Oracle;
use crate::report::{median, percentile, ratio, Metric};
use crate::trace::Tracer;
use crate::workload::{block_fps, Archive, Fleet, Live, LoopStats, Setup, Sizes, Workload};

/// Recall below this, averaged over the scored requests, fails the run.
pub const RECALL_FLOOR: f64 = 0.6;
/// Precision below this, averaged over the scored requests, fails the run.
pub const PRECISION_FLOOR: f64 = 0.6;
/// The least share of the traced loop that spans must cover.
pub const COVERAGE_FLOOR: f64 = 0.9;
/// An untraced run keeps setting up until this many seconds have passed
/// (and [`Sizes::setup_reps`] set-ups ran), so that a set-up of a few
/// milliseconds still gets a steady median.
pub const SETUP_MIN_S: f64 = 2.0;

/// The spans around the calls into each layer.
const LAYER_SPANS: [&str; 8] = [
    "service.advance",
    "service.maintain",
    "service.tail_snapshot",
    "query.plan",
    "query_server.verify",
    "query.anytime",
    "fleet.scatter",
    "fleet.gather",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for the stores, removed after the run.
    pub out_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_dir: PathBuf,
}

/// What a run printed and measured.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks; the run is correct when there are none.
    pub errors: Vec<String>,
}

/// A set-up workload.
pub enum State {
    Live(Box<Live>),
    Archive(Box<Archive>),
    Fleet(Box<Fleet>),
}

impl State {
    /// Sets `workload` up in `dir`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        sizes: &Sizes,
        dir: &Path,
    ) -> Result<(Self, Vec<VideoDataset>, Setup), String> {
        Ok(match workload {
            Workload::LiveMixed => {
                let (s, d, t) = Live::setup(seed, sizes, dir)?;
                (State::Live(Box::new(s)), d, t)
            }
            Workload::ArchiveScan => {
                let (s, d, t) = Archive::setup(seed, sizes, dir)?;
                (State::Archive(Box::new(s)), d, t)
            }
            Workload::FleetScatter => {
                let (s, d, t) = Fleet::setup(seed, sizes, dir)?;
                (State::Fleet(Box::new(s)), d, t)
            }
        })
    }

    /// Runs the timed loop.
    pub fn run(
        &mut self,
        oracle: &Oracle,
        seconds: f64,
        sizes: &Sizes,
        tracer: Option<&mut Tracer>,
    ) -> LoopStats {
        match self {
            State::Live(s) => s.run(oracle, seconds, sizes, tracer),
            State::Archive(s) => s.run(oracle, seconds, sizes, tracer),
            State::Fleet(s) => s.run(oracle, seconds, sizes, tracer),
        }
    }
}

/// Sets up once in `dir` and builds the oracle (and the fleet's twin).
pub fn prepare(
    workload: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
) -> Result<(State, Oracle, Setup), String> {
    let (mut state, datasets, setup) = State::setup(workload, seed, sizes, dir)?;
    let oracle = attach_oracle(&mut state, datasets, sizes)?;
    Ok((state, oracle, setup))
}

/// Builds the oracle over the set-up's inputs, and the fleet's twin.
fn attach_oracle(
    state: &mut State,
    datasets: Vec<VideoDataset>,
    sizes: &Sizes,
) -> Result<Oracle, String> {
    if let State::Fleet(fleet) = state {
        fleet.attach_twin(&datasets, sizes.fleet_secs)?;
    }
    Ok(Oracle::new(datasets))
}

/// Runs one workload as `options` say.
pub fn run(options: &Options) -> RunReport {
    let mut report = RunReport::default();
    let result = if options.trace {
        run_traced(options, &mut report)
    } else {
        run_untraced(options, &mut report)
    };
    if let Err(message) = result {
        report.errors.push(message);
    }
    report
}

fn run_untraced(options: &Options, report: &mut RunReport) -> Result<(), String> {
    let (sizes, seed) = (&options.sizes, options.seed);
    let mut setups = Vec::new();
    let mut kept: Option<(State, Vec<VideoDataset>, PathBuf)> = None;
    let started = Instant::now();
    while setups.len() < sizes.setup_reps.max(1) || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        if let Some((old, _, old_dir)) = kept.take() {
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = options.out_dir.join(format!("setup-{}", setups.len()));
        let (state, datasets, setup) = State::setup(options.workload, seed, sizes, &dir)?;
        setups.push(setup);
        kept = Some((state, datasets, dir));
    }
    let (mut state, datasets, _) = kept.expect("at least one set-up");
    let oracle = attach_oracle(&mut state, datasets, sizes)?;
    let stats = state.run(&oracle, options.seconds, sizes, None);
    drop(state);
    describe(report, &stats);
    report.metrics = end_to_end(options.workload, &setups, &stats);
    Ok(())
}

fn run_traced(options: &Options, report: &mut RunReport) -> Result<(), String> {
    let (sizes, seed, half) = (&options.sizes, options.seed, options.seconds / 2.0);
    let (mut state, oracle, _) = prepare(
        options.workload,
        seed,
        sizes,
        &options.out_dir.join("untraced"),
    )?;
    let untraced = state.run(&oracle, half, sizes, None);
    drop(state);
    describe(report, &untraced);

    let (mut state, _, _) = prepare(
        options.workload,
        seed,
        sizes,
        &options.out_dir.join("traced"),
    )?;
    let mut tracer = Tracer::default();
    let traced = state.run(&oracle, half, sizes, Some(&mut tracer));
    drop(state);
    describe(report, &traced);
    if traced.prefix.digest != untraced.prefix.digest {
        report
            .errors
            .push("the traced path answered differently from the untraced path".into());
    }
    let overhead = ratio(
        traced.prefix.path_s / traced.slowdown,
        untraced.prefix.path_s / untraced.slowdown,
    ) - 1.0;
    let coverage = ratio(tracer.root_secs(), traced.loop_s);
    if coverage < COVERAGE_FLOOR {
        report.errors.push(format!(
            "spans cover {coverage:.3} of the traced loop, under {COVERAGE_FLOOR}"
        ));
    }
    let path = options.spans_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        options.workload.name(),
        options.seed
    ));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write spans: {e}"))?;
    report.lines.push(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    ));
    let totals = tracer.totals();
    let absent: Vec<&str> = LAYER_SPANS
        .iter()
        .copied()
        .filter(|name| !totals.contains_key(name))
        .collect();
    if !absent.is_empty() {
        report.lines.push(format!(
            "absent layers: {} (this workload's loop does not call them; their metrics read 0)",
            absent.join(", ")
        ));
    }
    report.metrics = per_layer(&traced, &tracer, overhead, coverage);
    Ok(())
}

/// Adds a loop's counts, regime and check results to the report.
fn describe(report: &mut RunReport, stats: &LoopStats) {
    report.attempted += stats.attempted;
    report.failed += stats.failed;
    for line in &stats.regime {
        report.lines.push(format!("regime: {line}"));
    }
    let prefix = &stats.prefix;
    report.lines.push(format!(
        "samples: requests={} latency_samples={} first_result_samples={} no_result={} loop_s={:.3}",
        stats.attempted,
        stats.latencies.len(),
        stats.first_result.len(),
        stats.no_result,
        stats.loop_s
    ));
    report.lines.push(format!(
        "answers: scored_requests={} digest={:016x}",
        prefix.requests, prefix.digest.0
    ));
    report.lines.push(format!(
        "wall clock: slowdown={:.4} queries_per_s={:.1}",
        stats.slowdown,
        ratio(stats.latencies.len() as f64, stats.raw_serve_s),
    ));
    let n = prefix.requests as f64;
    let (recall, precision) = (ratio(prefix.recall_sum, n), ratio(prefix.precision_sum, n));
    if prefix.requests == 0 {
        report.errors.push("no request was scored".into());
    } else if recall < RECALL_FLOOR || precision < PRECISION_FLOOR {
        report.errors.push(format!(
            "recall {recall:.3} / precision {precision:.3} under the floor {RECALL_FLOOR} / {PRECISION_FLOOR}"
        ));
    }
    if stats.failed > 0 {
        report
            .errors
            .push(format!("{} requests returned an error", stats.failed));
    }
    report.errors.extend(stats.errors.iter().cloned());
}

/// The end-to-end metrics of an untraced run.
///
/// Timings are at the reference speed (see [`pace`]): the loop's calls
/// were scaled as they were timed, set-ups by their own slowdown.
fn end_to_end(workload: Workload, setups: &[Setup], stats: &LoopStats) -> Vec<Metric> {
    let setup_s: Vec<f64> = setups.iter().map(|s| s.secs / s.slowdown).collect();
    // The live loop ingests; the other workloads ingest only in set-up.
    let ingest_fps: Vec<f64> = match workload {
        Workload::LiveMixed => block_fps(&stats.ingest),
        _ => setups
            .iter()
            .flat_map(|s| block_fps(&s.ingest).into_iter().map(|fps| fps * s.slowdown))
            .collect(),
    };
    let prefix = &stats.prefix;
    let n = prefix.requests as f64;
    let facts = &stats.facts;
    vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("ingest_fps", "frames/s", median(&ingest_fps)),
        Metric::new(
            "queries_per_s",
            "1/s",
            ratio(stats.latencies.len() as f64, stats.serve_s),
        ),
        Metric::new(
            "query_p50_ms",
            "ms",
            percentile(&stats.latencies, 0.50) * 1e3,
        ),
        Metric::new(
            "query_p99_ms",
            "ms",
            percentile(&stats.latencies, 0.99) * 1e3,
        ),
        Metric::new(
            "anytime_first_result_ms",
            "ms",
            median(&stats.first_result) * 1e3,
        ),
        Metric::new(
            "gt_inferences_per_query",
            "count",
            ratio(prefix.fresh_inferences as f64, n),
        ),
        Metric::new(
            "ingest_gpu_ms_per_frame",
            "ms",
            facts.ingest_gpu_ms_per_frame,
        ),
        Metric::new(
            "store_bytes_per_frame",
            "B",
            ratio(facts.store_bytes as f64, facts.store_frames as f64),
        ),
        Metric::new("result_recall", "fraction", ratio(prefix.recall_sum, n)),
        Metric::new(
            "result_precision",
            "fraction",
            ratio(prefix.precision_sum, n),
        ),
        Metric::new("peak_rss_mb", "MiB", report::peak_rss_mb()),
    ]
}

/// The per-layer metrics of a traced loop, with times at the reference
/// speed. A layer the workload's loop does not call reports zero.
fn per_layer(stats: &LoopStats, tracer: &Tracer, overhead: f64, coverage: f64) -> Vec<Metric> {
    let totals = tracer.totals();
    let span = |name: &str| {
        let mut t = totals.get(name).copied().unwrap_or_default();
        for secs in [&mut t.total_s, &mut t.self_s, &mut t.max_s] {
            *secs /= stats.slowdown;
        }
        t
    };
    let l = &stats.layers;
    let f = |v: usize| v as f64;
    let (advance, maintain, tail) = (
        span("service.advance"),
        span("service.maintain"),
        span("service.tail_snapshot"),
    );
    let (plan, verify, anytime) = (
        span("query.plan"),
        span("query_server.verify"),
        span("query.anytime"),
    );
    let (scatter, gather) = (span("fleet.scatter"), span("fleet.gather"));
    let access = &l.access;
    let fetches = f(access.blocks_read + access.block_raw_hits + access.block_hits);
    vec![
        Metric::new("service.advance.self_s", "s", advance.self_s),
        Metric::new(
            "service.advance.us_per_frame",
            "us",
            ratio(advance.total_s * 1e6, f(l.advance_frames)),
        ),
        Metric::new(
            "service.advance.objects_per_frame",
            "objects/frame",
            ratio(f(l.advance_objects), f(l.advance_frames)),
        ),
        Metric::new(
            "service.advance.segments_sealed",
            "count",
            f(l.advance_sealed),
        ),
        Metric::new(
            "service.advance.bytes_written",
            "B",
            l.advance_bytes_written as f64,
        ),
        Metric::new("service.maintain.self_s", "s", maintain.self_s),
        Metric::new("service.maintain.max_ms", "ms", maintain.max_s * 1e3),
        Metric::new(
            "service.maintain.segments_sealed",
            "count",
            f(l.maintain_sealed),
        ),
        Metric::new(
            "service.maintain.segments_folded",
            "count",
            f(l.maintain_folded),
        ),
        Metric::new(
            "service.maintain.segments_prefetched",
            "count",
            f(l.maintain_prefetched),
        ),
        Metric::new("service.tail_snapshot.self_s", "s", tail.self_s),
        Metric::new(
            "service.tail_snapshot.us_per_call",
            "us",
            ratio(tail.total_s * 1e6, f(tail.count)),
        ),
        Metric::new(
            "service.tail_snapshot.records_per_call",
            "records",
            ratio(f(l.tail_records), f(l.tail_calls)),
        ),
        Metric::new("query.plan.self_s", "s", plan.self_s),
        Metric::new(
            "query.plan.us_per_request",
            "us",
            ratio(plan.total_s * 1e6, f(l.plan_requests)),
        ),
        Metric::new(
            "query.plan.candidates_per_request",
            "count",
            ratio(f(l.plan_candidates), f(l.plan_requests)),
        ),
        Metric::new(
            "query.plan.tail_records_per_request",
            "count",
            ratio(f(l.plan_tail_records), f(l.plan_requests)),
        ),
        Metric::new(
            "query.plan.segments_opened_per_request",
            "count",
            ratio(f(l.plan_opened), f(l.plan_requests)),
        ),
        Metric::new(
            "query.plan.segments_pruned_per_request",
            "count",
            ratio(f(l.plan_pruned), f(l.plan_requests)),
        ),
        Metric::new("index.segment.disk_reads", "count", f(access.cold_loads)),
        Metric::new(
            "index.segment.bytes_read_per_request",
            "B",
            ratio(access.bytes_read as f64, f(l.plan_requests)),
        ),
        Metric::new("index.segment.blocks_read", "count", f(access.blocks_read)),
        Metric::new(
            "index.segment.block_hit_rate",
            "fraction",
            ratio(f(access.block_hits), fetches),
        ),
        Metric::new(
            "index.segment.raw_hit_rate",
            "fraction",
            ratio(f(access.block_raw_hits), fetches),
        ),
        Metric::new("query_server.verify.self_s", "s", verify.self_s),
        Metric::new(
            "query_server.verify.us_per_candidate",
            "us",
            ratio(verify.total_s * 1e6, f(l.verify_candidates)),
        ),
        Metric::new(
            "query_server.verify.candidates_per_request",
            "count",
            ratio(f(l.verify_candidates), f(l.verify_requests)),
        ),
        Metric::new(
            "query_server.verify.fresh_inferences",
            "count",
            f(l.verify_fresh),
        ),
        Metric::new(
            "query_server.verify.cache_hit_rate",
            "fraction",
            ratio(
                f(l.verify_candidates.saturating_sub(l.verify_fresh)),
                f(l.verify_candidates),
            ),
        ),
        Metric::new(
            "query_server.verify.confirmed_fraction",
            "fraction",
            ratio(f(l.verify_confirmed), f(l.verify_candidates)),
        ),
        Metric::new(
            "query_server.verify.frames_per_request",
            "count",
            ratio(f(l.verify_frames), f(l.verify_requests)),
        ),
        Metric::new("query.anytime.self_s", "s", anytime.self_s),
        Metric::new(
            "query.anytime.rounds_per_request",
            "count",
            ratio(f(l.anytime_rounds), f(l.anytime_requests)),
        ),
        Metric::new(
            "query.anytime.inferences_to_first_result",
            "count",
            ratio(f(l.anytime_inferences_to_first), f(l.anytime_with_result)),
        ),
        Metric::new(
            "query.anytime.results_per_inference",
            "count",
            ratio(f(l.anytime_results), f(l.anytime_fresh)),
        ),
        Metric::new("fleet.scatter.self_s", "s", scatter.self_s),
        Metric::new(
            "fleet.scatter.us_per_request",
            "us",
            ratio(scatter.total_s * 1e6, f(l.scatter_requests)),
        ),
        Metric::new(
            "fleet.scatter.width",
            "count",
            ratio(f(l.scatter_width), f(l.scatter_calls)),
        ),
        Metric::new(
            "fleet.scatter.wire_bytes_per_request",
            "B",
            ratio(l.wire_bytes as f64, f(l.scatter_requests)),
        ),
        Metric::new("fleet.gather.self_s", "s", gather.self_s),
        Metric::new(
            "fleet.gather.us_per_request",
            "us",
            ratio(gather.total_s * 1e6, f(l.scatter_requests)),
        ),
        Metric::new("runtime.gpu.ingest_s", "s", l.gpu_ingest_s),
        Metric::new("runtime.gpu.query_s", "s", l.gpu_query_s),
        Metric::new("runtime.gpu.anytime_s", "s", l.gpu_anytime_s),
        Metric::new(
            "runtime.gpu.utilization",
            "fraction",
            ratio(l.gpu_served_s, l.gpu_offered_s),
        ),
        Metric::new("trace.overhead_fraction", "fraction", overhead),
        Metric::new("trace.coverage", "fraction", coverage),
    ]
}
