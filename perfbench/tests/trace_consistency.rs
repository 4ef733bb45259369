//! The traced run measures the program the untraced run times:
//!
//! * decomposition — the traced serving paths answer exactly as
//!   `FocusService::serve` and `FleetCoordinator::serve` do, on twin
//!   inputs built from one seed;
//! * conservation — within one traced run, candidates planned equal
//!   candidates verified, fresh inferences counted from the answers equal
//!   the query server's own count, and spans cover the loop;
//! * the oracle's one-pass ground truth equals `GroundTruthLabels`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use focus_cnn::GroundTruthCnn;
use focus_core::fleet::{FleetConfig, FleetCoordinator};
use focus_core::service::FocusService;
use focus_core::GroundTruthLabels;
use focus_perfbench::inputs::{self, RequestGen};
use focus_perfbench::oracle::truth_by_class;
use focus_perfbench::trace::Tracer;
use focus_perfbench::workload::{serve_fleet_traced, serve_traced, Layers, Sizes, Workload};
use focus_perfbench::{prepare, COVERAGE_FLOOR};
use focus_runtime::NetCostModel;
use focus_video::VideoDataset;

const SEED: u64 = 7;

fn small() -> Sizes {
    Sizes {
        live_secs: 90,
        archive_secs: 240,
        fleet_secs: 120,
        prefix_requests: 200,
        timed_requests: 0,
        setup_reps: 1,
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service(dir: PathBuf, datasets: &[VideoDataset]) -> FocusService {
    let mut service =
        FocusService::create(dir, inputs::service_config(), GroundTruthCnn::resnet152()).unwrap();
    for ds in datasets {
        service
            .register_stream(ds.profile.stream_id, ds.profile.fps)
            .unwrap();
    }
    service
}

#[test]
fn traced_serve_matches_service_serve_over_a_live_run() {
    let secs = small().live_secs;
    let datasets = inputs::datasets(SEED, secs);
    let dir = test_dir("live-twins");
    let mut plain = service(dir.join("plain"), &datasets);
    let mut traced = service(dir.join("traced"), &datasets);
    let mut gen = RequestGen::new(SEED, &datasets, 0.0);
    let (mut tracer, mut layers) = (Tracer::default(), Layers::default());
    let mut requests = 0u64;
    for (tick, frames) in inputs::ticks(&datasets, secs).iter().enumerate() {
        for service in [&mut plain, &mut traced] {
            service.advance(frames).unwrap();
            service.maintain().unwrap();
        }
        let wave = gen.live_wave((tick + 1) as f64);
        let expected = plain.serve(&wave).unwrap();
        let got = serve_traced(&traced, &wave, requests, &mut tracer, &mut layers).unwrap();
        assert_eq!(got, expected, "tick {tick}");
        requests += wave.len() as u64;
    }
    assert_eq!(layers.plan_requests as u64, requests);
    assert!(layers.tail_records > 0, "the tail answered part of the run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_serve_matches_service_serve_over_an_archive_stream() {
    let secs = small().archive_secs;
    let datasets = inputs::datasets(SEED, secs);
    let dir = test_dir("archive-twins");
    let mut plain = service(dir.join("plain"), &datasets);
    let mut traced = service(dir.join("traced"), &datasets);
    for service in [&mut plain, &mut traced] {
        for frames in inputs::ticks(&datasets, secs) {
            service.advance(&frames).unwrap();
            service.maintain().unwrap();
        }
        service.seal_all().unwrap();
    }
    let mut gen = RequestGen::new(SEED, &datasets, 0.0);
    let (mut tracer, mut layers) = (Tracer::default(), Layers::default());
    for id in 0..300u64 {
        let request = gen.archive_request(secs as f64);
        let wave = std::slice::from_ref(&request);
        let expected = plain.serve(wave).unwrap();
        let got = serve_traced(&traced, wave, id, &mut tracer, &mut layers).unwrap();
        assert_eq!(got, expected, "request {id}: {request:?}");
    }
    assert!(layers.access.segments_considered > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scatter_then_gather_matches_fleet_serve() {
    let secs = small().fleet_secs;
    let datasets = inputs::datasets(SEED, secs);
    let dir = test_dir("fleet-twins");
    let fleet = |name: &str| {
        let config = FleetConfig {
            nodes: 4,
            service: inputs::service_config(),
            net: NetCostModel::default(),
        };
        let mut fleet =
            FleetCoordinator::create(dir.join(name), config, GroundTruthCnn::resnet152()).unwrap();
        for ds in &datasets {
            fleet
                .register_stream(ds.profile.stream_id, ds.profile.fps)
                .unwrap();
        }
        for frames in inputs::ticks(&datasets, secs) {
            fleet.advance(&frames).unwrap();
            fleet.maintain().unwrap();
        }
        fleet.seal_all().unwrap();
        fleet
    };
    let (mut plain, mut traced) = (fleet("plain"), fleet("traced"));
    let mut gen = RequestGen::new(SEED, &datasets, 0.0);
    let (mut tracer, mut layers) = (Tracer::default(), Layers::default());
    for id in 0..100u64 {
        let wave = gen.archive_wave(secs as f64);
        let expected = plain.serve(&wave).unwrap();
        let got = serve_fleet_traced(&mut traced, &wave, id, &mut tracer, &mut layers).unwrap();
        assert_eq!(got, expected, "wave {id}: {wave:?}");
    }
    assert_eq!(layers.scatter_calls, 100);
    std::fs::remove_dir_all(&dir).ok();
}

/// One traced loop of `workload`, run until its prefix is done.
fn traced_loop(workload: Workload) -> (focus_perfbench::workload::LoopStats, Tracer) {
    let sizes = small();
    let dir = test_dir(workload.name());
    let (mut state, oracle, _) = prepare(workload, SEED, &sizes, &dir).unwrap();
    let mut tracer = Tracer::default();
    let stats = state.run(&oracle, 0.0, &sizes, Some(&mut tracer));
    drop(state);
    std::fs::remove_dir_all(&dir).ok();
    assert!(stats.errors.is_empty(), "{:?}", stats.errors);
    (stats, tracer)
}

fn assert_conserves(workload: Workload) -> focus_perfbench::workload::LoopStats {
    let (stats, tracer) = traced_loop(workload);
    let layers = &stats.layers;
    assert!(layers.plan_candidates > 0);
    assert_eq!(
        layers.plan_candidates, layers.verify_candidates,
        "candidates planned = candidates verified"
    );
    let prefix = &stats.prefix;
    assert_eq!(
        prefix.requests, stats.attempted,
        "the loop ran its prefix only"
    );
    assert_eq!(
        prefix.fresh_inferences, prefix.server_misses,
        "gt_inferences_per_query × requests = the query server's fresh inferences"
    );
    assert_eq!(
        prefix.fresh_inferences,
        layers.verify_fresh + layers.anytime_fresh
    );
    let coverage = tracer.root_secs() / stats.loop_s;
    assert!(
        (COVERAGE_FLOOR..=1.0).contains(&coverage),
        "coverage {coverage}"
    );
    stats
}

#[test]
fn live_traced_run_conserves_work() {
    let stats = assert_conserves(Workload::LiveMixed);
    assert!(stats.layers.tail_records > 0);
}

#[test]
fn archive_traced_run_conserves_work() {
    let stats = assert_conserves(Workload::ArchiveScan);
    assert!(
        stats.layers.anytime_requests > 0,
        "the stream has anytime requests"
    );
}

#[test]
fn one_pass_truth_equals_ground_truth_labels() {
    let gt = GroundTruthCnn::resnet152();
    for ds in inputs::datasets(SEED, 120) {
        let labels = GroundTruthLabels::compute(&ds, &gt);
        let truth = truth_by_class(&ds, &gt, |_| true);
        for (class, _) in labels.classes_by_frequency() {
            let expected = labels.truth_segments(class);
            let got = truth.get(&class).cloned().unwrap_or_default();
            assert_eq!(got, expected, "class {class:?}");
        }
    }
}
