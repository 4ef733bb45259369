//! Criterion micro-benchmark: time-filtered query latency over the durable
//! segmented store vs the monolithic in-memory index, cold (fresh store,
//! empty LRU) vs warm (decoded segments cached).
//!
//! Besides the usual bench output this writes `BENCH_segments.json` to the
//! workspace root with queries/sec per mode, segment-pruning and
//! block-read statistics and the modelled storage latency of the cold
//! path, so the repository accumulates a storage-path perf trajectory
//! across changes.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use focus_cnn::{GroundTruthCnn, ModelSpec};
use focus_core::segment_ingest::{SealPolicy, SegmentedIngest, SegmentedIngestOutput};
use focus_core::{IngestCnn, IngestParams, QueryRequest, QueryServer, SegmentedCorpus};
use focus_index::{QueryFilter, SegmentStore};
use focus_runtime::{GpuClusterSpec, GpuMeter, IoMeter, SegmentLoadCost};
use focus_video::profile::profile_by_name;
use focus_video::VideoDataset;

/// Seconds of stream per segment; the workload is sealed into
/// `duration / SEGMENT_SECS` segments per stream.
const SEGMENT_SECS: f64 = 20.0;

fn workload() -> Vec<VideoDataset> {
    let secs = focus_bench::bench_workload_secs(240.0);
    ["auburn_c", "lausanne"]
        .iter()
        .map(|name| VideoDataset::generate(profile_by_name(name).unwrap(), secs))
        .collect()
}

fn build_store(
    datasets: &[VideoDataset],
    name: &str,
) -> (SegmentedIngestOutput, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SegmentStore::create(&dir).unwrap();
    let output = SegmentedIngest::new(
        IngestCnn::generic(ModelSpec::cheap_cnn_1()),
        IngestParams {
            k: 10,
            ..IngestParams::default()
        },
        SealPolicy::every_secs(SEGMENT_SECS),
        2,
    )
    .ingest_to_store(datasets, &mut store, &GpuMeter::new())
    .unwrap();
    drop(store);
    (output, dir)
}

/// Time-restricted request mix: the dominant classes, each over a few
/// narrow windows of the timeline — the query shape segment pruning exists
/// for.
fn requests(datasets: &[VideoDataset]) -> Vec<QueryRequest> {
    let duration = datasets[0].frames.len() as f64 / datasets[0].profile.fps as f64;
    let classes = datasets[0].dominant_classes(3);
    let mut requests = Vec::new();
    for (i, class) in classes.iter().enumerate() {
        for w in 0..2 {
            let start = ((i * 2 + w) as f64 * SEGMENT_SECS) % duration.max(SEGMENT_SECS);
            let end = (start + SEGMENT_SECS).min(duration);
            requests.push(
                QueryRequest::new(*class)
                    .with_filter(QueryFilter::any().with_time_range(start, end)),
            );
        }
    }
    requests
}

fn server() -> QueryServer {
    QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4))
}

/// Serves `reqs` over `corpus` and returns the total frame count.
fn serve_frames(
    srv: &QueryServer,
    corpus: &SegmentedCorpus,
    reqs: &[QueryRequest],
    io: &IoMeter,
) -> usize {
    srv.serve_corpus(corpus, None, reqs, &GpuMeter::new(), io)
        .unwrap()
        .outcomes
        .iter()
        .map(|o| o.frames.len())
        .sum()
}

fn bench_segment_pruning(c: &mut Criterion) {
    let datasets = workload();
    let (output, dir) = build_store(&datasets, "focus_bench_segment_pruning");
    let reqs = requests(&datasets);
    let mut group = c.benchmark_group("segment_pruning");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reqs.len() as u64));

    group.bench_function(BenchmarkId::new("time_filtered", "monolithic"), |b| {
        b.iter(|| {
            server()
                .serve(&output.combined, &reqs, &GpuMeter::new())
                .iter()
                .map(|o| o.frames.len())
                .sum::<usize>()
        })
    });
    group.bench_function(BenchmarkId::new("time_filtered", "segmented_cold"), |b| {
        b.iter(|| {
            // A fresh open per iteration: empty LRU, every load from disk.
            let (store, _) = SegmentStore::open(&dir).unwrap();
            let corpus = SegmentedCorpus::from_output(store, &output);
            serve_frames(&server(), &corpus, &reqs, &IoMeter::new())
        })
    });
    group.bench_function(BenchmarkId::new("time_filtered", "segmented_warm"), |b| {
        let (store, _) = SegmentStore::open(&dir).unwrap();
        let corpus = SegmentedCorpus::from_output(store, &output);
        // Prime the LRU once; iterations then serve decoded segments.
        serve_frames(&server(), &corpus, &reqs, &IoMeter::new());
        b.iter(|| serve_frames(&server(), &corpus, &reqs, &IoMeter::new()))
    });
    group.finish();

    write_trajectory(&output, &dir, &reqs);
    std::fs::remove_dir_all(&dir).ok();
}

/// Measures the three modes directly and writes `BENCH_segments.json` for
/// future changes to compare against.
fn write_trajectory(output: &SegmentedIngestOutput, dir: &std::path::Path, reqs: &[QueryRequest]) {
    let time_fn = |f: &mut dyn FnMut() -> usize| {
        let runs = 3;
        let start = Instant::now();
        for _ in 0..runs {
            std::hint::black_box(f());
        }
        start.elapsed().as_secs_f64() / runs as f64
    };

    // Every timed run consumes a prebuilt server: constructing a server
    // spawns its worker pool, which would otherwise dominate small (smoke)
    // workloads and make rates incomparable across workload sizes.
    let mut servers: Vec<QueryServer> = (0..9).map(|_| server()).collect();

    let mut mono_servers: Vec<QueryServer> = servers.drain(..3).collect();
    let monolithic_secs = time_fn(&mut || {
        let srv = mono_servers.pop().expect("prebuilt server");
        srv.serve(&output.combined, reqs, &GpuMeter::new())
            .iter()
            .map(|o| o.frames.len())
            .sum()
    });

    let cold_io = IoMeter::new();
    let mut cold_servers: Vec<QueryServer> = servers.drain(..3).collect();
    let cold_secs = time_fn(&mut || {
        let (store, _) = SegmentStore::open(dir).unwrap();
        let corpus = SegmentedCorpus::from_output(store, output);
        let srv = cold_servers.pop().expect("prebuilt server");
        serve_frames(&srv, &corpus, reqs, &cold_io)
    });

    let (store, _) = SegmentStore::open(dir).unwrap();
    let corpus = SegmentedCorpus::from_output(store, output);
    let warm_io = IoMeter::new();
    serve_frames(&server(), &corpus, reqs, &warm_io);
    warm_io.reset();
    let mut warm_servers: Vec<QueryServer> = servers;
    let warm_secs = time_fn(&mut || {
        let srv = warm_servers.pop().expect("prebuilt server");
        serve_frames(&srv, &corpus, reqs, &warm_io)
    });

    // Pruning statistics from one representative pass (3 timed runs above).
    let runs = 3.0;
    let cold = cold_io.snapshot();
    let warm = warm_io.snapshot();
    let segments_total = corpus.store().len();
    let opened_per_query_cold = cold.segments_opened() as f64 / (runs * reqs.len() as f64);
    let blocks_per_query_cold = cold.block_loads as f64 / (runs * reqs.len() as f64);
    let model = SegmentLoadCost::default();

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"queries_per_wave\": {},\n", reqs.len()));
    json.push_str(&format!("  \"segments_total\": {segments_total},\n"));
    json.push_str(&format!(
        "  \"clusters_total\": {},\n",
        output.combined.index.len()
    ));
    json.push_str("  \"runs\": {\n");
    let entries = [
        ("monolithic", monolithic_secs),
        ("segmented_cold", cold_secs),
        ("segmented_warm", warm_secs),
    ];
    for (i, (name, secs)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{name}\": {{ \"secs\": {secs:.6}, \"queries_per_sec\": {:.1} }}{comma}\n",
            reqs.len() as f64 / secs
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"pruning\": {\n");
    json.push_str(&format!(
        "    \"segments_opened_per_query_cold\": {opened_per_query_cold:.2},\n"
    ));
    json.push_str(&format!(
        "    \"blocks_read_per_query_cold\": {blocks_per_query_cold:.2},\n"
    ));
    json.push_str(&format!(
        "    \"cold_loads\": {}, \"cold_bytes_read\": {},\n",
        cold.segment_loads, cold.bytes_read
    ));
    json.push_str(&format!(
        "    \"warm_cache_hit_rate\": {:.4},\n",
        warm.hit_rate()
    ));
    json.push_str(&format!(
        "    \"warm_block_hit_rate\": {:.4},\n",
        warm.block_hit_rate()
    ));
    json.push_str(&format!(
        "    \"modelled_cold_storage_secs\": {:.6}\n",
        model.stats_secs(&cold) / runs
    ));
    json.push_str("  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_segments.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_segment_pruning);
criterion_main!(benches);
