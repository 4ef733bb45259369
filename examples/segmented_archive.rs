//! Segmented archive: durable, time-partitioned index storage with pruned
//! time-window queries.
//!
//! A surveillance deployment ingests continuously for weeks; the index
//! cannot live as one in-memory map that dies with the process. This
//! example shows the storage subsystem end to end:
//!
//! 1. ingest two cameras, sealing the index into durable 30-second
//!    segments as ingest progresses,
//! 2. reopen the store from disk (crash recovery path) and serve
//!    time-windowed queries that open only the intersecting segments,
//! 3. compact the small segments into larger ones and show the results
//!    are unchanged.
//!
//! Run with `cargo run --release --example segmented_archive`.

use focus::cnn::GroundTruthCnn;
use focus::core::segment_ingest::{SealPolicy, SegmentedIngest};
use focus::core::{IngestCnn, IngestParams, QueryRequest, QueryServer, SegmentedCorpus};
use focus::index::{QueryFilter, SegmentStore};
use focus::runtime::{GpuClusterSpec, GpuMeter, IoMeter, SegmentLoadCost};
use focus::video::profile::profile_by_name;
use focus::video::VideoDataset;

fn main() {
    // 1. Four minutes from two cameras, sealed every 30 seconds.
    let datasets: Vec<VideoDataset> = ["auburn_c", "lausanne"]
        .iter()
        .map(|name| VideoDataset::generate(profile_by_name(name).unwrap(), 240.0))
        .collect();
    let dir = std::env::temp_dir().join("focus_example_segmented_archive");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SegmentStore::create(&dir).expect("fresh store");

    let ingest = SegmentedIngest::new(
        IngestCnn::generic(focus::cnn::ModelSpec::cheap_cnn_1()),
        IngestParams {
            k: 10,
            ..IngestParams::default()
        },
        SealPolicy::every_secs(30.0),
        2,
    );
    let meter = GpuMeter::new();
    let output = ingest
        .ingest_to_store(&datasets, &mut store, &meter)
        .expect("segmented ingest");
    println!(
        "ingested {} objects from {} cameras into {} durable segments ({} clusters, {:.1} GPU-s)",
        output.combined.objects_total,
        datasets.len(),
        output.sealed.len(),
        output.combined.clusters,
        output.combined.gpu_cost.seconds(),
    );
    for meta in output.sealed.iter().take(3) {
        println!(
            "  {}  [{:6.1}s, {:6.1}s]  {} clusters  checksum {:#018x}",
            meta.file, meta.t_start, meta.t_end, meta.clusters, meta.checksum
        );
    }
    println!("  ... ({} more)", output.sealed.len().saturating_sub(3));

    // 2. Reopen from disk — the path a restarted service takes — and serve
    //    a time-windowed investigation: "cars around the 2-minute mark".
    drop(store);
    let (store, report) = SegmentStore::open(&dir).expect("reopen");
    assert!(report.is_clean(), "unexpected repairs: {report:?}");
    println!(
        "\nreopened store: {} segments, {} clusters, manifest clean",
        store.len(),
        store.total_clusters()
    );
    let corpus = SegmentedCorpus::from_output(store, &output);
    let server = QueryServer::new(GroundTruthCnn::resnet152(), GpuClusterSpec::new(4));
    let class = datasets[0].dominant_classes(1)[0];
    let io = IoMeter::new();
    let window =
        QueryRequest::new(class).with_filter(QueryFilter::any().with_time_range(110.0, 130.0));
    let outcomes = server
        .serve_corpus(
            &corpus,
            None,
            std::slice::from_ref(&window),
            &GpuMeter::new(),
            &io,
        )
        .expect("segmented serve")
        .outcomes;
    let stats = io.snapshot();
    println!(
        "time-window query [110s, 130s] for {class}: {} frames from {} confirmed clusters",
        outcomes[0].frames.len(),
        outcomes[0].confirmed_clusters
    );
    println!(
        "  opened {} of {} segments (pruned {}), {} cold loads / {} KiB read, ~{:.1} ms modelled storage",
        stats.segments_opened(),
        corpus.store().len(),
        corpus.store().len() - stats.segments_opened(),
        stats.segment_loads,
        stats.bytes_read / 1024,
        SegmentLoadCost::default().stats_secs(&stats) * 1e3,
    );

    // A repeat of the same window is served from the LRU: no disk reads.
    io.reset();
    server
        .serve_corpus(
            &corpus,
            None,
            std::slice::from_ref(&window),
            &GpuMeter::new(),
            &io,
        )
        .expect("warm serve");
    println!(
        "  repeat: {} cache hits, {} cold loads (segment LRU warm)",
        io.snapshot().cache_hits,
        io.snapshot().segment_loads
    );

    // 3. Compact: fold the 30-second segments into few large ones, then
    //    prove the query answer did not change.
    let mut corpus = corpus;
    let before = outcomes;
    let folded = corpus.store_mut().compact(1000).expect("compaction");
    println!(
        "\ncompacted: folded {} segments away, {} remain",
        folded,
        corpus.store().len()
    );
    let after = server
        .serve_corpus(
            &corpus,
            None,
            std::slice::from_ref(&window),
            &GpuMeter::new(),
            &IoMeter::new(),
        )
        .expect("post-compaction serve")
        .outcomes;
    assert_eq!(before[0].frames, after[0].frames);
    assert_eq!(before[0].objects, after[0].objects);
    println!(
        "post-compaction query results are identical — storage layout is invisible to queries"
    );

    std::fs::remove_dir_all(&dir).ok();
}
