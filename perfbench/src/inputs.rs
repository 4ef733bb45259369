//! Seeded inputs: the three video streams, the service configuration every
//! workload shares, and the request generators.
//!
//! Everything here is a pure function of the seed, so two runs with one
//! seed feed the program identical frames and identical requests.

use focus_core::query::track::{Region, TrackFilter, TrackPredicate};
use focus_core::query::{AnytimeMode, QueryRequest};
use focus_core::{IngestParams, SealPolicy, ServiceConfig, StreamWorkerConfig};
use focus_index::QueryFilter;
use focus_video::profile::profile_by_name;
use focus_video::{ClassId, Frame, StreamId, VideoDataset};

/// The streams every workload ingests.
pub const STREAMS: [&str; 3] = ["auburn_c", "lausanne", "cnn"];

/// Seconds of video per sealed segment.
pub const SEAL_SECS: f64 = 20.0;

/// Width of the live workload's "freshest seconds" window.
pub const FRESH_SECS: f64 = 5.0;

/// Share of archive requests that carry a track filter.
pub const TRACK_SHARE: f64 = 0.2;

/// Share of archive requests served through the anytime path.
pub const ANYTIME_SHARE: f64 = 0.1;

/// Mixes the workload seed into the query generator's stream.
const QUERY_SEED_SALT: u64 = 0x5EED_F0C5;

/// Mixes the workload seed into the choice of the recordings' start.
const START_SEED_SALT: u64 = 0x57A2_7000;

/// The seed picks the recordings' start second below this.
pub const START_SECONDS: u64 = 60;

/// SplitMix64: a small, fast, well-mixed generator with no dependencies.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The three streams, each `secs` seconds long, cut from each camera's
/// recording at a start second the seed picks in `0..START_SECONDS` and
/// rebased to start at zero.
///
/// The seed moves the start instead of reseeding the cameras: a reseeded
/// camera gets a new class palette and new busy periods, and the content
/// of ten reseeded cameras varies more (ingest cost by ±20%) than any
/// regression bound could tolerate.
pub fn datasets(seed: u64, secs: usize) -> Vec<VideoDataset> {
    let start = (Rng::new(seed ^ START_SEED_SALT).next_u64() % START_SECONDS) as usize;
    STREAMS
        .iter()
        .map(|name| {
            let profile = profile_by_name(name).expect("built-in stream profile");
            let fps = profile.fps as u64;
            let recording = VideoDataset::generate(profile.clone(), (start + secs) as f64);
            let skip = start as u64 * fps;
            let frames = recording
                .frames
                .into_iter()
                .skip(skip as usize)
                .map(|mut frame| {
                    frame.frame_id.0 -= skip;
                    frame.timestamp_secs -= start as f64;
                    for object in &mut frame.objects {
                        object.frame_id.0 -= skip;
                    }
                    frame
                })
                .collect();
            VideoDataset::from_frames(profile, secs as f64, frames)
        })
        .collect()
}

/// The frames of `second` of one stream.
pub fn second_of(dataset: &VideoDataset, second: usize) -> &[Frame] {
    let fps = dataset.profile.fps as usize;
    let end = ((second + 1) * fps).min(dataset.frames.len());
    &dataset.frames[(second * fps).min(end)..end]
}

/// One tick of input per second of video: that second's frames of every
/// stream, in stream order.
pub fn ticks(datasets: &[VideoDataset], secs: usize) -> Vec<Vec<Frame>> {
    (0..secs)
        .map(|second| {
            datasets
                .iter()
                .flat_map(|ds| second_of(ds, second).iter().cloned())
                .collect()
        })
        .collect()
}

/// The configuration of every service and fleet shard: defaults, with a
/// seal every [`SEAL_SECS`] seconds of video and specialization off (so
/// the generic ingest model runs with the default ingest parameters).
///
/// Specialization trains on a ground-truth sample of the content, and
/// whether the queried classes land in the specialized model or route
/// through OTHER decides how much of the store a query scans. On inputs
/// that differ only in their start second, that alone moved archive
/// throughput by 2× between seeds.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        worker: StreamWorkerConfig {
            params: IngestParams::default(),
            bootstrap_secs: 1e9,
            retrain_interval_secs: 1e9,
            gt_label_fraction: 0.0,
            ..StreamWorkerConfig::default()
        },
        seal: SealPolicy::every_secs(SEAL_SECS),
        ..ServiceConfig::default()
    }
}

/// The fixed menu of track filters archive requests draw from: region
/// visits, entries, exits, transits, dwells and speed bounds over the
/// 1280×720 frame.
pub fn track_menu() -> Vec<TrackFilter> {
    let left = Region::new(0.0, 0.0, 640.0, 720.0);
    let right = Region::new(640.0, 0.0, 1280.0, 720.0);
    let band = Region::new(500.0, 120.0, 780.0, 600.0);
    vec![
        TrackFilter::new().and(TrackPredicate::visits(left)),
        TrackFilter::new().and(TrackPredicate::enters(band)),
        TrackFilter::new().and(TrackPredicate::exits(right)),
        TrackFilter::new().and(TrackPredicate::transit(left, right)),
        TrackFilter::new().and(TrackPredicate::dwells(band, 3.0)),
        TrackFilter::new().and(TrackPredicate::speed_above(60.0)),
        TrackFilter::new()
            .and(TrackPredicate::speed_below(45.0))
            .and(TrackPredicate::visits(left)),
    ]
}

/// Seeded request generator shared by the three workloads.
#[derive(Debug, Clone)]
pub struct RequestGen {
    seed: u64,
    rng: Rng,
    /// Classes present in the inputs, most frequent first.
    classes: Vec<ClassId>,
    streams: Vec<StreamId>,
    tracks: Vec<TrackFilter>,
    anytime_share: f64,
}

impl RequestGen {
    /// A generator over the classes and streams of `datasets`. Requests
    /// go through the anytime path with probability `anytime_share`.
    pub fn new(seed: u64, datasets: &[VideoDataset], anytime_share: f64) -> Self {
        let mut counts: std::collections::BTreeMap<ClassId, usize> = Default::default();
        for ds in datasets {
            for (class, n) in ds.class_histogram() {
                *counts.entry(class).or_insert(0) += n;
            }
        }
        let mut classes: Vec<(ClassId, usize)> = counts.into_iter().collect();
        classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self {
            seed,
            rng: Rng::new(seed ^ QUERY_SEED_SALT),
            classes: classes.into_iter().map(|(c, _)| c).collect(),
            streams: datasets.iter().map(|ds| ds.profile.stream_id).collect(),
            tracks: track_menu(),
            anytime_share,
        }
    }

    /// The generator of live session `session`: session 0 is this one,
    /// later sessions draw their own requests, so the tail of a run's
    /// latencies comes from many distinct requests rather than one
    /// session's few heaviest ones repeated.
    pub fn session(&self, session: usize) -> Self {
        let salt = (session as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            rng: Rng::new(self.seed ^ QUERY_SEED_SALT ^ salt),
            ..self.clone()
        }
    }

    /// A class skewed toward the common ones: rank `n·u⁴` puts 56% of
    /// draws in the top tenth while every class keeps a chance.
    fn class(&mut self) -> ClassId {
        let rank = (self.classes.len() as f64 * self.rng.unit().powi(4)) as usize;
        self.classes[rank.min(self.classes.len() - 1)]
    }

    /// A window of 2% to 100% of `[0, horizon)`, uniform in length.
    ///
    /// With shorter windows (log-uniform lengths) half the requests
    /// returned nothing, and the median latency sat on the boundary
    /// between empty and non-empty answers, where it jumped by ±12%
    /// between seeds.
    fn window(&mut self, horizon: f64) -> (f64, f64) {
        let len = horizon * (0.02 + 0.98 * self.rng.unit());
        let start = (horizon - len) * self.rng.unit();
        (start, start + len)
    }

    /// Restrictions every random request draws: a window, `kx` and a
    /// stream subset (all streams half the time, else one or two).
    fn filter(&mut self, horizon: f64) -> QueryFilter {
        let (from, to) = self.window(horizon);
        let mut filter = QueryFilter::any().with_time_range(from, to);
        if self.rng.unit() < 0.4 {
            filter = filter.with_kx(1);
        }
        if self.rng.unit() < 0.5 {
            let first = self.rng.below(self.streams.len());
            let mut subset = vec![self.streams[first]];
            if self.rng.unit() < 0.4 {
                let second =
                    (first + 1 + self.rng.below(self.streams.len() - 1)) % self.streams.len();
                subset.push(self.streams[second]);
            }
            filter = filter.with_streams(subset);
        }
        filter
    }

    /// One archive request over `[0, horizon)`: a skewed class, a random
    /// window, `kx` and stream subset; a track filter with probability
    /// [`TRACK_SHARE`]; the anytime path with the generator's share, with
    /// a round budget of 4, 8 or 16 and run to exhaustion.
    pub fn archive_request(&mut self, horizon: f64) -> QueryRequest {
        let class = self.class();
        let mut request = QueryRequest::new(class).with_filter(self.filter(horizon));
        if self.rng.unit() < TRACK_SHARE {
            let track = self.tracks[self.rng.below(self.tracks.len())].clone();
            request = request.with_tracks(track);
        }
        if self.rng.unit() < self.anytime_share {
            request = request.with_anytime(AnytimeMode::incremental(4 << self.rng.below(3)));
        }
        request
    }

    /// A wave of 1 to 3 archive requests (the fleet workload's calls).
    pub fn archive_wave(&mut self, horizon: f64) -> Vec<QueryRequest> {
        let n = 1 + self.rng.below(3);
        (0..n).map(|_| self.archive_request(horizon)).collect()
    }

    /// The live workload's wave at `now` seconds: one request for a common
    /// class over the freshest [`FRESH_SECS`] (only the tail holds them),
    /// then 1 to 3 requests with a random class and window over `[0, now)`.
    pub fn live_wave(&mut self, now: f64) -> Vec<QueryRequest> {
        let common = self.classes[self.rng.below(self.classes.len().min(5))];
        let mut wave = vec![QueryRequest::new(common)
            .with_filter(QueryFilter::any().with_time_range((now - FRESH_SECS).max(0.0), now))];
        for _ in 0..1 + self.rng.below(3) {
            let class = self.class();
            wave.push(QueryRequest::new(class).with_filter(self.filter(now)));
        }
        wave
    }
}
