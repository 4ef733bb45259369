//! Answer checks: structural checks on every outcome, recall and precision
//! against the paper's one-second ground truth (§6.1), and a digest of the
//! answers.

use std::collections::{BTreeMap, HashMap, HashSet};

use focus_cnn::Classifier;
use focus_cnn::GroundTruthCnn;
use focus_core::accuracy::SEGMENT_PRESENCE_THRESHOLD;
use focus_core::query::track::TrackFilter;
use focus_core::query::{AnytimeOutcome, AnytimeTermination, QueryOutcome, QueryRequest};
use focus_core::GroundTruthLabels;
use focus_video::{ClassId, FrameId, ObjectId, StreamId, TrackId, VideoDataset};

use crate::inputs::track_menu;

/// Recall and precision of one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Share of ground-truth-positive seconds the answer covers.
    pub recall: f64,
    /// Share of covered seconds that are ground-truth positive.
    pub precision: f64,
}

struct StreamTruth {
    /// Maps returned frames to the seconds they cover.
    labels: GroundTruthLabels,
    /// Ground-truth-positive seconds of every class: entry 0 over all
    /// objects, entry `1 + i` over the objects of tracks menu filter `i`
    /// admits.
    truth: Vec<HashMap<ClassId, HashSet<u64>>>,
}

/// The reference the benchmark scores answers against.
pub struct Oracle {
    streams: BTreeMap<StreamId, StreamTruth>,
    homes: HashMap<ObjectId, (StreamId, FrameId)>,
    menu: Vec<TrackFilter>,
}

impl Oracle {
    /// Labels every object of `datasets` with the ground-truth CNN.
    pub fn new(datasets: Vec<VideoDataset>) -> Self {
        let gt = GroundTruthCnn::resnet152();
        let menu = track_menu();
        let mut homes = HashMap::new();
        let mut streams = BTreeMap::new();
        for dataset in &datasets {
            for frame in &dataset.frames {
                for obj in &frame.objects {
                    homes.insert(obj.object_id, (frame.stream_id, frame.frame_id));
                }
            }
            let traces = dataset.track_traces();
            let mut truth = vec![truth_by_class(dataset, &gt, |_| true)];
            for filter in &menu {
                let admitted: HashSet<TrackId> = traces
                    .iter()
                    .filter(|(_, trace)| filter.admits_trace(trace))
                    .map(|((_, track), _)| *track)
                    .collect();
                truth.push(truth_by_class(dataset, &gt, |t| admitted.contains(&t)));
            }
            let labels = GroundTruthLabels::compute(dataset, &gt);
            streams.insert(dataset.profile.stream_id, StreamTruth { labels, truth });
        }
        Self {
            streams,
            homes,
            menu,
        }
    }

    /// Checks one outcome's shape against its request and scores it.
    ///
    /// Only whole seconds inside the request's window and before
    /// `ingested_secs` are scored: a partly ingested second, or one the
    /// window cuts, cannot be fully answered.
    pub fn check(
        &self,
        request: &QueryRequest,
        outcome: &QueryOutcome,
        ingested_secs: f64,
    ) -> Result<Score, String> {
        if outcome.class != request.class {
            return Err(format!(
                "outcome class {:?} for a {:?} request",
                outcome.class, request.class
            ));
        }
        if !outcome.frames.windows(2).all(|w| w[0] < w[1])
            || !outcome.objects.windows(2).all(|w| w[0] < w[1])
        {
            return Err("frames or objects not sorted and distinct".into());
        }
        if outcome.confirmed_clusters > outcome.matched_clusters {
            return Err("more clusters confirmed than matched".into());
        }
        let wanted: Vec<StreamId> = match &request.filter.streams {
            Some(set) => self
                .streams
                .keys()
                .filter(|s| set.contains(s))
                .copied()
                .collect(),
            None => self.streams.keys().copied().collect(),
        };
        let mut by_stream: BTreeMap<StreamId, Vec<FrameId>> = BTreeMap::new();
        let mut frames: Vec<FrameId> = Vec::with_capacity(outcome.objects.len());
        for object in &outcome.objects {
            let Some(&(stream, frame)) = self.homes.get(object) else {
                return Err(format!("unknown object {object:?}"));
            };
            if !wanted.contains(&stream) {
                return Err(format!(
                    "object {object:?} from unrequested stream {stream:?}"
                ));
            }
            by_stream.entry(stream).or_default().push(frame);
            frames.push(frame);
        }
        frames.sort();
        frames.dedup();
        if frames != outcome.frames {
            return Err("frames are not exactly the returned objects' frames".into());
        }

        let (from, to) = request.filter.time_range.unwrap_or((0.0, f64::INFINITY));
        let first = from.max(0.0).ceil() as u64;
        let end = to.min(ingested_secs).floor().max(0.0) as u64;
        let scorable = |s: &u64| (first..end).contains(s);
        let variant = if request.tracks.is_empty() {
            0
        } else {
            let position = self.menu.iter().position(|f| *f == request.tracks);
            1 + position.ok_or("track filter outside the menu")?
        };
        let (mut correct, mut truth_n, mut retrieved_n) = (0usize, 0usize, 0usize);
        for stream in wanted {
            let truth = &self.streams[&stream];
            let returned = by_stream.remove(&stream).unwrap_or_default();
            let retrieved = truth.labels.retrieved_segments(&returned);
            let positive = truth.truth[variant].get(&request.class);
            for second in retrieved.iter().filter(|s| scorable(s)) {
                retrieved_n += 1;
                correct += usize::from(positive.is_some_and(|p| p.contains(second)));
            }
            truth_n += positive.map_or(0, |p| p.iter().filter(|s| scorable(s)).count());
        }
        let ratio = |n: usize, d: usize| if d == 0 { 1.0 } else { n as f64 / d as f64 };
        Ok(Score {
            recall: ratio(correct, truth_n),
            precision: ratio(correct, retrieved_n),
        })
    }
}

/// Ground-truth-positive seconds of every class of `dataset`, counting only
/// objects whose track `admit` accepts, by the rule of
/// [`GroundTruthLabels::truth_segments`]: a class is present in a second
/// when the ground-truth CNN reports it in at least
/// [`SEGMENT_PRESENCE_THRESHOLD`] of that second's frames. One pass serves
/// every class.
pub fn truth_by_class(
    dataset: &VideoDataset,
    gt: &GroundTruthCnn,
    admit: impl Fn(TrackId) -> bool,
) -> HashMap<ClassId, HashSet<u64>> {
    let fps = dataset.profile.fps.max(1) as u64;
    let mut frames_in: HashMap<u64, usize> = HashMap::new();
    let mut present: HashMap<(ClassId, u64), usize> = HashMap::new();
    for frame in &dataset.frames {
        let second = frame.frame_id.0 / fps;
        *frames_in.entry(second).or_insert(0) += 1;
        let mut classes: Vec<ClassId> = frame
            .objects
            .iter()
            .filter(|o| admit(o.track_id))
            .map(|o| gt.classify_top1(o))
            .collect();
        classes.sort();
        classes.dedup();
        for class in classes {
            *present.entry((class, second)).or_insert(0) += 1;
        }
    }
    let mut truth: HashMap<ClassId, HashSet<u64>> = HashMap::new();
    for ((class, second), count) in present {
        if count as f64 / frames_in[&second] as f64 >= SEGMENT_PRESENCE_THRESHOLD {
            truth.entry(class).or_default().insert(second);
        }
    }
    truth
}

/// Checks that an anytime call ran to exhaustion and that its partials add
/// up to its outcome.
pub fn check_anytime(result: &AnytimeOutcome) -> Result<(), String> {
    if result.termination != AnytimeTermination::CandidatesExhausted {
        return Err(format!("anytime stopped early: {:?}", result.termination));
    }
    let mut streamed: Vec<ObjectId> = result
        .partials
        .iter()
        .flat_map(|p| p.new_results.iter().copied())
        .collect();
    streamed.sort();
    if streamed != result.outcome.objects {
        return Err("anytime partials do not add up to the outcome".into());
    }
    let spent: usize = result.partials.iter().map(|p| p.inferences_spent).sum();
    if spent != result.fresh_inferences {
        return Err("anytime partials' inferences differ from the total".into());
    }
    Ok(())
}

/// FNV-1a digest of a sequence of answers' frames and objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds one answer in.
    pub fn add(&mut self, outcome: &QueryOutcome) {
        self.word(outcome.class.0 as u64);
        self.word(outcome.frames.len() as u64);
        for frame in &outcome.frames {
            self.word(frame.0);
        }
        self.word(outcome.objects.len() as u64);
        for object in &outcome.objects {
            self.word(object.0);
        }
    }
}
