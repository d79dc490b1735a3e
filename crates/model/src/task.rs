//! Application tasks.
//!
//! §3.3: "We model an application task as a sequence of invocations of
//! objects and services distributed across multiple processors. The
//! execution of the application is triggered by users." A task names the
//! content it wants (`id_t`), where it starts (the format the source is
//! stored in) and where it must end (one of the formats acceptable to the
//! receiver), plus its QoS requirement set.

use crate::media::MediaFormat;
use crate::qos::QosSpec;
use arm_util::{NodeId, SimTime, TaskId};
use serde::{Deserialize, Serialize};

/// Relative importance of a task (`Importance_t`, §3.3). Higher is more
/// important. Used by benefit-aware shedding and as a scheduler tiebreak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Importance(u8);

impl Importance {
    /// Lowest importance.
    pub const LOW: Importance = Importance(1);
    /// Default importance.
    pub const NORMAL: Importance = Importance(5);
    /// Highest importance.
    pub const CRITICAL: Importance = Importance(10);

    /// Creates an importance level, clamped to `1..=10`.
    pub fn new(value: u8) -> Self {
        Importance(value.clamp(1, 10))
    }

    /// The numeric level.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Importance as a weight in `[0.1, 1.0]`.
    pub fn weight(self) -> f64 {
        self.0 as f64 / 10.0
    }
}

impl Default for Importance {
    fn default() -> Self {
        Importance::NORMAL
    }
}

/// A user-submitted application task: the input to the allocation algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique task identifier.
    pub id: TaskId,
    /// Name of the requested content (`id_t` in §4.3) — e.g. a media
    /// object name.
    pub name: String,
    /// The peer that submitted the query and will receive the result.
    pub requester: NodeId,
    /// The application state the content currently is in (e.g. the format
    /// the source stores).
    pub initial_format: MediaFormat,
    /// Output states acceptable to the user ("a set of acceptable
    /// bitrates, resolutions and codecs", §4.3). The allocator may satisfy
    /// any one of them.
    pub acceptable_formats: Vec<MediaFormat>,
    /// QoS requirement set `q`.
    pub qos: QosSpec,
    /// When the task was initiated (deadlines are relative to this).
    pub submitted_at: SimTime,
    /// How long the session streams for, in seconds of virtual time; the
    /// services it holds stay loaded for this long.
    pub session_secs: f64,
}

impl TaskSpec {
    /// Absolute deadline of the task.
    pub fn absolute_deadline(&self) -> SimTime {
        self.submitted_at.saturating_add(self.qos.deadline)
    }

    /// True if `format` satisfies the user.
    pub fn accepts(&self, format: MediaFormat) -> bool {
        self.acceptable_formats.contains(&format)
    }
}

/// The lifecycle of a task as tracked by the Resource Manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskOutcome {
    /// Completed before its absolute deadline.
    CompletedOnTime,
    /// Completed, but after its deadline (a soft real-time miss).
    CompletedLate,
    /// Rejected at admission (no feasible allocation anywhere).
    Rejected,
    /// Started but never finished (e.g. unrepaired peer failure).
    Failed,
}

impl TaskOutcome {
    /// True for outcomes where the user got their content.
    pub fn is_completed(self) -> bool {
        matches!(
            self,
            TaskOutcome::CompletedOnTime | TaskOutcome::CompletedLate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_util::SimDuration;

    fn spec() -> TaskSpec {
        TaskSpec {
            id: TaskId::new(1),
            name: "trailer".into(),
            requester: NodeId::new(9),
            initial_format: MediaFormat::paper_source(),
            acceptable_formats: vec![MediaFormat::paper_target()],
            qos: QosSpec::with_deadline(SimDuration::from_secs(3)),
            submitted_at: SimTime::from_secs(10),
            session_secs: 60.0,
        }
    }

    #[test]
    fn importance_clamps() {
        assert_eq!(Importance::new(0).value(), 1);
        assert_eq!(Importance::new(200).value(), 10);
        assert_eq!(Importance::new(5), Importance::NORMAL);
        assert!(Importance::CRITICAL > Importance::LOW);
        assert!((Importance::CRITICAL.weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absolute_deadline() {
        assert_eq!(spec().absolute_deadline(), SimTime::from_secs(13));
        // A deadline past the end of time (a task decoded off the wire may
        // carry any value) is the end of time, not an overflow.
        let mut far = spec();
        far.qos.deadline = SimDuration::MAX;
        assert_eq!(far.absolute_deadline(), SimTime::MAX);
    }

    #[test]
    fn accepts_only_listed_formats() {
        let t = spec();
        assert!(t.accepts(MediaFormat::paper_target()));
        assert!(!t.accepts(MediaFormat::paper_source()));
    }

    #[test]
    fn outcome_classification() {
        assert!(TaskOutcome::CompletedOnTime.is_completed());
        assert!(TaskOutcome::CompletedLate.is_completed());
        assert!(!TaskOutcome::Rejected.is_completed());
        assert!(!TaskOutcome::Failed.is_completed());
    }
}
