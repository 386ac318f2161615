//! Search-level meaningfulness diagnosis (§4.1–§4.2).
//!
//! Combines the steep-drop analysis of the final probabilities with
//! session-level signals (how many views the user dismissed) into the
//! verdict the paper's system reports: either "here is the natural set of
//! meaningful neighbors" or "this data is not amenable to meaningful
//! nearest-neighbor search".

use crate::transcript::Transcript;
use hinn_metrics::drop::{detect_steep_drop_sorted, DropConfig, DropVerdict};

/// The system's verdict on a completed search session.
#[derive(Clone, Debug, PartialEq)]
pub enum SearchDiagnosis {
    /// A natural, statistically coherent neighbor set exists.
    Meaningful {
        /// Size of the natural neighbor set (points above the cliff).
        natural_k: usize,
        /// Probability gap at the cliff.
        gap: f64,
        /// Mean probability above the cliff.
        top_mean: f64,
    },
    /// Nearest-neighbor search on this data is not meaningful.
    NotMeaningful {
        /// Largest probability gap observed.
        best_gap: f64,
        /// Human-readable explanation (dismissal rate, flat probabilities…).
        reason: String,
    },
}

impl SearchDiagnosis {
    /// `true` for the meaningful variant.
    pub fn is_meaningful(&self) -> bool {
        matches!(self, SearchDiagnosis::Meaningful { .. })
    }

    /// Derive the verdict from the final probabilities, sorted descending
    /// by `total_cmp`, and the transcript.
    pub fn derive_sorted(
        sorted_probabilities: &[f64],
        transcript: &Transcript,
        drop_config: &DropConfig,
    ) -> Self {
        let verdict = detect_steep_drop_sorted(sorted_probabilities, drop_config);
        let views = transcript.total_views();
        let dismissed = transcript.total_dismissed();
        let dismissal_rate = if views > 0 {
            dismissed as f64 / views as f64
        } else {
            1.0
        };
        match verdict {
            DropVerdict::Meaningful {
                natural_k,
                gap,
                top_mean,
            } => SearchDiagnosis::Meaningful {
                natural_k,
                gap,
                top_mean,
            },
            DropVerdict::NotMeaningful { best_gap } => {
                let mut reason = format!(
                    "no steep drop in the sorted meaningfulness probabilities \
                     (best gap {best_gap:.3})"
                );
                if dismissal_rate > 0.5 {
                    reason.push_str(&format!(
                        "; user dismissed {dismissed}/{views} views — no projection \
                         exposed a distinct query cluster"
                    ));
                }
                SearchDiagnosis::NotMeaningful { best_gap, reason }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transcript::{MajorRecord, MinorRecord};
    use hinn_linalg::Subspace;
    use hinn_user::UserResponse;

    fn transcript(picked: usize, dismissed: usize) -> Transcript {
        let mut minors = Vec::new();
        for i in 0..picked {
            minors.push(MinorRecord {
                major: 0,
                minor: i,
                projection: Subspace::full(2),
                variance_ratios: vec![],
                response: UserResponse::Threshold(0.1),
                n_picked: 5,
                query_peak_ratio: 0.8,
                profile: None,
                phases: None,
            });
        }
        for i in 0..dismissed {
            minors.push(MinorRecord {
                major: 0,
                minor: picked + i,
                projection: Subspace::full(2),
                variance_ratios: vec![],
                response: UserResponse::Discard,
                n_picked: 0,
                query_peak_ratio: 0.1,
                profile: None,
                phases: None,
            });
        }
        Transcript {
            majors: vec![MajorRecord {
                minors,
                n_points_before: 100,
                n_points_after: 50,
                overlap_with_previous: None,
            }],
            ..Transcript::default()
        }
    }

    #[test]
    fn cliffy_probabilities_are_meaningful() {
        let mut probs = vec![0.95; 8];
        probs.extend(vec![0.05; 92]);
        let d = SearchDiagnosis::derive_sorted(&probs, &transcript(5, 1), &DropConfig::default());
        match d {
            SearchDiagnosis::Meaningful { natural_k, .. } => assert_eq!(natural_k, 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flat_probabilities_not_meaningful_with_reason() {
        let probs = vec![0.2; 100];
        let d = SearchDiagnosis::derive_sorted(&probs, &transcript(1, 9), &DropConfig::default());
        match d {
            SearchDiagnosis::NotMeaningful { reason, .. } => {
                assert!(reason.contains("no steep drop"));
                assert!(reason.contains("dismissed 9/10"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
        assert!(
            !SearchDiagnosis::derive_sorted(&probs, &transcript(1, 9), &DropConfig::default())
                .is_meaningful()
        );
    }

    #[test]
    fn low_dismissal_rate_omits_dismissal_note() {
        let probs = vec![0.2; 100];
        let d = SearchDiagnosis::derive_sorted(&probs, &transcript(9, 1), &DropConfig::default());
        match d {
            SearchDiagnosis::NotMeaningful { reason, .. } => {
                assert!(!reason.contains("dismissed"), "{reason}");
            }
            other => panic!("{other:?}"),
        }
    }
}
