//! Evaluation metrics and statistical helpers for `hinn`.
//!
//! * [`pr`] — precision / recall / F1 over retrieved-vs-relevant index sets
//!   (Table 1 of the paper).
//! * [`accuracy`] — majority-vote classification accuracy of a returned
//!   neighbor set (Table 2).
//! * [`contrast`] — the distance-distribution statistics behind the
//!   "meaningfulness" discussion (§1.1): relative contrast
//!   `(D_max − D_min)/D_min` of Beyer et al., and summary stats.
//! * [`normal`] — the standard normal CDF `Φ` used by the meaningfulness
//!   probability `P(j) = max(2Φ(M(j)) − 1, 0)` (Fig. 8).
//! * [`rank`] — rank-agreement statistics (Kendall's τ, Spearman's ρ,
//!   top-k overlap) quantifying §1's metric-instability observation.
//! * [`mod@drop`] — the steep-drop analysis of §4.1: sort the meaningfulness
//!   probabilities, find the cliff, and report the *natural* number of
//!   nearest neighbors — or diagnose that the data has no meaningful
//!   neighbors at all (§4.2).

pub mod accuracy;
pub mod contrast;
pub mod drop;
pub mod normal;
pub mod pr;
pub mod rank;

pub use accuracy::{classification_accuracy, majority_label};
pub use contrast::{epsilon_instability, relative_contrast, DistanceStats};
pub use drop::{detect_steep_drop, detect_steep_drop_sorted, DropConfig, DropVerdict};
pub use normal::normal_cdf;
pub use pr::PrecisionRecall;
pub use rank::{kendall_tau, spearman_rho, top_k_overlap};
