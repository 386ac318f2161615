//! User models: the "human" half of the paper's human–computer system.
//!
//! The interactive loop (Figs. 2, 6) needs exactly one thing from the user
//! per projection: *where to put the density separator* `τ` — or the
//! decision to dismiss the view ("specifying an arbitrarily high value of
//! the noise threshold", §2.2). [`UserModel`] captures that interface, and
//! this crate ships several implementations:
//!
//! * [`HeuristicUser`] — the default *simulated* human: operates only on
//!   the rendered [`VisualProfile`] (densities the way a person would see
//!   them), dismisses views where the query sits in a sparse region
//!   (Fig. 1(b)) or the view has no contrast (Fig. 1(c)), and otherwise
//!   places the separator at the most *persistent* cluster threshold — the
//!   analogue of a person scrubbing the separator plane until the cluster
//!   outline stabilizes.
//! * [`NoisyUser`] — wraps any user with human imprecision: jittered
//!   thresholds, occasional wrong dismissals, occasional acceptance of a
//!   poor view.
//! * [`OracleUser`] — knows the ground-truth relevant set and picks the
//!   best achievable threshold; an upper bound for calibration, never used
//!   in headline results.
//! * [`ScriptedUser`] — replays a fixed response sequence (deterministic
//!   tests).
//! * [`TerminalUser`] — a *real* human: renders the profile as an ANSI/
//!   ASCII heatmap and reads the threshold from an input stream.
//! * [`RecordingUser`] — wraps any of the above and records the session's
//!   responses, which serialize ([`session_to_string`]) and replay
//!   ([`session_from_string`]) exactly.
//!
//! Simulated users exist because this reproduction cannot ship the paper's
//! human-subject loop (see DESIGN.md's substitution table); the terminal
//! user preserves the genuine human-in-the-loop path.

pub mod heuristic;
pub mod line;
pub mod noisy;
pub mod oracle;
pub mod polygon_user;
pub mod recording;
pub mod scripted;
pub mod terminal;

use hinn_kde::polygon::HalfPlane;
use hinn_kde::VisualProfile;

pub use heuristic::{HeuristicUser, HeuristicUserConfig};
pub use noisy::NoisyUser;
pub use oracle::OracleUser;
pub use polygon_user::PolygonUser;
pub use recording::{
    response_from_line, response_to_line, session_from_string, session_to_string, RecordingUser,
    SESSION_WIRE_HEADER,
};
pub use scripted::ScriptedUser;
pub use terminal::TerminalUser;

/// What the system tells the user about the view being shown (besides the
/// profile itself): which iteration it belongs to and which original data
/// points the profile's rows correspond to (the search loop filters the
/// data set between major iterations, so row `i` of the profile is original
/// point `original_ids[i]`).
#[derive(Clone, Debug)]
pub struct ViewContext {
    /// Major iteration number (0-based).
    pub major: usize,
    /// Minor iteration number within the major iteration (0-based).
    pub minor: usize,
    /// Original dataset index of each profile row.
    pub original_ids: Vec<usize>,
    /// Size of the *original* dataset (before the search loop's iterative
    /// filtering). Judgements like "is this selection a small distinct
    /// cluster?" are anchored to this, the way a person remembers how much
    /// data they started with.
    pub total_n: usize,
}

/// The user's reaction to one projection view.
#[derive(Clone, Debug, PartialEq)]
pub enum UserResponse {
    /// Density separator placed at noise threshold `τ` (Fig. 6).
    Threshold(f64),
    /// Polygonal separation on the lateral plot (§2.2's alternative mode).
    Polygon(Vec<HalfPlane>),
    /// View dismissed — nothing is picked in this projection.
    Discard,
}

/// The human (or simulated human) side of the interactive loop.
pub trait UserModel {
    /// React to one projection view.
    fn respond(&mut self, profile: &VisualProfile, ctx: &ViewContext) -> UserResponse;

    /// Display name for transcripts and reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_compare() {
        assert_eq!(UserResponse::Discard, UserResponse::Discard);
        assert_ne!(UserResponse::Discard, UserResponse::Threshold(0.1));
    }

    #[test]
    fn view_context_carries_ids() {
        let ctx = ViewContext {
            major: 1,
            minor: 3,
            original_ids: vec![5, 9, 11],
            total_n: 100,
        };
        assert_eq!(ctx.original_ids[2], 11);
    }
}
