//! Driving one interactive session, in process or over the wire, with
//! every public call wrapped in a `bench.*` span and timed by the benchmark.

use hinn::core::Step;
use hinn::net::{NetClient, Reply, Request, ViewSummary};
use hinn::obs::span;
use hinn::serve::{SessionId, SessionManager};
use hinn::user::{HeuristicUser, UserModel, UserResponse};
use std::time::Instant;

/// Tenant every benchmark client speaks for.
pub const TENANT: &str = "bench";

/// A session that runs longer than this is reported as a failure.
const MAX_VIEWS: usize = 1000;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A finished session's answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Neighbour ids, best first.
    pub neighbors: Vec<usize>,
    /// Meaningfulness probabilities aligned with `neighbors`.
    pub probabilities: Vec<f64>,
    /// Major iterations the session ran.
    pub majors: usize,
}

impl Outcome {
    /// A structural check of the answer: ids inside the dataset, one
    /// finite probability in `[0, 1]` per id.
    pub fn validate(&self, n_rows: usize) -> Result<(), String> {
        if self.neighbors.len() != self.probabilities.len() {
            return Err(format!(
                "{} neighbours but {} probabilities",
                self.neighbors.len(),
                self.probabilities.len()
            ));
        }
        if let Some(id) = self.neighbors.iter().find(|&&id| id >= n_rows) {
            return Err(format!("neighbour id {id} outside {n_rows} rows"));
        }
        if let Some(p) = self
            .probabilities
            .iter()
            .find(|p| !(p.is_finite() && (0.0..=1.0).contains(*p)))
        {
            return Err(format!("probability {p} outside [0, 1]"));
        }
        Ok(())
    }
}

/// One session as the client saw it.
#[derive(Clone, Debug)]
pub struct Trip {
    /// Query to first view, milliseconds.
    pub open_ms: f64,
    /// Submit to next view (or to the outcome, for the last submit).
    pub view_ms: Vec<f64>,
    /// The responses given, in order (what a replay feeds back).
    pub responses: Vec<UserResponse>,
    /// The epoch the first view was stamped with (wire sessions).
    pub first_epoch: Option<u64>,
    /// The answer.
    pub outcome: Outcome,
}

impl Trip {
    /// Calls the session made: one open plus one per submit.
    pub fn calls(&self) -> usize {
        1 + self.view_ms.len()
    }
}

/// FNV-1a over a session-ordered sequence of outcomes: neighbour ids and
/// the exact bits of every probability.
pub fn digest<'a>(outcomes: impl IntoIterator<Item = &'a Outcome>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for o in outcomes {
        eat(o.neighbors.len() as u64);
        for (&id, &p) in o.neighbors.iter().zip(&o.probabilities) {
            eat(id as u64);
            eat(p.to_bits());
        }
    }
    h
}

/// Run a session against an in-process manager, answering every view with
/// a fresh [`HeuristicUser`].
pub fn run_inproc(mgr: &SessionManager, query: &[f64]) -> Result<Trip, String> {
    let t = Instant::now();
    let (id, step) = {
        let _s = span("bench.open");
        mgr.open(query).map_err(|e| format!("open: {e}"))?
    };
    let open_ms = ms_since(t);
    let mut user = HeuristicUser::default();
    drive_inproc(mgr, id, step, open_ms, |view| {
        let _s = span("bench.respond");
        user.respond(view.profile(), view.context())
    })
}

/// Replay recorded `responses` through an in-process manager.
pub fn replay_inproc(
    mgr: &SessionManager,
    query: &[f64],
    responses: &[UserResponse],
) -> Result<Trip, String> {
    let (id, step) = mgr.open(query).map_err(|e| format!("open: {e}"))?;
    let mut script = responses.iter().cloned();
    drive_inproc(mgr, id, step, 0.0, |_| {
        script.next().unwrap_or(UserResponse::Discard)
    })
}

fn drive_inproc(
    mgr: &SessionManager,
    id: SessionId,
    mut step: Step,
    open_ms: f64,
    mut respond: impl FnMut(&hinn::core::ViewRequest) -> UserResponse,
) -> Result<Trip, String> {
    let mut view_ms = Vec::new();
    let mut responses = Vec::new();
    loop {
        let view = match step {
            Step::Done(o) => {
                return Ok(Trip {
                    open_ms,
                    view_ms,
                    responses,
                    first_epoch: None,
                    outcome: Outcome {
                        // Aligned with the neighbours, as the wire reports them.
                        probabilities: o.neighbors.iter().map(|&i| o.probabilities[i]).collect(),
                        neighbors: o.neighbors,
                        majors: o.majors_run,
                    },
                });
            }
            Step::NeedResponse(view) => view,
        };
        if view_ms.len() == MAX_VIEWS {
            return Err(format!("session {id} did not finish in {MAX_VIEWS} views"));
        }
        let response = respond(&view);
        let t = Instant::now();
        step = {
            let _s = span("bench.submit");
            mgr.submit(id, response.clone())
                .map_err(|e| format!("submit: {e}"))?
        };
        view_ms.push(ms_since(t));
        responses.push(response);
    }
}

/// The wire user: mark the query's peak as the cluster when the query sits
/// in a dense region of the view, dismiss the view otherwise.
pub fn wire_response(view: &ViewSummary) -> UserResponse {
    if view.query_density > 0.1 * view.max_density {
        UserResponse::Threshold(0.5 * view.query_density)
    } else {
        UserResponse::Discard
    }
}

/// One round trip under the span `name`. A typed refusal is an error: the
/// benchmark's clients stay far below every admission limit.
pub fn call(client: &mut NetClient, name: &'static str, req: &Request) -> Result<Reply, String> {
    let reply = {
        let _s = span(name);
        client.call(req).map_err(|e| format!("{name}: {e}"))?
    };
    match reply {
        Reply::Error(e) => Err(format!("{name}: refused: {e:?}")),
        Reply::View(v) if v.shed != 0 => Err(format!("{name}: shed to level {}", v.shed)),
        reply => Ok(reply),
    }
}

/// Open a wire session; returns the open latency and the first reply.
pub fn open_wire(client: &mut NetClient, query: &[f64]) -> Result<(f64, Reply), String> {
    let t = Instant::now();
    let req = Request::Open {
        tenant: TENANT.to_string(),
        query: query.to_vec(),
    };
    let reply = call(client, "bench.open", &req)?;
    Ok((ms_since(t), reply))
}

/// Run a session over the wire, answering views with [`wire_response`].
pub fn run_wire(client: &mut NetClient, query: &[f64]) -> Result<Trip, String> {
    let (open_ms, mut reply) = open_wire(client, query)?;
    let first_epoch = match &reply {
        Reply::View(v) => v.epoch,
        _ => None,
    };
    let mut view_ms = Vec::new();
    let mut responses = Vec::new();
    loop {
        let view = match reply {
            Reply::Done(d) => {
                return Ok(Trip {
                    open_ms,
                    view_ms,
                    responses,
                    first_epoch,
                    outcome: Outcome {
                        neighbors: d.neighbors,
                        probabilities: d.probabilities,
                        majors: d.majors,
                    },
                })
            }
            Reply::View(v) => v,
            other => return Err(format!("unexpected reply {other:?}")),
        };
        if view_ms.len() == MAX_VIEWS {
            return Err(format!("session {} did not finish", view.session));
        }
        let response = {
            let _s = span("bench.respond");
            wire_response(&view)
        };
        let req = Request::Submit {
            session: view.session,
            major: view.major,
            minor: view.minor,
            response: response.clone(),
        };
        let t = Instant::now();
        reply = call(client, "bench.submit", &req)?;
        view_ms.push(ms_since(t));
        responses.push(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ids: &[usize], p: f64) -> Outcome {
        Outcome {
            neighbors: ids.to_vec(),
            probabilities: vec![p; ids.len()],
            majors: 2,
        }
    }

    #[test]
    fn digest_depends_on_order_ids_and_probability_bits() {
        let a = outcome(&[1, 2], 0.5);
        let b = outcome(&[3], 0.25);
        assert_eq!(digest([&a, &b]), digest([&a.clone(), &b.clone()]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
        assert_ne!(digest([&a]), digest([&outcome(&[1, 2], 0.5 + 1e-16)]));
        assert_ne!(digest([&a]), digest([&outcome(&[2, 1], 0.5)]));
    }

    #[test]
    fn validate_rejects_bad_answers() {
        assert!(outcome(&[0, 9], 0.5).validate(10).is_ok());
        assert!(outcome(&[10], 0.5).validate(10).is_err());
        assert!(outcome(&[1], f64::NAN).validate(10).is_err());
        assert!(outcome(&[1], 1.5).validate(10).is_err());
        let mut ragged = outcome(&[1], 0.5);
        ragged.probabilities.clear();
        assert!(ragged.validate(10).is_err());
    }
}
