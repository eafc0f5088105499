//! Serving request/response types and latency accounting.

use std::fmt;

use pensieve_kvcache::SessionId;
use pensieve_model::{SimDuration, SimTime};

/// Unique request identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// One conversation turn submitted to a serving engine.
///
/// Token *counts* describe the turn; the simulation engines never look at
/// token values. `history_tokens` is the cumulative context length before
/// this turn — a stateless engine must re-prefill it, a stateful engine
/// hopes to find it cached.
///
/// Construct via [`Request::builder`]; the `#[non_exhaustive]` attribute
/// blocks struct-literal construction outside this crate, so every call
/// site goes through the builder's validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Request {
    /// Unique id.
    pub id: RequestId,
    /// Owning conversation.
    pub conv: SessionId,
    /// Arrival time at the serving system.
    pub arrival: SimTime,
    /// Length of the new user prompt in tokens.
    pub prompt_tokens: usize,
    /// Number of output tokens this turn will generate (from the trace;
    /// stands in for the position of the EOS token).
    pub output_tokens: usize,
    /// Conversation context length before this turn (all previous prompts
    /// and responses).
    pub history_tokens: usize,
}

impl Request {
    /// Starts building a request. [`RequestBuilder::build`] validates
    /// the combination and is the only construction path outside this
    /// crate.
    #[must_use]
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }
}

/// Why a [`RequestBuilder`] refused to produce a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestBuildError {
    /// No request id was given.
    MissingId,
    /// No owning session was given.
    MissingSession,
    /// The prompt was empty — every turn must carry at least one new
    /// query token (a zero-token prompt would produce an empty prefill).
    EmptyPrompt,
}

impl fmt::Display for RequestBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestBuildError::MissingId => write!(f, "request id not set"),
            RequestBuildError::MissingSession => write!(f, "owning session not set"),
            RequestBuildError::EmptyPrompt => {
                write!(f, "prompt_tokens must be at least 1")
            }
        }
    }
}

impl std::error::Error for RequestBuildError {}

/// Builder for [`Request`] with typed validation.
///
/// `arrival`, `output_tokens` and `history_tokens` default to zero; id,
/// session and a non-empty prompt are mandatory.
#[derive(Debug, Clone, Default)]
pub struct RequestBuilder {
    id: Option<RequestId>,
    session: Option<SessionId>,
    arrival: SimTime,
    prompt_tokens: usize,
    output_tokens: usize,
    history_tokens: usize,
}

impl RequestBuilder {
    /// Sets the unique request id (mandatory).
    #[must_use]
    pub fn id(mut self, id: RequestId) -> Self {
        self.id = Some(id);
        self
    }

    /// Sets the owning session (mandatory).
    #[must_use]
    pub fn session(mut self, session: SessionId) -> Self {
        self.session = Some(session);
        self
    }

    /// Sets the arrival time (default: [`SimTime::ZERO`]).
    #[must_use]
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.arrival = at;
        self
    }

    /// Sets the new-prompt length in tokens (mandatory, at least 1).
    #[must_use]
    pub fn prompt_tokens(mut self, tokens: usize) -> Self {
        self.prompt_tokens = tokens;
        self
    }

    /// Sets the output tokens this turn generates (default 0: the turn
    /// completes at the end of prefill).
    #[must_use]
    pub fn output_tokens(mut self, tokens: usize) -> Self {
        self.output_tokens = tokens;
        self
    }

    /// Sets the conversation context length before this turn (default 0).
    #[must_use]
    pub fn history_tokens(mut self, tokens: usize) -> Self {
        self.history_tokens = tokens;
        self
    }

    /// Validates and produces the request.
    ///
    /// # Errors
    ///
    /// [`RequestBuildError::MissingId`], [`RequestBuildError::MissingSession`]
    /// or [`RequestBuildError::EmptyPrompt`] when the corresponding field
    /// is absent or invalid.
    pub fn build(self) -> Result<Request, RequestBuildError> {
        let id = self.id.ok_or(RequestBuildError::MissingId)?;
        let conv = self.session.ok_or(RequestBuildError::MissingSession)?;
        if self.prompt_tokens == 0 {
            return Err(RequestBuildError::EmptyPrompt);
        }
        Ok(Request {
            id,
            conv,
            arrival: self.arrival,
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.output_tokens,
            history_tokens: self.history_tokens,
        })
    }
}

/// Completion record for one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id.
    pub id: RequestId,
    /// Owning conversation.
    pub conv: SessionId,
    /// Request arrival time.
    pub arrival: SimTime,
    /// When the first output token was produced.
    pub first_token: SimTime,
    /// When the last output token was produced.
    pub finish: SimTime,
    /// Output tokens generated.
    pub output_tokens: usize,
    /// Query tokens processed in the prefill phase (prompt + any
    /// recomputed history; for stateless engines the entire context).
    pub prefill_tokens: usize,
    /// History tokens served from cache (GPU hits + swap-ins).
    pub cached_history_tokens: usize,
}

impl Response {
    /// End-to-end latency.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `finish < arrival`.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.finish.duration_since(self.arrival)
    }

    /// The paper's normalized latency: end-to-end latency divided by the
    /// number of output tokens (§6.1).
    #[must_use]
    pub fn normalized_latency(&self) -> SimDuration {
        self.latency() / self.output_tokens.max(1) as f64
    }

    /// Time to first token.
    #[must_use]
    pub fn ttft(&self) -> SimDuration {
        self.first_token.duration_since(self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(arrival: f64, first: f64, finish: f64, out: usize) -> Response {
        Response {
            id: RequestId(1),
            conv: SessionId(1),
            arrival: SimTime::from_secs(arrival),
            first_token: SimTime::from_secs(first),
            finish: SimTime::from_secs(finish),
            output_tokens: out,
            prefill_tokens: 10,
            cached_history_tokens: 0,
        }
    }

    #[test]
    fn latency_accounting() {
        let r = resp(1.0, 1.5, 5.0, 40);
        assert_eq!(r.latency().as_secs(), 4.0);
        assert_eq!(r.normalized_latency().as_millis(), 100.0);
        assert_eq!(r.ttft().as_millis(), 500.0);
    }

    #[test]
    fn zero_output_does_not_divide_by_zero() {
        let r = resp(0.0, 1.0, 2.0, 0);
        assert_eq!(r.normalized_latency().as_secs(), 2.0);
    }

    #[test]
    fn builder_validates_required_fields() {
        assert_eq!(
            Request::builder().build().unwrap_err(),
            RequestBuildError::MissingId
        );
        assert_eq!(
            Request::builder().id(RequestId(1)).build().unwrap_err(),
            RequestBuildError::MissingSession
        );
        assert_eq!(
            Request::builder()
                .id(RequestId(1))
                .session(SessionId(2))
                .build()
                .unwrap_err(),
            RequestBuildError::EmptyPrompt
        );
        let r = Request::builder()
            .id(RequestId(1))
            .session(SessionId(2))
            .arrival(SimTime::from_secs(3.0))
            .prompt_tokens(10)
            .output_tokens(5)
            .history_tokens(20)
            .build()
            .unwrap();
        assert_eq!(r.id, RequestId(1));
        assert_eq!(r.conv, SessionId(2));
        assert_eq!(
            (r.history_tokens, r.prompt_tokens, r.output_tokens),
            (20, 10, 5)
        );
    }
}
