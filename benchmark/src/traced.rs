//! Seam tracing from outside the crates: a [`Traced`] decorator records a
//! span (name, start, end, parent) around every `ServingBackend` call.
//!
//! The router drives its replicas only through the trait, so wrapping
//! once around the `Router` and once around each replica
//! (`Traced<Router<Traced<SimServingEngine>>>`) separates router time
//! from replica time without touching either crate. Spans nest strictly
//! (the seam pass runs at pool width 1), so a span's *self time* is its
//! duration minus the durations of its direct children, and self times
//! over a whole pass sum to the root span — the pass wall.
//!
//! Spans stay in memory. Aggregates (count, total, max, self) are kept
//! per `(layer, call)` name without limit; raw spans are kept up to
//! [`RAW_SPAN_CAP`] for the Chrome-format dump.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use pensieve_core::{Request, Response, ServingBackend};
use pensieve_kvcache::{CacheStats, SessionExport, SessionId, SessionManifest};
use pensieve_model::SimTime;

/// Raw spans kept for the Chrome dump; later spans only feed aggregates.
pub const RAW_SPAN_CAP: usize = 1_000_000;

/// A span name: the decorator position (`router`, `replica`, `engine`,
/// `driver`) and the trait call.
pub type Name = (&'static str, &'static str);

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `(layer, call)`, e.g. `("router", "submit")`.
    pub name: Name,
    /// Seconds since the log was created.
    pub start_s: f64,
    /// Seconds since the log was created.
    pub end_s: f64,
    /// Index (open order) of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Longest single span, seconds.
    pub max_s: f64,
    /// Sum of self times (duration minus direct children), seconds.
    pub self_s: f64,
}

struct Open {
    name: Name,
    id: usize,
    start_s: f64,
    children_s: f64,
}

struct Inner {
    epoch: Instant,
    stack: Vec<Open>,
    opened: usize,
    raw: Vec<Span>,
    stats: BTreeMap<Name, SpanStats>,
}

/// Shared span sink; clones record into the same log.
#[derive(Clone)]
pub struct SpanLog {
    inner: Arc<Mutex<Inner>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            inner: Arc::new(Mutex::new(Inner {
                epoch: Instant::now(),
                stack: Vec::new(),
                opened: 0,
                raw: Vec::new(),
                stats: BTreeMap::new(),
            })),
        }
    }
}

impl SpanLog {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span log poisoned: a traced call panicked while recording")
    }

    /// Opens a span at the current instant.
    pub fn enter(&self, name: Name) {
        let mut g = self.lock();
        let start_s = g.epoch.elapsed().as_secs_f64();
        let id = g.opened;
        g.opened += 1;
        g.stack.push(Open {
            name,
            id,
            start_s,
            children_s: 0.0,
        });
    }

    /// Closes the innermost open span at the current instant.
    pub fn exit(&self) {
        let mut g = self.lock();
        let end_s = g.epoch.elapsed().as_secs_f64();
        g.close(end_s);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: Name, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name aggregates so far.
    #[must_use]
    pub fn stats(&self) -> BTreeMap<Name, SpanStats> {
        self.lock().stats.clone()
    }

    /// Sum of self times over every closed span, seconds.
    #[must_use]
    pub fn total_self_s(&self) -> f64 {
        self.lock().stats.values().map(|s| s.self_s).sum()
    }

    /// Aggregate over the spans of one layer, or of one call in it.
    #[must_use]
    pub fn layer(&self, layer: &str, call: Option<&str>) -> SpanStats {
        let mut sum = SpanStats::default();
        for ((l, c), s) in &self.lock().stats {
            if *l == layer && call.is_none_or(|want| want == *c) {
                sum.count += s.count;
                sum.total_s += s.total_s;
                sum.max_s = sum.max_s.max(s.max_s);
                sum.self_s += s.self_s;
            }
        }
        sum
    }

    /// The raw spans (up to [`RAW_SPAN_CAP`]) as a Chrome `trace_event`
    /// document: complete (`X`) events in microseconds, one track.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let g = self.lock();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in g.raw.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}.{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name.0,
                s.name.1,
                s.start_s * 1e6,
                (s.end_s - s.start_s) * 1e6
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Inner {
    fn close(&mut self, end_s: f64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end_s - open.start_s;
        let parent = self.stack.last_mut().map(|p| {
            p.children_s += dur;
            p.id
        });
        let st = self.stats.entry(open.name).or_default();
        st.count += 1;
        st.total_s += dur;
        st.max_s = st.max_s.max(dur);
        st.self_s += dur - open.children_s;
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Span {
                name: open.name,
                start_s: open.start_s,
                end_s,
                parent,
            });
        }
    }
}

/// A `ServingBackend` that records a span around every call into `inner`.
pub struct Traced<B> {
    inner: B,
    log: SpanLog,
    /// Decorator position: `router`, `replica` or `engine`.
    layer: &'static str,
    /// Count `submit`s whose session already has cached tokens here.
    probe_affinity: bool,
    submits: u64,
    affine_submits: u64,
}

impl<B: ServingBackend> Traced<B> {
    /// Wraps `inner`; spans go to `log` under `layer`.
    pub fn new(inner: B, log: SpanLog, layer: &'static str) -> Self {
        Traced {
            inner,
            log,
            layer,
            probe_affinity: false,
            submits: 0,
            affine_submits: 0,
        }
    }

    /// Also asks the backend, before each `submit`, whether it already
    /// caches tokens of the request's session (its own span, so the
    /// question is not billed to the caller).
    #[must_use]
    pub fn probing_affinity(mut self) -> Self {
        self.probe_affinity = true;
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// `(submits, submits that found cached tokens)`.
    pub fn affinity(&self) -> (u64, u64) {
        (self.submits, self.affine_submits)
    }
}

impl<B: ServingBackend> ServingBackend for Traced<B> {
    fn submit(&mut self, req: Request) {
        self.submits += 1;
        if self.probe_affinity {
            let inner = &self.inner;
            let cached = self.log.span((self.layer, "affinity_probe"), || {
                inner.cached_tokens(req.conv)
            });
            self.affine_submits += u64::from(cached > 0);
        }
        let inner = &mut self.inner;
        self.log.span((self.layer, "submit"), || inner.submit(req));
    }

    fn poll(&mut self, deadline: Option<SimTime>) -> bool {
        let inner = &mut self.inner;
        self.log.span((self.layer, "poll"), || inner.poll(deadline))
    }

    fn responses_ready(&self) -> bool {
        self.log.span((self.layer, "responses_ready"), || {
            self.inner.responses_ready()
        })
    }

    fn drain_responses(&mut self) -> Vec<Response> {
        let inner = &mut self.inner;
        self.log
            .span((self.layer, "drain_responses"), || inner.drain_responses())
    }

    fn now(&self) -> SimTime {
        self.log.span((self.layer, "now"), || self.inner.now())
    }

    fn run_until(&mut self, t: SimTime) {
        let inner = &mut self.inner;
        self.log
            .span((self.layer, "run_until"), || inner.run_until(t));
    }

    fn is_idle(&self) -> bool {
        self.log
            .span((self.layer, "is_idle"), || self.inner.is_idle())
    }

    fn running_requests(&self) -> usize {
        self.log
            .span((self.layer, "introspect"), || self.inner.running_requests())
    }

    fn waiting_requests(&self) -> usize {
        self.log
            .span((self.layer, "introspect"), || self.inner.waiting_requests())
    }

    fn queue_depth(&self) -> usize {
        self.log
            .span((self.layer, "introspect"), || self.inner.queue_depth())
    }

    fn gpu_slots_used(&self) -> usize {
        self.log
            .span((self.layer, "introspect"), || self.inner.gpu_slots_used())
    }

    fn gpu_capacity_tokens(&self) -> usize {
        self.log.span((self.layer, "introspect"), || {
            self.inner.gpu_capacity_tokens()
        })
    }

    fn cpu_tokens_used(&self) -> usize {
        self.log
            .span((self.layer, "introspect"), || self.inner.cpu_tokens_used())
    }

    fn kv_bytes_per_token(&self) -> usize {
        self.log.span((self.layer, "introspect"), || {
            self.inner.kv_bytes_per_token()
        })
    }

    fn cached_tokens(&self, session: SessionId) -> usize {
        self.log.span((self.layer, "cached_tokens"), || {
            self.inner.cached_tokens(session)
        })
    }

    fn cache_stats(&self) -> CacheStats {
        self.log
            .span((self.layer, "cache_stats"), || self.inner.cache_stats())
    }

    fn export_session(&mut self, session: SessionId) -> Option<SessionExport> {
        let inner = &mut self.inner;
        self.log.span((self.layer, "export_session"), || {
            inner.export_session(session)
        })
    }

    fn import_session(&mut self, export: SessionExport) -> usize {
        let inner = &mut self.inner;
        self.log.span((self.layer, "import_session"), || {
            inner.import_session(export)
        })
    }

    fn fail_stop(&mut self) -> Vec<Request> {
        let inner = &mut self.inner;
        self.log
            .span((self.layer, "fail_stop"), || inner.fail_stop())
    }

    fn take_committed_kv(&mut self) -> Vec<(SessionId, usize)> {
        let inner = &mut self.inner;
        self.log.span((self.layer, "take_committed_kv"), || {
            inner.take_committed_kv()
        })
    }

    fn manifest_sessions(&self) -> Vec<SessionId> {
        self.log.span((self.layer, "manifest_sessions"), || {
            self.inner.manifest_sessions()
        })
    }

    fn session_manifest(&self, session: SessionId) -> Option<SessionManifest> {
        self.log.span((self.layer, "session_manifest"), || {
            self.inner.session_manifest(session)
        })
    }

    fn rehydrate_session(&mut self, manifest: &SessionManifest) -> usize {
        let inner = &mut self.inner;
        self.log.span((self.layer, "rehydrate_session"), || {
            inner.rehydrate_session(manifest)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    /// Self time is duration minus direct children, and self times over
    /// the whole tree sum to the root span — the run wall — within 2 %.
    #[test]
    fn self_times_sum_to_the_run_wall() {
        let log = SpanLog::default();
        let t0 = Instant::now();
        log.span(("driver", "run"), || {
            spin(300);
            for _ in 0..20 {
                log.span(("router", "poll"), || {
                    spin(100);
                    log.span(("replica", "poll"), || spin(200));
                    log.span(("replica", "now"), || spin(20));
                });
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        let root = log.layer("driver", None);
        let router = log.layer("router", Some("poll"));
        let replicas = log.layer("replica", None);
        assert_eq!((root.count, router.count, replicas.count), (1, 20, 40));
        // Router self excludes both replica children; leaves keep it all.
        assert!((router.self_s - (router.total_s - replicas.total_s)).abs() < 1e-9);
        assert!((replicas.self_s - replicas.total_s).abs() < 1e-12);
        // Everything sums to the root, and the root is the wall.
        let sum = log.total_self_s();
        assert!(
            (sum - root.total_s).abs() < 1e-9,
            "{sum} vs {}",
            root.total_s
        );
        assert!((sum - wall).abs() / wall < 0.02, "{sum} vs wall {wall}");
    }

    #[test]
    fn parents_are_recorded_by_open_order() {
        let log = SpanLog::default();
        log.span(("a", "x"), || log.span(("b", "y"), || ()));
        let g = log.lock();
        // Spans close inner-first: b (opened second, id 1), then a (id 0).
        assert_eq!((g.raw[0].name, g.raw[0].parent), (("b", "y"), Some(0)));
        assert_eq!((g.raw[1].name, g.raw[1].parent), (("a", "x"), None));
    }
}
