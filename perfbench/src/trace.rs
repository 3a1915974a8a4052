//! Spans around calls into each layer's public functions, with self-time
//! accounting per request type.
//!
//! A span's self time is its duration minus the part its child spans
//! cover, so the self times of one request's spans sum exactly to the
//! duration of its top-level spans. Whatever a request's measured wall
//! time holds beyond that sum is reported as the residual.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// The request type of spans outside the measured window.
const OUTSIDE: &str = "outside-window";

/// The layers spans are attributed to. Names are crate names; each maps
/// to its own slot of the counting allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Serve,
    Durable,
    Birch,
    Engine,
    Mining,
    Rank,
    Cluster,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Serve,
        Layer::Durable,
        Layer::Birch,
        Layer::Engine,
        Layer::Mining,
        Layer::Rank,
        Layer::Cluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve",
            Layer::Durable => "durable",
            Layer::Birch => "birch",
            Layer::Engine => "engine",
            Layer::Mining => "mining",
            Layer::Rank => "rank",
            Layer::Cluster => "cluster",
        }
    }

    /// The counting allocator's slot for this layer.
    pub fn slot(self) -> usize {
        self as usize + 1
    }

    /// The layer a span belongs to: the part of its name before the dot.
    pub fn of(span: &str) -> Layer {
        let prefix = span.split('.').next().unwrap_or(span);
        Layer::ALL
            .into_iter()
            .find(|l| l.name() == prefix)
            .unwrap_or_else(|| panic!("span {span:?} names no layer"))
    }
}

struct Frame {
    span: &'static str,
    start: Instant,
    child_ns: u64,
    previous_slot: usize,
}

/// Collects span self times, keyed by request type and span name.
pub struct Tracer {
    enabled: bool,
    kind: &'static str,
    stack: Vec<Frame>,
    self_ns: BTreeMap<(&'static str, &'static str), u64>,
    top_ns: BTreeMap<&'static str, u64>,
    spans: u64,
}

impl Tracer {
    /// A tracer; a disabled one runs every closure without timing it.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            kind: "untyped",
            stack: Vec::new(),
            self_ns: BTreeMap::new(),
            top_ns: BTreeMap::new(),
            spans: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the request type the following spans are charged to.
    pub fn request(&mut self, kind: &'static str) {
        self.kind = kind;
    }

    /// Charges the following spans to work outside the measured window
    /// (set-up replay, final check), which no per-layer figure includes.
    pub fn outside(&mut self) {
        self.kind = OUTSIDE;
    }

    /// Runs `f` inside the span `name` (`"<layer>.<step>"`).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let previous_slot = alloc::enter(Layer::of(name).slot());
        self.stack.push(Frame { span: name, start: Instant::now(), child_ns: 0, previous_slot });
        let out = f(self);
        let frame = self.stack.pop().expect("span frame pushed above");
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        alloc::leave(frame.previous_slot);
        *self.self_ns.entry((self.kind, frame.span)).or_default() +=
            elapsed.saturating_sub(frame.child_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.child_ns += elapsed,
            None => *self.top_ns.entry(self.kind).or_default() += elapsed,
        }
        self.spans += 1;
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Total self time of one span name over the window's request types,
    /// in ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.self_ns
            .iter()
            .filter(|((k, s), _)| *s == name && *k != OUTSIDE)
            .map(|(_, ns)| *ns as f64 / 1e6)
            .sum()
    }

    /// Per-span self times (ms) charged to one request type.
    pub fn spans_of(&self, kind: &str) -> Vec<(&'static str, f64)> {
        self.self_ns
            .iter()
            .filter(|((k, _), _)| *k == kind)
            .map(|((_, s), ns)| (*s, *ns as f64 / 1e6))
            .collect()
    }

    /// Total duration (ms) of the top-level spans of one request type.
    #[cfg(test)]
    pub fn top_ms(&self, kind: &str) -> f64 {
        self.top_ns.get(kind).map_or(0.0, |ns| *ns as f64 / 1e6)
    }
}

/// One request type's wall time split into layer self times plus the
/// residual no layer claims.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub kind: &'static str,
    pub requests: usize,
    /// Summed wall time of the requests, in ms.
    pub wall_ms: f64,
    /// Summed self time per span, in ms.
    pub spans: Vec<(&'static str, f64)>,
    /// `wall_ms` minus every span's self time.
    pub residual_ms: f64,
}

impl Attribution {
    /// Attributes `wall_ms` (the summed wall of `requests` requests of
    /// `kind`) to the spans the tracer charged to that type.
    pub fn new(tracer: &Tracer, kind: &'static str, requests: usize, wall_ms: f64) -> Attribution {
        let spans = tracer.spans_of(kind);
        let claimed: f64 = spans.iter().map(|(_, ms)| ms).sum();
        Attribution { kind, requests, wall_ms, spans, residual_ms: wall_ms - claimed }
    }

    pub fn residual_frac(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.residual_ms / self.wall_ms
        } else {
            0.0
        }
    }

    /// Human-readable rows: per-request ms for each span and the residual.
    pub fn lines(&self) -> Vec<String> {
        let per = |ms: f64| ms / self.requests.max(1) as f64;
        let mut out = vec![format!(
            "  {:<12} {:>5} requests, wall {:>10.3} ms/request",
            self.kind,
            self.requests,
            per(self.wall_ms)
        )];
        for (span, ms) in &self.spans {
            out.push(format!("    {span:<26} {:>10.3} ms/request", per(*ms)));
        }
        out.push(format!(
            "    {:<26} {:>10.3} ms/request ({:.1}% of wall)",
            "residual",
            per(self.residual_ms),
            100.0 * self.residual_frac()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    /// The allocator's layer marker is process-wide: tests that open
    /// spans run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_self_times_sum_to_the_top_level_wall() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let mut tracer = Tracer::new(true);
        tracer.request("query");
        let outer = Instant::now();
        tracer.span("cluster.pull", |t| {
            busy(Duration::from_millis(2));
            t.span("serve.decode", |_| busy(Duration::from_millis(3)));
            t.span("engine.snapshot_decode", |t| {
                busy(Duration::from_millis(1));
                t.span("serve.decode", |_| busy(Duration::from_millis(1)));
            });
        });
        tracer.span("mining.graph", |_| busy(Duration::from_millis(2)));
        let wall_ms = outer.elapsed().as_nanos() as f64 / 1e6;

        let spans = tracer.spans_of("query");
        let claimed: f64 = spans.iter().map(|(_, ms)| ms).sum();
        assert!((claimed - tracer.top_ms("query")).abs() < 1e-9, "self times double-count");
        assert!(tracer.span_ms("serve.decode") >= 4.0);
        assert!(tracer.span_ms("cluster.pull") >= 2.0, "the parent keeps its own busy time");

        let attribution = Attribution::new(&tracer, "query", 1, wall_ms);
        let reconciled: f64 =
            attribution.spans.iter().map(|(_, ms)| ms).sum::<f64>() + attribution.residual_ms;
        assert!((reconciled - wall_ms).abs() < 1e-9, "layers + residual must equal the wall");
        assert!(attribution.residual_ms >= 0.0, "glue outside spans is residual, never negative");
        assert_eq!(tracer.spans(), 5);
    }

    #[test]
    fn request_types_are_kept_apart() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let mut tracer = Tracer::new(true);
        tracer.outside();
        tracer.span("birch.insert", |_| busy(Duration::from_millis(1)));
        assert_eq!(tracer.span_ms("birch.insert"), 0.0, "outside-window spans are not reported");
        tracer.request("ingest");
        tracer.span("birch.insert", |_| busy(Duration::from_millis(1)));
        tracer.request("query");
        tracer.span("rank.rank", |_| busy(Duration::from_millis(1)));
        assert_eq!(tracer.spans_of("ingest").len(), 1);
        assert_eq!(tracer.spans_of("query")[0].0, "rank.rank");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("serve.encode", |t| t.span("serve.decode", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(tracer.spans(), 0);
        assert!(tracer.spans_of("untyped").is_empty());
    }

    #[test]
    fn spans_attribute_allocations_to_their_layer() {
        let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let mut tracer = Tracer::new(true);
        alloc::set_counting(true);
        let before = alloc::count(Layer::Mining.slot());
        let v = tracer.span("mining.rules", |_| std::hint::black_box(vec![1u8; 64]));
        alloc::set_counting(false);
        assert_eq!(v.len(), 64);
        assert!(alloc::count(Layer::Mining.slot()) > before);
    }
}
