//! Spans recorded by the benchmark around its own calls into each layer,
//! their JSON-lines export, and self-time attribution.
//!
//! The export holds one JSON object per line, every line carrying the run
//! id:
//!
//! ```text
//! {"run":"…","type":"span","id":7,"parent":3,"name":"net.run_until","start_ns":…,"end_ns":…}
//! {"run":"…","type":"count","span":7,"name":"events","value":51234}
//! {"run":"…","type":"sample","span":5,"name":"traffic.web.latency_s","value":0.41}
//! ```
//!
//! Counts are measured at the span's boundary (events processed in a run
//! slice, records in a trace); samples are distribution points. The
//! per-layer table is computed from this file alone (see `layers`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u64 = 0;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run (never [`NO_PARENT`]).
    pub id: u64,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// Layer-qualified name, e.g. `net.run_until`.
    pub name: String,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
}

impl Span {
    /// Duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A named number attached to a span (a count or a sample).
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// The span it was measured at.
    pub span: u64,
    /// Name, e.g. `events`.
    pub name: String,
    /// The number.
    pub value: f64,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Run id shared by every line of the export.
    pub run: String,
    /// Closed spans, in close order.
    pub spans: Vec<Span>,
    /// Counts measured at span boundaries.
    pub counts: Vec<Value>,
    /// Distribution samples.
    pub samples: Vec<Value>,
}

/// Records spans from any thread; ids come from one atomic cursor.
pub struct Tracer {
    base: Instant,
    next: AtomicU64,
    trace: Mutex<Trace>,
}

impl Tracer {
    /// A tracer for run `run`; its clock starts now.
    pub fn new(run: String) -> Tracer {
        Tracer {
            base: Instant::now(),
            next: AtomicU64::new(NO_PARENT + 1),
            trace: Mutex::new(Trace { run, ..Trace::default() }),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn with<R>(&self, f: impl FnOnce(&mut Trace) -> R) -> R {
        f(&mut self.trace.lock().expect("a traced job panicked while recording"))
    }

    /// Run `f` inside a span named `name`; `f` receives the new span's id
    /// so it can parent child spans and attach counts.
    pub fn span<R>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.with(|t| t.spans.push(Span { id, parent, name: name.to_string(), start_ns, end_ns }));
        r
    }

    /// Attach a count to span `span`.
    pub fn count(&self, span: u64, name: &str, value: f64) {
        self.with(|t| t.counts.push(Value { span, name: name.to_string(), value }));
    }

    /// Attach distribution samples to span `span`.
    pub fn samples(&self, span: u64, name: &str, values: &[f64]) {
        self.with(|t| {
            t.samples.extend(values.iter().map(|&value| Value {
                span,
                name: name.to_string(),
                value,
            }))
        });
    }

    /// Stop recording and hand back everything recorded.
    pub fn finish(self) -> Trace {
        self.trace.into_inner().expect("a traced job panicked while recording")
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl Trace {
    /// The JSON-lines export.
    pub fn to_jsonl(&self) -> String {
        let run = &self.run;
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"run\":\"{run}\",\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        for (kind, values) in [("count", &self.counts), ("sample", &self.samples)] {
            for v in values {
                out.push_str(&format!(
                    "{{\"run\":\"{run}\",\"type\":\"{kind}\",\"span\":{},\"name\":\"{}\",\"value\":{}}}\n",
                    v.span,
                    v.name,
                    num(v.value)
                ));
            }
        }
        out
    }

    /// Parse a [`Trace::to_jsonl`] export. Every line must carry the same
    /// run id.
    pub fn parse_jsonl(text: &str) -> Result<Trace, String> {
        let mut t = Trace::default();
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
            let ctx = |e: String| format!("line {}: {e}", i + 1);
            let obj = parse_flat_object(line).map_err(ctx)?;
            let s = |k: &str| -> Result<String, String> {
                match obj.get(k) {
                    Some(Json::Str(v)) => Ok(v.clone()),
                    _ => Err(ctx(format!("missing string `{k}`"))),
                }
            };
            let n = |k: &str| -> Result<f64, String> {
                match obj.get(k) {
                    Some(Json::Num(v)) => Ok(*v),
                    Some(Json::Null) => Ok(f64::NAN),
                    _ => Err(ctx(format!("missing number `{k}`"))),
                }
            };
            let run = s("run")?;
            if t.run.is_empty() {
                t.run = run;
            } else if t.run != run {
                return Err(ctx(format!("run id `{run}` differs from `{}`", t.run)));
            }
            match s("type")?.as_str() {
                "span" => t.spans.push(Span {
                    id: n("id")? as u64,
                    parent: n("parent")? as u64,
                    name: s("name")?,
                    start_ns: n("start_ns")? as u64,
                    end_ns: n("end_ns")? as u64,
                }),
                kind @ ("count" | "sample") => {
                    let v = Value { span: n("span")? as u64, name: s("name")?, value: n("value")? };
                    if kind == "count" {
                        t.counts.push(v)
                    } else {
                        t.samples.push(v)
                    }
                }
                other => return Err(ctx(format!("unknown record type `{other}`"))),
            }
        }
        Ok(t)
    }

    /// Wall-clock self time of every span, seconds, by span id.
    ///
    /// Each instant of wall time is split equally among the spans active
    /// at that instant that have no active child. On one thread this is
    /// the usual rule — a span's duration minus the part its children
    /// cover. When spans run concurrently on several threads, concurrent
    /// leaves share the instant, so the self times of all spans add up to
    /// the wall time the spans cover, never to thread time.
    pub fn self_times(&self) -> BTreeMap<u64, f64> {
        let index: BTreeMap<u64, usize> =
            self.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let parent: Vec<Option<usize>> =
            self.spans.iter().map(|s| index.get(&s.parent).copied()).collect();
        let depth: Vec<usize> = (0..self.spans.len())
            .map(|mut i| {
                let mut d = 0;
                while let Some(p) = parent[i] {
                    d += 1;
                    i = p;
                    if d > self.spans.len() {
                        break; // a parent cycle in a corrupt file
                    }
                }
                d
            })
            .collect();
        // (time, 0 = close | 1 = open, order within the instant, span):
        // closes before opens; deeper spans close first and open last.
        let mut edges: Vec<(u64, u8, i64, usize)> = Vec::with_capacity(self.spans.len() * 2);
        for (i, s) in self.spans.iter().enumerate() {
            edges.push((s.start_ns, 1, depth[i] as i64, i));
            edges.push((s.end_ns.max(s.start_ns), 0, -(depth[i] as i64), i));
        }
        edges.sort_unstable();

        let mut self_ns = vec![0f64; self.spans.len()];
        let mut active = vec![false; self.spans.len()];
        let mut active_children = vec![0usize; self.spans.len()];
        let mut leaves: BTreeSet<usize> = BTreeSet::new();
        let mut prev = edges.first().map_or(0, |e| e.0);
        for (t, kind, _, i) in edges {
            if t > prev && !leaves.is_empty() {
                let share = (t - prev) as f64 / leaves.len() as f64;
                for &l in &leaves {
                    self_ns[l] += share;
                }
            }
            prev = t;
            let p = parent[i].filter(|&p| active[p]);
            if kind == 1 {
                active[i] = true;
                leaves.insert(i);
                if let Some(p) = p {
                    active_children[p] += 1;
                    leaves.remove(&p);
                }
            } else {
                active[i] = false;
                leaves.remove(&i);
                if let Some(p) = p {
                    active_children[p] -= 1;
                    if active_children[p] == 0 {
                        leaves.insert(p);
                    }
                }
            }
        }
        self.spans.iter().zip(self_ns).map(|(s, ns)| (s.id, ns * 1e-9)).collect()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The count `name` attached to span `span`.
    pub fn count(&self, span: u64, name: &str) -> Option<f64> {
        self.counts.iter().find(|v| v.span == span && v.name == name).map(|v| v.value)
    }

    /// Every sample named `name`.
    pub fn samples_of(&self, name: &str) -> Vec<f64> {
        self.samples.iter().filter(|v| v.name == name).map(|v| v.value).collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Null,
}

/// Parse one flat JSON object whose values are strings, numbers or null —
/// the only shape the export writes.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Json>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut out = BTreeMap::new();
    let skip_ws = |c: &mut std::iter::Peekable<std::str::Chars<'_>>| {
        while c.peek().is_some_and(|ch| ch.is_whitespace()) {
            c.next();
        }
    };
    let string = |c: &mut std::iter::Peekable<std::str::Chars<'_>>| -> Result<String, String> {
        if c.next() != Some('"') {
            return Err("expected a string".into());
        }
        let mut s = String::new();
        loop {
            match c.next() {
                Some('"') => return Ok(s),
                Some('\\') => match c.next() {
                    Some(e @ ('"' | '\\' | '/')) => s.push(e),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    other => return Err(format!("unsupported escape {other:?}")),
                },
                Some(ch) => s.push(ch),
                None => return Err("unterminated string".into()),
            }
        }
    };
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected `:` after `{key}`"));
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some('"') => Json::Str(string(&mut chars)?),
                Some(_) => {
                    let mut tok = String::new();
                    while let Some(&ch) = chars.peek() {
                        if ch == ',' || ch == '}' || ch.is_whitespace() {
                            break;
                        }
                        tok.push(ch);
                        chars.next();
                    }
                    if tok == "null" {
                        Json::Null
                    } else {
                        Json::Num(tok.parse().map_err(|_| format!("bad number `{tok}`"))?)
                    }
                }
                None => return Err("unexpected end".into()),
            };
            out.insert(key, value);
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.to_string(), start_ns, end_ns }
    }

    fn trace(spans: Vec<Span>) -> Trace {
        Trace { run: "r".into(), spans, ..Trace::default() }
    }

    #[test]
    fn nested_self_time_is_duration_minus_children() {
        // root [0,100): a [10,40) with a1 [15,25); b [50,90).
        let t = trace(vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 2, "a1", 15, 25),
            span(4, 1, "b", 50, 90),
        ]);
        let st = t.self_times();
        let ns = |id| (st[&id] * 1e9).round() as u64;
        assert_eq!(ns(1), 100 - 30 - 40);
        assert_eq!(ns(2), 30 - 10);
        assert_eq!(ns(3), 10);
        assert_eq!(ns(4), 40);
        let total: f64 = st.values().sum();
        assert!((total * 1e9 - 100.0).abs() < 1e-6);
    }

    #[test]
    fn concurrent_leaves_share_wall_time() {
        // A sweep [0,100) with two jobs on two threads: j1 [0,100),
        // j2 [0,50). While both run they split the instant; afterwards j1
        // alone owns it. The self times still sum to the 100 ns of wall.
        let t = trace(vec![
            span(1, 0, "sweep", 0, 100),
            span(2, 1, "job", 0, 100),
            span(3, 1, "job", 0, 50),
        ]);
        let st = t.self_times();
        assert!((st[&2] * 1e9 - 75.0).abs() < 1e-6);
        assert!((st[&3] * 1e9 - 25.0).abs() < 1e-6);
        assert!(st[&1].abs() < 1e-12);
    }

    #[test]
    fn shared_edges_keep_parents_and_children_straight() {
        // Children opening and closing at their parent's own edges.
        let t =
            trace(vec![span(1, 0, "p", 0, 10), span(2, 1, "c1", 0, 5), span(3, 1, "c2", 5, 10)]);
        let st = t.self_times();
        assert!(st[&1].abs() < 1e-12);
        assert!((st[&2] * 1e9 - 5.0).abs() < 1e-6);
        assert!((st[&3] * 1e9 - 5.0).abs() < 1e-6);
    }

    #[test]
    fn jsonl_round_trips() {
        let tr = Tracer::new("fig4-s7-1".into());
        tr.span("outer", NO_PARENT, |o| {
            tr.span("inner", o, |i| tr.count(i, "events", 42.0));
            tr.samples(o, "lat", &[0.5, 1.25]);
        });
        let t = tr.finish();
        let back = Trace::parse_jsonl(&t.to_jsonl()).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.spans.len(), 2);
        assert_eq!(back.count(back.named("inner").next().expect("inner").id, "events"), Some(42.0));
    }

    #[test]
    fn parse_rejects_mixed_runs_and_garbage() {
        let a = "{\"run\":\"a\",\"type\":\"count\",\"span\":1,\"name\":\"x\",\"value\":1}\n";
        let b = "{\"run\":\"b\",\"type\":\"count\",\"span\":1,\"name\":\"x\",\"value\":1}\n";
        assert!(Trace::parse_jsonl(&format!("{a}{b}")).is_err());
        assert!(Trace::parse_jsonl("{\"run\":\"a\",").is_err());
        assert!(Trace::parse_jsonl("not json").is_err());
    }
}
