//! Chrome `trace_event` / Perfetto JSON export.
//!
//! [`TraceBuilder`] accumulates spans, instants and metadata records and
//! renders the JSON-array trace format that `about://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) open directly.
//!
//! [`TraceBuilder::from_trips`] feeds it detector trips on a **cycle-as-
//! microsecond** timebase (1 simulated cycle = 1 µs), one track per detector.
//! This content is a pure function of the trip list, so the emitted
//! `*_trace.json` is byte-identical between sequential and sharded runs like
//! the other determinism-pinned files.  Wall-clock phase spans are genuinely
//! engine- and machine-dependent and therefore never emitted from
//! `write_all`; the perf ledger (`benchmark -- trace`) records those.

use std::io::{self, Write};

use dragonfly_stats::json::ToJson;

use crate::detect::{detector_name, TripRecord, NO_ROUTER};

/// Incremental builder of a Chrome `trace_event` JSON document.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    events: Vec<String>,
}

/// Render one `"key":value` argument list as a JSON object.  Keys, like every
/// caller-supplied name, are free text and go through the codec's escaper;
/// the values are already-rendered JSON numbers.
fn render_args(args: &[(&str, String)]) -> String {
    let body = args
        .iter()
        .map(|(k, v)| format!("{}:{v}", k.to_json().dump()))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{{body}}}")
}

impl TraceBuilder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the process `pid` in the trace viewer (a `process_name` metadata
    /// record).
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            name.to_json().dump()
        ));
    }

    /// Name the thread `(pid, tid)` in the trace viewer (a `thread_name`
    /// metadata record).
    pub fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            name.to_json().dump()
        ));
    }

    /// A complete span (`ph:"X"`): `[ts_us, ts_us + dur_us]` on track
    /// `(pid, tid)`, with numeric arguments.
    pub fn span(
        &mut self,
        name: &str,
        pid: u32,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args: &[(&str, String)],
    ) {
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us},\"dur\":{dur_us},\"args\":{}}}",
            name.to_json().dump(),
            render_args(args)
        ));
    }

    /// An instant event (`ph:"i"`, thread scope) at `ts_us` on `(pid, tid)`.
    pub fn instant(&mut self, name: &str, pid: u32, tid: u32, ts_us: f64, args: &[(&str, String)]) {
        self.events.push(format!(
            "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts_us},\"args\":{}}}",
            name.to_json().dump(),
            render_args(args)
        ));
    }

    /// The trace as a JSON document (`{"traceEvents":[...]}`).
    pub fn render(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        s.push_str(&self.events.join(",\n"));
        s.push_str("\n]}\n");
        s
    }

    /// Write [`Self::render`] to `out`.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.render().as_bytes())
    }

    /// The detector-trip trace: one track per detector (1 cycle = 1 µs), a
    /// span over each trip's evaluated window and an instant at the trip
    /// cycle carrying the integer evidence.
    pub fn from_trips(trips: &[TripRecord]) -> Self {
        let mut tb = Self::new();
        tb.name_process(0, "dragonfly-sim");
        for d in 0u8..4 {
            tb.name_thread(0, u32::from(d) + 1, detector_name(d));
        }
        for t in trips {
            let tid = u32::from(t.detector) + 1;
            let name = detector_name(t.detector);
            let mut args = vec![
                ("sample", t.sample.to_string()),
                ("observed", t.observed.to_string()),
                ("bound", t.bound.to_string()),
            ];
            if t.router != NO_ROUTER {
                args.push(("router", t.router.to_string()));
            }
            tb.span(
                name,
                0,
                tid,
                t.window_start_cycle as f64,
                (t.cycle - t.window_start_cycle) as f64,
                &[],
            );
            tb.instant(name, 0, tid, t.cycle as f64, &args);
        }
        tb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_renders_valid_event_array() {
        let mut tb = TraceBuilder::new();
        tb.name_process(0, "test");
        tb.name_thread(0, 1, "phase");
        tb.span("routing", 0, 1, 10.0, 5.5, &[("cycles", "100".to_string())]);
        tb.instant("trip", 0, 1, 12.0, &[]);
        let text = tb.render();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(
            text.contains("\"ph\":\"X\"") && text.contains("\"dur\":5.5"),
            "{text}"
        );
        assert!(text.contains("\"args\":{\"cycles\":100}"), "{text}");
        assert!(text.trim_end().ends_with("]}"), "{text}");
        assert_eq!(tb.len(), 4);
        assert!(!tb.is_empty());
    }

    #[test]
    fn free_text_names_render_as_valid_json() {
        use dragonfly_stats::json::Value;
        let name = "a\"b\\c\u{1}\n";
        let mut tb = TraceBuilder::new();
        tb.name_process(0, name);
        tb.name_thread(0, 1, name);
        tb.span(name, 0, 1, 0.0, 1.0, &[(name, "7".to_string())]);
        tb.instant(name, 0, 1, 2.0, &[]);
        let doc = Value::parse(&tb.render()).expect("render() must be valid JSON");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let args: Vec<&Value> = events.iter().map(|e| e.get("args").unwrap()).collect();
        for named in [args[0], args[1], &events[2], &events[3]] {
            assert_eq!(named.get("name").and_then(Value::as_str), Some(name));
        }
        assert_eq!(args[2].get(name), Some(&Value::UInt(7)));
    }
}
