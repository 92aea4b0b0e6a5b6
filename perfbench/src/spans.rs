//! The traced run's span recorder: spans (name, start, end, parent) kept
//! in memory around every call the benchmark makes into a layer, layer
//! self times computed from the tree, and a Chrome trace-event export.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `trace.decode` or `core.runner.control`.
    pub name: String,
    /// Timeline row the span is drawn on (one per workload, plus the
    /// layer probes).
    pub row: String,
    /// Start, nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's layer: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    row: RefCell<String>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            row: RefCell::new("main".to_string()),
        }
    }

    /// Draw the following spans on timeline row `row`.
    pub fn set_row(&self, row: &str) {
        *self.row.borrow_mut() = row.to_string();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                row: self.row.borrow().clone(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part its children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<i128> {
    let mut out: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= i128::from(s.dur_ns());
        }
    }
    out
}

/// Self seconds summed per layer, layers in first-seen order.
pub fn layer_self_s(spans: &[Span]) -> Vec<(String, f64)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(String, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(selfs) {
        let secs = ns as f64 / 1e9;
        match out.iter_mut().find(|(l, _)| l == s.layer()) {
            Some((_, total)) => *total += secs,
            None => out.push((s.layer().to_string(), secs)),
        }
    }
    out
}

/// Check the tree: every parent exists, starts no later and ends no
/// earlier than its child, and no span has negative self time.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p)
                .filter(|_| p < i)
                .ok_or_else(|| format!("span {i} ({}) is an orphan", s.name))?;
            if parent.start_ns > s.start_ns || parent.end_ns < s.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    for (i, ns) in self_times_ns(spans).into_iter().enumerate() {
        if ns < 0 {
            return Err(format!(
                "span {i} ({}) has negative self time {ns} ns",
                spans[i].name
            ));
        }
    }
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON: a named thread row per distinct span row,
/// one complete (`"X"`) event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut rows: Vec<&str> = Vec::new();
    for s in spans {
        if !rows.contains(&s.row.as_str()) {
            rows.push(&s.row);
        }
    }
    let mut events = vec![
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"cachegc perfbench\"}}"
            .to_string(),
    ];
    for (tid, row) in rows.iter().enumerate() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
             \"args\": {{\"name\": {}}}}}",
            tid + 1,
            json_str(row)
        ));
    }
    for s in spans {
        let tid = rows.iter().position(|r| *r == s.row).expect("row listed") + 1;
        events.push(format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
             \"ts\": {:.3}, \"dur\": {:.3}}}",
            json_str(&s.name),
            json_str(s.layer()),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3
        ));
    }
    format!("[\n{}\n]\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            row: "r".into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn nested_spans_form_a_clean_tree() {
        let t = Tracer::new();
        t.span("core.outer", || {
            t.span("trace.inner", || std::hint::black_box(1 + 1));
            t.span("sim.inner", || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        check_tree(&spans).unwrap();
        let layers: Vec<String> = layer_self_s(&spans).into_iter().map(|(l, _)| l).collect();
        assert_eq!(layers, ["core", "trace", "sim"]);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("a.x", 0, 100, None),
            span("b.y", 10, 40, Some(0)),
            span("b.z", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 30, 10]);
        let layers = layer_self_s(&spans);
        assert_eq!(layers[0].0, "a");
        assert!((layers[1].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn orphans_and_negative_self_time_are_rejected() {
        let orphan = vec![span("a.x", 0, 10, Some(3))];
        assert!(check_tree(&orphan).unwrap_err().contains("orphan"));
        let escaping = vec![span("a.x", 0, 10, None), span("a.y", 5, 20, Some(0))];
        assert!(check_tree(&escaping).unwrap_err().contains("escapes"));
        let overfull = vec![
            span("a.x", 0, 10, None),
            span("a.y", 0, 10, Some(0)),
            span("a.z", 0, 10, Some(0)),
        ];
        assert!(check_tree(&overfull).unwrap_err().contains("negative"));
    }

    #[test]
    fn chrome_export_passes_the_repository_validator() {
        let t = Tracer::new();
        t.set_row("grid-replay");
        t.span("core.runner.control", || ());
        t.set_row("layers");
        t.span("trace.decode", || ());
        let json = chrome_json(&t.spans());
        let summary = cachegc_core::validate_chrome_trace(&json).unwrap();
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.threads, 2);
    }
}
