//! In-memory spans recorded by the harness around the public calls into
//! each layer (no tracing inside the program: that is a later change).
//! A traced rep keeps its spans in a `Vec` and prints them at exit.

use std::time::Instant;

/// One span: times are seconds since the recorder's origin (the start
/// of the rep's `main`); `parent` indexes the enclosing span.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records properly nested spans; switched off (an untraced rep) it
/// stores nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Recorder {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span called `name`, child of whichever span is open.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = self.now();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its
/// direct children cover. Children of one parent never overlap (the
/// recorder only nests), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span("rep", 0.0, 10.0, None),
            span("build", 1.0, 4.0, Some(0)),
            span("keygen", 1.5, 3.5, Some(1)),
            span("traffic", 4.0, 9.0, Some(0)), // adjacent to build
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 1.0, 2.0, 5.0]);
        // Self times partition the root.
        assert_eq!(own.iter().sum::<f64>(), spans[0].duration());
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.enter("rep");
        rec.enter("build");
        rec.exit();
        rec.enter("traffic");
        rec.exit();
        rec.exit();
        let spans = rec.into_spans();
        let shape: Vec<(&str, Option<usize>)> =
            spans.iter().map(|s| (s.name.as_str(), s.parent)).collect();
        assert_eq!(
            shape,
            [("rep", None), ("build", Some(0)), ("traffic", Some(0))]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[0].end >= spans[2].end);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        rec.enter("x");
        rec.exit();
        assert!(rec.into_spans().is_empty());
    }
}
