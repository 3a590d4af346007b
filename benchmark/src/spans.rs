//! Benchmark-owned spans: name, start, end and the span that caused it,
//! kept in memory and written out once at exit. These wrap the calls
//! the benchmark makes *into* each layer; spans inside the program are
//! a later change.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Innermost open span: the parent of the next one opened.
    open: Option<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: None,
        }
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.replace(id);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
        });
        let r = f(self);
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        self.open = parent;
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let own = self.spans[id].end_ns - self.spans[id].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self.self_ns(id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut r = Recorder::new();
        r.span("outer", |r| {
            r.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("b", |r| r.span("b1", |_| ()));
        });
        let s = r.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        let outer = s[0].end_ns - s[0].start_ns;
        assert!(outer >= 2_000_000);
        assert!(r.self_ns(0) <= outer - 2_000_000);
        assert_eq!(
            Json::parse(&r.to_json().to_line())
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            4
        );
    }
}
