//! Harness-side spans around each call into a layer.
//!
//! The traced run wraps every library call in a span
//! `{name, op, parent, start_ns, end_ns}`; spans of one operation share
//! `op`, and `parent` is the span that caused this one.  Spans are held in
//! memory and written out when the run ends.  A layer's **self time** is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::collections::HashMap;
use std::fmt::Write as _;

use mpf_shm::clock::now_nanos;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for one thread of the harness.  Switched off
/// (the end-to-end runs) a span is the bare call behind one predictable
/// branch.
pub struct Tracer {
    pub spans: Vec<Span>,
    pub on: bool,
    open: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            spans: Vec::new(),
            on: false,
            open: NO_PARENT,
        }
    }

    pub fn with_capacity(n: usize) -> Self {
        Tracer {
            spans: Vec::with_capacity(n),
            on: true,
            open: NO_PARENT,
        }
    }

    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = std::mem::replace(&mut self.open, id);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: now_nanos(),
            end_ns: 0,
        });
        let r = f(self);
        self.spans[id as usize].end_ns = now_nanos();
        self.open = parent;
        r
    }

    /// Adopts spans recorded on another thread (the serve handler's):
    /// each becomes a child of this tracer's `parent_name` span with the
    /// same `op`.
    pub fn adopt(&mut self, parent_name: &str, children: Vec<Span>) {
        if children.is_empty() {
            return;
        }
        let by_op: HashMap<u64, u32> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name)
            .map(|(i, s)| (s.op, i as u32))
            .collect();
        for mut c in children {
            c.parent = by_op.get(&c.op).copied().unwrap_or(NO_PARENT);
            self.spans.push(c);
        }
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span.  Children may nest further (their own
/// children are theirs to subtract) and siblings may overlap (a handler on
/// another thread), so the union is merged before it is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                kids[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut edge = s.start_ns;
            for &(a, b) in k.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

/// Per span name: the self times, in recording order.
pub fn self_by_name(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        out.entry(s.name).or_default().push(t);
    }
    out
}

/// Appends the spans as JSON objects, `parent` rebased by `base` so that
/// several tracers can share one array.
pub fn write_json(out: &mut String, backend: &str, base: usize, spans: &[Span]) {
    for s in spans {
        if !out.ends_with('[') {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            (s.parent as usize + base).to_string()
        };
        let _ = write!(
            out,
            "\n{{\"backend\":\"{backend}\",\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_subtract_one_level_each() {
        // root 0..100 > call 10..90 > inner 20..50
        let spans = [
            sp("root", NO_PARENT, 0, 100),
            sp("call", 0, 10, 90),
            sp("inner", 1, 20, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn sibling_children_sum_and_overlap_counts_once() {
        // root 0..100 with siblings 10..30 and 40..70: self 50.
        let spans = [
            sp("root", NO_PARENT, 0, 100),
            sp("a", 0, 10, 30),
            sp("b", 0, 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
        // Overlapping siblings 10..50 and 40..70 cover 60, not 70; a child
        // running past its parent is clipped to it.
        let spans = [
            sp("root", NO_PARENT, 0, 100),
            sp("a", 0, 10, 50),
            sp("b", 0, 40, 70),
            sp("late", 0, 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_links_parents_and_adopts_by_op() {
        let mut t = Tracer::with_capacity(8);
        for op in 0..2 {
            t.span("serve.call", op, |t| t.span("inner", op, |_| ()));
        }
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, NO_PARENT);
        assert_eq!(t.spans[3].parent, 2);
        let mut h = sp("serve.handler", NO_PARENT, 0, 0);
        h.op = 1;
        t.adopt("serve.call", vec![h]);
        assert_eq!(t.spans[4].parent, 2);
        let by = self_by_name(&t.spans);
        assert_eq!(by["serve.call"].len(), 2);
    }

    #[test]
    fn json_rebases_parents() {
        let mut s = String::from("[");
        write_json(
            &mut s,
            "ipc",
            10,
            &[sp("a", NO_PARENT, 1, 2), sp("b", 0, 1, 2)],
        );
        assert!(s.contains("\"parent\":null") && s.contains("\"parent\":10"));
        assert_eq!(s.matches("\"backend\":\"ipc\"").count(), 2);
    }
}
