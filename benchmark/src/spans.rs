//! The benchmark's own in-memory span recorder.
//!
//! The traced pass wraps every call the benchmark makes into a layer in a
//! span: name (`<layer>.<call>`), start, end, the span that caused it, and
//! the workload it belongs to. Spans stay in memory until the pass ends
//! and are then written out as JSONL. A span's *self time* is its duration
//! minus the part of that interval its children cover. The untraced pass
//! runs the same code with a disabled recorder, so the difference between
//! the two passes is the tracing overhead.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One finished span. Ids are 1-based positions in the recorder's list;
/// parent 0 means "no parent" (a workload root).
#[derive(Clone, Debug)]
pub struct Span {
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans for one thread. Service load generators fork one child
/// recorder per connection thread and the parent absorbs them afterwards.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// For a fork: the span (by the parent recorder's numbering) that
    /// caused it. `absorb` hangs the fork's top-level spans under it.
    cause: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cause: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one; returns its id
    /// (0 when disabled).
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() as u32;
        self.stack.push(id);
        id
    }

    /// Closes the span `enter` returned.
    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Wraps one call into a layer.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// A recorder for another thread whose top-level spans are caused by
    /// the currently open span here. Shares the time origin.
    pub fn fork(&self) -> Recorder {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            cause: self.stack.last().copied().unwrap_or(0),
        }
    }

    /// Merges a finished fork back, renumbering its ids.
    pub fn absorb(&mut self, child: Recorder) {
        let offset = self.spans.len() as u32;
        let cause = child.cause;
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == 0 {
                cause
            } else {
                s.parent + offset
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }

    /// Per-name `(count, total_ns, self_ns)`, where self time is the
    /// span's duration minus the union of its children's intervals
    /// (clipped to the span, so concurrent children never go negative).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let kids = &mut children[i + 1];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            let total = s.end_ns - s.start_ns;
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total - covered;
        }
        by_name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("bench.root");
        rec.call("a.one", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.call("a.two", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit(root);
        let table = rec.self_times();
        let root_total = table["bench.root"].1;
        let self_sum: u64 = table.values().map(|t| t.2).sum();
        assert_eq!(self_sum, root_total);
        assert!(table["bench.root"].2 < root_total);
    }

    #[test]
    fn forks_attach_under_the_open_span() {
        let mut rec = Recorder::new(true);
        let root = rec.enter("bench.root");
        let mut fork = rec.fork();
        fork.call("server.request", || ());
        let inner = fork.enter("server.outer");
        fork.call("server.inner", || ());
        fork.exit(inner);
        rec.exit(root);
        rec.absorb(fork);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, root);
        assert_eq!(
            spans[3].parent, 3,
            "inner span points at its renumbered parent"
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.call("a.b", || 5), 5);
        assert!(rec.spans().is_empty());
    }
}
