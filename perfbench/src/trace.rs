//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, written out once the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One call across a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span id, unique within one tracer (1-based; 0 means "no parent").
    pub id: u64,
    /// The span that caused this one, or 0.
    pub parent: u64,
    /// The request this span belongs to.
    pub req: u64,
    /// Layer and call, e.g. `wal.commit`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// A span buffer. One per thread; merge at the end.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// Empty tracer whose timestamps count from `origin`. `id_base` keeps
    /// ids of per-thread tracers disjoint.
    pub fn new(origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            origin,
            next_id: id_base + 1,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its id.
    #[inline]
    pub fn span(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        t0: Instant,
        t1: Instant,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: t1.saturating_duration_since(self.origin).as_nanos() as u64,
        });
        id
    }

    /// Move another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one tab-separated line:
    /// `id parent req name start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
