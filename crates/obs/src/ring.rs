//! The event ring of one simulated rank: plain data inside that rank's
//! slot of the [`Tracer`](crate::tracer::Tracer), so the slot's lock is what
//! orders the owning rank's writes before the export's reads.

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Opening edge of a span.
    Begin,
    /// Closing edge of a span (matches the most recent unmatched `Begin`
    /// with the same name on the same rank).
    End,
    /// Zero-duration point event.
    Instant,
    /// Origin half of a causal flow arrow (Chrome-trace `ph:"s"`); `arg`
    /// is the flow id pairing it with a [`EventKind::FlowRecv`], `arg2`
    /// the message tag.
    FlowSend,
    /// Terminating half of a causal flow arrow (Chrome-trace `ph:"f"`).
    FlowRecv,
    /// Opening edge of an async (nestable) span (Chrome-trace `ph:"b"`);
    /// `arg` is the async id pairing it with an [`EventKind::AsyncEnd`].
    /// Unlike `Begin`/`End`, async spans may overlap freely on one track —
    /// the serving layer uses them for per-query lifecycle spans.
    AsyncBegin,
    /// Closing edge of an async span (Chrome-trace `ph:"e"`).
    AsyncEnd,
}

/// One recorded event. `Copy` and fixed-size so the hot path is a plain
/// slot write.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// Span / event name. `&'static str` keeps recording allocation-free;
    /// dynamic detail (iteration numbers, byte counts) goes in `arg`.
    pub name: &'static str,
    /// Wall-clock nanoseconds since the tracer epoch.
    pub wall_ns: u64,
    /// Virtual simulation-clock nanoseconds (advances at barriers).
    pub virt_ns: u64,
    /// Free-form numeric payload (e.g. iteration index, bytes flushed;
    /// flow id for flow events).
    pub arg: u64,
    /// Second payload slot (message tag for flow events; 0 elsewhere).
    pub arg2: u64,
}

/// Fixed-capacity ring of [`TraceEvent`]s: once full, a push overwrites the
/// oldest. A zero-capacity ring keeps nothing and counts every push as
/// dropped.
pub struct Ring {
    /// Allocated whole up front and filled in push order until full, so a
    /// short run touches only the pages it writes.
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Total events ever pushed (monotonic; slot index = pushed % capacity).
    pushed: usize,
}

impl Ring {
    pub fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            pushed: 0,
        }
    }

    /// Total events pushed over the ring's lifetime (may exceed capacity;
    /// the oldest are overwritten).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Events lost to wrap-around.
    pub fn dropped(&self) -> usize {
        self.pushed.saturating_sub(self.capacity)
    }

    /// Record one event.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.pushed < self.capacity {
            self.slots.push(ev);
        } else if self.capacity > 0 {
            self.slots[self.pushed % self.capacity] = ev;
        }
        self.pushed += 1;
    }

    /// Copy out the surviving events, oldest first.
    pub fn ordered(&self) -> Vec<TraceEvent> {
        let split = self.pushed.checked_rem(self.capacity).unwrap_or(0);
        let (newest, oldest) = self.slots.split_at(split);
        [oldest, newest].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, arg: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Instant,
            name,
            wall_ns: arg,
            virt_ns: arg,
            arg,
            arg2: 0,
        }
    }

    #[test]
    fn push_and_drain_in_order() {
        let mut rb = Ring::new(8);
        for i in 0..5 {
            rb.push(ev("x", i));
        }
        let out = rb.ordered();
        assert_eq!(out.len(), 5);
        assert_eq!(
            out.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(rb.dropped(), 0);
    }

    #[test]
    fn wraparound_keeps_newest() {
        let mut rb = Ring::new(4);
        for i in 0..10 {
            rb.push(ev("x", i));
        }
        let out = rb.ordered();
        assert_eq!(
            out.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(rb.dropped(), 6);
        assert_eq!(rb.pushed(), 10);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut rb = Ring::new(0);
        assert!(rb.ordered().is_empty());
        rb.push(ev("x", 1));
        assert!(rb.ordered().is_empty());
        assert_eq!((rb.pushed(), rb.dropped()), (1, 1));
    }
}
