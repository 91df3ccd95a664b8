//! The traced pass's two instruments, both fed from this benchmark's own
//! files only (spans inside the program are a later change):
//!
//! * a span log — `workload → unit → core.universe.run` — kept in memory
//!   and written out when the run ends;
//! * the boundary-crossing accumulator, which splits the host time of a
//!   world whose rank body this benchmark authored into time inside `Mpi`
//!   calls and time in the body.
//!
//! The accumulator is one global "current side" plus the last crossing's
//! timestamp. That is enough because the engine lets exactly one rank run
//! at a real instant: whichever rank is running crosses the boundary, and
//! a rank that blocks inside a call hands over to one that is also inside a
//! call (or at the top of its body, which is entered through
//! [`enter_body`]). The engine's hand-off synchronises the ranks' threads,
//! so the mutex here is never contended.

use crate::json::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which side of the `Mpi` boundary the running rank is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Inside the program: `Universe::run` set-up and tear-down,
    /// `MPI_Init`, every `Mpi` call and whatever it blocks on.
    Inside,
    /// In the rank body the benchmark authored.
    Body,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    pub inside: Duration,
    pub body: Duration,
    /// First body entry to last body exit: the whole-kernel span. Unlike
    /// the two sides it is also valid for a body the benchmark did not
    /// author (an NPB kernel), whose own `Mpi` calls cannot be bracketed.
    pub kernel: Duration,
}

struct Acc {
    side: Side,
    last: Instant,
    split: Split,
    first_entry: Option<Instant>,
}

impl Acc {
    /// Charge the time since the last crossing to the current side.
    fn charge(&mut self, now: Instant) {
        let d = now - self.last;
        match self.side {
            Side::Inside => self.split.inside += d,
            Side::Body => self.split.body += d,
        }
        self.last = now;
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static ACC: Mutex<Option<Acc>> = Mutex::new(None);

/// Move the running rank to side `to`; `mark` sees the crossing's time.
fn cross(to: Side, mark: impl FnOnce(&mut Acc, Instant)) {
    // Relaxed: the flag is only written between worlds, never while ranks
    // run, and publishes no other data.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut g = ACC.lock().expect("a rank panicked inside the accumulator");
    if let Some(acc) = g.as_mut() {
        let now = Instant::now();
        acc.charge(now);
        acc.side = to;
        mark(acc, now);
    }
}

/// Start accumulating at `start` (the enclosing span's start) on the
/// `Inside` side: a world begins in `Universe::run`.
pub fn begin(start: Instant) {
    *ACC.lock().expect("accumulator poisoned") = Some(Acc {
        side: Side::Inside,
        last: start,
        split: Split::default(),
        first_entry: None,
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop at `end` (the enclosing span's end) and return the split; the two
/// sides sum to `end - start` exactly.
pub fn end(end: Instant) -> Split {
    ENABLED.store(false, Ordering::Relaxed);
    let mut acc = ACC
        .lock()
        .expect("accumulator poisoned")
        .take()
        .expect("end() without begin()");
    acc.charge(end);
    acc.split
}

/// A rank body starts.
pub fn enter_body() {
    cross(Side::Body, |acc, now| {
        acc.first_entry.get_or_insert(now);
    });
}

/// A rank body ends.
pub fn leave_body() {
    cross(Side::Inside, |acc, now| {
        if let Some(first) = acc.first_entry {
            acc.split.kernel = now - first;
        }
    });
}

/// Run one `Mpi` call on the `Inside` side.
#[inline]
pub fn inside<R>(f: impl FnOnce() -> R) -> R {
    cross(Side::Inside, |_, _| {});
    let r = f();
    cross(Side::Body, |_, _| {});
    r
}

/// One recorded span. `parent` indexes the log; `unit` ties the spans of
/// one unit together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub unit: Option<u64>,
}

/// In-memory span log of one run.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a finished span; returns its index for children to name.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        unit: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            unit,
        });
        self.spans.len() - 1
    }

    /// Close a span that was recorded open, so that its children could
    /// name it while it was still running.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end = end;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Times are seconds since the log's origin.
    pub fn to_json(&self) -> Json {
        let at = |t: Instant| Json::Num((t - self.origin).as_secs_f64());
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(i as f64)),
                        ("name".into(), Json::str(&s.name)),
                        ("start_s".into(), at(s.start)),
                        ("end_s".into(), at(s.end)),
                        ("parent".into(), Json::opt(s.parent.map(|p| p as f64))),
                        ("unit".into(), Json::opt(s.unit.map(|u| u as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The accumulator is process-global; tests that use it take this lock.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn sides_sum_to_the_enclosing_span() {
        let _g = SERIAL.lock().unwrap();
        let start = Instant::now();
        begin(start);
        spin(Duration::from_millis(2)); // set-up: inside
        enter_body();
        spin(Duration::from_millis(3)); // body
        inside(|| spin(Duration::from_millis(4)));
        spin(Duration::from_millis(1)); // body
        leave_body();
        spin(Duration::from_millis(2)); // tear-down: inside
        let stop = Instant::now();
        let split = end(stop);
        assert_eq!(split.inside + split.body, stop - start);
        assert!(
            split.kernel >= Duration::from_millis(8) && split.kernel < split.inside + split.body
        );
        assert!(split.body >= Duration::from_millis(4), "{split:?}");
        assert!(split.inside >= Duration::from_millis(8), "{split:?}");
        assert!(split.body < Duration::from_millis(4) + (stop - start) / 2);
    }

    #[test]
    fn crossings_are_ignored_while_off() {
        let _g = SERIAL.lock().unwrap();
        enter_body();
        assert_eq!(inside(|| 7), 7);
        leave_body();
        let t = Instant::now();
        begin(t);
        assert_eq!(
            end(t),
            Split::default(),
            "nothing leaked in from before begin()"
        );
    }

    #[test]
    fn spans_keep_their_parents_and_units() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let mut log = SpanLog::new(t0);
        let root = log.push("workload", ms(0), ms(0), None, None);
        let unit = log.push("unit", ms(0), ms(10), Some(root), Some(1));
        log.push("core.universe.run", ms(1), ms(4), Some(unit), Some(1));
        log.close(root, ms(11));
        assert_eq!(log.len(), 3);
        let json = log.to_json();
        assert_eq!(json.items().len(), 3);
        assert_eq!(json.items()[0].get("parent"), Some(&Json::Null));
        assert_eq!(json.items()[0].get("end_s").unwrap().as_f64(), Some(0.011));
        assert_eq!(json.items()[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(json.items()[2].get("unit").unwrap().as_f64(), Some(1.0));
    }
}
