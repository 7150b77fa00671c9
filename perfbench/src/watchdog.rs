//! Failure handling: a stalled operation, a panic or a failed check ends
//! the run with a non-zero exit and no metrics, naming the workload, the
//! operation and the key.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An operation that makes no progress for this long fails the run.
pub const STALL: Duration = Duration::from_secs(5);

static WORKLOAD: OnceLock<String> = OnceLock::new();

/// Operation codes published to the watchdog.
pub const OP_GET: u64 = 1;
/// Insert.
pub const OP_INSERT: u64 = 2;
/// Remove / delete.
pub const OP_REMOVE: u64 = 3;
/// Range count.
pub const OP_RANGE: u64 = 4;
/// Ping.
pub const OP_PING: u64 = 5;

fn op_name(code: u64) -> &'static str {
    match code {
        OP_GET => "get",
        OP_INSERT => "insert",
        OP_REMOVE => "remove",
        OP_RANGE => "range",
        OP_PING => "ping",
        _ => "none",
    }
}

/// Install the panic hook and remember the workload name for messages.
pub fn install(workload: &str) {
    WORKLOAD.set(workload.to_string()).ok();
    std::panic::set_hook(Box::new(|info| {
        eprintln!("FAIL workload={} panic: {info}", workload_name());
        std::process::exit(2);
    }));
}

fn workload_name() -> &'static str {
    WORKLOAD.get().map(String::as_str).unwrap_or("?")
}

/// A failed correctness check: report it and exit without metrics.
pub fn fail(what: impl std::fmt::Display) -> ! {
    eprintln!("FAIL workload={} check: {what}", workload_name());
    std::process::exit(1);
}

/// One worker's progress, as the watchdog sees it. Each slot has a cache
/// line of its own, so workers publishing on every operation do not share
/// one.
#[derive(Default)]
#[repr(align(64))]
pub struct Progress {
    done: AtomicU64,
    what: AtomicU64,
    finished: AtomicBool,
}

impl Progress {
    /// Publish the operation about to run (`code`, `key`).
    #[inline]
    pub fn begin(&self, code: u64, key: u32) {
        self.what.store(code << 32 | key as u64, Ordering::Relaxed);
    }

    /// Count one completed operation.
    #[inline]
    pub fn tick(&self) {
        self.done.fetch_add(1, Ordering::Relaxed);
    }

    /// The worker has run all its operations; the watchdog stops watching
    /// this slot.
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }
}

/// Watches a set of [`Progress`] slots from its own thread.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching `slots`; an unfinished slot whose count stays still
    /// for [`STALL`] ends the process.
    pub fn start(slots: Vec<Arc<Progress>>) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                let mut seen: Vec<(u64, Instant)> = slots
                    .iter()
                    .map(|s| (s.done.load(Ordering::Relaxed), Instant::now()))
                    .collect();
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    for (i, s) in slots.iter().enumerate() {
                        let done = s.done.load(Ordering::Relaxed);
                        if s.finished.load(Ordering::Relaxed) {
                            continue;
                        }
                        if done != seen[i].0 {
                            seen[i] = (done, Instant::now());
                        } else if seen[i].1.elapsed() >= STALL && !flag.load(Ordering::Relaxed) {
                            let what = s.what.load(Ordering::Relaxed);
                            eprintln!(
                                "FAIL workload={} stall: worker {i} made no progress for {:?} \
                                 in op={} key={} after {done} ops",
                                workload_name(),
                                STALL,
                                op_name(what >> 32),
                                what as u32
                            );
                            std::process::exit(3);
                        }
                    }
                }
            })
            .expect("spawn watchdog");
        Watchdog {
            stop,
            thread: Some(thread),
        }
    }

    /// Stop watching and join the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("watchdog thread panicked");
        }
    }
}
