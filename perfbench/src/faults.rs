//! Reproducers for faults the benchmark's workloads stay clear of.
//!
//! ```text
//! perfbench --probe reclaim-20k  --seed <n> --seconds <s>
//! perfbench --probe window-churn --seed <n> --seconds <s>
//! ```
//!
//! Each probe runs until the time is up and prints `probe ... passed`, or
//! ends the process non-zero the way a benchmark run does: a stalled
//! operation (exit 3), a failed operation or check (exit 1), a panic
//! (exit 2).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use gfsl::{Gfsl, GfslParams};

use crate::engine_mix;
use crate::watchdog::{self, Progress, Watchdog, OP_INSERT, OP_REMOVE};
use crate::{check_valid, value_of};

/// Keys in the contention regime that `engine-mix` leaves out.
const SMALL_RANGE: u32 = 20_000;
/// Rounds of 2^14 ops per thread on each fresh structure.
const SMALL_ROUNDS: u64 = 256;

/// Keys each writer keeps live in its sliding window.
const WINDOW: u32 = 4096;
/// Pool size: ~33x the ~550 chunks the two windows occupy.
const CHURN_POOL: u32 = 18_000;

pub fn run(probe: &str, seed: u64, seconds: f64) {
    match probe {
        "reclaim-20k" => {
            let ops = engine_mix::soak(SMALL_RANGE, seed, SMALL_ROUNDS, seconds);
            println!("probe reclaim-20k passed: {ops} ops over {SMALL_RANGE} keys");
        }
        "window-churn" => {
            let ops = window_churn(seconds);
            println!(
                "probe window-churn passed: {ops} ops, windows of {WINDOW} keys, pool {CHURN_POOL}"
            );
        }
        other => watchdog::fail(format!("unknown probe {other}")),
    }
}

/// Two writers each insert ascending keys of their own class and remove
/// the key `WINDOW` behind, so the live set stays small while chunks are
/// split, merged and recycled through the reclaimer at the pool's rate.
fn window_churn(seconds: f64) -> u64 {
    let list = Gfsl::new(GfslParams {
        pool_chunks: CHURN_POOL,
        ..GfslParams::default()
    })
    .unwrap_or_else(|e| watchdog::fail(format!("new: {e}")));
    let progress: Vec<Arc<Progress>> = (0..2).map(|_| Arc::default()).collect();
    let dog = Watchdog::start(progress.clone());
    let barrier = Barrier::new(2);
    let t0 = Instant::now();
    let ends: Vec<u32> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .zip(&progress)
            .map(|(t, prog)| {
                let (list, barrier) = (&list, &barrier);
                s.spawn(move || {
                    let mut h = list.handle();
                    let key = |i: u32| i * 2 + t + 1;
                    barrier.wait();
                    let mut i = 0u32;
                    while !i.is_multiple_of(1024) || t0.elapsed().as_secs_f64() < seconds {
                        let k = key(i);
                        prog.begin(OP_INSERT, k);
                        match h.try_insert(k, value_of(k)) {
                            Ok(true) => {}
                            other => {
                                watchdog::fail(format!("writer {t} insert key={k}: {other:?}"))
                            }
                        }
                        if i >= WINDOW {
                            let old = key(i - WINDOW);
                            prog.begin(OP_REMOVE, old);
                            match h.try_remove(old) {
                                Ok(true) => {}
                                other => watchdog::fail(format!(
                                    "writer {t} remove key={old}: {other:?}"
                                )),
                            }
                        }
                        prog.tick();
                        i += 1;
                    }
                    prog.finish();
                    i
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("churn writer panicked"))
            .collect()
    });
    dog.stop();
    check_valid(&list, "validate");
    let mut want: Vec<u32> = ends
        .iter()
        .zip(0u32..)
        .flat_map(|(&end, t)| (end.saturating_sub(WINDOW)..end).map(move |i| i * 2 + t + 1))
        .collect();
    want.sort_unstable();
    if list.keys() != want {
        watchdog::fail("final keys differ from the two writers' windows");
    }
    ends.iter().map(|&e| 2 * e as u64).sum()
}
