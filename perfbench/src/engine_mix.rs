//! `engine-mix`: the paper's 20/20/60 insert/remove/get mix on two threads,
//! one `GfslHandle` each, over a structure larger than the L2.
//!
//! Keys are uniform over `1..=2^21`; the structure is prefilled with every
//! even key (2^20 keys, ~48k chunks at the bulk loader's 3/4 fill).
//!
//! The work is fixed: each thread runs `--seconds x OPS_PER_THREAD_S`
//! operations, in `REPS` reps of whole rounds of `ROUND` on a fresh
//! structure each, which takes about `--seconds` on a 2-core x86-64 host.
//! Throughput falls as the structure ages under churn, so a fixed duration
//! would make a slower build age the structure less and look faster; a
//! fixed op count compares like with like. Each metric is the median over
//! reps, which keeps a burst of interference on the shared host from
//! moving it.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use gfsl::{Gfsl, GfslParams, OpStats};
use gfsl_rng::Lehmer64;

use crate::hist::Recorder;
use crate::trace::Tracer;
use crate::watchdog::{self, Progress, Watchdog, OP_GET, OP_INSERT, OP_REMOVE};
use crate::{check_valid, median, put_mem, ratio, value_of, write_spans, Ctx, MemSnap, Report};

const KEY_RANGE: u32 = 1 << 21;
const THREADS: usize = 2;
const ROUND: u64 = 1 << 14;
/// Nominal per-thread rate that turns `--seconds` into an op count.
const OPS_PER_THREAD_S: f64 = 650_000.0;
const SETUP_REPS: usize = 7;
/// Measured reps per run, each on a fresh structure; metrics are medians
/// over reps.
const REPS: usize = 3;
/// In the traced run, one op in `SAMPLE` records its span (all spans of
/// ~10M calls would not fit a small machine's memory).
const SAMPLE: u64 = 16;

/// One thread's results.
#[derive(Default)]
struct ThreadOut {
    ops: u64,
    reads: Recorder,
    writes: Recorder,
    inserted: u64,
    removed: u64,
    stats: OpStats,
}

/// One measured run over a fresh structure.
struct Run {
    wall_s: f64,
    threads: Vec<ThreadOut>,
    mem: (MemSnap, MemSnap),
}

impl Run {
    fn ops(&self) -> u64 {
        self.threads.iter().map(|t| t.ops).sum()
    }

    /// Quantile `q` of this rep's read (or write) call latencies, in µs.
    fn quantile_us(&self, reads: bool, q: f64) -> f64 {
        let mut all = Recorder::default();
        for t in &self.threads {
            all.merge(if reads { &t.reads } else { &t.writes });
        }
        all.quantile_us(q)
    }
}

/// A default-parameter structure over `1..=key_range`, holding every even
/// key.
pub fn build(key_range: u32) -> Gfsl {
    let pairs = (1..=key_range / 2).map(|i| (2 * i, value_of(2 * i)));
    Gfsl::from_sorted_pairs(GfslParams::sized_for(key_range as u64), pairs)
        .unwrap_or_else(|e| watchdog::fail(format!("prefill: {e}")))
}

/// Run `rounds` rounds per thread of the mix over `1..=key_range` on a
/// structure from [`build`], each thread drawing from its own seeded
/// stream, then check the result.
fn measure(
    list: Gfsl,
    key_range: u32,
    seed: u64,
    rounds: u64,
    tracers: Option<&mut Vec<Tracer>>,
) -> Run {
    let before = MemSnap::of(&list);
    let progress: Vec<Arc<Progress>> = (0..THREADS).map(|_| Arc::default()).collect();
    let dog = Watchdog::start(progress.clone());
    let barrier = Barrier::new(THREADS + 1);
    let mut slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..THREADS).map(|_| None).collect(),
    };
    let (wall_s, threads) = std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .iter_mut()
            .zip(&progress)
            .enumerate()
            .map(|(t, (slot, prog))| {
                let (list, barrier) = (&list, &barrier);
                let mut tracer = slot.take();
                let mut rng =
                    Lehmer64::new(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                s.spawn(move || {
                    let mut h = list.handle();
                    let mut out = ThreadOut::default();
                    barrier.wait();
                    for _ in 0..rounds * ROUND {
                        let roll = rng.below(100);
                        let k = rng.below(key_range as u64) as u32 + 1;
                        let code = match roll {
                            0..=19 => OP_INSERT,
                            20..=39 => OP_REMOVE,
                            _ => OP_GET,
                        };
                        prog.begin(code, k);
                        let a = Instant::now();
                        let res = match code {
                            OP_INSERT => h.try_insert(k, value_of(k)).map(u32::from),
                            OP_REMOVE => h.try_remove(k).map(u32::from),
                            _ => h.try_get(k).map(|v| v.unwrap_or(0)),
                        };
                        let b = Instant::now();
                        let ns = (b - a).as_nanos() as u64;
                        let got = res.unwrap_or_else(|e| {
                            watchdog::fail(format!("thread {t} op={code} key={k}: {e}"))
                        });
                        match code {
                            OP_INSERT => {
                                out.inserted += got as u64;
                                out.writes.record(ns);
                            }
                            OP_REMOVE => {
                                out.removed += got as u64;
                                out.writes.record(ns);
                            }
                            _ => {
                                if got != 0 && got != value_of(k) {
                                    watchdog::fail(format!(
                                        "thread {t} get key={k} returned {got}, stored {}",
                                        value_of(k)
                                    ));
                                }
                                out.reads.record(ns);
                            }
                        }
                        if let Some(tr) = tracer.as_deref_mut() {
                            if out.ops % SAMPLE == 0 {
                                let name = match code {
                                    OP_INSERT => "engine.insert",
                                    OP_REMOVE => "engine.remove",
                                    _ => "engine.get",
                                };
                                tr.span(name, (t as u64) << 48 | out.ops, 0, a, b);
                            }
                        }
                        out.ops += 1;
                        prog.tick();
                    }
                    prog.finish();
                    out.stats = h.stats();
                    out
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let outs: Vec<ThreadOut> = handles
            .into_iter()
            .map(|h| h.join().expect("engine-mix worker panicked"))
            .collect();
        (t0.elapsed().as_secs_f64(), outs)
    });
    dog.stop();
    check(&list, key_range, &threads);
    Run {
        wall_s,
        threads,
        mem: (before, MemSnap::of(&list)),
    }
}

/// Checks made apart from the program: a valid structure whose size and
/// values agree with the op results.
fn check(list: &Gfsl, key_range: u32, threads: &[ThreadOut]) {
    check_valid(list, "validate");
    let prefill = (key_range / 2) as u64;
    let inserted: u64 = threads.iter().map(|t| t.inserted).sum();
    let removed: u64 = threads.iter().map(|t| t.removed).sum();
    let live = list.len() as u64;
    if live != prefill + inserted - removed {
        watchdog::fail(format!(
            "live keys {live} != prefill {prefill} + inserted {inserted} - removed {removed}"
        ));
    }
    for (k, v) in list.export_pairs() {
        if v != value_of(k) {
            watchdog::fail(format!("key {k} holds {v}, stored {}", value_of(k)));
        }
    }
}

/// Run the mix over `1..=key_range` on fresh structures, `rounds` rounds
/// per thread at a time, until `seconds` have passed; returns the ops run.
/// A stalled op, a failed op or a failed check ends the process.
pub fn soak(key_range: u32, seed: u64, rounds: u64, seconds: f64) -> u64 {
    let t0 = Instant::now();
    let mut ops = 0;
    for rep in 0u64.. {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        ops += measure(
            build(key_range),
            key_range,
            seed.wrapping_add(rep),
            rounds,
            None,
        )
        .ops();
    }
    ops
}

pub fn run(ctx: &Ctx) -> Report {
    let rounds =
        ((ctx.seconds * OPS_PER_THREAD_S / (REPS as f64 * ROUND as f64)).round() as u64).max(1);
    let mut setup = Vec::with_capacity(SETUP_REPS + REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let list = build(KEY_RANGE);
        setup.push(t.elapsed().as_secs_f64());
        drop(list);
    }

    // Each rep runs on a fresh structure, so every rep ages it equally.
    // Traced: odd reps record spans, and the overhead compares the median
    // traced rep with the median untraced one.
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> = (0..THREADS as u64)
        .map(|t| Tracer::new(origin, t << 40))
        .collect();
    let (mut untraced, mut measured) = (Vec::new(), Vec::new());
    for rep in 0..REPS as u64 {
        let t = Instant::now();
        let list = build(KEY_RANGE);
        setup.push(t.elapsed().as_secs_f64());
        let seed = ctx
            .seed
            .wrapping_add(rep.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if ctx.trace && rep % 2 == 0 {
            untraced.push(measure(list, KEY_RANGE, seed, rounds, None));
        } else {
            let traced = ctx.trace.then_some(&mut tracers);
            measured.push(measure(list, KEY_RANGE, seed, rounds, traced));
        }
    }

    let (mut reads, mut writes) = (Recorder::default(), Recorder::default());
    let mut stats = OpStats::new();
    for t in measured.iter().flat_map(|m| &m.threads) {
        reads.merge(&t.reads);
        writes.merge(&t.writes);
        stats.merge(&t.stats);
    }
    let rate = |runs: &[Run]| median(runs.iter().map(|m| m.ops() as f64 / m.wall_s).collect());
    let per_rep = |f: &dyn Fn(&Run) -> f64| median(measured.iter().map(f).collect());
    let throughput = rate(&measured);
    let mut r = Report {
        attempted: measured.iter().chain(&untraced).map(Run::ops).sum(),
        ..Report::default()
    };
    r.put("throughput_ops_s", throughput, "ops/s");
    r.put("read_p50_us", per_rep(&|m| m.quantile_us(true, 0.50)), "us");
    r.put("read_p99_us", per_rep(&|m| m.quantile_us(true, 0.99)), "us");
    r.put(
        "write_p50_us",
        per_rep(&|m| m.quantile_us(false, 0.50)),
        "us",
    );
    r.put(
        "write_p99_us",
        per_rep(&|m| m.quantile_us(false, 0.99)),
        "us",
    );
    r.put("setup_s", median(setup), "s");
    r.put("samples_read", reads.count() as f64, "count");
    r.put("samples_write", writes.count() as f64, "count");

    if ctx.trace {
        let writes_n = stats.insert_ops + stats.remove_ops;
        let total = stats.total_ops();
        r.put(
            "core.chunk_reads_per_op",
            ratio(stats.chunk_reads, total),
            "reads/op",
        );
        r.put(
            "core.certify_retries_per_read",
            ratio(stats.certify_retries, stats.contains_ops),
            "retries/read",
        );
        r.put(
            "core.lock_retries_per_write",
            ratio(stats.lock_retries, writes_n),
            "retries/write",
        );
        r.put(
            "core.search_restarts_per_mop",
            1e6 * ratio(stats.search_restarts, total),
            "restarts/Mop",
        );
        r.put(
            "core.splits_per_kop",
            1e3 * ratio(stats.splits, total),
            "splits/kop",
        );
        r.put(
            "core.merges_per_kop",
            1e3 * ratio(stats.merges, total),
            "merges/kop",
        );
        let mem: Vec<_> = measured.iter().map(|m| m.mem).collect();
        put_mem(&mut r, &mem, total);
        let mut all = Tracer::new(origin, 0);
        for t in tracers {
            all.absorb(t);
        }
        r.put("trace.spans", all.len() as f64, "count");
        r.put(
            "trace.overhead_pct",
            100.0 * (rate(&untraced) / throughput - 1.0),
            "%",
        );
        write_spans(ctx, &all);
    }
    r
}
