//! `serve-durable`: `serve_durable` with one worker and the `Fifo` policy,
//! acknowledging through a `DurableGfsl` WAL under `fdatasync`.
//!
//! A closed-loop source of `CLIENTS` clients, each owning `WINDOW` keys
//! (prefilled with every other key, then checkpointed), issues the 30/30/40
//! insert/delete/get mix. So many clients make each group commit carry
//! ~300 records, which keeps the shared disk's `fdatasync` drift a small
//! share of an ack; the cost is that the commit is only ~13% of an ack, so
//! a commit must get ~3x slower before `write_p50_us` moves past its bound
//! (README.md gives the measured commit share per client count). After the
//! run the engine is dropped without a final checkpoint and reopened; the
//! reopen is timed as recovery.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gfsl::GfslParams;
use gfsl_durable::{destroy, DurableConfig, DurableGfsl, WalSink};
use gfsl_rng::Lehmer64;
use gfsl_serve::{
    serve_durable, CommitSink, DurabilityContract, Fifo, Reply, Request, RequestSource, Response,
    ServeConfig, ServiceMetrics, WriteEffect,
};
use gfsl_workload::ServeOp;

use crate::hist::Recorder;
use crate::trace::Tracer;
use crate::watchdog::{self, Progress, Watchdog, OP_GET, OP_INSERT, OP_REMOVE};
use crate::{check_valid, median, put_mem, ratio, value_of, write_spans, Ctx, MemSnap, Report};

const CLIENTS: usize = 1024;
const WINDOW: u32 = 1 << 8;
const SETUP_REPS: usize = 15;
/// Serve runs per benchmark run (even: traced runs alternate). Many short
/// runs, each metric their median, keep a burst on the shared host from
/// moving a run's figures.
const REPS: usize = 24;
/// In traced runs, one request in `SAMPLE` records its span (every group
/// commit does).
const SAMPLE: u64 = 16;
/// Throughput is the median of the acks per second over slices this long
/// (about 30 epochs each), so an `fdatasync` stall or a burst of stolen
/// time on the shared host moves a few slices, not the figure.
const SLICE: Duration = Duration::from_millis(100);

/// Tracing state the source and the sink share on the serve-loop thread.
#[derive(Default)]
struct Shared {
    tracer: Option<Tracer>,
    /// Id and start of the latest `wal.commit` span.
    last_commit: Option<(u64, Instant)>,
}

/// Group commits as the benchmark's sink saw them, over all serve runs.
#[derive(Default)]
struct CommitStats {
    lat: Recorder,
    commits: u64,
    records: u64,
    /// Time spent inside `commit`.
    busy: Duration,
}

/// The WAL sink, timed call by call.
struct TimedSink<'a, 'b> {
    inner: WalSink<'a>,
    shared: Rc<RefCell<Shared>>,
    stats: &'b mut CommitStats,
}

impl CommitSink for TimedSink<'_, '_> {
    fn commit(&mut self, effects: &[WriteEffect]) -> std::io::Result<u64> {
        let t0 = Instant::now();
        let res = self.inner.commit(effects);
        let t1 = Instant::now();
        self.stats.lat.record((t1 - t0).as_nanos() as u64);
        self.stats.commits += 1;
        self.stats.busy += t1 - t0;
        self.stats.records += effects.len() as u64;
        let mut sh = self.shared.borrow_mut();
        if let Some(tr) = sh.tracer.as_mut() {
            let id = tr.span("wal.commit", self.stats.commits, 0, t0, t1);
            sh.last_commit = Some((id, t0));
        }
        res
    }
}

struct Client {
    rng: Lehmer64,
    taken: Instant,
    expect: Reply,
}

/// Closed loop: each client issues its next request when the previous one
/// is acknowledged, with no think time.
struct Source {
    clients: Vec<Client>,
    /// Value per key - 1; 0 = absent. Each client owns its own window.
    model: Vec<u32>,
    due: VecDeque<(u64, u32)>,
    next_id: u64,
    start: Instant,
    limit: Duration,
    stopped: bool,
    outstanding: usize,
    done: u64,
    /// Start and `done` count of the current slice.
    slice_at: Instant,
    slice_done: u64,
    /// Acks per second in each whole slice of the serve run.
    rates: Vec<f64>,
    reads: Recorder,
    writes: Recorder,
    prog: Arc<Progress>,
    shared: Rc<RefCell<Shared>>,
}

impl Source {
    /// Reopen the loop for another `seconds`: every client is due at the
    /// start of the serve run's clock.
    fn restart(&mut self, seconds: f64) {
        self.start = Instant::now();
        self.limit = Duration::from_secs_f64(seconds);
        self.stopped = false;
        self.done = 0;
        self.slice_at = self.start;
        self.slice_done = 0;
        self.due = (0..CLIENTS as u32).map(|c| (0, c)).collect();
    }
}

impl RequestSource for Source {
    fn peek_ns(&mut self) -> Option<u64> {
        if !self.stopped && self.start.elapsed() >= self.limit {
            self.stopped = true;
        }
        if self.stopped {
            return None;
        }
        self.due.front().map(|&(t, _)| t)
    }

    fn take(&mut self) -> Request {
        let (t, c) = self.due.pop_front().expect("take follows a Some peek");
        let cl = &mut self.clients[c as usize];
        let k = 1 + c * WINDOW + cl.rng.below(WINDOW as u64) as u32;
        let slot = &mut self.model[k as usize - 1];
        let (op, expect, code) = match cl.rng.below(100) {
            0..=29 => {
                let fresh = *slot == 0;
                if fresh {
                    *slot = value_of(k);
                }
                (
                    ServeOp::Insert(k, value_of(k)),
                    Reply::Inserted(fresh),
                    OP_INSERT,
                )
            }
            30..=59 => {
                let present = *slot != 0;
                *slot = 0;
                (ServeOp::Delete(k), Reply::Deleted(present), OP_REMOVE)
            }
            _ => (
                ServeOp::Get(k),
                Reply::Got(Some(*slot).filter(|&v| v != 0)),
                OP_GET,
            ),
        };
        self.prog.begin(code, k);
        cl.expect = expect;
        cl.taken = Instant::now();
        self.outstanding += 1;
        self.next_id += 1;
        Request {
            client: c,
            id: self.next_id,
            arrival_ns: t,
            op,
        }
    }

    fn on_complete(&mut self, resp: &Response) {
        let now = Instant::now();
        let cl = &self.clients[resp.client as usize];
        if resp.reply != cl.expect {
            watchdog::fail(format!(
                "client {} request {}: got {:?}, model says {:?}",
                resp.client, resp.id, resp.reply, cl.expect
            ));
        }
        let ns = (now - cl.taken).as_nanos() as u64;
        let name = match resp.reply {
            Reply::Got(_) => {
                self.reads.record(ns);
                "serve.get"
            }
            Reply::Inserted(_) => {
                self.writes.record(ns);
                "serve.insert"
            }
            _ => {
                self.writes.record(ns);
                "serve.delete"
            }
        };
        let mut sh = self.shared.borrow_mut();
        let parent = match sh.last_commit {
            Some((id, t0)) if t0 >= cl.taken => id,
            _ => 0,
        };
        if let Some(tr) = sh
            .tracer
            .as_mut()
            .filter(|_| resp.id.is_multiple_of(SAMPLE))
        {
            tr.span(name, resp.id, parent, cl.taken, now);
        }
        self.outstanding -= 1;
        self.done += 1;
        self.prog.tick();
        let since = now - self.slice_at;
        if !self.stopped && since >= SLICE {
            self.rates
                .push((self.done - self.slice_done) as f64 / since.as_secs_f64());
            self.slice_at = now;
            self.slice_done = self.done;
        }
        if !self.stopped {
            self.due.push_back((resp.done_ns, resp.client));
        }
    }

    fn on_shed(&mut self, req: Request, _now_ns: u64) {
        watchdog::fail(format!(
            "request {} of client {} was shed",
            req.id, req.client
        ));
    }

    fn exhausted(&self) -> bool {
        self.stopped && self.outstanding == 0
    }
}

fn config(dir: std::path::PathBuf) -> DurableConfig {
    DurableConfig {
        contract: DurabilityContract::DataSynced,
        params: GfslParams::sized_for(CLIENTS as u64 * WINDOW as u64),
        ..DurableConfig::new(dir)
    }
}

/// Create the engine, prefill every other key of every window, checkpoint.
fn build(cfg: &DurableConfig) -> DurableGfsl {
    let mut d = DurableGfsl::create(cfg).unwrap_or_else(|e| watchdog::fail(format!("create: {e}")));
    {
        let mut h = d.list().handle();
        for k in (1..=CLIENTS as u32 * WINDOW).step_by(2) {
            h.try_insert(k, value_of(k))
                .unwrap_or_else(|e| watchdog::fail(format!("prefill {k}: {e}")));
        }
    }
    d.checkpoint()
        .unwrap_or_else(|e| watchdog::fail(format!("checkpoint: {e}")));
    d
}

fn wal_bytes(cfg: &DurableConfig) -> u64 {
    std::fs::read_dir(cfg.wal_dir())
        .unwrap_or_else(|e| watchdog::fail(format!("read wal dir: {e}")))
        .map(|e| e.and_then(|e| e.metadata()).map(|m| m.len()).unwrap_or(0))
        .sum()
}

struct Phase {
    wall_s: f64,
    done: u64,
    rates: Vec<f64>,
    reads: Recorder,
    writes: Recorder,
    metrics: ServiceMetrics,
}

fn phase(d: &mut DurableGfsl, src: &mut Source, commits: &mut CommitStats, seconds: f64) -> Phase {
    let dog = Watchdog::start(vec![src.prog.clone()]);
    src.restart(seconds);
    let (list, wal) = d.serve_parts();
    let mut sink = TimedSink {
        inner: wal,
        shared: src.shared.clone(),
        stats: commits,
    };
    let cfg = ServeConfig::new(1);
    let t0 = Instant::now();
    let report = serve_durable(list, &cfg, &mut Fifo::default(), src, &mut sink);
    let wall_s = t0.elapsed().as_secs_f64();
    dog.stop();
    let mut rates = std::mem::take(&mut src.rates);
    if rates.is_empty() {
        // A serve run shorter than a slice counts as one.
        rates.push(src.done as f64 / wall_s);
    }
    Phase {
        wall_s,
        done: src.done,
        rates,
        reads: std::mem::take(&mut src.reads),
        writes: std::mem::take(&mut src.writes),
        metrics: report.metrics,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let base = ctx.out.join(format!("durable-{}", std::process::id()));
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<(DurableGfsl, DurableConfig)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((d, cfg)) = built.take() {
            drop(d);
            destroy(&cfg.dir)
                .unwrap_or_else(|e| watchdog::fail(format!("remove {:?}: {e}", cfg.dir)));
        }
        let cfg = config(base.join(format!("rep{rep}")));
        let t = Instant::now();
        let d = build(&cfg);
        setup.push(t.elapsed().as_secs_f64());
        built = Some((d, cfg));
    }
    let (mut d, cfg) = built.expect("set up");
    let mem0 = MemSnap::of(d.list());
    let bytes0 = wal_bytes(&cfg);

    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut model = vec![0u32; CLIENTS * WINDOW as usize];
    for k in (1..=CLIENTS as u32 * WINDOW).step_by(2) {
        model[k as usize - 1] = value_of(k);
    }
    let mut src = Source {
        clients: (0..CLIENTS as u64)
            .map(|c| Client {
                rng: Lehmer64::new(ctx.seed ^ (c + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
                taken: Instant::now(),
                expect: Reply::Got(None),
            })
            .collect(),
        model,
        due: VecDeque::new(),
        next_id: 0,
        start: Instant::now(),
        limit: Duration::ZERO,
        stopped: true,
        outstanding: 0,
        done: 0,
        slice_at: Instant::now(),
        slice_done: 0,
        rates: Vec::new(),
        reads: Recorder::default(),
        writes: Recorder::default(),
        prog: Arc::new(Progress::default()),
        shared: shared.clone(),
    };
    let mut commits = CommitStats::default();
    // Reps are successive serve runs on the same engine; metrics are
    // medians over reps. Traced: odd reps record spans, and the overhead
    // compares them with the untraced reps.
    let origin = Instant::now();
    let mut tracer = ctx.trace.then(|| Tracer::new(origin, 0));
    let (mut untraced, mut measured) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let traced = ctx.trace && rep % 2 == 1;
        if traced {
            shared.borrow_mut().tracer = tracer.take();
        }
        let p = phase(&mut d, &mut src, &mut commits, ctx.seconds / REPS as f64);
        if traced {
            tracer = shared.borrow_mut().tracer.take();
        }
        if ctx.trace && !traced {
            untraced.push(p);
        } else {
            measured.push(p);
        }
    }
    let phases: Vec<&Phase> = untraced.iter().chain(&measured).collect();

    // Checks made apart from the program: live state equals the model of
    // acknowledged writes, and recovery brings back exactly the live state.
    for p in &phases {
        if p.metrics.failed != 0 || p.metrics.sheds != 0 {
            watchdog::fail(format!(
                "serve reported {} failed, {} shed",
                p.metrics.failed, p.metrics.sheds
            ));
        }
    }
    check_valid(d.list(), "validate live");
    let live = d.list().pairs();
    let want: Vec<(u32, u32)> = src
        .model
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| (i as u32 + 1, v))
        .collect();
    if live != want {
        watchdog::fail(format!(
            "live export ({} pairs) differs from the acknowledged model ({})",
            live.len(),
            want.len()
        ));
    }
    let records = commits.records;
    let since_ckpt = d.last_lsn() - d.checkpoint_lsn();
    if since_ckpt != records {
        watchdog::fail(format!(
            "WAL holds {since_ckpt} records past the checkpoint, the sink committed {records}"
        ));
    }
    let bytes = wal_bytes(&cfg) - bytes0;
    let mut r = Report::default();
    let total_ops: u64 = phases.iter().map(|p| p.metrics.ops).sum();
    put_mem(&mut r, &[(mem0, MemSnap::of(d.list()))], total_ops);

    drop(d);
    let t = Instant::now();
    let (back, rep) =
        DurableGfsl::open(&cfg).unwrap_or_else(|e| watchdog::fail(format!("reopen: {e}")));
    let t1 = Instant::now();
    let recovery_s = (t1 - t).as_secs_f64();
    if let Some(tr) = tracer.as_mut() {
        tr.span("recover.open", 0, 0, t, t1);
    }
    check_valid(back.list(), "validate recovered");
    if back.list().pairs() != live {
        watchdog::fail("recovered export differs from the live export taken before the drop");
    }
    if rep.replayed != records || rep.redundant_replays != 0 {
        watchdog::fail(format!(
            "recovery replayed {} records ({} redundant), the WAL took {records} since the checkpoint",
            rep.replayed, rep.redundant_replays
        ));
    }
    drop(back);
    destroy(&base).unwrap_or_else(|e| watchdog::fail(format!("remove {base:?}: {e}")));

    r.attempted = phases.iter().map(|p| p.done).sum();
    let rate = |ps: &[Phase]| median(ps.iter().flat_map(|p| p.rates.iter().copied()).collect());
    let per_rep = |f: &dyn Fn(&Phase) -> f64| median(measured.iter().map(f).collect());
    let throughput = rate(&measured);
    r.put("throughput_ops_s", throughput, "ops/s");
    r.put("read_p50_us", per_rep(&|p| p.reads.quantile_us(0.50)), "us");
    r.put("read_p99_us", per_rep(&|p| p.reads.quantile_us(0.99)), "us");
    r.put(
        "write_p50_us",
        per_rep(&|p| p.writes.quantile_us(0.50)),
        "us",
    );
    r.put(
        "write_p99_us",
        per_rep(&|p| p.writes.quantile_us(0.99)),
        "us",
    );
    r.put("recover.reopen_s", recovery_s, "s");
    r.put("setup_s", median(setup), "s");
    r.put(
        "samples_read",
        measured.iter().map(|p| p.reads.count()).sum::<u64>() as f64,
        "count",
    );
    r.put(
        "samples_write",
        measured.iter().map(|p| p.writes.count()).sum::<u64>() as f64,
        "count",
    );

    if ctx.trace {
        let acks: u64 = phases.iter().map(|p| p.metrics.ops).sum();
        let commits_seen: u64 = phases.iter().map(|p| p.metrics.durable_commits).sum();
        r.put(
            "serve.acks_per_commit",
            ratio(acks, commits_seen),
            "acks/commit",
        );
        r.put("wal.commit_p50_us", commits.lat.quantile_us(0.50), "us");
        r.put("wal.commit_p99_us", commits.lat.quantile_us(0.99), "us");
        let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
        r.put(
            "wal.commit_wall_share",
            commits.busy.as_secs_f64() / wall_s,
            "ratio",
        );
        r.put(
            "wal.records_per_commit",
            ratio(records, commits.commits),
            "records/commit",
        );
        r.put(
            "wal.bytes_per_record",
            ratio(bytes, records),
            "bytes/record",
        );
        r.put(
            "recover.replay_records_per_s",
            rep.replayed as f64 / recovery_s,
            "records/s",
        );
        let tr = tracer.take().expect("traced reps");
        r.put("trace.spans", tr.len() as f64, "count");
        r.put(
            "trace.overhead_pct",
            100.0 * (rate(&untraced) / throughput - 1.0),
            "%",
        );
        write_spans(ctx, &tr);
    }
    r
}
