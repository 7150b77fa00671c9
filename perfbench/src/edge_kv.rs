//! `edge-kv`: one client thread drives two pipelined connections to an
//! `EdgeServer` with one worker on loopback.
//!
//! Each connection owns a window of `WINDOW` keys (prefilled with every
//! other key) and draws zipf(0.6) keys in it. The mix is RANGE10 —
//! 10/10/70 insert/delete/get plus 10% counts over 64-key windows — with
//! one request in 50 a `Ping`. A connection keeps `DEPTH` requests in
//! flight (fewer than the server's `batch_ops`) and holds back a request
//! that conflicts with one in flight, so all in-flight requests commute and
//! the per-connection model predicts every reply exactly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gfsl::{Gfsl, GfslParams};
use gfsl_edge::{EdgeClient, EdgeConfig, EdgeEngine, EdgeServer, Req, Resp, StatsSnapshot};
use gfsl_rng::Lehmer64;
use gfsl_workload::{ServeOp, Zipf};

use crate::hist::Recorder;
use crate::trace::Tracer;
use crate::watchdog::{self, Progress, Watchdog, OP_GET, OP_INSERT, OP_PING, OP_RANGE, OP_REMOVE};
use crate::{check_valid, median, put_mem, ratio, value_of, write_spans, Ctx, MemSnap, Report};

const WINDOW: u32 = 1 << 15;
const CONNS: usize = 2;
const DEPTH: usize = 8;
const SCAN_SPAN: u32 = 64;
const PING_ONE_IN: u64 = 50;
const ZIPF_THETA: f64 = 0.6;
const SETUP_REPS: usize = 31;
/// Throughput is the median of the replies per second over slices this long.
const SLICE: Duration = Duration::from_millis(250);

fn key_of(conn: usize, rank: u32) -> u32 {
    // An odd multiplier permutes the window, so hot ranks scatter over it.
    1 + conn as u32 * WINDOW + ((rank - 1).wrapping_mul(0x9E37_79B1) & (WINDOW - 1))
}

fn prefill_pairs() -> impl Iterator<Item = (u32, u32)> {
    (0..CONNS as u32 * WINDOW)
        .step_by(2)
        .map(|off| (1 + off, value_of(1 + off)))
}

fn build() -> Arc<Gfsl> {
    let params = GfslParams::sized_for((CONNS as u32 * WINDOW) as u64);
    Arc::new(
        Gfsl::from_sorted_pairs(params, prefill_pairs())
            .unwrap_or_else(|e| watchdog::fail(format!("prefill: {e}"))),
    )
}

/// Keys a request touches, and whether it writes them.
fn footprint(req: &Req) -> Option<(u32, u32, bool)> {
    match *req {
        Req::Get(k) => Some((k, k, false)),
        Req::Insert(k, _) | Req::Delete(k) => Some((k, k, true)),
        Req::Range(lo, hi) => Some((lo, hi, false)),
        _ => None,
    }
}

fn conflicts(a: &Req, b: &Req) -> bool {
    match (footprint(a), footprint(b)) {
        (Some((alo, ahi, aw)), Some((blo, bhi, bw))) => (aw || bw) && alo <= bhi && blo <= ahi,
        _ => false,
    }
}

struct Flight {
    id: u64,
    req: Req,
    expect: Resp,
    sent: Instant,
}

struct Conn {
    idx: usize,
    client: EdgeClient,
    rng: Lehmer64,
    zipf: Zipf,
    held: Option<Req>,
    inflight: Vec<Flight>,
    /// Value per window offset; 0 = absent.
    model: Vec<u32>,
}

impl Conn {
    fn base(&self) -> u32 {
        1 + self.idx as u32 * WINDOW
    }

    fn draw(&mut self) -> Req {
        if self.rng.below(PING_ONE_IN) == 0 {
            return Req::Ping;
        }
        let roll = self.rng.below(100);
        let k = key_of(self.idx, self.zipf.draw(&mut self.rng));
        match roll {
            0..=9 => Req::Insert(k, value_of(k)),
            10..=19 => Req::Delete(k),
            20..=89 => Req::Get(k),
            _ => Req::Range(k, (k + SCAN_SPAN - 1).min(self.base() + WINDOW - 1)),
        }
    }

    /// The reply the model predicts, applied to the model.
    fn apply(&mut self, req: &Req) -> Resp {
        let base = self.base();
        let slot = |k: u32| (k - base) as usize;
        match *req {
            Req::Ping => Resp::Pong,
            Req::Get(k) => Resp::Got(Some(self.model[slot(k)]).filter(|&v| v != 0)),
            Req::Insert(k, v) => {
                let fresh = self.model[slot(k)] == 0;
                if fresh {
                    self.model[slot(k)] = v;
                }
                Resp::Inserted(fresh)
            }
            Req::Delete(k) => {
                let present = self.model[slot(k)] != 0;
                self.model[slot(k)] = 0;
                Resp::Deleted(present)
            }
            Req::Range(lo, hi) => Resp::Ranged(
                self.model[slot(lo)..=slot(hi)]
                    .iter()
                    .filter(|&&v| v != 0)
                    .count() as u32,
            ),
            other => watchdog::fail(format!("request {other:?} is not in the mix")),
        }
    }
}

fn op_code(req: &Req) -> (u64, u32, &'static str) {
    match *req {
        Req::Get(k) => (OP_GET, k, "edge.get"),
        Req::Insert(k, _) => (OP_INSERT, k, "edge.insert"),
        Req::Delete(k) => (OP_REMOVE, k, "edge.delete"),
        Req::Range(lo, _) => (OP_RANGE, lo, "edge.range"),
        _ => (OP_PING, 0, "edge.ping"),
    }
}

#[derive(Default)]
struct Lat {
    reads: Recorder,
    writes: Recorder,
    scans: Recorder,
    pings: Recorder,
}

struct Phase {
    done: u64,
    wall_s: f64,
    /// Replies per second in each whole `SLICE` of the phase.
    rates: Vec<f64>,
    before: StatsSnapshot,
    after: StatsSnapshot,
}

/// Drive both connections for `seconds`, then drain what is in flight.
fn phase(
    server: &EdgeServer,
    conns: &mut [Conn],
    seconds: f64,
    lat: &mut Lat,
    sent_ops: &mut Vec<ServeOp>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let prog = Arc::new(Progress::default());
    let dog = Watchdog::start(vec![prog.clone()]);
    let before = server.stats();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut done = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let (mut slice_at, mut slice_done) = (start, 0u64);
    loop {
        let stopping = start.elapsed() >= limit;
        let since = slice_at.elapsed();
        if !stopping && since >= SLICE {
            rates.push((done - slice_done) as f64 / since.as_secs_f64());
            slice_at += since;
            slice_done = done;
        }
        if stopping && conns.iter().all(|c| c.inflight.is_empty()) {
            break;
        }
        let mut progressed = false;
        for c in conns.iter_mut() {
            if !stopping && c.inflight.len() < DEPTH {
                let now = Instant::now();
                let mut sent = false;
                while c.inflight.len() < DEPTH {
                    let req = c.held.take().unwrap_or_else(|| c.draw());
                    if c.inflight.iter().any(|f| conflicts(&f.req, &req)) {
                        c.held = Some(req);
                        break;
                    }
                    let expect = c.apply(&req);
                    let id = c.client.send(req);
                    if let Some(op) = req.op() {
                        sent_ops.push(op);
                    }
                    let (code, key, _) = op_code(&req);
                    prog.begin(code, key);
                    c.inflight.push(Flight {
                        id,
                        req,
                        expect,
                        sent: now,
                    });
                    sent = true;
                }
                if sent {
                    c.client
                        .flush()
                        .unwrap_or_else(|e| watchdog::fail(format!("conn {} send: {e}", c.idx)));
                }
            }
            c.client
                .poll()
                .unwrap_or_else(|e| watchdog::fail(format!("conn {} receive: {e}", c.idx)));
            while let Some((id, resp)) = c.client.take_ready() {
                let now = Instant::now();
                let at = c
                    .inflight
                    .iter()
                    .position(|f| f.id == id)
                    .unwrap_or_else(|| {
                        watchdog::fail(format!("conn {} reply to unknown id {id}", c.idx))
                    });
                let f = c.inflight.swap_remove(at);
                if resp != f.expect {
                    watchdog::fail(format!(
                        "conn {} {:?}: got {resp:?}, model says {:?}",
                        c.idx, f.req, f.expect
                    ));
                }
                let ns = (now - f.sent).as_nanos() as u64;
                match f.req {
                    Req::Get(_) => lat.reads.record(ns),
                    Req::Insert(..) | Req::Delete(_) => lat.writes.record(ns),
                    Req::Range(..) => lat.scans.record(ns),
                    _ => lat.pings.record(ns),
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.span(op_code(&f.req).2, (c.idx as u64) << 48 | id, 0, f.sent, now);
                }
                done += 1;
                prog.tick();
                progressed = true;
            }
        }
        if !progressed {
            std::hint::spin_loop();
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    dog.stop();
    if rates.is_empty() {
        // A phase shorter than a slice counts as one.
        rates.push(done as f64 / wall_s);
    }
    Phase {
        done,
        wall_s,
        rates,
        before,
        after: server.stats(),
    }
}

fn start(list: &Arc<Gfsl>) -> (EdgeServer, Vec<EdgeClient>) {
    let cfg = EdgeConfig {
        workers: 1,
        ..EdgeConfig::default()
    };
    assert!(CONNS * DEPTH <= cfg.intake_cap && DEPTH < cfg.batch_ops);
    let server = EdgeServer::start(EdgeEngine::Single(list.clone()), cfg)
        .unwrap_or_else(|e| watchdog::fail(format!("start server: {e}")));
    let clients = (0..CONNS)
        .map(|i| {
            let mut c = EdgeClient::connect(server.addr(), None)
                .unwrap_or_else(|e| watchdog::fail(format!("connect {i}: {e}")));
            c.stream()
                .set_nonblocking(true)
                .unwrap_or_else(|e| watchdog::fail(format!("nonblocking {i}: {e}")));
            c
        })
        .collect();
    (server, clients)
}

pub fn run(ctx: &Ctx) -> Report {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut up: Option<(EdgeServer, Vec<EdgeClient>, Arc<Gfsl>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, clients, _)) = up.take() {
            drop(clients);
            server.shutdown();
        }
        let t = Instant::now();
        let list = build();
        let (server, clients) = start(&list);
        setup.push(t.elapsed().as_secs_f64());
        up = Some((server, clients, list));
    }
    let (server, clients, list) = up.expect("set up");
    let mem0 = MemSnap::of(&list);

    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(idx, client)| {
            let mut model = vec![0u32; WINDOW as usize];
            for off in (0..WINDOW).step_by(2) {
                model[off as usize] = value_of(1 + idx as u32 * WINDOW + off);
            }
            Conn {
                idx,
                client,
                rng: Lehmer64::new(ctx.seed ^ (idx as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
                zipf: Zipf::new(WINDOW, ZIPF_THETA),
                held: None,
                inflight: Vec::with_capacity(DEPTH),
                model,
            }
        })
        .collect();

    let origin = Instant::now();
    let mut lat = Lat::default();
    let mut sent_ops = Vec::new();
    let mut phases = Vec::new();
    let mut tracer = None;
    if ctx.trace {
        let mut untraced = Lat::default();
        phases.push(phase(
            &server,
            &mut conns,
            ctx.seconds / 2.0,
            &mut untraced,
            &mut sent_ops,
            None,
        ));
        let mut tr = Tracer::new(origin, 0);
        phases.push(phase(
            &server,
            &mut conns,
            ctx.seconds / 2.0,
            &mut lat,
            &mut sent_ops,
            Some(&mut tr),
        ));
        tracer = Some(tr);
    } else {
        phases.push(phase(
            &server,
            &mut conns,
            ctx.seconds,
            &mut lat,
            &mut sent_ops,
            None,
        ));
    }

    // Checks made apart from the program.
    let models: Vec<Vec<u32>> = conns.into_iter().map(|c| c.model).collect();
    let fin = server.shutdown();
    if fin.ops_failed != 0 || fin.sheds != 0 || fin.proto_errors != 0 || fin.timeouts != 0 {
        watchdog::fail(format!("server reported failures: {fin:?}"));
    }
    check_valid(&list, "validate");
    let want: Vec<(u32, u32)> = models
        .iter()
        .enumerate()
        .flat_map(|(i, m)| {
            m.iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(move |(off, &v)| (1 + i as u32 * WINDOW + off as u32, v))
        })
        .collect();
    let got = list.pairs();
    if got != want {
        let first = got.iter().zip(&want).position(|(a, b)| a != b);
        watchdog::fail(format!(
            "final contents differ from the client models: {} vs {} pairs, first difference at {first:?}",
            got.len(),
            want.len()
        ));
    }

    let attempted: u64 = phases.iter().map(|p| p.done).sum();
    let mut r = Report {
        attempted,
        ..Report::default()
    };
    let last = phases.last().expect("one phase");
    let throughput = median(last.rates.clone());
    r.put("throughput_ops_s", throughput, "ops/s");
    r.put("read_p50_us", lat.reads.quantile_us(0.50), "us");
    r.put("read_p99_us", lat.reads.quantile_us(0.99), "us");
    r.put("write_p50_us", lat.writes.quantile_us(0.50), "us");
    r.put("write_p99_us", lat.writes.quantile_us(0.99), "us");
    r.put("edge.scan_p50_us", lat.scans.quantile_us(0.50), "us");
    r.put("setup_s", median(setup), "s");
    r.put("samples_read", lat.reads.count() as f64, "count");
    r.put("samples_write", lat.writes.count() as f64, "count");

    if let Some(mut tr) = tracer {
        let untraced = median(phases[0].rates.clone());
        let epochs = last.after.epochs - last.before.epochs;
        let engine_ops = last.after.ops_ok - last.before.ops_ok;
        let per_epoch = ratio(engine_ops, epochs);
        r.put("edge.ping_p50_us", lat.pings.quantile_us(0.50), "us");
        r.put("edge.ops_per_epoch", per_epoch, "ops/epoch");
        r.put("edge.epochs_per_s", epochs as f64 / last.wall_s, "epochs/s");
        put_mem(&mut r, &[(mem0, MemSnap::of(&list))], sent_ops.len() as u64);

        // The engine's share: the same op stream through the edge's engine
        // call, in batches the size of the observed epochs, on an engine
        // prefilled the same way.
        let batch = (per_epoch.round() as usize).max(1);
        let engine = EdgeEngine::Single(build());
        let mut out = Vec::with_capacity(batch);
        let mut exec_ns = 0u64;
        for (i, ops) in sent_ops.chunks(batch).enumerate() {
            out.clear();
            let t0 = Instant::now();
            engine.execute(ops, &mut out);
            let t1 = Instant::now();
            exec_ns += (t1 - t0).as_nanos() as u64;
            tr.span("engine.execute", i as u64, 0, t0, t1);
            if out.len() != ops.len()
                || out
                    .iter()
                    .any(|r| matches!(r, gfsl_serve::Reply::Failed(_)))
            {
                watchdog::fail(format!("engine replay batch {i} failed: {out:?}"));
            }
        }
        r.put(
            "engine.exec_ns_per_op",
            ratio(exec_ns, sent_ops.len() as u64),
            "ns/op",
        );
        r.put("trace.spans", tr.len() as f64, "count");
        r.put(
            "trace.overhead_pct",
            100.0 * (untraced / throughput - 1.0),
            "%",
        );
        write_spans(ctx, &tr);
    }
    r
}
