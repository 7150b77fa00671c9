//! `perfbench` — one wall-clock benchmark over the engine, the TCP edge and
//! the durable serve path.
//!
//! ```text
//! perfbench --workload <engine-mix|edge-kv|serve-durable> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints one `metric <name> = <value> <unit>` line per metric, then one
//! JSON line with every metric the run measured. A failed check, a stalled
//! operation or a panic exits non-zero without that line. `--trace 1`
//! splits the run into an untraced and a traced half, records spans in the
//! traced half, writes them to `<out>/spans-<workload>-<seed>.tsv`, and
//! reports the per-layer metrics plus the tracing overhead.
//!
//! `perfbench --probe <name> --seed <n> --seconds <s>` runs one of the
//! fault reproducers in [`faults`] instead.

mod edge_kv;
mod engine_mix;
mod faults;
mod hist;
mod serve_durable;
mod trace;
mod watchdog;

use std::path::PathBuf;

use gfsl::ReclaimStats;

/// What one invocation asked for.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds (split in two halves when tracing).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where spans and the durable workload's files go.
    pub out: PathBuf,
    /// Workload name (file names, messages).
    pub workload: &'static str,
}

/// Measured results of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Add one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Reclaimer counters and bump-allocated chunks of one structure.
#[derive(Clone, Copy)]
pub struct MemSnap {
    rs: ReclaimStats,
    alloc: u64,
}

impl MemSnap {
    /// Read `list`'s counters now.
    pub fn of(list: &gfsl::Gfsl) -> MemSnap {
        MemSnap {
            rs: list.reclaim_stats().unwrap_or_default(),
            alloc: list.chunks_allocated() as u64,
        }
    }
}

/// The reclaimer's per-layer metrics over `spans` of (before, after)
/// snapshots that together ran `ops` operations.
pub fn put_mem(r: &mut Report, spans: &[(MemSnap, MemSnap)], ops: u64) {
    let sum = |f: &dyn Fn(&MemSnap) -> u64| -> u64 { spans.iter().map(|(a, b)| f(b) - f(a)).sum() };
    let reused = sum(&|m| m.rs.reused);
    let fresh = sum(&|m| m.alloc);
    r.put(
        "mem.epoch_advances_per_op",
        ratio(sum(&|m| m.rs.epochs_advanced), ops),
        "advances/op",
    );
    r.put(
        "mem.retired_per_kop",
        1e3 * ratio(sum(&|m| m.rs.retired), ops),
        "chunks/kop",
    );
    r.put("mem.reuse_ratio", ratio(reused, reused + fresh), "ratio");
    let high = spans.iter().map(|(_, b)| b.alloc).max().unwrap_or(0);
    r.put("mem.chunks_high_water", high as f64, "chunks");
}

/// Fail the run, naming `what`, if `list.validate()` finds a violation.
pub fn check_valid(list: &gfsl::Gfsl, what: &str) {
    let violations = list.validate();
    if let Some(first) = violations.first() {
        watchdog::fail(format!(
            "{what}: {} violations, first {first:?}",
            violations.len()
        ));
    }
}

/// Write the traced run's spans to `<out>/spans-<workload>-<seed>.tsv`.
pub fn write_spans(ctx: &Ctx, tracer: &trace::Tracer) {
    let path = ctx
        .out
        .join(format!("spans-{}-{}.tsv", ctx.workload, ctx.seed));
    tracer
        .write_tsv(&path)
        .unwrap_or_else(|e| watchdog::fail(format!("write spans: {e}")));
}

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty());
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value every workload stores under key `k`; never 0, so 0 can mean
/// "absent" in the client models.
#[inline]
pub fn value_of(k: u32) -> u32 {
    (k.wrapping_mul(0x9E37_79B1) ^ 0x5BD1_E995) | 1
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <engine-mix|edge-kv|serve-durable> --seed <n> \
         --seconds <s> --trace <0|1> [--out <dir>]\n       \
         perfbench --probe <reclaim-20k|window-churn> --seed <n> --seconds <s>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut probe = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(val.as_str(), "0" | "1").then(|| val == "1"),
            "--out" => out = PathBuf::from(val),
            "--probe" => probe = Some(val),
            _ => usage(),
        }
    }
    if let (Some(probe), Some(seed), Some(seconds)) = (&probe, seed, seconds) {
        watchdog::install(probe);
        faults::run(probe, seed, seconds);
        return;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let workload: &'static str = match workload.as_str() {
        "engine-mix" => "engine-mix",
        "edge-kv" => "edge-kv",
        "serve-durable" => "serve-durable",
        _ => usage(),
    };
    watchdog::install(workload);
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        out,
        workload,
    };
    let report = match workload {
        "engine-mix" => engine_mix::run(&ctx),
        "edge-kv" => edge_kv::run(&ctx),
        _ => serve_durable::run(&ctx),
    };

    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}",
        u8::from(trace),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
