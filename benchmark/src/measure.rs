//! The two passes over one workload: end to end (tracing off) and per layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use dcgn::CostModel;

use crate::stats::{median, per_op, percentile_us, ratio, spread_pct};
use crate::workloads::{run_dcgn_round, run_mpi_round, Round, RoundSpec, Workload};
use crate::{probes, sys, trace};

/// Untraced g92 rounds per end-to-end run; each metric is the median of the
/// per-round values.  Many short rounds rather than few long ones: on a
/// shared 2-core VM whole rounds come out slow or fast (thread placement at
/// launch, what the host is doing), and the median needs enough of them to
/// ignore the odd ones.  Measured over ten runs: with six rounds the
/// run-to-run spread of `window_cpu_1KiB`'s median was 8-12 %, with ten 5 %;
/// the median of rounds is as steady as their mean on `collectives_8node`
/// and six times steadier on `pingpong_cpu_64B`, where one round in ten is
/// 30 % *faster* than the rest (which also rules out best-of-rounds).
const ROUNDS: u32 = 10;

/// What one measured run (one workload, one trace mode) produced.
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn absorb(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.errors.extend(round.errors.iter().cloned());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

fn g92(window: Duration) -> RoundSpec {
    RoundSpec {
        cost: CostModel::g92_cluster(),
        window,
        trace: false,
    }
}

/// `--trace 0`: [`ROUNDS`] untraced rounds under g92, median of rounds.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let spec = g92(Duration::from_secs_f64(seconds / f64::from(ROUNDS)));
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| run_dcgn_round(workload, seed, &spec))
        .collect();
    for (i, round) in rounds.iter().enumerate() {
        out.absorb(round);
        println!(
            "round {}: op_p50_us {:.3} op_p90_us {:.3} ops_per_s {:.2} setup_s {:.4}",
            i + 1,
            round.percentile_us(50.0),
            round.percentile_us(90.0),
            round.ops_per_s(),
            round.setup_s()
        );
    }
    let of_rounds = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let m = &mut out.metrics;
    m.insert("op_p50_us", of_rounds(&|r| r.percentile_us(50.0)));
    m.insert("op_p90_us", of_rounds(&|r| r.percentile_us(90.0)));
    m.insert("ops_per_s", of_rounds(&Round::ops_per_s));
    m.insert("setup_s", of_rounds(&Round::setup_s));
    m.insert("peak_rss_mb", sys::peak_rss_mb());
    out
}

/// `check`: three 0.3 s rounds, counted but not measured.
pub fn check(workload: Workload, seed: u64) -> Outcome {
    let mut out = Outcome::new();
    for _ in 0..3 {
        out.absorb(&run_dcgn_round(
            workload,
            seed,
            &g92(Duration::from_millis(300)),
        ));
    }
    out
}

/// Per-operation metrics that are a sum of registry counters (names as the
/// layers register them, instance suffixes folded away) over the window.
const PER_OP_COUNTERS: &[(&str, &[&str])] = &[
    ("core.comm_requests_per_op", &["comm.requests"]),
    (
        "core.exchange_frames_per_op",
        &[
            "exchange.frames.up",
            "exchange.frames.down",
            "exchange.frames.rd",
            "exchange.frames.ring",
        ],
    ),
    ("core.gpu_polls_per_op", &["gpu.polls"]),
    // `dma.scattered` counts a subset of these two.
    ("dpm.dma_per_op", &["dma.dtoh", "dma.htod"]),
    ("rmpi.eager_sends_per_op", &["rmpi.eager_sends"]),
    ("rmpi.rdv_chunks_per_op", &["rmpi.rdv.chunks"]),
    ("netsim.frames_per_op", &["fabric.frames"]),
    ("netsim.wire_bytes_per_op", &["fabric.frame_bytes"]),
    (
        "netsim.pool_acquires_per_op",
        &["pool.acquire_reuse", "pool.acquire_miss"],
    ),
];

/// Metrics that are the high-water mark of a registry gauge.
const HIGH_WATER: &[(&str, &str)] = &[
    ("core.queue_depth_hwm", "comm.queue_depth"),
    (
        "core.matcher_unexpected_hwm",
        "comm.matcher.unexpected_msgs",
    ),
    ("rmpi.rdv_inflight_hwm", "rmpi.rdv.inflight"),
];

/// Span medians of the traced pass: metric name, span name.
const SPAN_MEDIANS: &[(&str, &str)] = &[
    ("span.send.p50_us", "send"),
    ("span.recv.p50_us", "recv"),
    ("span.waitall.p50_us", "waitall"),
    ("span.barrier.p50_us", "barrier"),
    ("span.broadcast.p50_us", "broadcast"),
    ("span.allreduce.p50_us", "allreduce"),
];

/// `--trace 1`: the per-layer block.  The time budget is the same
/// `seconds`: two untraced g92 rounds, the traced round, the software-only
/// twin and the raw-MPI twin take a sixth each; the probes have fixed
/// iteration counts (about two seconds).
pub fn layers(workload: Workload, seed: u64, seconds: f64, out_dir: &Path) -> Outcome {
    let mut out = Outcome::new();
    let slice = Duration::from_secs_f64(seconds / 6.0);
    let m = &mut out.metrics;

    // Untraced g92 rounds come first: gauge high-water marks are process
    // lifetime values, so they must be read before any twin has run.
    let plain: Vec<Round> = (0..2)
        .map(|_| run_dcgn_round(workload, seed, &g92(slice)))
        .collect();
    let recordings = || plain.iter().filter_map(|r| r.rec.as_ref());
    let p50s: Vec<f64> = plain.iter().map(|r| r.percentile_us(50.0)).collect();
    let op_p50 = median(&p50s);
    let pooled: Vec<u64> = recordings()
        .flat_map(|rec| rec.samples_ns.iter().copied())
        .collect();
    let ops = pooled.len() as u64;
    let counter = |names: &[&str]| -> u64 {
        recordings()
            .flat_map(|rec| names.iter().map(|n| rec.metrics.counter(n)))
            .sum()
    };
    m.insert("op_samples", ops as f64);
    m.insert("op_p99_us", percentile_us(&pooled, 99.0));
    m.insert("round_spread_pct", spread_pct(&p50s));
    let ops_per_s = median(&plain.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    m.insert(
        "goodput_MBps",
        ops_per_s * workload.bytes_per_op() as f64 / 1e6,
    );
    for &(metric, names) in PER_OP_COUNTERS {
        m.insert(metric, per_op(counter(names), ops));
    }
    for &(metric, gauge) in HIGH_WATER {
        let mark = recordings().map(|rec| rec.metrics.gauge(gauge).high_water);
        m.insert(metric, mark.max().unwrap_or(0) as f64);
    }
    m.insert(
        "core.gpu_poll_useful_ratio",
        ratio(
            counter(&["gpu.requests"]) as f64,
            counter(&["gpu.polls"]) as f64,
        ),
    );
    let busy: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.gpu_poll.iter().map(|g| g.busy_fraction()))
        .collect();
    m.insert("core.gpu_busy_fraction", median(&busy));
    m.insert(
        "netsim.pool_reuse_ratio",
        ratio(
            counter(&["pool.acquire_reuse"]) as f64,
            counter(&["pool.acquire_reuse", "pool.acquire_miss"]) as f64,
        ),
    );

    // The traced pass.
    let traced = run_dcgn_round(
        workload,
        seed,
        &RoundSpec {
            trace: true,
            ..g92(slice)
        },
    );
    let rank0 = traced
        .spans
        .iter()
        .find(|(rank, _, _)| *rank == 0)
        .map_or(&[][..], |(_, spans, _)| spans);
    for &(metric, span) in SPAN_MEDIANS {
        m.insert(metric, trace::span_p50_us(rank0, span));
    }
    m.insert("span.op_self.p50_us", trace::self_p50_us(rank0, "op"));
    let traced_p50 = traced.percentile_us(50.0);
    m.insert("trace.op_p50_us", traced_p50);
    m.insert(
        "trace.overhead_pct",
        (ratio(traced_p50, op_p50) - 1.0) * 100.0,
    );
    let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            trace::chrome_trace_json(workload.name(), seed, &traced.spans),
        )
    });
    match written {
        Ok(()) => println!("trace written to {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }

    // Twins: the same traffic with no modelled cost, and on raw MPI.
    let sw_only = run_dcgn_round(
        workload,
        seed,
        &RoundSpec {
            cost: CostModel::zero(),
            ..g92(slice)
        },
    );
    let sw_p50 = sw_only.percentile_us(50.0);
    m.insert("sw_only.op_p50_us", sw_p50);
    m.insert(
        "sw_only.cpu_us_per_op",
        sw_only.rec.as_ref().map_or(0.0, |rec| {
            ratio(rec.cpu_seconds * 1e6, rec.samples_ns.len() as f64)
        }),
    );
    m.insert("modelled_share", 1.0 - ratio(sw_p50, op_p50));
    let twin = run_mpi_round(workload, seed, &g92(slice));
    let twin_p50 = twin.percentile_us(50.0);
    m.insert("rmpi.twin_op_p50_us", twin_p50);
    m.insert("dcgn_over_mpi", ratio(op_p50, twin_p50));

    m.extend(probes::run_all(seed));

    for round in plain.iter().chain([&traced, &sw_only, &twin]) {
        out.absorb(round);
    }
    out.metrics.insert(
        "failed_op_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}
