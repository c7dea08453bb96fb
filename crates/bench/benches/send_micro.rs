//! Criterion bench behind Figure 6: DCGN vs raw-MPI point-to-point sends for
//! every endpoint-kind pair, plus the `isend_overlap` benchmark measuring
//! how much wire latency the nonblocking API hides behind compute.  Uses the
//! scaled-down cost model and a small size grid so `cargo bench` completes
//! quickly; the `fig6_send` binary runs the full paper-parameter sweep.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcgn::CostModel;
use dcgn_bench::{
    bench_samples, dcgn_allreduce_time, dcgn_isend_overlap_time, dcgn_send_time, dcgn_waitany_time,
    mpi_large_send_time, mpi_send_time, EndpointKind,
};

fn bench_sends(c: &mut Criterion) {
    dcgn_bench::install_metrics_hook();
    let cost = CostModel::g92_scaled(20.0);
    let mut group = c.benchmark_group("figure6_send");
    group.sample_size(bench_samples(10));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    for &size in &[0usize, 4 << 10, 256 << 10] {
        group.bench_with_input(BenchmarkId::new("mpi_cpu_cpu", size), &size, |b, &s| {
            b.iter(|| mpi_send_time(s, cost, 2))
        });
        group.bench_with_input(BenchmarkId::new("dcgn_cpu_cpu", size), &size, |b, &s| {
            b.iter(|| dcgn_send_time(s, EndpointKind::Cpu, EndpointKind::Cpu, cost, 2))
        });
        group.bench_with_input(BenchmarkId::new("dcgn_gpu_gpu", size), &size, |b, &s| {
            b.iter(|| dcgn_send_time(s, EndpointKind::Gpu, EndpointKind::Gpu, cost, 2))
        });
    }
    group.finish();
}

/// Large-message pipeline: one-way rendezvous time across a 64 kB – 4 MB
/// size sweep, streamed as credit-windowed 256 kB chunks (`chunked`, the
/// shipped defaults) vs the whole payload as one monolithic chunk
/// (`single_frame`, `chunk = 0`).  Both arms pin the protocol through an
/// explicit `RdvConfig`, so the comparison is immune to `DCGN_RDV_CHUNK` in
/// the environment.  Runs under the **unscaled** g92 cost model: the
/// pipeline's win is the receiver draining chunk k while chunk k+1 is still
/// on the wire, and at the paper's real 1400 MB/s link that overlap dwarfs
/// the host-side assembly copy the streamed path adds.
fn bench_large_sends(c: &mut Criterion) {
    dcgn_bench::install_metrics_hook();
    let cost = CostModel::g92_cluster();
    const CHUNK: usize = 256 << 10;
    const WINDOW: usize = 8;
    let mut group = c.benchmark_group("large_msg");
    // At least 5 samples even in quick mode: a single preempted sample out
    // of 3 inflates the MAD past the chunked-vs-single-frame gap.
    group.sample_size(bench_samples(10).max(5));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    // Several ping-pongs per sample: a single large transfer is short enough
    // that one scheduler preemption dominates the sample, and the median/MAD
    // over three samples would drown the pipelining win in noise.
    const ITERS: usize = 3;
    for &size in &[64usize << 10, 256 << 10, 1 << 20, 4 << 20] {
        group.bench_with_input(BenchmarkId::new("chunked", size), &size, |b, &s| {
            b.iter(|| mpi_large_send_time(s, CHUNK, WINDOW, cost, ITERS))
        });
        group.bench_with_input(BenchmarkId::new("single_frame", size), &size, |b, &s| {
            b.iter(|| mpi_large_send_time(s, 0, 1, cost, ITERS))
        });
    }
    group.finish();
}

/// Blocking send-then-compute vs isend + compute + wait, same cost model and
/// peer behaviour: the gap is the compute-hidden latency.
fn bench_isend_overlap(c: &mut Criterion) {
    let cost = CostModel::g92_scaled(20.0);
    let compute = Duration::from_micros(400);
    let size = 4 << 10;
    let mut group = c.benchmark_group("isend_overlap");
    group.sample_size(bench_samples(10));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_with_input(BenchmarkId::new("blocking", size), &size, |b, &s| {
        b.iter(|| dcgn_isend_overlap_time(s, compute, false, cost, 3))
    });
    group.bench_with_input(BenchmarkId::new("nonblocking", size), &size, |b, &s| {
        b.iter(|| dcgn_isend_overlap_time(s, compute, true, cost, 3))
    });
    group.finish();
}

/// Blocked-`waitany` wake-up latency: every iteration posts an `irecv`,
/// pings the echo peer, and blocks in `waitany` until the reply lands.  The
/// old fixed 20 µs poll sleep put a hard floor under this number; the
/// condvar wake from the comm thread is what this entry tracks.
fn bench_waitany_wake(c: &mut Criterion) {
    let cost = CostModel::zero();
    let iters = 64;
    let mut group = c.benchmark_group("waitany_wake");
    group.sample_size(bench_samples(10));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_with_input(
        BenchmarkId::new("blocked_roundtrip", iters),
        &iters,
        |b, &n| b.iter(|| dcgn_waitany_time(64, cost, n)),
    );
    group.finish();
}

/// World vs subgroup allreduce through the one exchange engine: since the
/// world-collective migration, both take the identical keyed asynchronous
/// path, so their medians should track each other — and the committed-report
/// comparison gate guards the world path against regressions.
fn bench_allreduce_engine(c: &mut Criterion) {
    let cost = CostModel::g92_scaled(20.0);
    let count = 256;
    let mut group = c.benchmark_group("allreduce_engine");
    group.sample_size(bench_samples(10));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    group.bench_with_input(
        BenchmarkId::new("allreduce_world", count),
        &count,
        |b, &n| b.iter(|| dcgn_allreduce_time(2, 2, false, n, cost, 2)),
    );
    group.bench_with_input(
        BenchmarkId::new("allreduce_subgroup", count),
        &count,
        |b, &n| b.iter(|| dcgn_allreduce_time(2, 2, true, n, cost, 2)),
    );
    group.finish();
}

/// Cost of the instrumentation itself: a hot loop of counter bumps and
/// histogram records against an enabled registry vs the disabled
/// (`None`-backed) handles the runtime uses when metrics are off.  The
/// disabled entry is the price every uninstrumented run pays; the enabled
/// entry bounds what full instrumentation adds per event.
fn bench_metrics_overhead(c: &mut Criterion) {
    dcgn_bench::install_metrics_hook();
    let iters = 1024u64;
    let mut group = c.benchmark_group("metrics_overhead");
    group.sample_size(bench_samples(10));
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    let enabled = dcgn::MetricsHandle::new();
    let on_counter = enabled.counter("bench.overhead.counter");
    let on_hist = enabled.histogram("bench.overhead.hist");
    let off_counter = dcgn::MetricsHandle::disabled().counter("bench.overhead.counter");
    let off_hist = dcgn::MetricsHandle::disabled().histogram("bench.overhead.hist");

    group.bench_with_input(BenchmarkId::new("enabled", iters), &iters, |b, &n| {
        b.iter(|| {
            for i in 0..n {
                on_counter.inc();
                on_hist.record(i);
            }
            on_counter.get()
        })
    });
    group.bench_with_input(BenchmarkId::new("disabled", iters), &iters, |b, &n| {
        b.iter(|| {
            for i in 0..n {
                off_counter.inc();
                off_hist.record(i);
            }
            off_counter.get()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sends,
    bench_large_sends,
    bench_isend_overlap,
    bench_waitany_wake,
    bench_allreduce_engine,
    bench_metrics_overhead
);
criterion_main!(benches);
