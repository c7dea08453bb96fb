//! Standalone probes: one number per layer primitive, measured by timing
//! public calls with nothing else running.  They do not depend on the
//! workload; every traced run reports them so that two sets of runs can be
//! told apart by "the machine changed" (sleep overshoot, queue hop) versus
//! "the code changed".
//!
//! Primitive costs are taken under `CostModel::zero()` (the injected sleeps
//! would otherwise be all there is to see).  The two intra-node round trips
//! run under g92 because they are read against the cross-node g92 round
//! trips of the ping-pong workloads, whose rank programs they reuse.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dcgn::{CostModel, DcgnConfig, Runtime};
use dcgn_dpm::{Device, DeviceConfig, DevicePtr};
use dcgn_metrics::MetricsHandle;
use dcgn_netsim::{Fabric, PayloadBuf};
use dcgn_simtime::precise_sleep;

use crate::stats::median;
use crate::workloads::{run_dcgn_round, RoundSpec, Workload};

/// Median, in nanoseconds per call, over `batches` batches of `calls` calls.
fn ns_per_call(batches: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Median round trip (µs) of the 64 B ping-pong inside one node, under g92:
/// the ping-pong workloads' own rank programs on a one-node layout.  Median
/// of three launches, because a launch fixes the phase between the two GPU
/// poll loops and with it whether a round trip costs ~400 or ~850 µs.
fn intra_node_rtt_us(layout: Workload, seed: u64) -> f64 {
    let spec = RoundSpec {
        cost: CostModel::g92_cluster(),
        window: Duration::from_millis(120),
        trace: false,
    };
    let medians: Vec<f64> = (0..3)
        .map(|_| run_dcgn_round(layout, seed, &spec).percentile_us(50.0))
        .collect();
    median(&medians)
}

/// Median wall time (ms) of building and running a 2-node job whose kernels
/// return at once: the launch and teardown every round pays.
fn launch_teardown_ms(launches: usize) -> f64 {
    let times: Vec<f64> = (0..launches)
        .filter_map(|_| {
            let start = Instant::now();
            let config = DcgnConfig::homogeneous(2, 1, 0, 0).with_cost(CostModel::g92_cluster());
            Runtime::new(config).ok()?.launch_cpu_only(|_ctx| {}).ok()?;
            Some(start.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    median(&times)
}

/// Median overshoot (µs) of `precise_sleep(target)`.
fn sleep_overshoot_us(target: Duration, sleeps: usize) -> f64 {
    let overs: Vec<f64> = (0..sleeps)
        .map(|_| {
            let start = Instant::now();
            precise_sleep(target);
            (start.elapsed().as_nanos() as f64 - target.as_nanos() as f64) / 1e3
        })
        .collect();
    median(&overs)
}

/// Cross-thread fabric echo: median one-way hop in µs (round trip ÷ 2).
fn fabric_hop_us(iters: usize) -> f64 {
    let fabric: Fabric<u64> = Fabric::new(2, CostModel::zero());
    let near = fabric.attach(0);
    let far = fabric.attach(1);
    let (near_id, far_id) = (near.id(), far.id());
    let echo = std::thread::spawn(move || {
        for _ in 0..iters {
            match far.recv() {
                Ok(d) if far.send(near_id, d.msg, 8).is_ok() => {}
                _ => return,
            }
        }
    });
    let mut hops = Vec::with_capacity(iters);
    for i in 0..iters {
        let start = Instant::now();
        if near.send(far_id, i as u64, 8).is_err() || near.recv().is_err() {
            break;
        }
        hops.push(start.elapsed().as_nanos() as f64 / 2e3);
    }
    drop(near);
    // An echo thread that gave up early has nothing more to report.
    let _ = echo.join();
    median(&hops[hops.len() / 10..])
}

/// Every standalone probe, as `(metric name, value)`.
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    out.push((
        "core.intra_node_rtt_us",
        intra_node_rtt_us(Workload::IntraNodeCpu, seed),
    ));
    out.push((
        "core.gpu_intra_node_rtt_us",
        intra_node_rtt_us(Workload::IntraNodeGpu, seed),
    ));
    out.push(("core.launch_teardown_ms", launch_teardown_ms(30)));

    let device = Device::new(0, DeviceConfig::default(), CostModel::zero());
    if let Ok(base) = device.malloc(4096) {
        let ranges: Vec<(DevicePtr, usize)> = (0..8).map(|i| (base.add(i * 128), 72)).collect();
        let writes: Vec<(DevicePtr, u32)> = (0..8).map(|i| (base.add(i * 4), 2)).collect();
        out.push((
            "dpm.read_u32s_ns",
            ns_per_call(9, 2000, || {
                black_box(device.read_u32s(base, 8).ok());
            }),
        ));
        out.push((
            "dpm.dtoh_scattered_ns",
            ns_per_call(9, 2000, || {
                black_box(device.memcpy_dtoh_scattered(&ranges).ok());
            }),
        ));
        out.push((
            "dpm.write_u32s_scattered_ns",
            ns_per_call(9, 2000, || {
                black_box(device.write_u32s_scattered(&writes).ok());
            }),
        ));
    }
    out.push((
        "dpm.launch_sync_us",
        ns_per_call(9, 50, || {
            black_box(device.launch_sync(1, 32, |_block| {}).ok());
        }) / 1e3,
    ));

    for (name, bytes) in [
        ("netsim.pool_roundtrip_ns.64B", 64),
        ("netsim.pool_roundtrip_ns.256KiB", 256 << 10),
    ] {
        let acquire_release = || {
            black_box(PayloadBuf::with_capacity(black_box(bytes)).freeze());
        };
        out.push((name, ns_per_call(9, 2000, acquire_release)));
    }
    {
        let fabric: Fabric<u64> = Fabric::new(2, CostModel::zero());
        let (a, b) = (fabric.attach(0), fabric.attach(1));
        let b_id = b.id();
        out.push((
            "netsim.fabric_send_recv_ns",
            ns_per_call(9, 2000, || {
                black_box(a.send(b_id, 1, 8).ok());
                black_box(b.recv().ok());
            }),
        ));
    }
    out.push(("netsim.fabric_hop_us", fabric_hop_us(3000)));

    out.push((
        "simtime.sleep_overshoot_us.50us",
        sleep_overshoot_us(Duration::from_micros(50), 2000),
    ));
    out.push((
        "simtime.sleep_overshoot_us.300us",
        sleep_overshoot_us(Duration::from_micros(300), 500),
    ));

    let counter = MetricsHandle::new().counter("probe");
    out.push((
        "metrics.counter_inc_ns",
        ns_per_call(9, 100_000, || counter.inc()),
    ));
    black_box(counter.get());

    out
}
