//! The benchmark's contract in one place: which end-to-end and per-layer
//! metrics exist, with unit, direction and regression bound.  The root
//! `BENCHMARK.json` must say the same; a unit test compares the two.

/// A metric a user of the system would see, gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

/// A diagnostic of one layer (no bound).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; only the test that compares the two
    /// reads it here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub lower_is_better: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better: false,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Per workload: twins and derived.
    lower("failed_op_share", "ratio"),
    higher("op_samples", "count"),
    lower("op_p99_us", "us"),
    lower("round_spread_pct", "%"),
    higher("goodput_MBps", "MB/s"),
    lower("sw_only.op_p50_us", "us"),
    lower("sw_only.cpu_us_per_op", "us"),
    lower("rmpi.twin_op_p50_us", "us"),
    lower("dcgn_over_mpi", "ratio"),
    higher("modelled_share", "ratio"),
    // dcgn core.
    lower("core.comm_requests_per_op", "count"),
    lower("core.queue_depth_hwm", "count"),
    lower("core.matcher_unexpected_hwm", "count"),
    lower("core.exchange_frames_per_op", "count"),
    lower("core.gpu_polls_per_op", "count"),
    higher("core.gpu_poll_useful_ratio", "ratio"),
    lower("core.gpu_busy_fraction", "ratio"),
    lower("core.intra_node_rtt_us", "us"),
    lower("core.gpu_intra_node_rtt_us", "us"),
    lower("core.launch_teardown_ms", "ms"),
    // dcgn_dpm.
    lower("dpm.dma_per_op", "count"),
    lower("dpm.read_u32s_ns", "ns"),
    lower("dpm.dtoh_scattered_ns", "ns"),
    lower("dpm.write_u32s_scattered_ns", "ns"),
    lower("dpm.launch_sync_us", "us"),
    // dcgn_rmpi.
    lower("rmpi.eager_sends_per_op", "count"),
    lower("rmpi.rdv_chunks_per_op", "count"),
    lower("rmpi.rdv_inflight_hwm", "count"),
    // dcgn_netsim.
    lower("netsim.frames_per_op", "count"),
    lower("netsim.wire_bytes_per_op", "B"),
    lower("netsim.pool_acquires_per_op", "count"),
    higher("netsim.pool_reuse_ratio", "ratio"),
    lower("netsim.pool_roundtrip_ns.64B", "ns"),
    lower("netsim.pool_roundtrip_ns.256KiB", "ns"),
    lower("netsim.fabric_send_recv_ns", "ns"),
    lower("netsim.fabric_hop_us", "us"),
    // dcgn_simtime / dcgn_metrics.
    lower("simtime.sleep_overshoot_us.50us", "us"),
    lower("simtime.sleep_overshoot_us.300us", "us"),
    lower("metrics.counter_inc_ns", "ns"),
    // Traced pass.
    lower("span.send.p50_us", "us"),
    lower("span.recv.p50_us", "us"),
    lower("span.waitall.p50_us", "us"),
    lower("span.barrier.p50_us", "us"),
    lower("span.broadcast.p50_us", "us"),
    lower("span.allreduce.p50_us", "us"),
    lower("span.op_self.p50_us", "us"),
    lower("trace.op_p50_us", "us"),
    lower("trace.overhead_pct", "%"),
];

/// Unit of the metric called `name`, from either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}
