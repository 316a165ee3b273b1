//! The batch `(b, d, B, C)` estimators the incremental fold replaced,
//! kept verbatim as the reference of the bit-identity proptests: each
//! sorts or walks the whole trace at once, so agreeing with them on every
//! chunking pins the fold's release order, padding and smoothing.

use ibox::estimator::{moving_average, CrossTrafficEstimate, StaticParams, BANDWIDTH_WINDOW_SECS};
use ibox_sim::SimTime;
use ibox_trace::series::peak_recv_rate_bps;
use ibox_trace::FlowTrace;

/// The batch `StaticParams::estimate`.
pub fn static_params(trace: &FlowTrace) -> StaticParams {
    assert!(
        trace.delivered_count() > 0,
        "cannot estimate parameters from a trace with no delivered packets"
    );
    let bandwidth_bps = peak_recv_rate_bps(trace, BANDWIDTH_WINDOW_SECS).max(1_000.0);
    let min_ns = trace.min_delay_ns().expect("has delivered packets");
    let max_ns = trace.max_delay_ns().expect("has delivered packets");
    let delay_range_secs = (max_ns - min_ns) as f64 / 1e9;
    // Byte-based buffer: b/8 bytes per second of standing delay. Floor
    // at two MTUs so a clean trace still yields a runnable emulator.
    let buffer_bytes = ((bandwidth_bps / 8.0) * delay_range_secs).max(3_000.0) as u64;
    StaticParams { bandwidth_bps, prop_delay: SimTime::from_nanos(min_ns), buffer_bytes }
}

/// The batch `CrossTrafficEstimate::estimate`.
pub fn cross_traffic(
    trace: &FlowTrace,
    params: &StaticParams,
    bin_secs: f64,
) -> CrossTrafficEstimate {
    assert!(bin_secs > 0.0, "bin width must be positive");
    let span = trace.span_secs().max(bin_secs);
    let n_bins = (span / bin_secs).ceil() as usize + 1;
    let mut bins = vec![0.0f64; n_bins];

    let rate_bps = params.bandwidth_bps; // bytes/s = /8
    let rate_bytes = rate_bps / 8.0;
    let d_secs = params.prop_delay.as_secs_f64();

    // Queue probes from delivered packets, in send order.
    let delivered: Vec<_> = trace.delivered().collect();
    if delivered.len() < 2 {
        return CrossTrafficEstimate { bin_secs, bins };
    }
    let t0 = trace.records().first().expect("nonempty").send_ns as f64 / 1e9;

    // q_ahead at enqueue of each delivered packet.
    let probes: Vec<(f64, f64, f64)> = delivered
        .iter()
        .map(|r| {
            let t = r.send_ns as f64 / 1e9;
            let delay = r.delay_secs().expect("delivered");
            let q = ((delay - d_secs) * rate_bytes - f64::from(r.size)).max(0.0);
            (t, q, f64::from(r.size))
        })
        .collect();

    for w in probes.windows(2) {
        let (t1, q1, s1) = w[0];
        let (t2, q2, _s2) = w[1];
        let dt = t2 - t1;
        if dt <= 0.0 {
            continue;
        }
        // Gate: both probes must show a clearly non-empty queue.
        let min_q = f64::from(ibox_sim::DEFAULT_PACKET_SIZE);
        if q1 < min_q || q2 < min_q {
            continue;
        }
        let own = s1;
        let ct = q2 - q1 - own + rate_bytes * dt;
        if ct <= 0.0 {
            continue;
        }
        let idx = (((t1 - t0) / bin_secs) as usize).min(n_bins - 1);
        bins[idx] += ct;
    }
    let smoothed = moving_average(&bins, 5);
    CrossTrafficEstimate { bin_secs, bins: smoothed }
}
