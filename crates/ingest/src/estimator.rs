//! A session's mid-stream view of the `(b, d, B, C)` estimators.
//!
//! The estimators are `ibox::estimator`'s folds — the same code a
//! one-shot fit runs over the whole trace as one chunk — so a finalized
//! session fits to the same bits as the concatenated trace. [`Watermark`]
//! reads them between chunks.

use serde::Serialize;

pub use ibox::estimator::{OnlineCrossTraffic, OnlineStaticParams};

/// The current mid-stream estimate of a session: the `(b, d, B, C)` of
/// Fig. 1 over everything folded so far.
#[derive(Debug, Clone, Serialize)]
pub struct Watermark {
    /// Records folded (accepted chunks only — buffered chunks excluded).
    pub records: u64,
    /// Delivered records folded.
    pub delivered: u64,
    /// Bottleneck bandwidth `b`, bits per second.
    pub bandwidth_bps: f64,
    /// Propagation delay `d`, milliseconds.
    pub prop_delay_ms: f64,
    /// Bottleneck buffer `B`, bytes.
    pub buffer_bytes: u64,
    /// Total cross-traffic bytes `C` accumulated so far. Provisional:
    /// computed with the static params as of the last refit, unlike
    /// `(b, d, B)` above which are exact over the folded records.
    pub cross_total_bytes: f64,
}

impl Watermark {
    /// Assemble a watermark from the two estimators, or `None` before
    /// the first delivered packet.
    pub fn of(statics: &OnlineStaticParams, cross: Option<&OnlineCrossTraffic>) -> Option<Self> {
        let params = statics.params()?;
        Some(Self {
            records: statics.records(),
            delivered: statics.delivered(),
            bandwidth_bps: params.bandwidth_bps,
            prop_delay_ms: params.prop_delay.as_secs_f64() * 1e3,
            buffer_bytes: params.buffer_bytes,
            cross_total_bytes: cross.map_or(0.0, OnlineCrossTraffic::total_bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibox_trace::PacketRecord;

    #[test]
    fn watermark_is_none_before_first_delivery_then_tracks() {
        let mut online = OnlineStaticParams::new();
        assert!(Watermark::of(&online, None).is_none());
        online.fold_chunk(&[PacketRecord::lost(0, 0, 1200)]);
        assert!(Watermark::of(&online, None).is_none());
        online.fold_chunk(&[PacketRecord::delivered(1, 1_000_000, 1200, 31_000_000)]);
        let w = Watermark::of(&online, None).expect("delivered");
        assert_eq!(w.records, 2);
        assert_eq!(w.delivered, 1);
        assert!(w.prop_delay_ms > 29.0 && w.prop_delay_ms < 31.0);
    }
}
