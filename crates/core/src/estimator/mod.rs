//! Parameter estimation from input-output traces (§3 of the paper).
//!
//! * [`static_params`] — the `(b, d, B)` of iBoxNet's network model.
//! * [`crosstraffic`] — the dynamic cross-traffic series `C`, recovered
//!   from queue dynamics as a conservative lower bound.
//!
//! Each is one O(record) fold: a fit folds the whole trace as one chunk,
//! a streaming ingest session chunk by chunk, to the same bits.

pub mod crosstraffic;
pub mod static_params;

pub use crosstraffic::{
    moving_average, CrossTrafficEstimate, OnlineCrossTraffic, DEFAULT_BIN_SECS,
};
pub use static_params::{FitError, OnlineStaticParams, StaticParams, BANDWIDTH_WINDOW_SECS};
