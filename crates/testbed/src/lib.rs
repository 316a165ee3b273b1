//! # ibox-testbed
//!
//! Ground-truth workload synthesis — the reproduction's stand-in for the
//! Pantheon testbed and the proprietary RTC trace corpus.
//!
//! The paper evaluates iBox on (a) Pantheon traces, chiefly the "India
//! Cellular" path (§3.1), (b) a controlled emulator for the instance test
//! (§3.1.2), (c) an ns-like topology for the control-loop-bias experiment
//! (§4.2), and (d) ~540 calls from a real-time conferencing service
//! (§5.2). None of those datasets is available, so this crate *generates*
//! statistically analogous ones by running real congestion-control
//! implementations over the ground-truth simulator:
//!
//! * [`profile`] — randomized path profiles. `IndiaCellular` is a
//!   Markov-modulated (optionally proportional-fair) bottleneck with
//!   hidden cross traffic and mild reordering; `Ethernet` is a fast, clean
//!   constant path; `TokenBucketWifi` is a burst-regulated link. The
//!   composed profiles — `Wifi` (2 stages), `Satellite` (3 stages),
//!   `CellularHandover` (2 stages) — sample multi-stage chains with
//!   rate-step schedules instead of a single bottleneck.
//! * [`pantheon`] — dataset generation: N runs of a protocol over
//!   randomized instances of a profile, paired across protocols the way
//!   Pantheon runs its A/B measurements on the same path.
//! * [`instance`] — the controlled instance-test scenario: a *known* fixed
//!   path with one adaptive Cubic cross-traffic flow at three different
//!   timings.
//! * [`rtc`] — synthetic conferencing calls driven by the delay-gradient
//!   RTC controller, plus the CBR-vs-cross-traffic scenarios of Fig. 7.
//!
//! Everything is deterministic given a base seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod instance;
pub mod pantheon;
pub mod profile;
pub mod rtc;

pub use instance::{run_instance, InstanceScenario, INSTANCE_PATTERNS};
pub use pantheon::{generate_dataset, generate_paired_datasets, run_protocol, synth};
pub use profile::{PathInstance, Profile, ProfileBuilder};
