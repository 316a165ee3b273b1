//! One workload, set up and ready for timed windows.

use std::path::Path;

use crate::gen;
use crate::harness::{self, Daemon, Outcome, Prepared};
use crate::ingest::{self, PreparedIngest};

/// A workload after set-up: either a cycle of distinct requests on one
/// connection, or the two-connection ingest stream.
pub enum Bench {
    /// `replay_packet`, `replay_flow`, `replay_ml`, `batch_ensemble`.
    Requests(Prepared),
    /// `ingest_stream`.
    Ingest(PreparedIngest),
}

impl Bench {
    /// Everything before the first timed operation: generate the plan from
    /// `(workload, seed)`, compute the offline references, start the
    /// daemon, fit, and run the verified warm-up pass.
    pub fn prepare(workload: &str, seed: u64, scratch: &Path) -> Result<Bench, String> {
        let plan = gen::plan(workload, seed)?;
        if plan.sessions.is_empty() {
            harness::prepare(plan, scratch).map(Bench::Requests)
        } else {
            ingest::prepare(plan, scratch).map(Bench::Ingest)
        }
    }

    /// The daemon this workload runs against.
    pub fn daemon(&self) -> &Daemon {
        match self {
            Bench::Requests(p) => &p.daemon,
            Bench::Ingest(p) => &p.daemon,
        }
    }

    /// One timed window of at least `seconds` (`0.0`: exactly one pass);
    /// `spanning` records client-side spans (the traced run).
    pub fn run(&mut self, spanning: bool, seconds: f64) -> Result<Outcome, String> {
        match self {
            Bench::Requests(p) => {
                harness::drive(&p.daemon.addr, spanning, &p.plan.ops, &p.expected, seconds)
            }
            Bench::Ingest(p) => ingest::run(p, spanning, seconds),
        }
    }
}
