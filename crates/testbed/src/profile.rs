//! Randomized network-path profiles.
//!
//! A profile is a distribution over [`PathInstance`]s: each `sample(seed)`
//! draws a concrete path (rate process, delay, buffer, cross traffic,
//! reordering) the way Pantheon's measurements sample real network
//! conditions at different times.

use rand::rngs::StdRng;

use ibox_sim::rng::{self, uniform};
use ibox_sim::{
    CrossTrafficCfg, PathConfig, PathSpec, PathStage, RateModelCfg, ReorderCfg, SchedulerKind,
    SimTime,
};

/// A concrete sampled path: the access bottleneck plus its hidden cross
/// traffic, and — for composed profiles — the further stages of the chain.
#[derive(Debug, Clone)]
pub struct PathInstance {
    /// The first (access) bottleneck configuration (ground truth — never
    /// shown to models).
    pub path: PathConfig,
    /// Hidden non-adaptive cross-traffic sources competing at the access
    /// bottleneck.
    pub cross: Vec<CrossTrafficCfg>,
    /// Stages *after* the access bottleneck. Empty for the classic
    /// single-bottleneck profiles; composed profiles (wifi, satellite,
    /// cellular-handover) chain one or two more.
    pub extra_stages: Vec<PathStage>,
    /// Human-readable instance name (profile + seed).
    pub name: String,
}

impl PathInstance {
    /// The instance's full path as a stage chain: `path` + `cross` as
    /// stage 0, then `extra_stages`. For legacy single-bottleneck
    /// instances this is exactly the 1-stage spec the pre-chain testbed
    /// ran, so traces are byte-identical.
    pub fn spec(&self) -> PathSpec {
        let mut first = PathStage::new(self.path.clone());
        first.cross = self.cross.clone();
        let mut stages = vec![first];
        stages.extend(self.extra_stages.iter().cloned());
        PathSpec::from_stages(stages)
    }
}

/// Families of network paths the testbed can synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Cellular-like: Markov-modulated capacity around a per-instance base
    /// rate, generous (bufferbloat-era) buffers, on-off cross traffic, and
    /// a little multipath reordering. FIFO queue.
    IndiaCellular,
    /// Cellular with a proportional-fair scheduler and fading — the
    /// scheduling complexity the paper says iBoxNet must survive (§3.1.1).
    IndiaCellularPf,
    /// Clean wired path: fast constant rate, small delay, light Poisson
    /// cross traffic, no reordering.
    Ethernet,
    /// A token-bucket-regulated link (the "variable bandwidth … token
    /// bucket regulator" behaviour of §3.2).
    TokenBucketWifi,
    /// Composed 2-stage chain: a burst-regulated, jittery wireless hop in
    /// front of a slower ISP uplink. The end-to-end bottleneck migrates
    /// between the stages as the wireless burst budget drains.
    Wifi,
    /// Composed 3-stage chain: terminal uplink → GEO space segment
    /// (~270 ms one way, stepped capacity from beam scheduling, deep
    /// bufferbloat-era buffer) → terrestrial gateway.
    Satellite,
    /// Composed 2-stage chain: a radio link whose rate schedule dips
    /// sharply mid-run (a handover) and recovers, in front of a clean
    /// core-network hop. Reordering spikes ride along with the dip.
    CellularHandover,
}

impl Profile {
    /// The profile's name (used in trace metadata).
    pub fn name(self) -> &'static str {
        match self {
            Profile::IndiaCellular => "india-cellular",
            Profile::IndiaCellularPf => "india-cellular-pf",
            Profile::Ethernet => "ethernet",
            Profile::TokenBucketWifi => "token-bucket-wifi",
            Profile::Wifi => "wifi",
            Profile::Satellite => "satellite",
            Profile::CellularHandover => "cellular-handover",
        }
    }

    /// Every profile, in presentation order.
    pub fn all() -> [Profile; 7] {
        [
            Profile::IndiaCellular,
            Profile::IndiaCellularPf,
            Profile::Ethernet,
            Profile::TokenBucketWifi,
            Profile::Wifi,
            Profile::Satellite,
            Profile::CellularHandover,
        ]
    }

    /// Look a profile up by its [`Profile::name`] — the inverse used by
    /// batch specs and the CLI. The error lists the valid names.
    pub fn from_name(name: &str) -> Result<Profile, String> {
        Profile::all().into_iter().find(|p| p.name() == name).ok_or_else(|| {
            let valid: Vec<&str> = Profile::all().iter().map(|p| p.name()).collect();
            format!("unknown profile {name:?} (valid: {})", valid.join(", "))
        })
    }

    /// Start building a concrete [`PathInstance`] from this profile
    /// (defaults: seed 1, 30 s cross-traffic horizon). Reads as a
    /// sentence at call sites that previously threaded positional
    /// `(seed, duration)` pairs around.
    pub fn builder(self) -> ProfileBuilder {
        ProfileBuilder { profile: self, seed: 1, duration: crate::pantheon::PANTHEON_DURATION }
    }

    /// Draw one concrete path instance. Deterministic per `(self, seed)`.
    ///
    /// `duration` bounds the cross-traffic schedules.
    pub fn sample(self, seed: u64, duration: SimTime) -> PathInstance {
        let mut r = rng::seeded(rng::derive_seed(seed, 0xA11CE));
        match self {
            Profile::IndiaCellular => self.cellular(&mut r, duration, SchedulerKind::Fifo, seed),
            Profile::IndiaCellularPf => self.cellular(
                &mut r,
                duration,
                SchedulerKind::ProportionalFair { fading: 0.3 },
                seed,
            ),
            Profile::Ethernet => {
                let rate = uniform(&mut r, 40e6, 80e6);
                let delay = SimTime::from_micros(uniform(&mut r, 2_000.0, 10_000.0) as u64);
                // Shallow switch buffers: a few ms at line rate.
                let buffer = (rate / 8.0 * uniform(&mut r, 0.004, 0.012)) as u64;
                let path = PathConfig {
                    rate: RateModelCfg::constant(rate),
                    prop_delay: delay,
                    buffer_bytes: buffer.max(20_000),
                    scheduler: SchedulerKind::Fifo,
                    ack_delay: delay,
                    random_loss: 0.0,
                    reorder: None,
                    jitter: None,
                };
                let cross = vec![CrossTrafficCfg::Poisson {
                    mean_rate_bps: uniform(&mut r, 0.02, 0.1) * rate,
                    pkt_size: 1200,
                    start: SimTime::ZERO,
                    stop: duration,
                }];
                PathInstance {
                    path,
                    cross,
                    extra_stages: Vec::new(),
                    name: format!("{}#{seed}", self.name()),
                }
            }
            Profile::TokenBucketWifi => {
                let fill = uniform(&mut r, 4e6, 15e6);
                let delay = SimTime::from_millis(uniform(&mut r, 5.0, 25.0) as u64);
                let path = PathConfig {
                    rate: RateModelCfg::TokenBucket {
                        fill_bps: fill,
                        bucket_bytes: uniform(&mut r, 20_000.0, 120_000.0) as u64,
                    },
                    prop_delay: delay,
                    buffer_bytes: (fill / 8.0 * uniform(&mut r, 0.1, 0.3)) as u64,
                    scheduler: SchedulerKind::Fifo,
                    ack_delay: delay,
                    random_loss: uniform(&mut r, 0.0, 0.005),
                    reorder: Some(ReorderCfg {
                        probability: uniform(&mut r, 0.0, 0.01),
                        extra_min: SimTime::from_millis(1),
                        extra_max: SimTime::from_millis(8),
                    }),
                    jitter: None,
                };
                let cross = vec![CrossTrafficCfg::OnOff {
                    rate_bps: uniform(&mut r, 0.1, 0.4) * fill,
                    pkt_size: 1200,
                    on: SimTime::from_secs_f64(uniform(&mut r, 1.0, 4.0)),
                    off: SimTime::from_secs_f64(uniform(&mut r, 1.0, 6.0)),
                    start: SimTime::ZERO,
                    stop: duration,
                }];
                PathInstance {
                    path,
                    cross,
                    extra_stages: Vec::new(),
                    name: format!("{}#{seed}", self.name()),
                }
            }
            Profile::Wifi => self.wifi(&mut r, duration, seed),
            Profile::Satellite => self.satellite(&mut r, duration, seed),
            Profile::CellularHandover => self.handover(&mut r, duration, seed),
        }
    }

    /// Composed wifi: a burst-regulated wireless hop (stage 0) feeding a
    /// slower constant ISP uplink (stage 1). The uplink is the long-run
    /// bottleneck, but the wireless token bucket throttles bursts first.
    fn wifi(self, r: &mut StdRng, duration: SimTime, seed: u64) -> PathInstance {
        let fill = uniform(r, 20e6, 45e6);
        let air_delay = SimTime::from_micros(uniform(r, 1_000.0, 4_000.0) as u64);
        let path = PathConfig {
            rate: RateModelCfg::TokenBucket {
                fill_bps: fill,
                bucket_bytes: uniform(r, 30_000.0, 90_000.0) as u64,
            },
            prop_delay: air_delay,
            buffer_bytes: (fill / 8.0 * uniform(r, 0.02, 0.05)) as u64,
            scheduler: SchedulerKind::Fifo,
            ack_delay: air_delay,
            random_loss: uniform(r, 0.0, 0.008),
            reorder: None,
            jitter: Some(SimTime::from_micros(uniform(r, 200.0, 900.0) as u64)),
        };
        let cross = vec![CrossTrafficCfg::OnOff {
            rate_bps: uniform(r, 0.05, 0.25) * fill,
            pkt_size: 1200,
            on: SimTime::from_secs_f64(uniform(r, 0.5, 3.0)),
            off: SimTime::from_secs_f64(uniform(r, 1.0, 5.0)),
            start: SimTime::ZERO,
            stop: duration,
        }];
        // Stage 1: the ISP uplink — slower, deeper-buffered, with light
        // neighborhood background traffic.
        let up_rate = uniform(r, 10e6, 18e6);
        let up_delay = SimTime::from_millis(uniform(r, 5.0, 15.0) as u64);
        let mut uplink =
            PathStage::new(PathConfig::simple(up_rate, up_delay, (up_rate / 8.0 * 0.1) as u64));
        uplink.cross.push(CrossTrafficCfg::Poisson {
            mean_rate_bps: uniform(r, 0.02, 0.1) * up_rate,
            pkt_size: 1000,
            start: SimTime::ZERO,
            stop: duration,
        });
        PathInstance {
            path,
            cross,
            extra_stages: vec![uplink],
            name: format!("{}#{seed}", self.name()),
        }
    }

    /// Composed satellite: terminal uplink (stage 0) → GEO space segment
    /// (stage 1: ~270 ms one way, stepped capacity, deep buffer) →
    /// terrestrial gateway (stage 2).
    fn satellite(self, r: &mut StdRng, duration: SimTime, seed: u64) -> PathInstance {
        // Stage 0: the customer terminal's uplink — fast and shallow.
        let term_rate = uniform(r, 30e6, 60e6);
        let term_delay = SimTime::from_micros(uniform(r, 500.0, 3_000.0) as u64);
        let path =
            PathConfig::simple(term_rate, term_delay, (term_rate / 8.0 * 0.01) as u64 + 20_000);
        let cross = vec![CrossTrafficCfg::Poisson {
            mean_rate_bps: uniform(r, 0.01, 0.05) * term_rate,
            pkt_size: 1200,
            start: SimTime::ZERO,
            stop: duration,
        }];
        // Stage 1: the GEO hop — the real bottleneck. Beam scheduling
        // steps the capacity every few seconds; the buffer is worth
        // hundreds of milliseconds (classic satellite bufferbloat).
        let geo_base = uniform(r, 8e6, 18e6);
        let mut steps = Vec::new();
        let mut t = 0.0;
        let horizon = duration.as_secs_f64();
        while t < horizon {
            steps.push((SimTime::from_secs_f64(t), geo_base * uniform(r, 0.65, 1.25)));
            t += uniform(r, 3.0, 8.0);
        }
        let geo_delay = SimTime::from_millis(uniform(r, 250.0, 290.0) as u64);
        let geo = PathStage::new(PathConfig {
            rate: RateModelCfg::Trace { steps },
            prop_delay: geo_delay,
            buffer_bytes: (geo_base / 8.0 * uniform(r, 0.3, 0.6)) as u64,
            scheduler: SchedulerKind::Fifo,
            ack_delay: geo_delay,
            random_loss: uniform(r, 0.0, 0.002),
            reorder: None,
            jitter: None,
        });
        // Stage 2: the gateway's terrestrial backhaul.
        let gw_rate = uniform(r, 40e6, 80e6);
        let gw_delay = SimTime::from_millis(uniform(r, 4.0, 10.0) as u64);
        let mut gateway =
            PathStage::new(PathConfig::simple(gw_rate, gw_delay, (gw_rate / 8.0 * 0.02) as u64));
        gateway.cross.push(CrossTrafficCfg::Poisson {
            mean_rate_bps: uniform(r, 0.05, 0.2) * gw_rate,
            pkt_size: 1200,
            start: SimTime::ZERO,
            stop: duration,
        });
        PathInstance {
            path,
            cross,
            extra_stages: vec![geo, gateway],
            name: format!("{}#{seed}", self.name()),
        }
    }

    /// Composed cellular-handover: a radio link whose rate schedule dips
    /// to a sliver of capacity mid-run (the handover) and recovers at a
    /// new level, chained in front of a clean core-network hop.
    fn handover(self, r: &mut StdRng, duration: SimTime, seed: u64) -> PathInstance {
        let base = uniform(r, 6e6, 14e6);
        let horizon = duration.as_secs_f64();
        // The handover happens in the middle third of the run and starves
        // the link for 0.8–2 s before the new cell takes over.
        let t_handover = horizon * uniform(r, 0.33, 0.66);
        let dip = uniform(r, 0.8, 2.0);
        let after = base * uniform(r, 0.8, 1.2);
        let steps = vec![
            (SimTime::ZERO, base),
            (SimTime::from_secs_f64(t_handover), base * 0.15),
            (SimTime::from_secs_f64(t_handover + dip), after),
        ];
        let radio_delay = SimTime::from_millis(uniform(r, 15.0, 40.0) as u64);
        let path = PathConfig {
            rate: RateModelCfg::Trace { steps },
            prop_delay: radio_delay,
            buffer_bytes: (base / 8.0 * uniform(r, 0.1, 0.25)) as u64,
            scheduler: SchedulerKind::Fifo,
            ack_delay: radio_delay,
            random_loss: uniform(r, 0.0, 0.001),
            // Path switching reorders a few percent of packets.
            reorder: Some(ReorderCfg {
                probability: uniform(r, 0.01, 0.03),
                extra_min: SimTime::from_millis(1),
                extra_max: SimTime::from_millis(uniform(r, 6.0, 14.0) as u64),
            }),
            jitter: None,
        };
        let cross = vec![CrossTrafficCfg::OnOff {
            rate_bps: uniform(r, 0.1, 0.35) * base,
            pkt_size: 1200,
            on: SimTime::from_secs_f64(uniform(r, 2.0, 5.0)),
            off: SimTime::from_secs_f64(uniform(r, 2.0, 6.0)),
            start: SimTime::ZERO,
            stop: duration,
        }];
        // Stage 1: the operator core — fast, clean, slightly buffered.
        let core_rate = uniform(r, 40e6, 80e6);
        let core_delay = SimTime::from_millis(uniform(r, 3.0, 8.0) as u64);
        let core = PathStage::new(PathConfig::simple(
            core_rate,
            core_delay,
            (core_rate / 8.0 * 0.02) as u64,
        ));
        PathInstance {
            path,
            cross,
            extra_stages: vec![core],
            name: format!("{}#{seed}", self.name()),
        }
    }

    fn cellular(
        self,
        r: &mut StdRng,
        duration: SimTime,
        scheduler: SchedulerKind,
        seed: u64,
    ) -> PathInstance {
        // Per-instance base rate: 3–10 Mbps, with Markov states swinging
        // ±30% around it on ~0.5 s dwell times — LTE-like variability.
        let base = uniform(r, 3e6, 10e6);
        let states = vec![0.7 * base, base, 1.35 * base];
        let delay = SimTime::from_millis(uniform(r, 20.0, 60.0) as u64);
        // Cellular buffers worth 60–160 ms at base rate: deep enough for
        // visible bufferbloat, shallow enough that loss-based senders
        // actually reach them — matching the 1–5% loss rates the paper's
        // India Cellular runs report (Fig. 2b).
        let buffer = (base / 8.0 * uniform(r, 0.06, 0.16)) as u64;
        let path = PathConfig {
            rate: RateModelCfg::Markov {
                states,
                mean_dwell: SimTime::from_millis(uniform(r, 300.0, 800.0) as u64),
            },
            prop_delay: delay,
            buffer_bytes: buffer.max(30_000),
            scheduler,
            ack_delay: delay,
            // Residual (post-HARQ) random loss is tiny on cellular links;
            // anything larger would dominate a loss-based sender's
            // dynamics, and congestion (buffer) loss is what the paper's
            // India Cellular runs show.
            random_loss: uniform(r, 0.0, 0.0005),
            // Mild multipath reordering: a couple of percent of packets
            // displaced by a few milliseconds (a handful of packet slots).
            // Heavier displacement would make the sender's dup-ack loss
            // detector dominate the dynamics, which real stacks avoid with
            // RACK-style reorder tolerance.
            reorder: Some(ReorderCfg {
                probability: uniform(r, 0.005, 0.02),
                extra_min: SimTime::from_millis(1),
                extra_max: SimTime::from_millis(uniform(r, 4.0, 10.0) as u64),
            }),
            jitter: None,
        };
        // Hidden cross traffic: one bursty on-off source plus light
        // Poisson background.
        let cross = vec![
            CrossTrafficCfg::OnOff {
                rate_bps: uniform(r, 0.15, 0.45) * base,
                pkt_size: 1200,
                on: SimTime::from_secs_f64(uniform(r, 2.0, 6.0)),
                off: SimTime::from_secs_f64(uniform(r, 2.0, 8.0)),
                start: SimTime::from_secs_f64(uniform(r, 0.0, 5.0)),
                stop: duration,
            },
            CrossTrafficCfg::Poisson {
                mean_rate_bps: uniform(r, 0.02, 0.08) * base,
                pkt_size: 800,
                start: SimTime::ZERO,
                stop: duration,
            },
        ];
        PathInstance {
            path,
            cross,
            extra_stages: Vec::new(),
            name: format!("{}#{seed}", self.name()),
        }
    }
}

/// Builder for sampling a [`PathInstance`] — [`Profile::builder`].
#[derive(Debug, Clone)]
pub struct ProfileBuilder {
    profile: Profile,
    seed: u64,
    duration: SimTime,
}

impl ProfileBuilder {
    /// Instance seed (default 1). Same seed ⇒ same path.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Bound for the cross-traffic schedules (default 30 s).
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.duration = duration;
        self
    }

    /// Draw the instance — exactly [`Profile::sample`] with this builder's
    /// seed and duration.
    pub fn sample(self) -> PathInstance {
        self.profile.sample(self.seed, self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimTime = SimTime(30_000_000_000);

    #[test]
    fn from_name_inverts_name() {
        for p in Profile::all() {
            assert_eq!(Profile::from_name(p.name()).unwrap(), p);
        }
        let err = Profile::from_name("dsl").unwrap_err();
        assert!(err.contains("india-cellular"), "error lists valid names: {err}");
    }

    #[test]
    fn builder_matches_positional_sample() {
        let a = Profile::TokenBucketWifi.builder().seed(9).duration(DUR).sample();
        let b = Profile::TokenBucketWifi.sample(9, DUR);
        assert_eq!(a.path, b.path);
        assert_eq!(a.cross, b.cross);
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn sampling_is_deterministic() {
        for p in Profile::all() {
            let a = p.sample(7, DUR);
            let b = p.sample(7, DUR);
            assert_eq!(a.path, b.path, "{} must be deterministic", p.name());
            assert_eq!(a.cross, b.cross);
            assert_eq!(a.extra_stages, b.extra_stages);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Profile::IndiaCellular.sample(1, DUR);
        let b = Profile::IndiaCellular.sample(2, DUR);
        assert_ne!(a.path, b.path);
    }

    #[test]
    fn cellular_has_reordering_and_variable_rate() {
        let inst = Profile::IndiaCellular.sample(3, DUR);
        assert!(inst.path.reorder.is_some());
        assert!(matches!(inst.path.rate, RateModelCfg::Markov { .. }));
        assert_eq!(inst.path.scheduler, SchedulerKind::Fifo);
        assert!(!inst.cross.is_empty());
        inst.spec().validate();
    }

    #[test]
    fn pf_variant_uses_pf_scheduler() {
        let inst = Profile::IndiaCellularPf.sample(3, DUR);
        assert!(matches!(inst.path.scheduler, SchedulerKind::ProportionalFair { .. }));
    }

    #[test]
    fn ethernet_is_clean_and_fast() {
        let inst = Profile::Ethernet.sample(4, DUR);
        assert!(inst.path.reorder.is_none());
        assert_eq!(inst.path.random_loss, 0.0);
        assert!(inst.path.rate.mean_rate_bps() >= 40e6);
        inst.spec().validate();
    }

    #[test]
    fn token_bucket_profile_is_token_bucket() {
        let inst = Profile::TokenBucketWifi.sample(5, DUR);
        assert!(matches!(inst.path.rate, RateModelCfg::TokenBucket { .. }));
        inst.spec().validate();
    }

    #[test]
    fn all_instances_validate() {
        for p in Profile::all() {
            for seed in 0..20 {
                let inst = p.sample(seed, DUR);
                inst.spec().validate();
            }
        }
    }

    #[test]
    fn composed_profiles_are_chains_and_legacy_ones_are_not() {
        for (p, stages) in [
            (Profile::IndiaCellular, 1),
            (Profile::IndiaCellularPf, 1),
            (Profile::Ethernet, 1),
            (Profile::TokenBucketWifi, 1),
            (Profile::Wifi, 2),
            (Profile::Satellite, 3),
            (Profile::CellularHandover, 2),
        ] {
            let inst = p.sample(6, DUR);
            assert_eq!(inst.spec().len(), stages, "{}", p.name());
            // The spec's stage 0 is exactly the compat (path, cross) view.
            let spec = inst.spec();
            assert_eq!(spec.stages[0].config, inst.path);
            assert_eq!(spec.stages[0].cross, inst.cross);
        }
    }

    #[test]
    fn satellite_is_a_geo_chain_with_stepped_capacity() {
        let inst = Profile::Satellite.sample(11, DUR);
        let spec = inst.spec();
        // The GEO hop dominates the propagation budget...
        assert!(spec.total_prop_delay() >= SimTime::from_millis(250));
        // ...and carries a stepped (beam-scheduled) rate plan.
        assert!(matches!(spec.stages[1].config.rate, RateModelCfg::Trace { .. }));
        assert!(spec.stages[1].config.buffer_bytes > spec.stages[0].config.buffer_bytes);
    }

    #[test]
    fn handover_schedule_dips_and_recovers() {
        let inst = Profile::CellularHandover.sample(13, DUR);
        let RateModelCfg::Trace { steps } = &inst.path.rate else {
            panic!("handover radio link must be a rate schedule");
        };
        assert_eq!(steps.len(), 3, "before / dip / after");
        assert!(steps[1].1 < 0.2 * steps[0].1, "the dip must starve the link");
        assert!(steps[2].1 > 3.0 * steps[1].1, "the new cell must recover");
        assert!(steps[0].0 < steps[1].0 && steps[1].0 < steps[2].0);
        assert!(inst.path.reorder.is_some(), "handovers reorder packets");
    }

    #[test]
    fn wifi_chains_a_burst_regulator_in_front_of_the_uplink() {
        let inst = Profile::Wifi.sample(4, DUR);
        assert!(matches!(inst.path.rate, RateModelCfg::TokenBucket { .. }));
        assert_eq!(inst.extra_stages.len(), 1);
        assert!(matches!(inst.extra_stages[0].config.rate, RateModelCfg::Constant { .. }));
        // The uplink, not the air hop, is the long-run bottleneck.
        let spec = inst.spec();
        assert!(spec.bottleneck_rate_bps() <= inst.extra_stages[0].config.rate.mean_rate_bps());
    }
}
