//! Output checks. Each takes what a workload observed and says how many
//! outcomes it judged and how many were wrong; any wrong outcome makes
//! the run incorrect and the process exit nonzero.

use dgc_core::message::TerminateReason;
use dgc_workloads::torture::TortureOutcome;

use crate::gen::Shape;

/// One judged property of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What a socket workload saw.
#[derive(Debug, Clone, Default)]
pub struct SocketSeen {
    /// Live activities held.
    pub live: u64,
    /// Of those, how many the collector terminated.
    pub live_collected: u64,
    /// Structures with a member terminated before their release: live
    /// activities collected.
    pub premature: u64,
    /// Garbage structures released.
    pub released: u64,
    /// Of those, how many were not wholly collected by the deadline.
    pub uncollected: u64,
    /// Collected structures that went the wrong way (see
    /// [`right_reasons`]).
    pub wrong_reason: u64,
    /// Echo requests judged.
    pub requests: u64,
    /// Requests without a byte-equal reply in time.
    pub app_failed: u64,
}

pub fn socket(s: &SocketSeen) -> Vec<Check> {
    vec![
        Check {
            name: "live_collected",
            attempted: s.live + s.released,
            failed: s.live_collected + s.premature,
        },
        Check {
            name: "garbage_uncollected",
            attempted: s.released,
            failed: s.uncollected,
        },
        Check {
            name: "wrong_reason",
            attempted: s.released,
            failed: s.wrong_reason,
        },
        Check {
            name: "app_failed",
            attempted: s.requests,
            failed: s.app_failed,
        },
    ]
}

/// Whether a collected structure went the right way. Reference listing
/// alone can never collect a cycle, so a cycle must have been detected
/// by consensus: one member ends `CyclicDetected`. (Its other members
/// end `CyclicPropagated`, or `Acyclic` when their referencer stopped
/// beating while dying before the outcome reached them.) A chain has
/// no cycle to agree on: every member must end `Acyclic`.
pub fn right_reasons(shape: Shape, mut reasons: impl Iterator<Item = TerminateReason>) -> bool {
    match shape {
        Shape::Cycle => reasons.any(|r| r == TerminateReason::CyclicDetected),
        Shape::Chain => reasons.all(|r| r == TerminateReason::Acyclic),
    }
}

/// What `sim_torture` saw.
#[derive(Debug, Clone, Default)]
pub struct TortureSeen {
    pub objects: u64,
    pub leaked: u64,
    pub violations: u64,
    pub all_collected: bool,
}

impl TortureSeen {
    /// Counts one torture's outcome in.
    pub fn add(&mut self, o: &TortureOutcome) {
        self.objects += o.total_objects as u64;
        self.leaked += o.leaked as u64;
        self.violations += o.violations as u64;
        self.all_collected &= o.all_collected_at.is_some();
    }
}

pub fn torture(s: &TortureSeen) -> Vec<Check> {
    vec![
        Check {
            name: "garbage_uncollected",
            attempted: s.objects,
            failed: s.leaked,
        },
        Check {
            name: "live_collected",
            attempted: s.objects,
            failed: s.violations,
        },
        Check {
            name: "all_collected_at",
            attempted: 1,
            failed: u64::from(!s.all_collected),
        },
    ]
}

/// What the replay saw: units put on the wire and units decoded.
pub fn replay(emitted: u64, decoded: u64) -> Check {
    Check {
        name: "replay_units",
        attempted: emitted,
        failed: emitted.abs_diff(decoded),
    }
}

/// `(correct, attempted, failed)` over a run's checks. A check that
/// judged nothing makes the run incorrect: it means the workload did
/// not do what it is there to do.
pub fn verdict(checks: &[Check]) -> (bool, u64, u64) {
    let attempted = checks.iter().map(|c| c.attempted).sum();
    let failed = checks.iter().map(|c| c.failed).sum();
    (checks.iter().all(Check::ok), attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_socket() -> SocketSeen {
        SocketSeen {
            live: 2_000,
            released: 100,
            requests: 500,
            ..Default::default()
        }
    }

    fn good_torture() -> TortureSeen {
        TortureSeen {
            objects: 6_401,
            all_collected: true,
            ..Default::default()
        }
    }

    #[test]
    fn clean_results_pass() {
        assert_eq!(verdict(&socket(&good_socket())), (true, 2_800, 0));
        assert!(verdict(&torture(&good_torture())).0);
        assert!(replay(40, 40).ok());
    }

    #[test]
    fn each_check_fires_on_a_doctored_result() {
        let bad = |c: Vec<Check>| !verdict(&c).0;
        for doctored in [
            SocketSeen {
                live_collected: 1,
                ..good_socket()
            },
            SocketSeen {
                premature: 1,
                ..good_socket()
            },
            SocketSeen {
                uncollected: 1,
                ..good_socket()
            },
            SocketSeen {
                wrong_reason: 1,
                ..good_socket()
            },
            SocketSeen {
                app_failed: 1,
                ..good_socket()
            },
            SocketSeen {
                requests: 0,
                ..good_socket()
            },
            SocketSeen {
                released: 0,
                ..good_socket()
            },
        ] {
            assert!(bad(socket(&doctored)), "{doctored:?}");
        }
        assert!(bad(torture(&TortureSeen {
            leaked: 1,
            ..good_torture()
        })));
        assert!(bad(torture(&TortureSeen {
            violations: 1,
            ..good_torture()
        })));
        assert!(bad(torture(&TortureSeen {
            all_collected: false,
            ..good_torture()
        })));
        use TerminateReason::*;
        let ok = |shape, r: &[TerminateReason]| right_reasons(shape, r.iter().copied());
        assert!(ok(
            Shape::Cycle,
            &[CyclicPropagated, CyclicDetected, Acyclic]
        ));
        assert!(!ok(Shape::Cycle, &[CyclicPropagated, Acyclic]));
        assert!(!ok(Shape::Cycle, &[Acyclic, Acyclic]));
        assert!(ok(Shape::Chain, &[Acyclic, Acyclic]));
        assert!(!ok(Shape::Chain, &[Acyclic, CyclicPropagated]));
        assert!(!replay(40, 39).ok());
        assert!(!replay(40, 41).ok());
        assert!(!replay(0, 0).ok());
    }
}
