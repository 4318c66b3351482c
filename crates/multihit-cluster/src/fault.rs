//! Deterministic fault injection for the distributed driver.
//!
//! §IV-A's production context — 2-hour Summit allocations, thousands of
//! GPUs, multi-day 4-hit runs — is exactly where ranks crash, GPUs
//! straggle, messages get lost, and checkpoint files rot. This module
//! provides a **seedable, deterministic fault plan** the tests and the CLI
//! can aim at a functional run: every injection site consults the shared
//! [`FaultState`] and the same plan always fires the same faults at the
//! same points, so a faulty run is exactly reproducible.
//!
//! Faults are injected, never fabricated: a dropped message is really never
//! enqueued, a corrupted payload really has a bit flipped, a killed rank's
//! thread really returns without participating. Detection and recovery
//! (closed-channel probes, retransmits, survivor re-partitioning, checkpoint
//! fallback) live in [`crate::comm`], [`crate::driver`], and [`crate::checkpoint`];
//! their correctness bar is that any injected run which completes produces
//! **bit-identical chosen combinations** to the fault-free reference.

use multihit_core::obs::Obs;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Rank `rank` crashes at the start of iteration `iter` (it never
    /// executes its kernels or joins the collectives again).
    RankKill {
        /// Original rank id.
        rank: usize,
        /// Iteration index at which the rank dies.
        iter: usize,
    },
    /// Rank `rank` runs `factor`× slower than its peers (it sleeps
    /// `factor − 1` times its measured kernel time; results are unaffected).
    Straggler {
        /// Original rank id.
        rank: usize,
        /// Slowdown factor (> 1.0).
        factor: f64,
    },
    /// Drop the first `count` data frames sent on the `from → to` link.
    MsgDrop {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Number of transmissions to drop.
        count: u32,
    },
    /// Flip one payload bit in the first `count` data frames on `from → to`
    /// (caught by the frame CRC; the retransmission is clean).
    MsgCorrupt {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Number of transmissions to corrupt.
        count: u32,
    },
    /// Truncate the checkpoint file written by save number `save` (0-based)
    /// to half its length, simulating a torn write / full filesystem.
    CkptTruncate {
        /// Save index to corrupt.
        save: usize,
    },
    /// Flip one bit of the checkpoint file written by save number `save`,
    /// simulating silent media corruption (caught by the format CRC).
    CkptBitflip {
        /// Save index to corrupt.
        save: usize,
    },
    /// Rank `rank` joins the run at the barrier before iteration `iter`
    /// (a recovered node or a scale-up slot). The driver admits it into
    /// the roster and moves it a boundary slab of the λ-range; the
    /// driver's lazy-greedy frontier is untouched, so the join forces no
    /// full rescan.
    RankJoin {
        /// Original rank id of the joiner (may exceed the launch size).
        rank: usize,
        /// Iteration barrier at which the rank is admitted.
        iter: usize,
    },
}

impl FaultSpec {
    /// Stable name used in `fault` obs points and CLI output.
    #[must_use]
    fn kind_name(&self) -> &'static str {
        match self {
            FaultSpec::RankKill { .. } => "rank_kill",
            FaultSpec::Straggler { .. } => "straggler",
            FaultSpec::MsgDrop { .. } => "msg_drop",
            FaultSpec::MsgCorrupt { .. } => "msg_corrupt",
            FaultSpec::CkptTruncate { .. } => "ckpt_truncate",
            FaultSpec::CkptBitflip { .. } => "ckpt_bitflip",
            FaultSpec::RankJoin { .. } => "rank_join",
        }
    }
}

/// A deterministic, seedable fault plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the (rare) random choices injection makes, e.g. which
    /// payload bit to flip. The plan itself is fully explicit.
    pub seed: u64,
    /// Planned faults.
    pub events: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Parse a comma-separated spec list, the CLI's `--inject` syntax:
    ///
    /// ```text
    /// rank-kill=R@K        kill rank R at iteration K
    /// straggler=R@F        slow rank R down by factor F
    /// msg-drop=F-T[@N]     drop the first N (default 1) frames F → T
    /// msg-corrupt=F-T[@N]  bit-flip the first N (default 1) frames F → T
    /// ckpt-truncate=K      truncate the checkpoint written by save K
    /// ckpt-bitflip=K       flip one bit of the checkpoint written by save K
    /// rank-join=R-K        admit rank R at the barrier before iteration K
    /// ```
    ///
    /// `rank-join` also accepts `R@K` for symmetry with `rank-kill`.
    ///
    /// # Errors
    /// Returns a message naming the offending spec.
    pub fn parse(specs: &str, seed: u64) -> Result<Self, String> {
        let mut events = Vec::new();
        for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
            let spec = spec.trim();
            let (kind, arg) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec {spec:?} (expected kind=arg)"))?;
            let err = |what: &str| format!("bad fault spec {spec:?}: {what}");
            let parse_usize = |s: &str, what: &str| s.parse::<usize>().map_err(|_| err(what));
            match kind {
                "rank-kill" => {
                    let (r, k) = arg.split_once('@').ok_or_else(|| err("expected R@K"))?;
                    events.push(FaultSpec::RankKill {
                        rank: parse_usize(r, "bad rank")?,
                        iter: parse_usize(k, "bad iteration")?,
                    });
                }
                "straggler" => {
                    let (r, f) = arg.split_once('@').ok_or_else(|| err("expected R@F"))?;
                    let factor: f64 = f.parse().map_err(|_| err("bad factor"))?;
                    if !(factor > 1.0 && factor.is_finite()) {
                        return Err(err("factor must be a finite value > 1"));
                    }
                    events.push(FaultSpec::Straggler {
                        rank: parse_usize(r, "bad rank")?,
                        factor,
                    });
                }
                "msg-drop" | "msg-corrupt" => {
                    let (link, count) = match arg.split_once('@') {
                        Some((l, n)) => (l, n.parse::<u32>().map_err(|_| err("bad count"))?),
                        None => (arg, 1),
                    };
                    let (f, t) = link.split_once('-').ok_or_else(|| err("expected F-T"))?;
                    let from = parse_usize(f, "bad sender")?;
                    let to = parse_usize(t, "bad receiver")?;
                    events.push(if kind == "msg-drop" {
                        FaultSpec::MsgDrop { from, to, count }
                    } else {
                        FaultSpec::MsgCorrupt { from, to, count }
                    });
                }
                "ckpt-truncate" => events.push(FaultSpec::CkptTruncate {
                    save: parse_usize(arg, "bad save index")?,
                }),
                "ckpt-bitflip" => events.push(FaultSpec::CkptBitflip {
                    save: parse_usize(arg, "bad save index")?,
                }),
                "rank-join" => {
                    // The ISSUE spec writes R-I; accept R@K too so join
                    // specs compose textually with rank-kill specs.
                    let (r, k) = arg
                        .split_once('-')
                        .or_else(|| arg.split_once('@'))
                        .ok_or_else(|| err("expected R-K"))?;
                    events.push(FaultSpec::RankJoin {
                        rank: parse_usize(r, "bad rank")?,
                        iter: parse_usize(k, "bad iteration")?,
                    });
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        }
        Ok(FaultPlan { seed, events })
    }
}

/// Pacing of the fault-tolerant collectives: how long a rank waits on a
/// silent peer before probing it again (a retransmit request or a resend,
/// which recovers a lost frame and finds a closed channel). It bounds how
/// fast a death or a lost frame is noticed, never *whether* a slow peer is
/// waited for. Defaults suit CI; tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct FtParams {
    /// Probe interval: the wait before the first probe of a silent peer.
    pub timeout: Duration,
    /// Interval multiplier per consecutive probe (≥ 1.0).
    pub backoff: f64,
}

/// Probes after which the probe interval stops growing.
const BACKOFF_STEPS: u32 = 3;

impl Default for FtParams {
    fn default() -> Self {
        FtParams {
            timeout: Duration::from_millis(100),
            backoff: 1.5,
        }
    }
}

impl FtParams {
    /// Fast settings for unit tests (a kill is noticed within 25 ms).
    #[must_use]
    pub fn fast_test() -> Self {
        FtParams {
            timeout: Duration::from_millis(25),
            backoff: 1.5,
        }
    }

    /// Length of the `attempt`-th wait (0-based), with backoff applied.
    /// The interval stops growing after `BACKOFF_STEPS` probes: a slow peer
    /// is waited for indefinitely, and a frame lost late in a long wait
    /// must still be re-requested promptly.
    #[must_use]
    pub fn attempt_timeout(&self, attempt: u32) -> Duration {
        let scale = self
            .backoff
            .max(1.0)
            .powi(attempt.min(BACKOFF_STEPS) as i32);
        self.timeout.mul_f64(scale)
    }
}

struct LinkCounter {
    from: usize,
    to: usize,
    remaining: AtomicU32,
    corrupt: bool,
}

struct KillFlag {
    rank: usize,
    iter: usize,
    fired: AtomicU32,
}

struct JoinFlag {
    rank: usize,
    iter: usize,
    fired: AtomicU32,
}

/// Shared runtime state of a fault plan: consulted by the comm layer on
/// every data-frame transmission, by rank bodies at iteration start, and by
/// the checkpoint store on every save. Emits a `fault` obs point every time
/// an injection fires.
pub struct FaultState {
    plan: FaultPlan,
    links: Vec<LinkCounter>,
    kills: Vec<KillFlag>,
    joins: Vec<JoinFlag>,
    ckpt_saves: AtomicU32,
    fired: Mutex<Vec<FaultSpec>>,
    obs: Obs,
}

impl FaultState {
    /// Arm a plan. `obs` receives one `fault` point per fired injection.
    #[must_use]
    pub fn new(plan: FaultPlan, obs: &Obs) -> Self {
        let links = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultSpec::MsgDrop { from, to, count } => Some(LinkCounter {
                    from,
                    to,
                    remaining: AtomicU32::new(count),
                    corrupt: false,
                }),
                FaultSpec::MsgCorrupt { from, to, count } => Some(LinkCounter {
                    from,
                    to,
                    remaining: AtomicU32::new(count),
                    corrupt: true,
                }),
                _ => None,
            })
            .collect();
        let kills = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultSpec::RankKill { rank, iter } => Some(KillFlag {
                    rank,
                    iter,
                    fired: AtomicU32::new(0),
                }),
                _ => None,
            })
            .collect();
        let joins = plan
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultSpec::RankJoin { rank, iter } => Some(JoinFlag {
                    rank,
                    iter,
                    fired: AtomicU32::new(0),
                }),
                _ => None,
            })
            .collect();
        FaultState {
            plan,
            links,
            kills,
            joins,
            ckpt_saves: AtomicU32::new(0),
            fired: Mutex::new(Vec::new()),
            obs: obs.clone(),
        }
    }

    /// The armed plan.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every injection that has fired so far, in firing order.
    #[must_use]
    pub fn fired(&self) -> Vec<FaultSpec> {
        self.fired.lock().expect("fault log poisoned").clone()
    }

    fn record(&self, spec: FaultSpec, iter: usize, fields: &[(&str, multihit_core::obs::Value)]) {
        self.fired.lock().expect("fault log poisoned").push(spec);
        if self.obs.is_enabled() {
            let mut all: Vec<(&str, multihit_core::obs::Value)> =
                vec![("kind", spec.kind_name().into()), ("iter", iter.into())];
            all.extend_from_slice(fields);
            self.obs.point("fault", &all);
        }
    }

    /// Does the plan kill original rank `rank` at iteration `iter`? Fires
    /// at most once per planned kill.
    #[must_use]
    pub fn should_kill(&self, rank: usize, iter: usize) -> bool {
        for k in &self.kills {
            if k.rank == rank
                && k.iter == iter
                && k.fired
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.record(
                    FaultSpec::RankKill { rank, iter },
                    iter,
                    &[("rank", rank.into())],
                );
                return true;
            }
        }
        false
    }

    /// Ranks the plan admits at the barrier before iteration `iter`, in
    /// plan order. Each planned join fires at most once; firing records a
    /// `fault` obs point like every other injection. The driver calls this
    /// from the membership epoch protocol at each iteration barrier.
    #[must_use]
    pub fn take_joins(&self, iter: usize) -> Vec<usize> {
        let mut admitted = Vec::new();
        for j in &self.joins {
            if j.iter == iter
                && j.fired
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.record(
                    FaultSpec::RankJoin { rank: j.rank, iter },
                    iter,
                    &[("rank", j.rank.into())],
                );
                admitted.push(j.rank);
            }
        }
        admitted
    }

    /// Straggler factor for original rank `rank`, if planned.
    #[must_use]
    pub fn straggler_factor(&self, rank: usize) -> Option<f64> {
        self.plan.events.iter().find_map(|e| match *e {
            FaultSpec::Straggler { rank: r, factor } if r == rank => Some(factor),
            _ => None,
        })
    }

    /// Record that a straggler delay was applied (obs bookkeeping only).
    pub fn note_straggle(&self, rank: usize, iter: usize, factor: f64, delay_ns: u64) {
        self.record(
            FaultSpec::Straggler { rank, factor },
            iter,
            &[("rank", rank.into()), ("delay_ns", delay_ns.into())],
        );
    }

    /// Consulted by the comm layer before transmitting a data frame on
    /// `from → to`: `Drop` means do not enqueue, `Corrupt(payload)` means
    /// enqueue the mangled bytes instead.
    #[must_use]
    pub fn on_transmit(&self, from: usize, to: usize, iter: usize, payload: &[u8]) -> WireFault {
        for link in &self.links {
            if link.from != from || link.to != to {
                continue;
            }
            let armed = link
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if !armed {
                continue;
            }
            if link.corrupt {
                let mut mangled = payload.to_vec();
                if !mangled.is_empty() {
                    let bit =
                        splitmix64(self.plan.seed.wrapping_add((from as u64) << 32 | to as u64))
                            as usize
                            % (mangled.len() * 8);
                    mangled[bit / 8] ^= 1 << (bit % 8);
                }
                self.record(
                    FaultSpec::MsgCorrupt { from, to, count: 1 },
                    iter,
                    &[("from", from.into()), ("to", to.into())],
                );
                return WireFault::Corrupt(mangled);
            }
            self.record(
                FaultSpec::MsgDrop { from, to, count: 1 },
                iter,
                &[("from", from.into()), ("to", to.into())],
            );
            return WireFault::Drop;
        }
        WireFault::None
    }

    /// Consulted by the checkpoint store after writing save number `n`
    /// (0-based, counted internally): how should the on-disk file be
    /// damaged, if at all?
    #[must_use]
    pub fn on_checkpoint_save(&self) -> CheckpointFault {
        let n = self.ckpt_saves.fetch_add(1, Ordering::SeqCst) as usize;
        for e in &self.plan.events {
            match *e {
                FaultSpec::CkptTruncate { save } if save == n => {
                    self.record(*e, n, &[("save", n.into())]);
                    return CheckpointFault::Truncate;
                }
                FaultSpec::CkptBitflip { save } if save == n => {
                    self.record(*e, n, &[("save", n.into())]);
                    return CheckpointFault::Bitflip(splitmix64(
                        self.plan.seed.wrapping_add(n as u64),
                    ));
                }
                _ => {}
            }
        }
        CheckpointFault::None
    }
}

/// Outcome of [`FaultState::on_transmit`].
#[derive(Clone, Debug, PartialEq)]
pub enum WireFault {
    /// Transmit faithfully.
    None,
    /// Silently discard the frame.
    Drop,
    /// Transmit these mangled payload bytes instead.
    Corrupt(Vec<u8>),
}

/// Outcome of [`FaultState::on_checkpoint_save`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointFault {
    /// Leave the file intact.
    None,
    /// Truncate the file to half its length.
    Truncate,
    /// Flip the bit selected by this random word (mod file size).
    Bitflip(u64),
}

/// SplitMix64: the plan's deterministic random choices (bit positions).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// CRC-32 (IEEE 802.3, reflected), used by both the message frames and the
/// durable checkpoint format. Bitwise — the inputs are tiny.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse(
            "rank-kill=1@2, straggler=3@2.5, msg-drop=2-0, msg-corrupt=1-0@3, \
             ckpt-truncate=4, ckpt-bitflip=5, rank-join=6-3",
            7,
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.events,
            vec![
                FaultSpec::RankKill { rank: 1, iter: 2 },
                FaultSpec::Straggler {
                    rank: 3,
                    factor: 2.5
                },
                FaultSpec::MsgDrop {
                    from: 2,
                    to: 0,
                    count: 1
                },
                FaultSpec::MsgCorrupt {
                    from: 1,
                    to: 0,
                    count: 3
                },
                FaultSpec::CkptTruncate { save: 4 },
                FaultSpec::CkptBitflip { save: 5 },
                FaultSpec::RankJoin { rank: 6, iter: 3 },
            ]
        );
    }

    #[test]
    fn parse_rank_join_accepts_both_separators() {
        let dash = FaultPlan::parse("rank-join=2-1", 0).unwrap();
        let at = FaultPlan::parse("rank-join=2@1", 0).unwrap();
        assert_eq!(dash.events, at.events);
        assert_eq!(dash.events, vec![FaultSpec::RankJoin { rank: 2, iter: 1 }]);
        assert!(FaultPlan::parse("rank-join=2", 0).is_err());
        assert!(FaultPlan::parse("rank-join=x-1", 0).is_err());
    }

    #[test]
    fn join_fires_exactly_once_at_its_barrier() {
        let st = FaultState::new(
            FaultPlan::parse("rank-join=4-2, rank-join=5-2, rank-join=6-3", 0).unwrap(),
            &Obs::disabled(),
        );
        assert!(st.take_joins(1).is_empty());
        assert_eq!(st.take_joins(2), vec![4, 5]);
        assert!(st.take_joins(2).is_empty(), "joins must not re-fire");
        assert_eq!(st.take_joins(3), vec![6]);
        assert_eq!(st.fired().len(), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("rank-kill", 0).is_err());
        assert!(FaultPlan::parse("rank-kill=x@1", 0).is_err());
        assert!(FaultPlan::parse("straggler=1@0.5", 0).is_err());
        assert!(FaultPlan::parse("msg-drop=12", 0).is_err());
        assert!(FaultPlan::parse("meteor-strike=1", 0).is_err());
        assert_eq!(FaultPlan::parse("", 0).unwrap(), FaultPlan::none());
    }

    #[test]
    fn kill_fires_exactly_once() {
        let st = FaultState::new(
            FaultPlan::parse("rank-kill=1@2", 0).unwrap(),
            &Obs::disabled(),
        );
        assert!(!st.should_kill(1, 1));
        assert!(!st.should_kill(0, 2));
        assert!(st.should_kill(1, 2));
        assert!(!st.should_kill(1, 2), "kill must not re-fire");
        assert_eq!(st.fired().len(), 1);
    }

    #[test]
    fn link_counter_drops_then_passes() {
        let st = FaultState::new(
            FaultPlan::parse("msg-drop=1-0@2", 0).unwrap(),
            &Obs::disabled(),
        );
        assert_eq!(st.on_transmit(1, 0, 0, b"x"), WireFault::Drop);
        assert_eq!(st.on_transmit(1, 0, 0, b"x"), WireFault::Drop);
        assert_eq!(st.on_transmit(1, 0, 0, b"x"), WireFault::None);
        assert_eq!(st.on_transmit(0, 1, 0, b"x"), WireFault::None);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_deterministically() {
        let st = FaultState::new(
            FaultPlan::parse("msg-corrupt=1-0", 42).unwrap(),
            &Obs::disabled(),
        );
        let payload = vec![0u8; 32];
        let WireFault::Corrupt(a) = st.on_transmit(1, 0, 0, &payload) else {
            panic!("expected corruption");
        };
        let flipped: u32 = a
            .iter()
            .zip(&payload)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Same seed → same bit.
        let st2 = FaultState::new(
            FaultPlan::parse("msg-corrupt=1-0", 42).unwrap(),
            &Obs::disabled(),
        );
        let WireFault::Corrupt(b) = st2.on_transmit(1, 0, 0, &payload) else {
            panic!("expected corruption");
        };
        assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_faults_target_the_right_save() {
        let st = FaultState::new(
            FaultPlan::parse("ckpt-bitflip=1", 3).unwrap(),
            &Obs::disabled(),
        );
        assert_eq!(st.on_checkpoint_save(), CheckpointFault::None);
        assert!(matches!(
            st.on_checkpoint_save(),
            CheckpointFault::Bitflip(_)
        ));
        assert_eq!(st.on_checkpoint_save(), CheckpointFault::None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926; of "" is 0.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn ft_params_backoff_grows() {
        let p = FtParams::default();
        assert!(p.attempt_timeout(2) > p.attempt_timeout(0));
        assert_eq!(FtParams::fast_test().attempt_timeout(0).as_millis(), 25);
        // Unbounded waits must not grow (or overflow) the probe interval.
        assert_eq!(
            p.attempt_timeout(u32::MAX),
            p.attempt_timeout(BACKOFF_STEPS)
        );
    }
}
