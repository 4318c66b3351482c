//! Discrete-event simulation of a distributed run.
//!
//! [`crate::timing::model_run`] prices an iteration as `max(comp) + comm` —
//! right for totals, but it cannot answer *when* each device was busy or
//! idle. This module replays a modeled run as events on a virtual clock:
//! per GPU a `KernelStart`/`KernelEnd` pair, per rank a local-reduce
//! completion, then the binomial-tree reduce rounds (each waiting on its
//! children) and the broadcast back. The output is a [`Timeline`] of busy
//! intervals per entity — the Gantt chart behind Fig 8, and the evidence
//! for "message passing overhead is hidden by the largest computation time"
//! (§IV-E), now with per-rank idle-time attribution.

use crate::timing::CommModel;
use crate::topology::ClusterShape;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What an interval on the timeline represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activity {
    /// A GPU executing its kernel.
    Kernel {
        /// Global GPU index.
        gpu: usize,
    },
    /// A rank waiting for / folding reduce messages.
    Reduce {
        /// Rank id.
        rank: usize,
    },
    /// A rank forwarding the broadcast.
    Broadcast {
        /// Rank id.
        rank: usize,
    },
}

/// A half-open busy interval `[start, end)` in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Activity performed.
    pub activity: Activity,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// The simulated timeline of one iteration.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Busy intervals, in event order.
    pub intervals: Vec<Interval>,
    /// Completion time of the broadcast at the last rank.
    pub makespan: f64,
}

impl Timeline {
    /// Total busy time of a rank's GPUs.
    #[must_use]
    pub fn rank_kernel_time(&self, shape: &ClusterShape, rank: usize) -> f64 {
        self.intervals
            .iter()
            .filter(|iv| {
                matches!(iv.activity, Activity::Kernel { gpu } if shape.rank_of_gpu(gpu) == rank)
            })
            .map(|iv| iv.end - iv.start)
            .sum()
    }

    /// Communication (reduce + broadcast) time charged to a rank.
    #[must_use]
    pub fn rank_comm_time(&self, rank: usize) -> f64 {
        self.intervals
            .iter()
            .filter(|iv| {
                matches!(iv.activity, Activity::Reduce { rank: r } | Activity::Broadcast { rank: r } if r == rank)
            })
            .map(|iv| iv.end - iv.start)
            .sum()
    }

    /// Idle time of a rank: makespan minus its busy time (kernel is the
    /// max over its concurrent GPUs, not the sum).
    #[must_use]
    pub fn rank_idle_time(&self, shape: &ClusterShape, rank: usize) -> f64 {
        let kernel_end = self
            .intervals
            .iter()
            .filter(|iv| {
                matches!(iv.activity, Activity::Kernel { gpu } if shape.rank_of_gpu(gpu) == rank)
            })
            .map(|iv| iv.end)
            .fold(0.0f64, f64::max);
        (self.makespan - kernel_end - self.rank_comm_time(rank)).max(0.0)
    }
}

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, PartialEq)]
enum EventKind {
    KernelEnd { gpu: usize },
    ReduceArrive { to: usize, step: usize },
    BroadcastArrive { to: usize },
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Simulate one iteration: per-GPU kernel times (seconds, global GPU
/// order), the cluster shape, and the interconnect model.
///
/// The reduce follows the binomial tree of
/// [`crate::comm::RankCtx::reduce_to_root`]: in round `r` (step `2^r`),
/// rank `q | 2^r` sends to `q` once its own subtree is folded; the message
/// costs `comm.p2p(bytes)`. The broadcast mirrors it back.
///
/// # Panics
/// Panics if `gpu_times` does not match the shape.
#[must_use]
pub fn simulate_iteration(
    gpu_times: &[f64],
    shape: &ClusterShape,
    comm: &CommModel,
    record_bytes: u64,
) -> Timeline {
    assert_eq!(
        gpu_times.len(),
        shape.total_gpus(),
        "one time per GPU required"
    );
    let ranks = shape.nodes;
    let mut timeline = Timeline::default();
    let mut queue: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |q: &mut BinaryHeap<Reverse<Event>>, time: f64, kind: EventKind| {
        q.push(Reverse(Event { time, seq, kind }));
        seq += 1;
    };

    // All kernels start at t=0; each GPU is one interval.
    let mut rank_ready = vec![0.0f64; ranks]; // local reduce done
    let mut gpus_pending: Vec<usize> = (0..ranks).map(|r| shape.gpus_of_rank(r).len()).collect();
    for (gpu, &t) in gpu_times.iter().enumerate() {
        timeline.intervals.push(Interval {
            activity: Activity::Kernel { gpu },
            start: 0.0,
            end: t,
        });
        push(&mut queue, t, EventKind::KernelEnd { gpu });
    }

    // Reduce-tree bookkeeping: rank q at step s waits for (a) its own
    // subtree of steps < s, (b) the message from q+s (if any).
    let p2p = comm.p2p(record_bytes);
    // subtree_done[q] = time rank q has folded everything it owns so far.
    let mut subtree_done = vec![f64::NAN; ranks];
    let mut arrivals: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ranks]; // (step, time)

    // Helper: process rank q's sends once its subtree completion allows.
    // Sequential event loop below handles ordering.
    let mut bcast_done = vec![f64::NAN; ranks];

    while let Some(Reverse(ev)) = queue.pop() {
        match ev.kind {
            EventKind::KernelEnd { gpu } => {
                let r = shape.rank_of_gpu(gpu);
                gpus_pending[r] -= 1;
                rank_ready[r] = rank_ready[r].max(ev.time);
                if gpus_pending[r] == 0 {
                    // Local (intra-node) reduce is free in the model; the
                    // rank now walks the binomial tree.
                    subtree_done[r] = rank_ready[r];
                    advance_rank(
                        r,
                        ranks,
                        &mut subtree_done,
                        &mut arrivals,
                        p2p,
                        &mut timeline,
                        &mut queue,
                        &mut seq,
                    );
                }
            }
            EventKind::ReduceArrive { to, step } => {
                arrivals[to].push((step, ev.time));
                advance_rank(
                    to,
                    ranks,
                    &mut subtree_done,
                    &mut arrivals,
                    p2p,
                    &mut timeline,
                    &mut queue,
                    &mut seq,
                );
            }
            EventKind::BroadcastArrive { to } => {
                bcast_done[to] = ev.time;
                schedule_broadcast(to, ranks, ev.time, p2p, &mut timeline, &mut queue, &mut seq);
            }
        }
        // Root finished the reduce → start the broadcast.
        if bcast_done[0].is_nan() && reduce_complete(0, ranks, &subtree_done, &arrivals) {
            let t0 = subtree_final_time(0, ranks, &subtree_done, &arrivals);
            bcast_done[0] = t0;
            schedule_broadcast(0, ranks, t0, p2p, &mut timeline, &mut queue, &mut seq);
        }
    }

    timeline.makespan =
        bcast_done
            .iter()
            .copied()
            .fold(0.0f64, |a, b| if b.is_nan() { a } else { a.max(b) });
    timeline
}

/// Sample failure event times over `[0, horizon_s)` from a Poisson process
/// with mean time between failures `mtbf_s` (exponential inter-arrivals),
/// deterministically from `seed`. This is the discrete-event side of the
/// failure model: [`crate::timing::model_run_faulty`] walks the modeled
/// iterations and charges detection, restart, and re-execution for every
/// sampled event.
#[must_use]
pub fn sample_failures(mtbf_s: f64, horizon_s: f64, seed: u64) -> Vec<f64> {
    assert!(mtbf_s > 0.0 && mtbf_s.is_finite(), "MTBF must be positive");
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut state = seed;
    loop {
        state = state.wrapping_add(1);
        let word = crate::fault::splitmix64(state);
        // Uniform in (0, 1]: never 0, so ln() is finite.
        let u = ((word >> 11) as f64 + 1.0) / ((1u64 << 53) as f64);
        t += -mtbf_s * u.ln();
        if t >= horizon_s {
            return out;
        }
        out.push(t);
    }
}

/// Does rank q, viewed as a reduce-tree node, have everything it needs?
fn reduce_complete(
    q: usize,
    ranks: usize,
    subtree_done: &[f64],
    arrivals: &[Vec<(usize, f64)>],
) -> bool {
    if subtree_done[q].is_nan() {
        return false;
    }
    let mut step = 1usize;
    while step < ranks {
        if q & step != 0 {
            break; // q sends at this step; nothing more to receive
        }
        if q + step < ranks && !arrivals[q].iter().any(|&(s, _)| s == step) {
            return false;
        }
        step <<= 1;
    }
    true
}

fn subtree_final_time(
    q: usize,
    ranks: usize,
    subtree_done: &[f64],
    arrivals: &[Vec<(usize, f64)>],
) -> f64 {
    let mut t = subtree_done[q];
    let mut step = 1usize;
    while step < ranks {
        if q & step != 0 {
            break;
        }
        if q + step < ranks {
            if let Some(&(_, at)) = arrivals[q].iter().find(|&&(s, _)| s == step) {
                t = t.max(at);
            }
        }
        step <<= 1;
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn advance_rank(
    q: usize,
    ranks: usize,
    subtree_done: &mut [f64],
    arrivals: &mut [Vec<(usize, f64)>],
    p2p: f64,
    timeline: &mut Timeline,
    queue: &mut BinaryHeap<Reverse<Event>>,
    seq: &mut u64,
) {
    if !reduce_complete(q, ranks, subtree_done, arrivals) {
        return;
    }
    // q's subtree is folded; if q is a sender (lowest set bit = its send
    // step), schedule the message to its parent.
    if q == 0 {
        return; // root: handled by the main loop
    }
    let send_step = q & q.wrapping_neg(); // lowest set bit
    let ready = subtree_final_time(q, ranks, subtree_done, arrivals);
    let parent = q - send_step;
    timeline.intervals.push(Interval {
        activity: Activity::Reduce { rank: q },
        start: ready,
        end: ready + p2p,
    });
    queue.push(Reverse(Event {
        time: ready + p2p,
        seq: *seq,
        kind: EventKind::ReduceArrive {
            to: parent,
            step: send_step,
        },
    }));
    *seq += 1;
}

fn schedule_broadcast(
    q: usize,
    ranks: usize,
    at: f64,
    p2p: f64,
    timeline: &mut Timeline,
    queue: &mut BinaryHeap<Reverse<Event>>,
    seq: &mut u64,
) {
    // q forwards to q + step for every step below its receive step,
    // mirroring RankCtx::broadcast.
    let mut top = 1usize;
    while top < ranks {
        top <<= 1;
    }
    let receive_step = if q == 0 { top } else { q & q.wrapping_neg() };
    let mut step = receive_step >> 1;
    let mut t = at;
    while step >= 1 {
        if q + step < ranks {
            timeline.intervals.push(Interval {
                activity: Activity::Broadcast { rank: q },
                start: t,
                end: t + p2p,
            });
            queue.push(Reverse(Event {
                time: t + p2p,
                seq: *seq,
                kind: EventKind::BroadcastArrive { to: q + step },
            }));
            *seq += 1;
            t += p2p;
        }
        if step == 1 {
            break;
        }
        step >>= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(nodes: usize) -> ClusterShape {
        ClusterShape {
            nodes,
            gpus_per_node: 2,
        }
    }

    #[test]
    fn failure_sampling_is_deterministic_and_calibrated() {
        let a = sample_failures(100.0, 10_000.0, 7);
        let b = sample_failures(100.0, 10_000.0, 7);
        assert_eq!(a, b, "same seed, same failures");
        assert_ne!(a, sample_failures(100.0, 10_000.0, 8));
        // Sorted, in range.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10_000.0).contains(&t)));
        // ~100 expected events; Poisson σ = 10, allow 5σ.
        assert!((a.len() as f64 - 100.0).abs() < 50.0, "{} events", a.len());
        // A short horizon with a huge MTBF usually sees none.
        assert!(sample_failures(1e12, 1.0, 1).is_empty());
    }

    fn comm() -> CommModel {
        CommModel {
            latency_s: 1.0,
            per_byte_s: 0.0,
        } // unit-latency messages
    }

    #[test]
    fn single_rank_makespan_is_slowest_gpu() {
        let tl = simulate_iteration(&[3.0, 5.0], &shape(1), &comm(), 32);
        assert!((tl.makespan - 5.0).abs() < 1e-12);
        assert_eq!(tl.intervals.len(), 2);
    }

    #[test]
    fn two_ranks_pay_one_reduce_and_one_broadcast_round() {
        // Ranks finish at 4.0 and 6.0; rank 1 sends (1 s), root folds at 7,
        // broadcast back (1 s) ⇒ makespan 8.
        let tl = simulate_iteration(&[4.0, 3.0, 6.0, 2.0], &shape(2), &comm(), 32);
        assert!(
            (tl.makespan - 8.0).abs() < 1e-12,
            "makespan {}",
            tl.makespan
        );
    }

    #[test]
    fn balanced_four_ranks_pipeline_the_tree() {
        // All ranks ready at t=10. Reduce: round 1 (1→0, 3→2) lands at 11;
        // round 2 (2→0) leaves at 11, lands 12. Broadcast: 0→2 at 13,
        // 0→1 at 14, 2→3 at 14 ⇒ makespan 14.
        let tl = simulate_iteration(&[10.0; 8], &shape(4), &comm(), 32);
        assert!(
            (tl.makespan - 14.0).abs() < 1e-12,
            "makespan {}",
            tl.makespan
        );
    }

    #[test]
    fn comm_hidden_when_one_rank_straggles() {
        // Rank 2 of 4 straggles to t=100; all tree rounds for other ranks
        // complete long before ⇒ makespan = 100 + (2→0 send) + broadcast.
        let mut times = vec![1.0; 8];
        times[4] = 100.0; // rank 2, gpu 0
        let tl = simulate_iteration(&times, &shape(4), &comm(), 32);
        // 100 (rank2 ready) + 1 (2→0) + 1 (0→2... wait bcast rounds):
        // bcast: 0→2 at 101→102, then 0→1 102→103, 2→3 102→103 ⇒ 103.
        assert!(
            (tl.makespan - 103.0).abs() < 1e-12,
            "makespan {}",
            tl.makespan
        );
    }

    #[test]
    fn rank_accounting_sums_consistently() {
        let s = shape(3);
        let tl = simulate_iteration(&[2.0, 4.0, 3.0, 1.0, 5.0, 2.5], &s, &comm(), 32);
        for r in 0..3 {
            let k = tl.rank_kernel_time(&s, r);
            assert!(k > 0.0);
            let idle = tl.rank_idle_time(&s, r);
            assert!(idle >= 0.0);
            assert!(idle <= tl.makespan);
        }
        // Rank 1 (GPUs 2,3: max 3.0) finishes earliest and only sends one
        // reduce message: it idles the most. The straggler rank 2 never
        // idles more than the early finishers.
        let idles: Vec<f64> = (0..3).map(|r| tl.rank_idle_time(&s, r)).collect();
        assert!(idles[1] > idles[0] && idles[1] > idles[2], "{idles:?}");
        assert!(idles[2] <= idles[1], "{idles:?}");
    }

    #[test]
    fn makespan_matches_flat_model_bound() {
        // DES makespan is ≥ the flat model's max(comp) and ≤ max(comp) +
        // full tree cost.
        let s = shape(8);
        let times: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64).collect();
        let c = CommModel {
            latency_s: 0.01,
            per_byte_s: 0.0,
        };
        let tl = simulate_iteration(&times, &s, &c, 32);
        let comp_max = times.iter().cloned().fold(0.0f64, f64::max);
        let tree = c.reduce(32, 8) + c.broadcast(32, 8);
        assert!(tl.makespan >= comp_max);
        assert!(
            tl.makespan <= comp_max + tree + 1e-9,
            "{} vs {}",
            tl.makespan,
            comp_max + tree
        );
    }
}
