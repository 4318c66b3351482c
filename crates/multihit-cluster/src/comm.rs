//! Message passing between ranks: the in-process runtime functional runs
//! use.
//!
//! The paper runs one MPI process per Summit node (Fig 1); a distributed
//! iteration is one reduction to rank 0 — one 20-byte record per rank
//! (§III-E) — and one broadcast of the winner. The functional driver keeps
//! that shape: each iteration attempt reduces one count-prefixed list of
//! 32-byte records per rank (its K best when the lazy-greedy frontier is
//! rebuilt, its winner when the frontier is off, nothing on a frontier
//! hit) and broadcasts one 32-byte winner. [`run_ranks`] spawns one OS thread
//! per rank wired with crossbeam channels and provides point-to-point
//! `send`/`recv`, a binomial-tree `reduce_to_root`, a `broadcast`, and a
//! `barrier` — enough to express the paper's communication pattern exactly
//! and test it with real concurrency. The modeled runs price the same
//! collectives with an α–β model instead.
//!
//! ## Fault-tolerant collectives
//!
//! [`FtCtx`] wraps a [`RankCtx`] with the recovery protocol a multi-day
//! production run needs, and it is what every functional run uses, faulty
//! or not: every message travels as a CRC-framed record, a rank waiting on
//! a silent peer re-probes it once per probe interval
//! ([`FtParams::timeout`], grown by [`FtParams::backoff`]) so lost or
//! corrupt frames are retransmitted, and broadcast frames are acknowledged.
//! **Elapsed time is never evidence of death**: a peer is accused only when
//! its channel is closed — a killed rank's thread has returned and dropped
//! its receiver, this runtime's analogue of a process death the MPI runtime
//! reports — so a healthy rank that merely finishes much earlier or later
//! than its peers is waited for, however long that takes. Failure
//! notifications propagate up the reduce tree (a `FAIL` frame instead of
//! data) and back down via the broadcast, so every surviving rank learns
//! the same dead set and the driver can re-partition the λ-range across the
//! survivors. Fault injection ([`crate::fault`]) hooks the transmit path
//! only — the protocol itself never cheats by looking at the plan.

use crate::fault::{crc32, FaultState, FtParams, WireFault};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A serialized message between ranks.
type Msg = Vec<u8>;

/// Per-rank communication context handed to the rank body.
pub struct RankCtx {
    /// This rank's id (0 = root).
    pub rank: usize,
    /// Total ranks.
    pub size: usize,
    senders: Arc<Vec<Sender<(usize, Msg)>>>,
    receiver: Receiver<(usize, Msg)>,
}

impl RankCtx {
    /// Send bytes to a peer rank.
    ///
    /// # Panics
    /// Panics if `to` is out of range or the runtime has shut down.
    pub fn send(&self, to: usize, bytes: Vec<u8>) {
        self.senders[to]
            .send((self.rank, bytes))
            .expect("peer rank hung up");
    }

    /// Send bytes to a peer rank; `false` if the peer's receiver is gone
    /// (the rank crashed or already returned). The fault-tolerant paths use
    /// this so a dead peer is detected instead of panicking.
    fn try_send(&self, to: usize, bytes: Vec<u8>) -> bool {
        self.senders[to].send((self.rank, bytes)).is_ok()
    }

    /// Receive the next message (from any rank). Blocks.
    ///
    /// # Panics
    /// Panics if all peers hung up.
    #[must_use]
    pub fn recv(&self) -> (usize, Vec<u8>) {
        match self.recv_timeout(None) {
            Ok(m) => m,
            Err(e) => panic!("all peers hung up: {e:?}"),
        }
    }

    /// Receive the next message, waiting at most `timeout` (`None` = wait
    /// forever — the bound [`recv`](Self::recv) delegates with).
    ///
    /// # Errors
    /// [`CommError::Timeout`] if the wait expired, [`CommError::Disconnected`]
    /// once every peer hung up with the queue drained.
    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(usize, Vec<u8>), CommError> {
        match timeout {
            None => self.receiver.recv().map_err(|_| CommError::Disconnected),
            Some(t) => self.receiver.recv_timeout(t).map_err(|e| match e {
                RecvTimeoutError::Timeout => CommError::Timeout,
                RecvTimeoutError::Disconnected => CommError::Disconnected,
            }),
        }
    }

    /// Binomial-tree reduction to rank 0: `log₂(size)` rounds; in round `r`
    /// rank `q | 2^r` sends its accumulator to `q`, which folds with `op`.
    /// Returns `Some(acc)` on rank 0, `None` elsewhere.
    pub fn reduce_to_root<T, F, S, D>(&self, mut acc: T, op: F, ser: S, de: D) -> Option<T>
    where
        F: Fn(T, T) -> T,
        S: Fn(&T) -> Vec<u8>,
        D: Fn(&[u8]) -> T,
    {
        let mut step = 1usize;
        while step < self.size {
            if self.rank & step != 0 {
                // Sender: partner is rank − step; then this rank is done.
                self.send(self.rank - step, ser(&acc));
                return None;
            }
            if self.rank + step < self.size {
                let (_from, bytes) = self.recv();
                acc = op(acc, de(&bytes));
            }
            step <<= 1;
        }
        if self.rank == 0 {
            Some(acc)
        } else {
            None
        }
    }

    /// Binomial-tree broadcast from rank 0 (rounds mirror the reduction in
    /// reverse): in the round with distance `step`, every rank whose id is a
    /// multiple of `2·step` forwards to `rank + step`.
    #[must_use]
    pub fn broadcast(&self, value: Option<Vec<u8>>) -> Vec<u8> {
        let mut have = if self.rank == 0 {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        let mut top = 1usize;
        while top < self.size {
            top <<= 1;
        }
        let mut step = top >> 1;
        while step >= 1 {
            if self.rank.is_multiple_of(2 * step) {
                if let Some(v) = &have {
                    if self.rank + step < self.size {
                        self.send(self.rank + step, v.clone());
                    }
                }
            } else if self.rank % (2 * step) == step {
                let (_from, b) = self.recv();
                have = Some(b);
            }
            if step == 1 {
                break;
            }
            step >>= 1;
        }
        have.expect("broadcast did not reach this rank")
    }

    /// Barrier: reduce a unit to root, then broadcast a unit back.
    pub fn barrier(&self) {
        let _ = self.reduce_to_root((), |(), ()| (), |()| vec![0], |_| ());
        let _ = self.broadcast(if self.rank == 0 { Some(vec![0]) } else { None });
    }
}

/// Receive error: the wait expired or the other side is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived within the bound.
    Timeout,
    /// Every peer hung up and the queue is drained, or (fault-tolerant
    /// broadcast) the peer being waited on closed its channel.
    Disconnected,
}

// ---------------------------------------------------------------------------
// Fault-tolerant framed collectives.
// ---------------------------------------------------------------------------

const KIND_DATA: u8 = 0;
const KIND_RETRANS: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_FAIL: u8 = 3;
const FRAME_HEADER: usize = 10;

/// Logical channel for the per-iteration reduce.
const TAG_REDUCE: u8 = 0;
/// Logical channel for the per-iteration broadcast.
const TAG_BCAST: u8 = 1;

fn encode_frame(kind: u8, tag: u8, seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(FRAME_HEADER + payload.len());
    f.push(kind);
    f.push(tag);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

struct Frame {
    kind: u8,
    tag: u8,
    seq: u32,
    crc_ok: bool,
    payload: Vec<u8>,
}

fn parse_frame(bytes: &[u8]) -> Option<Frame> {
    if bytes.len() < FRAME_HEADER {
        return None;
    }
    let seq = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes"));
    let payload = bytes[FRAME_HEADER..].to_vec();
    Some(Frame {
        kind: bytes[0],
        tag: bytes[1],
        seq,
        crc_ok: crc32(&payload) == crc,
        payload,
    })
}

fn encode_ranks(ranks: &BTreeSet<usize>) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 * ranks.len());
    for &r in ranks {
        b.extend_from_slice(&(r as u32).to_le_bytes());
    }
    b
}

fn decode_ranks(bytes: &[u8]) -> BTreeSet<usize> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
        .collect()
}

/// Protocol counters a fault-tolerant collective accumulates; the driver
/// folds them into `recovery` obs points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtStats {
    /// Retransmit requests this rank sent (CRC failure or silent peer).
    pub retrans_requests: u64,
    /// Frames this rank resent (on request or on a missing ACK).
    pub retransmits: u64,
    /// Frames rejected by the CRC check.
    pub crc_failures: u64,
    /// Duplicate frames discarded by the (sender, seq) filter.
    pub duplicates: u64,
    /// Individual waits that expired.
    pub timeouts: u64,
}

impl FtStats {
    /// Fold another rank's counters into this one.
    pub fn merge(&mut self, other: &FtStats) {
        self.retrans_requests += other.retrans_requests;
        self.retransmits += other.retransmits;
        self.crc_failures += other.crc_failures;
        self.duplicates += other.duplicates;
        self.timeouts += other.timeouts;
    }
}

enum Inbound {
    Data {
        from: usize,
        tag: u8,
        payload: Vec<u8>,
    },
    Fail {
        from: usize,
        tag: u8,
        dead: BTreeSet<usize>,
    },
    Ack {
        from: usize,
        tag: u8,
        seq: u32,
    },
}

/// Result of a fault-tolerant reduce on one rank.
pub struct ReduceOutcome<T> {
    /// The folded value — `Some` only on rank 0 of a fully successful tree.
    pub root_value: Option<T>,
    /// Whether any subtree reported or was declared failed.
    pub failed: bool,
    /// Ranks declared dead in this rank's subtree (propagated upward).
    pub dead: BTreeSet<usize>,
    /// Whether this rank's own parent was unreachable (its channel is gone);
    /// the caller should skip the broadcast phase and abort the iteration.
    pub parent_dead: bool,
}

/// The broadcast verdict rank 0 distributes after a fault-tolerant reduce.
#[derive(Clone, Debug, PartialEq)]
pub enum BcastMsg {
    /// The reduce succeeded; here is the winning record.
    Value(Vec<u8>),
    /// The reduce failed; these ranks are dead and the iteration aborts.
    Abort(Vec<usize>),
    /// Membership epoch announcement: the roster now holds these original
    /// rank ids, in compact-rank order. Broadcast by rank 0 at the
    /// iteration barrier where joiners are admitted; every rank checks the
    /// announced roster against its own view before proceeding, so the
    /// whole tree converges on the same epoch or aborts.
    Join {
        /// Membership epoch, bumped once per roster change.
        epoch: u32,
        /// Original rank ids in compact order (order matters: compact rank
        /// `i` owns partition `i`, so this is NOT a set).
        roster: Vec<usize>,
    },
}

impl BcastMsg {
    fn encode(&self) -> Vec<u8> {
        match self {
            BcastMsg::Value(v) => {
                let mut b = Vec::with_capacity(1 + v.len());
                b.push(0);
                b.extend_from_slice(v);
                b
            }
            BcastMsg::Abort(dead) => {
                let mut b = vec![1u8];
                b.extend_from_slice(&encode_ranks(&dead.iter().copied().collect()));
                b
            }
            BcastMsg::Join { epoch, roster } => {
                let mut b = Vec::with_capacity(5 + 4 * roster.len());
                b.push(2);
                b.extend_from_slice(&epoch.to_le_bytes());
                for &r in roster {
                    b.extend_from_slice(&(r as u32).to_le_bytes());
                }
                b
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<BcastMsg> {
        match bytes.first()? {
            0 => Some(BcastMsg::Value(bytes[1..].to_vec())),
            1 => Some(BcastMsg::Abort(
                decode_ranks(&bytes[1..]).into_iter().collect(),
            )),
            2 => {
                let epoch = u32::from_le_bytes(bytes.get(1..5)?.try_into().ok()?);
                let body = &bytes[5..];
                if !body.len().is_multiple_of(4) {
                    return None;
                }
                let roster = body
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")) as usize)
                    .collect();
                Some(BcastMsg::Join { epoch, roster })
            }
            _ => None,
        }
    }
}

/// Fault-tolerant collective context: wraps a [`RankCtx`] with CRC framing,
/// sequence-number dedup, retransmit-on-timeout, ACKed broadcast forwards,
/// and accusation of peers whose channel has closed. One `FtCtx` serves
/// one iteration (one reduce + one broadcast); the driver builds a fresh one
/// per iteration, matching how `run_ranks` rebuilds the mesh.
pub struct FtCtx<'a> {
    ctx: &'a RankCtx,
    params: FtParams,
    faults: Option<&'a FaultState>,
    iter: usize,
    next_seq: u32,
    seen: HashSet<(usize, u32)>,
    last_sent: HashMap<(usize, u8), Vec<u8>>,
    /// Protocol counters for this rank's iteration.
    pub stats: FtStats,
}

impl<'a> FtCtx<'a> {
    /// Wrap `ctx` for iteration `iter`. `faults` is the armed injection
    /// plan, if any — injection touches original data transmissions only,
    /// never retransmits or control frames, so a bounded plan is always
    /// recoverable unless the peer is dead.
    #[must_use]
    pub fn new(
        ctx: &'a RankCtx,
        params: FtParams,
        faults: Option<&'a FaultState>,
        iter: usize,
    ) -> Self {
        FtCtx {
            ctx,
            params,
            faults,
            iter,
            next_seq: 0,
            seen: HashSet::new(),
            last_sent: HashMap::new(),
            stats: FtStats::default(),
        }
    }

    /// This rank's id.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.ctx.rank
    }

    /// Transmit a fresh data-bearing frame (subject to fault injection:
    /// the wire copy may be dropped or have a bit flipped, but `last_sent`
    /// always keeps the clean original for retransmission). `false` if the
    /// peer's channel is gone.
    fn send_data(&mut self, to: usize, kind: u8, tag: u8, payload: &[u8]) -> (u32, bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let clean = encode_frame(kind, tag, seq, payload);
        self.last_sent.insert((to, tag), clean.clone());
        // Control frames (FAIL) skip injection: only DATA is fair game.
        let wire = match (kind, self.faults) {
            (KIND_DATA, Some(f)) => match f.on_transmit(self.ctx.rank, to, self.iter, payload) {
                WireFault::None => Some(clean),
                WireFault::Drop => None,
                WireFault::Corrupt(mangled) => {
                    // Corruption happens on the wire, after the sender
                    // computed the checksum — keep the clean header (and its
                    // CRC) so the receiver's check fails.
                    let mut wire = clean[..FRAME_HEADER].to_vec();
                    wire.extend_from_slice(&mangled);
                    Some(wire)
                }
            },
            _ => Some(clean),
        };
        let delivered = match wire {
            // A dropped frame is "sent" from this rank's point of view; the
            // receiver's retransmit request recovers it.
            None => true,
            Some(w) => self.ctx.try_send(to, w),
        };
        (seq, delivered)
    }

    /// Resend the last frame sent to `peer` on `tag`, verbatim (injection
    /// never touches retransmissions). `false` if nothing was sent yet or
    /// the peer is gone.
    fn resend(&mut self, peer: usize, tag: u8) -> bool {
        // A request can arrive before we have anything on this tag (e.g. a
        // child probing for the broadcast while we are still reducing);
        // ignore it — the real frame will follow.
        let Some(f) = self.last_sent.get(&(peer, tag)) else {
            return true;
        };
        self.stats.retransmits += 1;
        self.ctx.try_send(peer, f.clone())
    }

    fn send_retrans(&mut self, to: usize, tag: u8) -> bool {
        self.stats.retrans_requests += 1;
        self.ctx
            .try_send(to, encode_frame(KIND_RETRANS, tag, 0, &[]))
    }

    fn send_ack(&mut self, to: usize, tag: u8, seq: u32) {
        let _ = self.ctx.try_send(to, encode_frame(KIND_ACK, tag, seq, &[]));
    }

    /// Pull the next protocol-meaningful message, handling retransmit
    /// requests, CRC rejects, and duplicates inline. Frames already queued
    /// are returned even when `timeout` is zero: a time-out means the queue
    /// was empty at the deadline.
    fn poll(&mut self, timeout: Duration) -> Result<Inbound, CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (from, bytes) = self.ctx.recv_timeout(Some(left))?;
            let Some(f) = parse_frame(&bytes) else {
                continue;
            };
            match f.kind {
                KIND_RETRANS => {
                    // Peer missed (or rejected) our last frame on this tag.
                    let _ = self.resend(from, f.tag);
                }
                KIND_ACK => {
                    return Ok(Inbound::Ack {
                        from,
                        tag: f.tag,
                        seq: f.seq,
                    });
                }
                KIND_DATA | KIND_FAIL => {
                    if !f.crc_ok {
                        self.stats.crc_failures += 1;
                        let _ = self.send_retrans(from, f.tag);
                        continue;
                    }
                    if !self.seen.insert((from, f.seq)) {
                        self.stats.duplicates += 1;
                        if f.tag == TAG_BCAST {
                            // Our earlier ACK may have raced; re-ACK.
                            self.send_ack(from, f.tag, f.seq);
                        }
                        continue;
                    }
                    if f.tag == TAG_BCAST {
                        self.send_ack(from, f.tag, f.seq);
                    }
                    return Ok(if f.kind == KIND_FAIL {
                        Inbound::Fail {
                            from,
                            tag: f.tag,
                            dead: decode_ranks(&f.payload),
                        }
                    } else {
                        Inbound::Data {
                            from,
                            tag: f.tag,
                            payload: f.payload,
                        }
                    });
                }
                _ => {}
            }
        }
    }

    /// Fault-tolerant binomial-tree reduction to rank 0 (same tree as
    /// [`RankCtx::reduce_to_root`]). Children are folded in **arrival
    /// order** — `op` must be associative and commutative, which the
    /// driver's deterministic max already is. A silent child is re-probed
    /// once per probe interval and declared dead only when the probe finds
    /// its channel closed; a child reporting a dead subtree (`FAIL` frame)
    /// propagates the accusation. Either way every non-root rank still
    /// reports upward, so the tree always terminates.
    pub fn reduce_to_root<T, F, S, D>(&mut self, local: T, op: F, ser: S, de: D) -> ReduceOutcome<T>
    where
        F: Fn(T, T) -> T,
        S: Fn(&T) -> Vec<u8>,
        D: Fn(&[u8]) -> T,
    {
        let rank = self.ctx.rank;
        let size = self.ctx.size;
        let mut children: BTreeSet<usize> = BTreeSet::new();
        let mut parent: Option<usize> = None;
        let mut step = 1usize;
        while step < size {
            if rank & step != 0 {
                parent = Some(rank - step);
                break;
            }
            if rank + step < size {
                children.insert(rank + step);
            }
            step <<= 1;
        }

        let mut acc = local;
        let mut failed = false;
        let mut dead: BTreeSet<usize> = BTreeSet::new();
        let mut pending = children;
        let mut attempt = 0u32;
        while !pending.is_empty() {
            match self.poll(self.params.attempt_timeout(attempt)) {
                Ok(Inbound::Data { from, tag, payload }) if tag == TAG_REDUCE => {
                    if pending.remove(&from) {
                        acc = op(acc, de(&payload));
                    }
                }
                Ok(Inbound::Fail { from, tag, dead: d }) if tag == TAG_REDUCE => {
                    if pending.remove(&from) {
                        failed = true;
                        dead.extend(d);
                    }
                }
                Ok(_) => {}
                Err(CommError::Timeout) => {
                    // A slow child is not a dead child: re-probe (which also
                    // recovers a dropped frame) and accuse only the children
                    // whose channel is gone.
                    self.stats.timeouts += 1;
                    attempt += 1;
                    let targets: Vec<usize> = pending.iter().copied().collect();
                    for c in targets {
                        if !self.send_retrans(c, TAG_REDUCE) {
                            failed = true;
                            dead.insert(c);
                            pending.remove(&c);
                        }
                    }
                }
                Err(CommError::Disconnected) => {
                    failed = true;
                    dead.extend(pending.iter().copied());
                    pending.clear();
                }
            }
        }

        let mut parent_dead = false;
        if let Some(p) = parent {
            let sent = if failed {
                let (_seq, ok) = self.send_data(p, KIND_FAIL, TAG_REDUCE, &encode_ranks(&dead));
                ok
            } else {
                let (_seq, ok) = self.send_data(p, KIND_DATA, TAG_REDUCE, &ser(&acc));
                ok
            };
            if !sent {
                failed = true;
                dead.insert(p);
                parent_dead = true;
            }
        }
        let root_value = if rank == 0 && !failed {
            Some(acc)
        } else {
            None
        };
        ReduceOutcome {
            root_value,
            failed,
            dead,
            parent_dead,
        }
    }

    /// Fault-tolerant binomial-tree broadcast of rank 0's verdict. Forwards
    /// are ACK-confirmed, resent once per probe interval; a child whose
    /// channel closed without an ACK is added to the returned suspect set
    /// (it does not block the rest of the tree). Ranks listed dead in an
    /// [`BcastMsg::Abort`] are skipped.
    ///
    /// # Errors
    /// `Err(CommError::Disconnected)` if the parent's channel closed before
    /// the verdict arrived (its ancestor chain died); the caller aborts the
    /// iteration.
    pub fn broadcast(
        &mut self,
        root_msg: Option<BcastMsg>,
    ) -> Result<(BcastMsg, BTreeSet<usize>), CommError> {
        let rank = self.ctx.rank;
        let size = self.ctx.size;
        let mut top = 1usize;
        while top < size {
            top <<= 1;
        }
        // Same tree as the plain broadcast: rank q hears from q minus its
        // lowest set bit, then forwards at every smaller step.
        let recv_step = if rank == 0 {
            top
        } else {
            rank & rank.wrapping_neg()
        };

        let have = if rank == 0 {
            root_msg.expect("root must supply the broadcast verdict")
        } else {
            let parent = rank - recv_step;
            let mut attempt = 0u32;
            loop {
                match self.poll(self.params.attempt_timeout(attempt)) {
                    Ok(Inbound::Data { from, tag, payload })
                        if tag == TAG_BCAST && from == parent =>
                    {
                        match BcastMsg::decode(&payload) {
                            Some(m) => break m,
                            None => {
                                // Undecodable despite a good CRC: ask again.
                                let _ = self.send_retrans(parent, TAG_BCAST);
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(CommError::Timeout) => {
                        self.stats.timeouts += 1;
                        attempt += 1;
                        if !self.send_retrans(parent, TAG_BCAST) {
                            return Err(CommError::Disconnected);
                        }
                    }
                    Err(CommError::Disconnected) => return Err(CommError::Disconnected),
                }
            }
        };

        let skip: BTreeSet<usize> = match &have {
            BcastMsg::Abort(dead) => dead.iter().copied().collect(),
            BcastMsg::Value(_) | BcastMsg::Join { .. } => BTreeSet::new(),
        };
        let encoded = have.encode();
        let mut suspects: BTreeSet<usize> = BTreeSet::new();
        let mut step = recv_step >> 1;
        while step >= 1 {
            let child = rank + step;
            if child < size && !skip.contains(&child) {
                let (seq, mut delivered) = self.send_data(child, KIND_DATA, TAG_BCAST, &encoded);
                let mut attempt = 0u32;
                loop {
                    // A closed channel may belong to a child that ACKed and
                    // returned: its ACK was enqueued before its receiver
                    // dropped, so drain the queue (zero wait) before accusing.
                    let wait = if delivered {
                        self.params.attempt_timeout(attempt)
                    } else {
                        Duration::ZERO
                    };
                    match self.poll(wait) {
                        Ok(Inbound::Ack {
                            from,
                            tag,
                            seq: acked,
                        }) if from == child && tag == TAG_BCAST && acked == seq => break,
                        Ok(_) => {}
                        Err(CommError::Timeout) if delivered => {
                            self.stats.timeouts += 1;
                            attempt += 1;
                            delivered = self.resend(child, TAG_BCAST);
                        }
                        Err(_) => {
                            suspects.insert(child);
                            break;
                        }
                    }
                }
            }
            if step == 1 {
                break;
            }
            step >>= 1;
        }
        Ok((have, suspects))
    }
}

/// Run `size` ranks, each executing `body`, and collect their return values
/// in rank order. Real OS threads; channels deliver in FIFO order per pair.
pub fn run_ranks<T, F>(size: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(RankCtx) -> T + Sync,
{
    assert!(size > 0, "at least one rank required");
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let senders = Arc::new(senders);
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| {
                let senders = Arc::clone(&senders);
                scope.spawn(move || {
                    body(RankCtx {
                        rank,
                        size,
                        senders,
                        receiver,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_roundtrip() {
        let out = run_ranks(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, vec![42]);
                let (from, b) = ctx.recv();
                assert_eq!(from, 1);
                b[0]
            } else {
                let (_f, b) = ctx.recv();
                ctx.send(0, vec![b[0] + 1]);
                0
            }
        });
        assert_eq!(out[0], 43);
    }

    #[test]
    fn reduce_sums_across_ranks() {
        for size in [1usize, 2, 3, 5, 8, 13] {
            let out = run_ranks(size, |ctx| {
                let v = (ctx.rank + 1) as u64;
                ctx.reduce_to_root(
                    v,
                    |a, b| a + b,
                    |x| x.to_le_bytes().to_vec(),
                    |b| u64::from_le_bytes(b.try_into().unwrap()),
                )
            });
            let expect: u64 = (1..=size as u64).sum();
            assert_eq!(out[0], Some(expect), "size {size}");
            assert!(out[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_max_finds_global_winner() {
        let out = run_ranks(7, |ctx| {
            let v = ((ctx.rank * 37) % 11) as u64;
            ctx.reduce_to_root(
                v,
                u64::max,
                |x| x.to_le_bytes().to_vec(),
                |b| u64::from_le_bytes(b.try_into().unwrap()),
            )
        });
        let expect = (0..7u64).map(|r| (r * 37) % 11).max().unwrap();
        assert_eq!(out[0], Some(expect));
    }

    #[test]
    fn broadcast_reaches_all_ranks() {
        for size in [1usize, 2, 4, 6, 9] {
            let out = run_ranks(size, |ctx| {
                let v = if ctx.rank == 0 {
                    Some(vec![7, 7])
                } else {
                    None
                };
                ctx.broadcast(v)
            });
            assert!(out.iter().all(|b| b == &vec![7, 7]), "size {size}");
        }
    }

    #[test]
    fn barrier_completes() {
        let out = run_ranks(5, |ctx| {
            ctx.barrier();
            ctx.rank
        });
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_timeout_expires_then_delivers() {
        let out = run_ranks(2, |ctx| {
            if ctx.rank == 0 {
                let early = ctx.recv_timeout(Some(Duration::from_millis(5)));
                assert_eq!(early, Err(CommError::Timeout));
                ctx.send(1, vec![1]);
                ctx.recv_timeout(Some(Duration::from_secs(5))).is_ok()
            } else {
                let (_f, _b) = ctx.recv();
                ctx.send(0, vec![2]);
                true
            }
        });
        assert!(out.iter().all(|&ok| ok));
    }

    fn u64_ser(x: &u64) -> Vec<u8> {
        x.to_le_bytes().to_vec()
    }

    fn u64_de(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().unwrap())
    }

    /// One full FT iteration (reduce max + broadcast verdict) per rank.
    fn ft_round(
        ctx: &RankCtx,
        faults: Option<&crate::fault::FaultState>,
        local: u64,
    ) -> Option<Result<u64, Vec<usize>>> {
        ft_round_paced(ctx, crate::fault::FtParams::fast_test(), faults, local)
    }

    fn ft_round_paced(
        ctx: &RankCtx,
        params: FtParams,
        faults: Option<&crate::fault::FaultState>,
        local: u64,
    ) -> Option<Result<u64, Vec<usize>>> {
        let mut ft = FtCtx::new(ctx, params, faults, 0);
        let red = ft.reduce_to_root(local, u64::max, u64_ser, u64_de);
        if red.parent_dead {
            return None;
        }
        let verdict = if ctx.rank == 0 {
            Some(if red.failed {
                BcastMsg::Abort(red.dead.iter().copied().collect())
            } else {
                BcastMsg::Value(u64_ser(&red.root_value.unwrap()))
            })
        } else {
            None
        };
        match ft.broadcast(verdict) {
            Ok((BcastMsg::Value(v), _)) => Some(Ok(u64_de(&v))),
            Ok((BcastMsg::Abort(dead), _)) => Some(Err(dead)),
            // Joins never happen mid-round in this harness.
            Ok((BcastMsg::Join { .. }, _)) | Err(_) => None,
        }
    }

    #[test]
    fn ft_round_matches_plain_collectives_without_faults() {
        for size in [1usize, 2, 3, 5, 8] {
            let out = run_ranks(size, |ctx| {
                ft_round(&ctx, None, (ctx.rank as u64 * 37) % 11)
            });
            let expect = (0..size as u64).map(|r| (r * 37) % 11).max().unwrap();
            for (r, o) in out.iter().enumerate() {
                assert_eq!(o, &Some(Ok(expect)), "size {size} rank {r}");
            }
        }
    }

    #[test]
    fn ft_round_recovers_dropped_and_corrupt_frames() {
        use crate::fault::{FaultPlan, FaultState};
        use multihit_core::obs::Obs;
        // Drop rank 1's reduce frame and corrupt rank 2's; the retransmit
        // protocol must still converge on the true max.
        let plan = FaultPlan::parse("msg-drop=1-0, msg-corrupt=2-0", 11).unwrap();
        let obs = Obs::disabled();
        let st = FaultState::new(plan, &obs);
        let out = run_ranks(4, |ctx| ft_round(&ctx, Some(&st), ctx.rank as u64 + 10));
        for o in &out {
            assert_eq!(o, &Some(Ok(13)));
        }
        assert_eq!(st.fired().len(), 2, "both planned wire faults fired");
    }

    #[test]
    fn ft_round_waits_out_a_slow_rank() {
        // Rank 2 enters the collectives many probe intervals after its
        // peers: its parent keeps probing an open channel, nobody is accused.
        let params = FtParams {
            timeout: Duration::from_millis(1),
            backoff: 1.0,
        };
        let out = run_ranks(4, |ctx| {
            if ctx.rank == 2 {
                std::thread::sleep(Duration::from_millis(30));
            }
            ft_round_paced(&ctx, params, None, ctx.rank as u64)
        });
        for o in &out {
            assert_eq!(o, &Some(Ok(3)));
        }
    }

    #[test]
    fn ft_round_accuses_a_killed_rank() {
        use crate::fault::{FaultPlan, FaultState};
        use multihit_core::obs::Obs;
        let obs = Obs::disabled();
        let st = FaultState::new(FaultPlan::parse("rank-kill=2@0", 0).unwrap(), &obs);
        let out = run_ranks(4, |ctx| {
            if st.should_kill(ctx.rank, 0) {
                return None; // the dead rank never joins the collectives
            }
            ft_round(&ctx, Some(&st), ctx.rank as u64)
        });
        // Rank 2 is dead; every survivor that completed must have learned it.
        assert_eq!(out[2], None);
        for (r, o) in out.iter().enumerate() {
            if r == 2 {
                continue;
            }
            match o {
                Some(Err(dead)) => assert!(dead.contains(&2), "rank {r} missed the death"),
                None => {} // its parent was gone before the verdict — allowed
                Some(Ok(_)) => panic!("rank {r} completed despite a dead peer"),
            }
        }
        // Rank 0 (the parent of 2) must have reached a verdict.
        assert!(matches!(&out[0], Some(Err(d)) if d.contains(&2)));
    }

    #[test]
    fn join_frame_round_trips_and_rejects_garbage() {
        let msg = BcastMsg::Join {
            epoch: 3,
            roster: vec![0, 2, 3, 5],
        };
        assert_eq!(BcastMsg::decode(&msg.encode()), Some(msg.clone()));
        // Roster order is part of the announcement, not a set.
        let reordered = BcastMsg::Join {
            epoch: 3,
            roster: vec![0, 3, 2, 5],
        };
        assert_ne!(msg.encode(), reordered.encode());
        // An empty roster round-trips (epoch-only announcement).
        let empty = BcastMsg::Join {
            epoch: 9,
            roster: vec![],
        };
        assert_eq!(BcastMsg::decode(&empty.encode()), Some(empty));
        // Truncated epoch or ragged roster bytes are undecodable, which the
        // broadcast path answers with a retransmit request.
        assert_eq!(BcastMsg::decode(&[2u8, 1]), None);
        assert_eq!(BcastMsg::decode(&[2u8, 1, 0, 0, 0, 7, 0]), None);
        assert_eq!(BcastMsg::decode(&[9u8]), None);
    }

    #[test]
    fn join_announcement_survives_a_dropped_frame() {
        use crate::fault::{FaultPlan, FaultState};
        use multihit_core::obs::Obs;
        // The JOIN control frame rides the same CRC-framed, retransmitted
        // broadcast as the FAIL/Abort verdicts: drop rank 0's forward to
        // rank 1 and every rank must still converge on the same epoch.
        let plan = FaultPlan::parse("msg-drop=0-1", 5).unwrap();
        let obs = Obs::disabled();
        let st = FaultState::new(plan, &obs);
        let announce = BcastMsg::Join {
            epoch: 2,
            roster: vec![0, 1, 2, 3, 7],
        };
        let expect = announce.clone();
        let out = run_ranks(4, |ctx| {
            let mut ft = FtCtx::new(&ctx, crate::fault::FtParams::fast_test(), Some(&st), 0);
            let root = (ctx.rank == 0).then(|| announce.clone());
            ft.broadcast(root).map(|(m, _)| m)
        });
        for (r, o) in out.iter().enumerate() {
            assert_eq!(o, &Ok(expect.clone()), "rank {r}");
        }
        assert_eq!(st.fired().len(), 1, "the planned drop fired");
    }
}
