//! The streamer stage: bounded per-client submission channels drained with
//! deterministic round-robin fair queuing.
//!
//! The container has no async runtime (and the pipeline is driven by the
//! *simulated* clock anyway), so a channel here is a bounded `VecDeque`
//! owned by the front-end and pumped synchronously at event times. The
//! observable semantics match an mpsc with `try_send`: a full channel
//! rejects the submission, which is the per-client backpressure signal.

use std::collections::{BTreeSet, HashMap, VecDeque};

use ltpg_txn::Txn;

/// A transaction in flight through the front-end, tagged with its
/// submitting client and simulated arrival time.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Submitting client id.
    pub client: u32,
    /// Simulated arrival timestamp, ns.
    pub arrive_ns: u64,
    /// The transaction itself.
    pub txn: Txn,
}

/// Bounded per-client channels plus a deterministic round-robin drain
/// cursor. Clients get a ring slot in first-seen order and the cursor only
/// ever walks that order, so the drain sequence is a pure function of the
/// submission schedule — no map-iteration or wall-clock nondeterminism.
///
/// The slots of the non-empty channels are kept in an ordered set, so a pop
/// costs O(log clients) and an expiry sweep O(non-empty channels), however
/// many clients have registered.
#[derive(Debug)]
pub struct Streamer {
    cap: usize,
    /// Client id → ring slot, assigned in first-seen order.
    index: HashMap<u32, usize>,
    /// One channel per ring slot.
    queues: Vec<VecDeque<Pending>>,
    /// Slots whose channel is non-empty.
    ready: BTreeSet<usize>,
    cursor: usize,
    queued: usize,
}

impl Streamer {
    /// Create with the given per-client channel capacity.
    pub fn new(per_client_cap: usize) -> Self {
        Streamer {
            cap: per_client_cap.max(1),
            index: HashMap::new(),
            queues: Vec::new(),
            ready: BTreeSet::new(),
            cursor: 0,
            queued: 0,
        }
    }

    /// Try to enqueue a submission on `client`'s channel. Returns `false`
    /// (dropping the transaction) when the channel is full — the caller
    /// counts that as a backpressure shed.
    pub fn try_send(&mut self, client: u32, arrive_ns: u64, txn: Txn) -> bool {
        let slot = match self.index.get(&client) {
            Some(&s) => s,
            None => {
                let s = self.queues.len();
                self.index.insert(client, s);
                self.queues.push(VecDeque::new());
                s
            }
        };
        let q = &mut self.queues[slot];
        if q.len() >= self.cap {
            return false;
        }
        if q.is_empty() {
            self.ready.insert(slot);
        }
        q.push_back(Pending { client, arrive_ns, txn });
        self.queued += 1;
        true
    }

    /// Pop the next submission fairly: take the head of the first
    /// non-empty channel at or after the cursor in ring order (wrapping to
    /// the first overall), and advance the cursor past it. One txn per
    /// client per turn keeps a hog client from monopolizing batch slots
    /// while its peers queue.
    pub fn pop_fair(&mut self) -> Option<Pending> {
        let slot = *self.ready.range(self.cursor..).next().or_else(|| self.ready.first())?;
        let q = &mut self.queues[slot];
        // Invariant: `ready` holds exactly the slots of non-empty channels.
        let p = q.pop_front().expect("a ready slot has a queued submission");
        if q.is_empty() {
            self.ready.remove(&slot);
        }
        // The wrap is taken against the ring as it is *now*: a client first
        // seen after the cursor wrapped to 0 waits behind the whole ring.
        self.cursor = (slot + 1) % self.queues.len();
        self.queued -= 1;
        Some(p)
    }

    /// Shed every queued submission that arrived strictly before
    /// `cutoff_ns` (channels are FIFO, so expired entries are at the
    /// heads). Returns how many were shed.
    pub fn shed_expired(&mut self, cutoff_ns: u64) -> u64 {
        let mut shed = 0;
        let queues = &mut self.queues;
        self.ready.retain(|&slot| {
            let q = &mut queues[slot];
            while q.front().is_some_and(|p| p.arrive_ns < cutoff_ns) {
                q.pop_front();
                shed += 1;
            }
            !q.is_empty()
        });
        self.queued -= shed as usize;
        shed
    }

    /// Total transactions queued across all channels.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Number of distinct clients seen so far.
    pub fn clients(&self) -> usize {
        self.queues.len()
    }

    /// Whether every channel is empty.
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltpg_txn::ProcId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn t() -> Txn {
        Txn::new(ProcId(0), vec![], vec![])
    }

    /// The reference model: the linear ring scan the ready-set replaced.
    /// Every observable of [`Streamer`] must match it step for step.
    struct RingScan {
        cap: usize,
        index: HashMap<u32, usize>,
        queues: Vec<VecDeque<(u32, u64)>>,
        cursor: usize,
    }

    impl RingScan {
        fn new(cap: usize) -> Self {
            RingScan { cap, index: HashMap::new(), queues: Vec::new(), cursor: 0 }
        }

        fn try_send(&mut self, client: u32, arrive_ns: u64) -> bool {
            let next = self.queues.len();
            let slot = *self.index.entry(client).or_insert(next);
            if slot == next {
                self.queues.push(VecDeque::new());
            }
            if self.queues[slot].len() >= self.cap {
                return false;
            }
            self.queues[slot].push_back((client, arrive_ns));
            true
        }

        fn pop_fair(&mut self) -> Option<(u32, u64)> {
            let n = self.queues.len();
            for step in 0..n {
                let slot = (self.cursor + step) % n;
                if let Some(p) = self.queues[slot].pop_front() {
                    self.cursor = (slot + 1) % n;
                    return Some(p);
                }
            }
            None
        }

        fn shed_expired(&mut self, cutoff_ns: u64) -> u64 {
            let mut shed = 0;
            for q in &mut self.queues {
                while q.front().is_some_and(|&(_, at)| at < cutoff_ns) {
                    q.pop_front();
                    shed += 1;
                }
            }
            shed
        }

        fn queued(&self) -> usize {
            self.queues.iter().map(VecDeque::len).sum()
        }
    }

    /// Both implementations side by side; every operation asserts they
    /// agree on its result and on `queued()`.
    struct Pair {
        new: Streamer,
        old: RingScan,
    }

    impl Pair {
        fn new(cap: usize) -> Self {
            Pair { new: Streamer::new(cap), old: RingScan::new(cap) }
        }

        fn send(&mut self, client: u32, at: u64) -> bool {
            let got = self.new.try_send(client, at, t());
            assert_eq!(got, self.old.try_send(client, at), "try_send({client}, {at})");
            self.check();
            got
        }

        fn pop(&mut self) -> Option<(u32, u64)> {
            let got = self.new.pop_fair().map(|p| (p.client, p.arrive_ns));
            assert_eq!(got, self.old.pop_fair(), "pop_fair");
            self.check();
            got
        }

        fn shed(&mut self, cutoff: u64) {
            let shed = self.new.shed_expired(cutoff);
            assert_eq!(shed, self.old.shed_expired(cutoff), "shed_expired({cutoff})");
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.new.queued(), self.old.queued());
            assert_eq!(self.new.clients(), self.old.queues.len());
            assert_eq!(self.new.is_empty(), self.old.queued() == 0);
        }
    }

    #[test]
    fn ready_set_drains_exactly_like_the_ring_scan() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = rng.gen_range(1..6usize);
            let mut pair = Pair::new(cap);
            let mut now = 0u64;
            let mut next_client = 0u32;
            let mut capped = 0u32;
            for _ in 0..3_000 {
                now += rng.gen_range(0..50u64);
                match rng.gen_range(0..100u32) {
                    // A burst from one hot client: runs into the channel cap.
                    0..=9 => {
                        let c = rng.gen_range(0..next_client.max(1));
                        for _ in 0..rng.gen_range(1..2 * cap + 2) {
                            capped += u32::from(!pair.send(c, now));
                        }
                    }
                    // One arrival from a known client (most stay idle).
                    10..=44 => {
                        let c = rng.gen_range(0..next_client.max(1));
                        pair.send(c, now);
                    }
                    // A never-seen client registers mid-run.
                    45..=54 => {
                        pair.send(next_client, now);
                        next_client += 1;
                    }
                    // Drain until the cursor has wrapped to slot 0 (the pop
                    // took the ring's last slot), then register clients at
                    // exactly that point: they must wait behind the ring.
                    55..=59 => {
                        while pair.new.cursor != 0 && pair.pop().is_some() {}
                        for _ in 0..rng.gen_range(1..4u32) {
                            pair.send(next_client, now);
                            next_client += 1;
                        }
                    }
                    60..=89 => {
                        for _ in 0..rng.gen_range(1..8u32) {
                            pair.pop();
                        }
                    }
                    _ => pair.shed(now.saturating_sub(rng.gen_range(0..400u64))),
                }
            }
            while pair.pop().is_some() {}
            assert!(pair.new.is_empty());
            assert!(pair.new.ready.is_empty());
            assert!(capped > 0, "seed {seed}: the schedule never hit a channel cap");
        }
    }

    /// The wrap is evaluated at pop time: popping the ring's last slot
    /// parks the cursor on slot 0, so a client that registers next is
    /// served after the whole old ring, not first.
    #[test]
    fn client_registered_after_the_wrap_waits_behind_the_ring() {
        let mut pair = Pair::new(8);
        for c in 0..3 {
            pair.send(c, 0);
            pair.send(c, 1);
        }
        for want in [0, 1, 2] {
            assert_eq!(pair.pop().map(|p| p.0), Some(want));
        }
        assert_eq!(pair.new.cursor, 0);
        pair.send(3, 2);
        let order: Vec<u32> = std::iter::from_fn(|| pair.pop()).map(|p| p.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let mut s = Streamer::new(8);
        for i in 0..3 {
            assert!(s.try_send(7, i, t()));
        }
        for i in 0..3 {
            assert!(s.try_send(9, 10 + i, t()));
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop_fair()).map(|p| p.client).collect();
        assert_eq!(order, vec![7, 9, 7, 9, 7, 9]);
        assert!(s.is_empty());
    }

    #[test]
    fn full_channel_rejects_without_affecting_peers() {
        let mut s = Streamer::new(2);
        assert!(s.try_send(1, 0, t()));
        assert!(s.try_send(1, 1, t()));
        assert!(!s.try_send(1, 2, t()), "third submission must hit the cap");
        assert!(s.try_send(2, 3, t()), "peer channel unaffected");
        assert_eq!(s.queued(), 3);
    }

    #[test]
    fn shed_expired_takes_only_old_heads() {
        let mut s = Streamer::new(8);
        s.try_send(1, 5, t());
        s.try_send(1, 50, t());
        s.try_send(2, 7, t());
        assert_eq!(s.shed_expired(10), 2);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.pop_fair().unwrap().arrive_ns, 50);
    }
}
