//! The simulator's pending-event set: a calendar queue (R. Brown, "Calendar
//! queues: a fast O(1) priority queue implementation for the simulation
//! event set problem", CACM 31(10), 1988).
//!
//! An entry's key is its time's bits above a unique, increasing counter, so
//! keys order entries by time and then in scheduling order. Time is cut into
//! buckets of one width, and a bucket's index is monotone in time, so
//! draining the buckets in index order, each in key order, pops every entry
//! in key order. A ring of [`RING`] buckets holds the near future unsorted.
//! The bucket being drained is sorted once, when the drain reaches it, and
//! takes the pushes that land in it by sorted insertion. Keys at or past the
//! ring's horizon wait in an unsorted overflow list, which is swept into the
//! ring each time the drain wraps the ring and at each jump the drain makes,
//! when the ring runs empty, straight to the overflow's first bucket.

use super::Event;
use std::cmp::Reverse;

/// Buckets in the ring: the horizon lies this many buckets past the one
/// being drained.
const RING: u64 = 512;

/// An entry's sort key: `(time.to_bits() as u128) << 64 | counter`.
pub(super) type Key = u128;

/// The key of an entry scheduled at `time` as the `counter`-th.
pub(super) fn key(time: f64, counter: u64) -> Key {
    u128::from(time.to_bits()) << 64 | u128::from(counter)
}

/// The time a key was made from.
pub(super) fn key_time(key: Key) -> f64 {
    f64::from_bits((key >> 64) as u64)
}

/// The bucket of a key, for buckets `1 / per_unit` wide: monotone in the
/// time of non-negative keys, and saturating at `u64::MAX` for huge ones.
fn bucket(key: Key, per_unit: f64) -> u64 {
    (key_time(key) * per_unit) as u64
}

/// A min-queue of `(key, event)` entries (see the module docs).
pub(super) struct EventQueue {
    /// Buckets per time unit: the reciprocal of the bucket width.
    per_unit: f64,
    /// Index of the bucket being drained.
    cur: u64,
    /// The entries of bucket `cur` and of any bucket before it, sorted by
    /// descending key, so the least pops off the end.
    current: Vec<(Key, Event)>,
    /// Buckets `cur + 1 .. cur + RING`, unsorted: bucket `b` in slot
    /// `b % RING`.
    ring: Vec<Vec<(Key, Event)>>,
    /// Entries in `ring`.
    in_ring: usize,
    /// Entries whose bucket was at or past the horizon when they came in,
    /// unsorted. Each lies at or past the next ring wrap.
    overflow: Vec<(Key, Event)>,
}

impl EventQueue {
    /// An empty queue with buckets `width` time units wide.
    pub(super) fn new(width: f64) -> Self {
        EventQueue {
            per_unit: 1.0 / width,
            cur: 0,
            current: Vec::new(),
            ring: (0..RING).map(|_| Vec::new()).collect(),
            in_ring: 0,
            overflow: Vec::new(),
        }
    }

    /// Adds an entry under a key no other entry has.
    pub(super) fn push(&mut self, key: Key, event: Event) {
        let b = bucket(key, self.per_unit);
        if b <= self.cur {
            let at = self.current.partition_point(|&(k, _)| k > key);
            self.current.insert(at, (key, event));
        } else if b - self.cur < RING {
            // Not `b < cur + RING`: that sum saturates, or overflows, for
            // the bucket indices of huge times.
            self.ring[(b % RING) as usize].push((key, event));
            self.in_ring += 1;
        } else {
            self.overflow.push((key, event));
        }
    }

    /// Removes and returns the entry with the least key.
    pub(super) fn pop(&mut self) -> Option<(Key, Event)> {
        if self.current.is_empty() && !self.advance() {
            return None;
        }
        self.current.pop()
    }

    /// Moves the drain to the next non-empty bucket, whose entries become
    /// `current` (empty until now), sorted; false when the queue is empty.
    fn advance(&mut self) -> bool {
        if self.in_ring == 0 {
            // Everything waits past the horizon: jump to the first of it.
            let per_unit = self.per_unit;
            let Some(first) = self.overflow.iter().map(|&(k, _)| bucket(k, per_unit)).min() else {
                return false;
            };
            self.cur = first;
            self.sweep();
        } else {
            // A ring entry lies in `cur + 1 .. cur + RING`, so the scan
            // stops there at the latest and `cur` cannot overflow.
            loop {
                self.cur += 1;
                if self.cur.is_multiple_of(RING) {
                    self.sweep();
                }
                if !self.ring[(self.cur % RING) as usize].is_empty() {
                    break;
                }
            }
        }
        std::mem::swap(&mut self.current, &mut self.ring[(self.cur % RING) as usize]);
        self.in_ring -= self.current.len();
        self.current.sort_unstable_by_key(|&(key, _)| Reverse(key));
        true
    }

    /// Moves the overflow entries inside the horizon into the ring. Every
    /// overflow bucket is at or past `cur` here: an entry went to the
    /// overflow at least `RING` buckets past the drain, and the drain
    /// sweeps at every wrap and every jump, so it never passes an overflow
    /// bucket without sweeping it in first.
    fn sweep(&mut self) {
        let (cur, per_unit) = (self.cur, self.per_unit);
        let ring = &mut self.ring;
        let mut moved = 0;
        self.overflow.retain(|&(key, event)| {
            let b = bucket(key, per_unit);
            let near = b - cur < RING;
            if near {
                ring[(b % RING) as usize].push((key, event));
                moved += 1;
            }
            !near
        });
        self.in_ring += moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BinaryHeap};

    /// The engine's bucket width on the default fabric (`ACK_SIZE / rate`),
    /// a power of two, and one wider than most pushed offsets.
    const WIDTHS: [f64; 3] = [0.05 / 100.0, 1.0 / 1024.0, 0.1];

    /// The payload of the `counter`-th entry, so a payload that travels
    /// with the wrong key fails the comparison.
    fn event(counter: u64) -> Event {
        Event::TimeoutCheck { conn: counter as usize, subflow: (counter % 7) as usize }
    }

    /// The queue under test beside the oracle the engine used to be: a
    /// binary heap of `(time bits, counter)`. Pushes are monotone: never
    /// before the last popped time.
    struct Pair {
        queue: EventQueue,
        oracle: BinaryHeap<Reverse<(u64, u64)>>,
        width: f64,
        counter: u64,
        now: f64,
        last_pushed: f64,
        pops: usize,
        /// How often each case a run should reach was reached.
        reached: BTreeMap<&'static str, usize>,
    }

    impl Pair {
        fn new(width: f64) -> Self {
            Pair {
                queue: EventQueue::new(width),
                oracle: BinaryHeap::new(),
                width,
                counter: 0,
                now: 0.0,
                last_pushed: 0.0,
                pops: 0,
                reached: BTreeMap::new(),
            }
        }

        fn reach(&mut self, case: &'static str) {
            *self.reached.entry(case).or_default() += 1;
        }

        fn push(&mut self, time: f64) {
            assert!(time >= self.now, "pushes are monotone: {time} < {}", self.now);
            self.counter += 1;
            let k = key(time, self.counter);
            let (b, cur) = (bucket(k, self.queue.per_unit), self.queue.cur);
            if time == self.last_pushed {
                self.reach("tie");
            }
            if b == cur && !self.queue.current.is_empty() {
                self.reach("drained bucket");
            }
            if b == u64::MAX {
                self.reach("saturated");
            } else if b.checked_sub(cur) == Some(RING - 1) {
                self.reach("inside horizon");
            } else if b.checked_sub(cur) == Some(RING) {
                self.reach("past horizon");
            }
            self.last_pushed = time;
            self.queue.push(k, event(self.counter));
            self.oracle.push(Reverse((time.to_bits(), self.counter)));
        }

        /// Pops both sides and checks they agree; false once both are empty.
        fn pop(&mut self) -> bool {
            let queue = &self.queue;
            if queue.current.is_empty() && queue.in_ring == 0 && !queue.overflow.is_empty() {
                self.reach("jump");
            }
            let want = self
                .oracle
                .pop()
                .map(|Reverse((bits, c))| (key(f64::from_bits(bits), c), event(c)));
            let got = self.queue.pop();
            assert_eq!(got, want, "pop {} (width {})", self.pops, self.width);
            let Some((k, _)) = got else { return false };
            self.now = key_time(k);
            self.pops += 1;
            true
        }

        /// A time drawn from the cases the queue must order: ties, the
        /// bucket being drained, the near ring, either side of the horizon,
        /// the engine's 60 s RTO cap and `f64::MAX`.
        fn draw_time(&self, rng: &mut StdRng) -> f64 {
            let (w, now) = (self.width, self.now);
            let horizon = |buckets: u64| (self.queue.cur as f64 + buckets as f64 + 0.5) * w;
            let time = match rng.gen_range(0..16u32) {
                0 | 1 => self.last_pushed,
                2 => now,
                3 => now + rng.gen_range(0.0..w),
                4..=9 => now + rng.gen_range(0.0..64.0 * w),
                10 => horizon(RING - 1),
                11 => horizon(RING),
                12 => now + rng.gen_range(0.0..4.0 * RING as f64 * w),
                13 | 14 => now + 60.0,
                _ => f64::MAX,
            };
            time.max(now)
        }
    }

    #[test]
    fn pops_in_oracle_order_under_seeded_interleavings() {
        let mut reached = BTreeMap::new();
        for width in WIDTHS {
            for seed in 0..12 {
                // A push-heavy phase, a pop-heavy phase, a drain to empty.
                let mut rng = StdRng::seed_from_u64(seed);
                let mut pair = Pair::new(width);
                for push_share in [0.6, 0.35] {
                    for _ in 0..3_000 {
                        if rng.gen_bool(push_share) {
                            let time = pair.draw_time(&mut rng);
                            pair.push(time);
                        } else {
                            pair.pop();
                        }
                    }
                }
                while pair.pop() {}
                assert!(pair.queue.pop().is_none(), "a drained queue stays empty");
                for (case, n) in pair.reached {
                    *reached.entry(case).or_default() += n;
                }
            }
        }
        for case in ["tie", "drained bucket", "inside horizon", "past horizon", "saturated", "jump"]
        {
            let n = reached.get(case).copied().unwrap_or(0);
            assert!(n >= 100, "case '{case}' reached {n} times: {reached:?}");
        }
    }

    #[test]
    fn far_keys_refill_the_drain_in_order() {
        // Only keys past the horizon: the drain jumps to the first bucket,
        // which holds three keys (two tied), then walks on to its
        // neighbours and jumps to the RTO cap and the saturated bucket.
        for width in WIDTHS {
            let mut pair = Pair::new(width);
            let far = (RING as f64 * 3.0 + 0.25) * width;
            for time in [far, far + width, far, f64::MAX, far + 0.5 * width, 60.0, f64::MAX] {
                pair.push(time);
            }
            pair.push(60.0);
            while pair.pop() {}
            // The saturated bucket takes pushes after it has been drained.
            pair.push(f64::MAX);
            pair.push(f64::MAX);
            assert!(pair.pop() && pair.pop() && !pair.pop());
        }
    }
}
