//! Pending-event schedulers: the calendar queue, the lane-batched
//! horizon queue, and the reference heap.
//!
//! The simulator's hot loop is "pop the earliest pending event"; this
//! module provides three interchangeable implementations of that priority
//! queue:
//!
//! * `CalendarQueue` — a bucketed timing wheel (the default). Simulation
//!   time is divided into fixed-width picosecond buckets; pushing an event
//!   links it into its bucket's list in one shared node arena, popping
//!   drains the first occupied bucket as one sorted batch. Events beyond
//!   the wheel's horizon wait in an overflow heap and migrate into the
//!   wheel as the cursor approaches them. For the pulse workloads here
//!   (many events clustered within a few picoseconds, operations hundreds
//!   of picoseconds apart) this replaces the `O(log n)` binary-heap sift
//!   with `O(1)` pushes and short bucket scans.
//! * `LaneBatchedQueue` — the scheduler-overhaul part-2 design. A much
//!   smaller wheel (256 × 16 ps, L1-resident) drains a whole same-horizon
//!   bucket as one ascending-sorted batch served by a cursor, so popping
//!   is a cursor increment instead of a heap/bucket transaction. Pushes
//!   landing *inside* the horizon being served bypass the wheel entirely:
//!   they go to the target cell's small fixed-capacity self-echo lane
//!   (spilling to a shared insertion buffer) and are lazily sorted and
//!   merged into the batch at the next pop. See the type docs for the
//!   invariants.
//! * `HeapQueue` — the seed `BinaryHeap` implementation, kept as the
//!   differential reference. The `reference-queue` cargo feature makes it
//!   the default scheduler of [`Simulator::new`](crate::simulator::Simulator::new)
//!   (and `lane-scheduler` selects the lane-batched queue); all three
//!   implementations are always compiled, so equivalence tests can drive
//!   the same netlist through every scheduler in one process.
//!
//! # Determinism
//!
//! All schedulers order events by the same fully-deterministic key
//! `(time, component id, sequence number)`:
//!
//! 1. earlier simulation time first;
//! 2. at equal times, the lower `ComponentId` first — simultaneous
//!    pulses deliver in netlist construction order, not in an accident of
//!    heap layout;
//! 3. at equal times on the same component, insertion order (the
//!    monotonically increasing per-simulator sequence number).
//!
//! The sequence number makes the key a *total* order, so "pop the
//! minimum" has exactly one answer regardless of how a queue stores its
//! pending events — which is what lets the calendar queue keep its
//! buckets unsorted, and the lane-batched queue park same-horizon pushes
//! in per-cell lanes, and still replay the heap's schedule pulse for
//! pulse.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::netlist::{ComponentId, Pin};
use crate::time::Time;

/// A pending pulse delivery, packed into two machine words (16 bytes —
/// down from the seed's 24) so every wheel bucket, self-echo lane, sorted
/// batch, and heap node carries 1.5× more events per cache line.
///
/// Packing:
///
/// * `tp` = `time_fs << 8 | pin` — 56 bits of femtosecond delivery time
///   (≈ 72 s of simulated time, ~5 000 000× the longest soak) over the
///   8-bit input-pin index.
/// * `cs` = `component << 40 | seq` — the 24-bit *external* component id
///   (16.7 M cells) over a 40-bit insertion sequence number (the
///   simulator re-bases `seq` whenever its queue drains, so 2^40 bounds
///   events *in flight with overlapping lifetimes*, not events ever
///   simulated).
///
/// The packing is chosen so the total order `(time, component, seq)`
/// falls out of comparing `(tp >> 8, cs)` — `cs` already orders by
/// component then sequence natively. [`Event::new`] checks every field
/// against its width and panics with a widening note on overflow; the
/// compiled engine's pre-packed fan-out path uses `checked_add` for the
/// same guarantee (see `CompiledNetlist`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    /// `time_fs << 8 | pin`.
    tp: u64,
    /// `component << 40 | seq`.
    cs: u64,
}

const _: () = assert!(
    std::mem::size_of::<Event>() == 16 && std::mem::align_of::<Event>() == 8,
    "Event must stay two machine words; widen the packing consciously"
);

/// Bits of `Event.tp` holding the input-pin index (the low byte).
pub(crate) const EVENT_PIN_BITS: u32 = 8;
/// Bits of `Event.cs` holding the sequence number (the low 40).
pub(crate) const EVENT_SEQ_BITS: u32 = 40;
/// Exclusive upper bound on a packable femtosecond timestamp.
pub(crate) const EVENT_TIME_LIMIT_FS: u64 = 1 << (64 - EVENT_PIN_BITS);
/// Exclusive upper bound on a packable component index.
pub(crate) const EVENT_COMPONENT_LIMIT: u64 = 1 << (64 - EVENT_SEQ_BITS);
/// Exclusive upper bound on a packable sequence number.
pub(crate) const EVENT_SEQ_LIMIT: u64 = 1 << EVENT_SEQ_BITS;

/// The total-order key of an event — see [`Event::key`].
type EventKey = (u64, u64);

impl Event {
    /// Packs a delivery, checking every field against its bit width.
    #[inline]
    pub(crate) fn new(time: Time, seq: u64, target: Pin) -> Event {
        let t = time.as_fs();
        let c = target.component.index() as u64;
        assert!(
            t < EVENT_TIME_LIMIT_FS,
            "event time {t} fs exceeds the 56-bit packed window — widen Event.tp"
        );
        assert!(
            c < EVENT_COMPONENT_LIMIT,
            "component id {c} exceeds the 24-bit packed window — widen Event.cs"
        );
        assert!(
            seq < EVENT_SEQ_LIMIT,
            "sequence {seq} exceeds the 40-bit packed window — widen Event.cs"
        );
        Event {
            tp: t << EVENT_PIN_BITS | u64::from(target.index),
            cs: c << EVENT_SEQ_BITS | seq,
        }
    }

    /// Reassembles an event from pre-packed words (the compiled engine's
    /// fan-out fast path). Width checks are the caller's job — the fan-out
    /// tables are validated at lowering time and the time addition is
    /// `checked_add`-guarded.
    #[inline]
    pub(crate) const fn from_words(tp: u64, cs: u64) -> Event {
        Event { tp, cs }
    }

    /// Delivery time.
    #[inline]
    pub(crate) fn time(&self) -> Time {
        Time::from_fs(self.tp >> EVENT_PIN_BITS)
    }

    /// Delivery time in femtoseconds.
    #[inline]
    pub(crate) fn time_fs(&self) -> u64 {
        self.tp >> EVENT_PIN_BITS
    }

    /// Per-simulator insertion sequence number.
    #[inline]
    pub(crate) fn seq(&self) -> u64 {
        self.cs & (EVENT_SEQ_LIMIT - 1)
    }

    /// Index of the target component (the external id — layout
    /// permutations never leak into events, so the total order is
    /// placement-independent by construction).
    #[inline]
    pub(crate) fn component_index(&self) -> usize {
        (self.cs >> EVENT_SEQ_BITS) as usize
    }

    /// Target input-pin index on the component.
    #[inline]
    pub(crate) fn pin(&self) -> u8 {
        self.tp as u8
    }

    /// The target pin, reassembled.
    #[inline]
    pub(crate) fn target(&self) -> Pin {
        Pin::new(ComponentId(self.component_index() as u32), self.pin())
    }

    /// The `component << 40 | seq` word — the low half of the packed
    /// total-order key, shared with the lane-batched queue's `u128` keys.
    #[inline]
    pub(crate) fn cs_word(&self) -> u64 {
        self.cs
    }

    /// The total ordering key: `(time, component id, sequence)` — packed
    /// as `(tp >> 8, cs)`, which compares identically.
    fn key(&self) -> EventKey {
        (self.tp >> EVENT_PIN_BITS, self.cs)
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("time", &self.time())
            .field("seq", &self.seq())
            .field("target", &self.target())
            .finish()
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Which pending-event scheduler a [`Simulator`](crate::simulator::Simulator)
/// runs on. All three produce byte-identical schedules (see the module
/// docs); they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Bucketed calendar queue / timing wheel (the default fast path).
    CalendarQueue,
    /// The seed `BinaryHeap` scheduler (the differential reference).
    ReferenceHeap,
    /// Lane-batched horizon scheduler: cursor-served sorted batches with
    /// per-cell self-echo lanes (the part-2 fast path).
    LaneBatched,
}

impl SchedulerKind {
    /// Every scheduler, reference first — the order differential tests
    /// iterate.
    pub const ALL: [SchedulerKind; 3] = [
        SchedulerKind::ReferenceHeap,
        SchedulerKind::CalendarQueue,
        SchedulerKind::LaneBatched,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::CalendarQueue => "calendar-queue",
            SchedulerKind::ReferenceHeap => "reference-heap",
            SchedulerKind::LaneBatched => "lane-batched",
        }
    }

    /// Parses a [`label`](SchedulerKind::label) back into a kind.
    pub fn parse(s: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// Runs `f` with `kind` as this thread's default scheduler — what
    /// [`SchedulerKind::default`] (and hence every plain `Simulator`
    /// constructor) returns inside `f`. The previous default is restored
    /// afterwards, including on unwind. This is how a job request pins a
    /// scheduler for code that builds simulators internally (e.g. Monte
    /// Carlo trials) without threading a parameter through every layer.
    pub fn with_thread_default<R>(kind: SchedulerKind, f: impl FnOnce() -> R) -> R {
        crate::pinning::with_override(&THREAD_DEFAULT, kind, f)
    }
}

std::thread_local! {
    static THREAD_DEFAULT: std::cell::Cell<Option<SchedulerKind>> =
        const { std::cell::Cell::new(None) };
}

impl Default for SchedulerKind {
    /// The thread's pinned default if inside
    /// [`SchedulerKind::with_thread_default`]; otherwise the compiled-in
    /// default — the calendar queue, unless the `reference-queue` feature
    /// selects the seed heap or `lane-scheduler` selects the lane-batched
    /// queue (`reference-queue` wins if both are enabled, so differential
    /// builds stay anchored to the seed).
    fn default() -> Self {
        THREAD_DEFAULT.with(std::cell::Cell::get).unwrap_or({
            if cfg!(feature = "reference-queue") {
                SchedulerKind::ReferenceHeap
            } else if cfg!(feature = "lane-scheduler") {
                SchedulerKind::LaneBatched
            } else {
                SchedulerKind::CalendarQueue
            }
        })
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Width of one wheel bucket. One picosecond: SFQ gate and wire delays
/// are a few picoseconds, so the events of one delivery burst spread over
/// a handful of buckets instead of piling into one.
const BUCKET_WIDTH_FS: u64 = 1_000;

/// Number of wheel buckets (must be a power of two for cheap indexing).
/// 4096 × 1 ps ≈ 4.1 ns of horizon — an order of magnitude more than the
/// 400 ps inter-operation gap of the register-file drivers, so overflow
/// migration is rare.
const NUM_BUCKETS: usize = 4096;

/// Words in the bucket-occupancy bitmap (one bit per wheel slot).
const OCC_WORDS: usize = NUM_BUCKETS / 64;

/// End-of-list marker for the calendar queue's intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// One slot of the calendar queue's node arena: a pending event and the
/// index of the next node in the same bucket (or in the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// The bucketed calendar queue.
///
/// Every event seated on the wheel lives in one node arena (`nodes`);
/// each bucket is an intrusive singly linked list through that arena,
/// rooted in a fixed array of bucket heads and shadowed by an occupancy
/// bitmap — one bit per wheel slot, and a head is meaningful only while
/// its bit is set. A push takes a node from the free list (growing the
/// arena only when the list is empty) and prepends it to its bucket.
/// Popping *drains in batch*: the first occupied bucket is found by a
/// word-at-a-time bit scan (instead of probing empty buckets slot by slot
/// across an operation gap), its list is walked into a reused scratch
/// buffer and spliced back onto the free list whole, and the batch is
/// sorted once by the total event order (descending, so serving pops from
/// the tail) and then served event by event — `O(k log k)` per k-event
/// bucket instead of the `O(k²)` of a per-pop minimum scan. Same-tick
/// events pushed while the batch is being served merge into the sorted
/// buffer at their ordered position, so storage order never shows
/// through. Events whose bucket lies beyond the wheel horizon wait in
/// `overflow` (a small heap) and migrate inside the horizon before any
/// pop that could race them.
///
/// Because freed nodes are reused before the arena grows, the arena never
/// holds more nodes than the most events ever seated on the wheel at
/// once, however the buckets a run fills shift from run to run.
#[derive(Debug)]
pub(crate) struct CalendarQueue {
    /// First node of each bucket's list; valid only where `occupied` has
    /// the slot's bit set.
    heads: [u32; NUM_BUCKETS],
    /// Node arena shared by every bucket list and the free list.
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes` (`NIL` when empty).
    free: u32,
    /// One bit per wheel slot: set iff the slot's bucket is non-empty.
    /// Slots empty only via the batch drain, which clears the bit.
    occupied: [u64; OCC_WORDS],
    /// Absolute tick (bucket-width multiple) of the cursor bucket. Never
    /// decreases; events are only pushed at or after the current
    /// simulation time, whose tick equals `cur_tick` after a pop.
    cur_tick: u64,
    /// Events currently seated in wheel buckets (excluding `drain`).
    in_wheel: usize,
    /// Far-future events (tick ≥ `cur_tick + NUM_BUCKETS` at push time).
    overflow: BinaryHeap<Reverse<Event>>,
    /// The bucket currently being served, sorted descending by key (the
    /// minimum at the tail). Every event in it has tick == `cur_tick`;
    /// all other pending events are at strictly later ticks, so the tail
    /// is always the global minimum.
    drain: Vec<Event>,
}

fn tick_of(ev: &Event) -> u64 {
    ev.time_fs() / BUCKET_WIDTH_FS
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            heads: [NIL; NUM_BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            occupied: [0; OCC_WORDS],
            cur_tick: 0,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            drain: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.in_wheel + self.overflow.len() + self.drain.len()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        let tick = tick_of(&ev);
        if tick < self.cur_tick {
            // Only possible after a deadline-bounded run reseated a
            // popped event (advancing the cursor to it) and the caller
            // then injected an earlier stimulus. Rewinding the cursor
            // alone could alias buckets, so re-seat everything against
            // the rewound window. Rare, bounded by queue size, and
            // deterministic (ordering is carried by the event keys, not
            // by storage).
            self.rebuild_at(tick);
        }
        if tick == self.cur_tick && !self.drain.is_empty() {
            // The cursor bucket is mid-drain: merge the newcomer into the
            // sorted buffer at its ordered position (it can rank below
            // events not yet served — e.g. a zero-ish-delay wire to a
            // lower component id at the same instant).
            let at = self.drain.partition_point(|e| e.key() > ev.key());
            self.drain.insert(at, ev);
            return;
        }
        self.seat(ev);
    }

    /// Places an event relative to the current window: prepended to its
    /// bucket's list on a recycled (or, failing that, new) arena node,
    /// or parked in the overflow heap beyond the horizon.
    #[inline]
    fn seat(&mut self, ev: Event) {
        let tick = tick_of(&ev);
        debug_assert!(tick >= self.cur_tick, "event scheduled behind the cursor");
        if tick >= self.cur_tick + NUM_BUCKETS as u64 {
            self.overflow.push(Reverse(ev));
            return;
        }
        let slot = (tick as usize) & (NUM_BUCKETS - 1);
        let bit = 1u64 << (slot & 63);
        let word = &mut self.occupied[slot >> 6];
        let next = if *word & bit != 0 {
            self.heads[slot]
        } else {
            NIL
        };
        *word |= bit;
        let node = Node { ev, next };
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        } else {
            let at = self.nodes.len();
            assert!(
                at < NIL as usize,
                "calendar queue arena exceeds u32 indices"
            );
            self.nodes.push(node);
            at as u32
        };
        self.heads[slot] = at;
        self.in_wheel += 1;
    }

    /// Moves the events of the occupied bucket at `slot` onto the end of
    /// `out`, clears the slot's bit, and returns the bucket's nodes to the
    /// free list in one splice.
    #[inline]
    fn take_bucket(&mut self, slot: usize, out: &mut Vec<Event>) {
        let head = self.heads[slot];
        let mut at = head;
        let mut last = head;
        let before = out.len();
        while at != NIL {
            let node = self.nodes[at as usize];
            out.push(node.ev);
            last = at;
            at = node.next;
        }
        self.nodes[last as usize].next = self.free;
        self.free = head;
        self.in_wheel -= out.len() - before;
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
    }

    /// Drains every pending event (including a half-served drain buffer)
    /// and re-seats it against a window starting at `new_tick`.
    fn rebuild_at(&mut self, new_tick: u64) {
        // The drain buffer doubles as the collection scratch: it already
        // holds the half-served batch, and re-seating leaves it empty.
        let mut pending = std::mem::take(&mut self.drain);
        for w in 0..OCC_WORDS {
            while self.occupied[w] != 0 {
                let slot = w << 6 | self.occupied[w].trailing_zeros() as usize;
                self.take_bucket(slot, &mut pending);
            }
        }
        pending.extend(self.overflow.drain().map(|Reverse(ev)| ev));
        self.cur_tick = new_tick;
        for &ev in &pending {
            self.seat(ev);
        }
        pending.clear();
        self.drain = pending;
    }

    /// Discards every pending event and rewinds the window to tick zero,
    /// keeping the node arena, drain buffer and overflow heap storage.
    fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occupied = [0; OCC_WORDS];
        self.cur_tick = 0;
        self.in_wheel = 0;
        self.overflow.clear();
        self.drain.clear();
    }

    /// Distance (in slots, `0..NUM_BUCKETS`) from the cursor slot to the
    /// first occupied slot, scanning the bitmap circularly a word at a
    /// time. Caller guarantees `in_wheel > 0`, so a set bit exists.
    #[inline]
    fn next_occupied_distance(&self, cur_slot: usize) -> usize {
        let word0 = cur_slot >> 6;
        // Mask off the bits below the cursor in its own word.
        let masked = self.occupied[word0] & (u64::MAX << (cur_slot & 63));
        if masked != 0 {
            return (word0 << 6 | masked.trailing_zeros() as usize) - cur_slot;
        }
        for i in 1..=OCC_WORDS {
            let w = (word0 + i) & (OCC_WORDS - 1);
            let bits = self.occupied[w];
            if bits != 0 {
                let slot = w << 6 | bits.trailing_zeros() as usize;
                return (slot + NUM_BUCKETS - cur_slot) & (NUM_BUCKETS - 1);
            }
        }
        unreachable!("in_wheel > 0 but the occupancy bitmap is empty");
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        // Serve the sorted batch first: its tail is the global minimum
        // (every other pending event sits at a strictly later tick).
        if let Some(ev) = self.drain.pop() {
            return Some(ev);
        }
        if self.len() == 0 {
            return None;
        }
        if self.in_wheel == 0 {
            // Jump the cursor straight to the earliest overflow event.
            let Reverse(next) = self.overflow.peek().expect("len > 0");
            self.cur_tick = tick_of(next);
        }
        // Seat every overflow event that now fits inside the horizon.
        // Each event migrates at most once, so this is amortised O(log n)
        // per event; afterwards every remaining overflow event is strictly
        // later than every wheel event, so the wheel alone decides the pop.
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if tick_of(ev) >= self.cur_tick + NUM_BUCKETS as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.seat(ev);
        }
        // Jump to the first occupied bucket (bitmap scan, not a slot-by-
        // slot probe) and drain it in one batch: sorted descending, so
        // serving pops cheaply from the tail.
        let cur_slot = (self.cur_tick as usize) & (NUM_BUCKETS - 1);
        self.cur_tick += self.next_occupied_distance(cur_slot) as u64;
        let slot = (self.cur_tick as usize) & (NUM_BUCKETS - 1);
        let mut drain = std::mem::take(&mut self.drain);
        self.take_bucket(slot, &mut drain);
        drain.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
        let ev = drain.pop().expect("bucket non-empty");
        self.drain = drain;
        Some(ev)
    }

    /// Nodes the arena can hold without reallocating — what a cleared or
    /// long-lived queue retains for its wheel.
    #[cfg(test)]
    fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }
}

/// Width of one lane-batched wheel bucket: 16 ps. Wide enough that an
/// entire delivery burst (SFQ gate and wire delays are a few ps) lands in
/// one bucket and is served as a single sorted batch, instead of paying a
/// bucket transition per picosecond the way the 1 ps calendar wheel does.
const LB_BUCKET_WIDTH_FS: u64 = 16_000;

/// Number of lane-batched wheel buckets (power of two for cheap masking).
/// 256 × 16 ps ≈ 4.1 ns of horizon — the same span as the calendar
/// queue's 4096 × 1 ps, but the headers (256 `Vec`s + a 4-word bitmap)
/// fit in a few cache lines instead of ~100 KiB.
const LB_NUM_BUCKETS: usize = 256;

/// Words in the lane-batched occupancy bitmap.
const LB_OCC_WORDS: usize = LB_NUM_BUCKETS / 64;

/// Capacity of one per-cell self-echo lane. Deliveries that land inside
/// the horizon currently being served are parked on their target cell's
/// lane (bypassing the wheel); a burst deeper than this spills to the
/// shared insertion buffer. Public so the torture suite can aim
/// same-timestamp bursts exactly at the capacity boundary.
pub const LANE_CAPACITY: usize = 4;

/// One cell's self-echo lane: a fixed-capacity inline buffer.
#[derive(Debug, Clone, Copy)]
struct Lane {
    len: u8,
    slots: [Event; LANE_CAPACITY],
}

impl Lane {
    fn empty() -> Self {
        Lane {
            len: 0,
            slots: [Event::from_words(0, 0); LANE_CAPACITY],
        }
    }
}

/// The lane-batched horizon scheduler ("scheduler overhaul, part 2").
///
/// Three ideas on top of the calendar queue, all carried by the same
/// total event order `(time, component, seq)`:
///
/// 1. **Horizon batches.** The first occupied bucket of a small
///    L1-resident wheel is drained wholesale into `batch`, sorted
///    *ascending* once, and served through the `pos` cursor — a pop in
///    steady state is one bounds check and a cursor increment, no heap
///    sift, no bucket probe.
/// 2. **Self-echo lanes.** A push whose bucket tick equals the horizon
///    being served (the common case: a delivering cell emitting its
///    few-ps fan-out) never touches the wheel. It parks on the target
///    cell's fixed-capacity [`Lane`]; `active` remembers which lanes are
///    occupied.
/// 3. **Insertion buffer + lazy sort.** Lane spill (and lane-ineligible
///    in-horizon pushes) append to `fresh`. Nothing is ordered at push
///    time; only the *minimum* newcomer key is tracked (`horizon_min`,
///    one compare per push). Pops keep serving the batch directly while
///    its head ranks below every newcomer; only when the cursor crosses
///    `horizon_min` are the lanes flushed, sorted once, and linearly
///    merged with the unserved batch tail — so a dense burst pays one
///    sort+merge per time-crossing, not per pop.
///
/// # Invariants
///
/// * `batch[pos..]` is sorted ascending by [`Event::key`]; `batch[..pos]`
///   has already been served. `pos == batch.len()` only transiently —
///   the batch is cleared the moment the cursor reaches its end.
/// * Every event in `batch`, any lane, or `fresh` has bucket tick
///   `== cur_tick`; every event in a wheel bucket or `overflow` is at a
///   strictly later tick. Hence the head of the merged batch is always
///   the global minimum, and lane residency can never reorder anything:
///   ordering is re-established by the lazy sort before any pop.
/// * `len` counts *every* pending event wherever it is parked, so
///   [`SimStats`](crate::simulator::SimStats) peak-depth accounting is
///   byte-identical to the other schedulers.
/// * A push behind the cursor (deadline-bounded-run re-injection) rebuilds
///   the whole structure against the rewound window, exactly like the
///   calendar queue.
#[derive(Debug)]
pub(crate) struct LaneBatchedQueue {
    buckets: Box<[Vec<Event>; LB_NUM_BUCKETS]>,
    /// One bit per wheel slot: set iff the slot's bucket is non-empty.
    occupied: [u64; LB_OCC_WORDS],
    /// Absolute tick (bucket-width multiple) of the horizon being served.
    cur_tick: u64,
    /// Events currently seated in wheel buckets.
    in_wheel: usize,
    /// Far-future events (tick ≥ `cur_tick + LB_NUM_BUCKETS` at push time).
    overflow: BinaryHeap<Reverse<Event>>,
    /// The horizon batch, sorted ascending; served through `pos`.
    batch: Vec<Event>,
    /// Cursor into `batch`: next event to serve.
    pos: usize,
    /// Insertion buffer for in-horizon pushes that bypassed the wheel.
    fresh: Vec<Event>,
    /// Per-cell self-echo lanes, indexed by component id (grown on use).
    lanes: Vec<Lane>,
    /// Component ids whose lane is non-empty.
    active: Vec<u32>,
    /// The minimum packed key (see [`lb_key`]) across every event parked
    /// in a lane or `fresh`; `None` iff both are empty. Lets a pop decide
    /// "serve the batch head" vs "flush first" with one compare.
    horizon_min: Option<u128>,
    /// Merge scratch for [`flush_horizon`](Self::flush_horizon)
    /// (allocation recycled across flushes).
    scratch: Vec<Event>,
    /// Total pending events across batch, lanes, fresh, wheel, overflow.
    len: usize,
}

fn lb_tick_of(ev: &Event) -> u64 {
    ev.time_fs() / LB_BUCKET_WIDTH_FS
}

/// The total-order key of `ev`, packed into one `u128` for branchless
/// compares, valid only among events of the bucket starting at `base`
/// femtoseconds: time offset within the bucket (< 2^14) above the
/// event's `cs` word — which already packs component id over sequence
/// number in order (the 16-byte Event packing pays for itself here: the
/// key is one subtract, one shift, one or). Identical order to
/// [`Event::key`] within a bucket — which is the only scope the
/// lane-batched queue ever sorts or merges in; cross-bucket order is the
/// wheel's job.
#[inline]
fn lb_key(ev: &Event, base: u64) -> u128 {
    let dt = ev.time_fs() - base;
    debug_assert!(dt < LB_BUCKET_WIDTH_FS, "event outside its bucket");
    (u128::from(dt) << 64) | u128::from(ev.cs_word())
}

impl LaneBatchedQueue {
    fn new() -> Self {
        LaneBatchedQueue {
            buckets: Box::new([const { Vec::new() }; LB_NUM_BUCKETS]),
            occupied: [0; LB_OCC_WORDS],
            cur_tick: 0,
            in_wheel: 0,
            overflow: BinaryHeap::new(),
            batch: Vec::new(),
            pos: 0,
            fresh: Vec::new(),
            lanes: Vec::new(),
            active: Vec::new(),
            horizon_min: None,
            scratch: Vec::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// True while the current horizon still has unserved events parked in
    /// the batch, a lane, or the insertion buffer.
    #[inline]
    fn serving(&self) -> bool {
        self.pos < self.batch.len() || self.horizon_min.is_some()
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        self.len += 1;
        let tick = lb_tick_of(&ev);
        if tick == self.cur_tick && self.serving() {
            // In-horizon push: bypass the wheel. Park on the target
            // cell's self-echo lane, spilling to the shared insertion
            // buffer when the lane is full. Only the running minimum is
            // maintained — ordering happens lazily at flush time.
            let key = lb_key(&ev, self.cur_tick * LB_BUCKET_WIDTH_FS);
            if self.horizon_min.is_none_or(|m| key < m) {
                self.horizon_min = Some(key);
            }
            let c = ev.component_index();
            if c >= self.lanes.len() {
                self.lanes.resize_with(c + 1, Lane::empty);
            }
            let lane = &mut self.lanes[c];
            if (lane.len as usize) < LANE_CAPACITY {
                if lane.len == 0 {
                    self.active.push(c as u32);
                }
                lane.slots[lane.len as usize] = ev;
                lane.len += 1;
            } else {
                self.fresh.push(ev);
            }
            return;
        }
        if tick < self.cur_tick {
            // Same rare deadline-bounded-run pattern as the calendar
            // queue: re-seat everything against the rewound window.
            self.rebuild_at(tick);
        }
        self.seat(ev);
    }

    /// Places an event relative to the current window (wheel or overflow).
    #[inline]
    fn seat(&mut self, ev: Event) {
        let tick = lb_tick_of(&ev);
        debug_assert!(tick >= self.cur_tick, "event scheduled behind the cursor");
        if tick < self.cur_tick + LB_NUM_BUCKETS as u64 {
            let slot = (tick as usize) & (LB_NUM_BUCKETS - 1);
            self.buckets[slot].push(ev);
            self.occupied[slot >> 6] |= 1u64 << (slot & 63);
            self.in_wheel += 1;
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Drains every pending event — the unserved batch tail, lanes,
    /// insertion buffer, wheel, and overflow — and re-seats it against a
    /// window starting at `new_tick`.
    fn rebuild_at(&mut self, new_tick: u64) {
        let mut pending: Vec<Event> = Vec::with_capacity(self.len);
        pending.extend_from_slice(&self.batch[self.pos..]);
        self.batch.clear();
        self.pos = 0;
        pending.append(&mut self.fresh);
        for &c in &self.active {
            let lane = &mut self.lanes[c as usize];
            pending.extend_from_slice(&lane.slots[..lane.len as usize]);
            lane.len = 0;
        }
        self.active.clear();
        for bucket in self.buckets.iter_mut() {
            pending.append(bucket);
        }
        pending.extend(self.overflow.drain().map(|Reverse(ev)| ev));
        self.occupied = [0; LB_OCC_WORDS];
        self.in_wheel = 0;
        self.cur_tick = new_tick;
        self.horizon_min = None;
        for ev in pending {
            self.seat(ev);
        }
    }

    /// Discards every pending event and rewinds the window to tick zero.
    /// Everything but the wheel buckets keeps its storage, the lanes
    /// included (see [`Queue::clear`]).
    fn clear(&mut self) {
        for bucket in self.buckets.iter_mut() {
            *bucket = Vec::new();
        }
        for &c in &self.active {
            self.lanes[c as usize].len = 0;
        }
        self.active.clear();
        self.occupied = [0; LB_OCC_WORDS];
        self.cur_tick = 0;
        self.in_wheel = 0;
        self.overflow.clear();
        self.batch.clear();
        self.pos = 0;
        self.fresh.clear();
        self.horizon_min = None;
        self.len = 0;
    }

    /// Flushes lanes and the insertion buffer into the unserved tail of
    /// the batch: one sort of the newcomers, then a linear merge with the
    /// tail (a pure `extend` when every newcomer ranks past it). Called
    /// only when the batch head has crossed `horizon_min`, so a dense
    /// burst pays one sort+merge per crossing, not per pop.
    fn flush_horizon(&mut self) {
        self.horizon_min = None;
        for &c in &self.active {
            let lane = &mut self.lanes[c as usize];
            self.fresh
                .extend_from_slice(&lane.slots[..lane.len as usize]);
            lane.len = 0;
        }
        self.active.clear();
        let base = self.cur_tick * LB_BUCKET_WIDTH_FS;
        self.fresh.sort_unstable_by_key(|e| lb_key(e, base));
        if self.pos == self.batch.len() {
            // Horizon batch already fully served: the newcomers *are* the
            // new batch (allocation recycled by the swap).
            debug_assert!(self.batch.is_empty() && self.pos == 0);
            std::mem::swap(&mut self.batch, &mut self.fresh);
            return;
        }
        if lb_key(&self.fresh[0], base) >= lb_key(&self.batch[self.batch.len() - 1], base) {
            self.batch.extend_from_slice(&self.fresh);
            self.fresh.clear();
            return;
        }
        // Newcomers rank inside the unserved tail (the flush trigger
        // guarantees at least one outranks the head). Merge the two
        // sorted runs into scratch and make it the new batch; the served
        // prefix `batch[..pos]` is dropped in the same move.
        self.scratch.clear();
        let tail = &self.batch[self.pos..];
        let new = &self.fresh[..];
        self.scratch.reserve(tail.len() + new.len());
        let (mut i, mut j) = (0, 0);
        while i < tail.len() && j < new.len() {
            if lb_key(&tail[i], base) <= lb_key(&new[j], base) {
                self.scratch.push(tail[i]);
                i += 1;
            } else {
                self.scratch.push(new[j]);
                j += 1;
            }
        }
        self.scratch.extend_from_slice(&tail[i..]);
        self.scratch.extend_from_slice(&new[j..]);
        self.fresh.clear();
        std::mem::swap(&mut self.batch, &mut self.scratch);
        self.scratch.clear();
        self.pos = 0;
    }

    /// Distance (in slots) from the cursor slot to the first occupied
    /// slot. Caller guarantees `in_wheel > 0`.
    #[inline]
    fn next_occupied_distance(&self, cur_slot: usize) -> usize {
        let word0 = cur_slot >> 6;
        let masked = self.occupied[word0] & (u64::MAX << (cur_slot & 63));
        if masked != 0 {
            return (word0 << 6 | masked.trailing_zeros() as usize) - cur_slot;
        }
        for i in 1..=LB_OCC_WORDS {
            let w = (word0 + i) & (LB_OCC_WORDS - 1);
            let bits = self.occupied[w];
            if bits != 0 {
                let slot = w << 6 | bits.trailing_zeros() as usize;
                return (slot + LB_NUM_BUCKETS - cur_slot) & (LB_NUM_BUCKETS - 1);
            }
        }
        unreachable!("in_wheel > 0 but the occupancy bitmap is empty");
    }

    /// Serves the next batch event — a bounds check and a cursor bump.
    /// Caller guarantees `pos < batch.len()`.
    #[inline]
    fn serve_batch(&mut self) -> Event {
        let ev = self.batch[self.pos];
        self.pos += 1;
        if self.pos == self.batch.len() {
            self.batch.clear();
            self.pos = 0;
        }
        self.len -= 1;
        ev
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        if let Some(min) = self.horizon_min {
            if self.pos < self.batch.len()
                && lb_key(&self.batch[self.pos], self.cur_tick * LB_BUCKET_WIDTH_FS) < min
            {
                // Steady state in a burst: the batch head still outranks
                // every parked newcomer — serve it without touching them.
                return Some(self.serve_batch());
            }
            // The cursor crossed the earliest newcomer (or the batch ran
            // out): order the newcomers now, in one sort + merge.
            self.flush_horizon();
            return Some(self.serve_batch());
        }
        if self.pos < self.batch.len() {
            return Some(self.serve_batch());
        }
        if self.len == 0 {
            return None;
        }
        // Horizon exhausted: advance the wheel to the next occupied
        // bucket (same migration discipline as the calendar queue).
        if self.in_wheel == 0 {
            let Reverse(next) = self.overflow.peek().expect("len > 0");
            self.cur_tick = lb_tick_of(next);
        }
        while let Some(Reverse(ev)) = self.overflow.peek() {
            if lb_tick_of(ev) >= self.cur_tick + LB_NUM_BUCKETS as u64 {
                break;
            }
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.seat(ev);
        }
        let cur_slot = (self.cur_tick as usize) & (LB_NUM_BUCKETS - 1);
        self.cur_tick += self.next_occupied_distance(cur_slot) as u64;
        let slot = (self.cur_tick as usize) & (LB_NUM_BUCKETS - 1);
        let bucket = &mut self.buckets[slot];
        self.in_wheel -= bucket.len();
        self.occupied[slot >> 6] &= !(1u64 << (slot & 63));
        // `batch` is empty here, so the swap recycles both allocations.
        std::mem::swap(&mut self.batch, bucket);
        let base = self.cur_tick * LB_BUCKET_WIDTH_FS;
        self.batch.sort_unstable_by_key(|e| lb_key(e, base));
        self.pos = 0;
        Some(self.serve_batch())
    }
}

/// The seed scheduler: a plain binary min-heap.
#[derive(Debug, Default)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl HeapQueue {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }
}

/// The scheduler actually owned by a simulator.
#[derive(Debug)]
pub(crate) enum Queue {
    Wheel(Box<CalendarQueue>),
    Heap(HeapQueue),
    Lane(Box<LaneBatchedQueue>),
}

impl Queue {
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::CalendarQueue => Queue::Wheel(Box::new(CalendarQueue::new())),
            SchedulerKind::ReferenceHeap => Queue::Heap(HeapQueue::default()),
            SchedulerKind::LaneBatched => Queue::Lane(Box::new(LaneBatchedQueue::new())),
        }
    }

    pub fn kind(&self) -> SchedulerKind {
        match self {
            Queue::Wheel(_) => SchedulerKind::CalendarQueue,
            Queue::Heap(_) => SchedulerKind::ReferenceHeap,
            Queue::Lane(_) => SchedulerKind::LaneBatched,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
            Queue::Lane(q) => q.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards every pending event and returns the scheduler to its
    /// freshly built state, reusing its storage.
    ///
    /// The calendar queue keeps its node arena, drain buffer and overflow
    /// heap. Its buckets are lists through the one arena, so what it
    /// retains is bounded by the most events it ever held on the wheel at
    /// once, not by which buckets past runs filled. The heap keeps its
    /// storage. The lane-batched queue keeps everything but its wheel
    /// buckets: they are per-bucket `Vec`s, and which buckets a run fills
    /// shifts from run to run, so retained capacities would add up to the
    /// union of every run's occupancy.
    pub fn clear(&mut self) {
        match self {
            Queue::Wheel(q) => q.clear(),
            Queue::Heap(q) => q.heap.clear(),
            Queue::Lane(q) => q.clear(),
        }
    }

    #[inline]
    pub fn push(&mut self, ev: Event) {
        match self {
            Queue::Wheel(q) => q.push(ev),
            Queue::Heap(q) => q.push(ev),
            Queue::Lane(q) => q.push(ev),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
            Queue::Lane(q) => q.pop(),
        }
    }

    /// A cheap hint at the event most likely to pop next, used by the
    /// serve loop to software-prefetch the next delivery's slot and
    /// fan-out lines while the current delivery computes. The hint is
    /// free where the next event is already staged — the lane-batched
    /// queue's cursor-served sorted batch, the calendar queue's drain
    /// buffer, the heap's root — and deliberately approximate elsewhere:
    /// a `None` or a stale hint (e.g. a lane newcomer about to outrank
    /// the batch head) only costs a missed prefetch, never correctness.
    #[inline]
    pub fn peek_hint(&self) -> Option<&Event> {
        match self {
            Queue::Wheel(q) => q.drain.last(),
            Queue::Heap(q) => q.heap.peek().map(|Reverse(ev)| ev),
            Queue::Lane(q) => q.batch.get(q.pos),
        }
    }
}

/// Test-only scripting surface for the scheduler torture suite.
///
/// `Event` and `Queue` are crate-private on purpose — simulation code
/// must go through [`Simulator`](crate::simulator::Simulator) — but the
/// workspace-level `tests/scheduler_torture.rs` property suite needs to
/// drive *raw* push/pop interleavings (behind-cursor pushes, wheel
/// wrap-around, overflow migration, lane-capacity spills) that no
/// well-formed netlist can produce. This module is that escape hatch: a
/// replay driver over an opaque op script, exposing only the popped
/// `(time_fs, component, seq)` triples. Hidden from docs; not a stable
/// API.
#[doc(hidden)]
pub mod torture {
    use super::{Event, Queue, SchedulerKind};
    use crate::netlist::{ComponentId, Pin};
    use crate::time::Time;

    /// The lane-batched scheduler's bucket width, re-exported so the
    /// torture suite can aim events at bucket boundaries.
    pub const BUCKET_WIDTH_FS: u64 = super::LB_BUCKET_WIDTH_FS;
    /// The lane-batched scheduler's wheel span in buckets, re-exported so
    /// the torture suite can force wrap-around and overflow migration.
    pub const NUM_BUCKETS: u64 = super::LB_NUM_BUCKETS as u64;

    /// One scripted queue operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Op {
        /// Push an event at `time_fs` targeting input pin 0 of
        /// `component`. Sequence numbers are assigned in script order.
        Push { time_fs: u64, component: u32 },
        /// Pop the current minimum; a pop on an empty queue is a no-op.
        Pop,
    }

    /// Builds an event at `time_fs` targeting input pin 0 of
    /// `component` — the single construction site shared by the replay
    /// driver, the queue unit tests, and the queue microbench, so a
    /// change to the `Event` packing is a one-site change for the whole
    /// test corpus.
    pub(crate) fn event(time_fs: u64, component: u32, seq: u64) -> Event {
        Event::new(
            Time::from_fs(time_fs),
            seq,
            Pin::new(ComponentId(component), 0),
        )
    }

    /// Replays `script` against a fresh queue of `kind` and returns every
    /// popped `(time_fs, component, seq)` triple — the scripted pops
    /// first, then a full drain. Two kinds replaying the same script must
    /// return identical vectors; that is the torture suite's oracle.
    pub fn replay(kind: SchedulerKind, script: &[Op]) -> Vec<(u64, u32, u64)> {
        let mut q = Queue::new(kind);
        let mut seq = 0u64;
        let mut out = Vec::new();
        let drain = |q: &mut Queue, out: &mut Vec<(u64, u32, u64)>, n: usize| {
            for _ in 0..n {
                let Some(ev) = q.pop() else { break };
                out.push((ev.time_fs(), ev.component_index() as u32, ev.seq()));
            }
        };
        for &op in script {
            match op {
                Op::Push { time_fs, component } => {
                    q.push(event(time_fs, component, seq));
                    seq += 1;
                }
                Op::Pop => drain(&mut q, &mut out, 1),
            }
        }
        drain(&mut q, &mut out, usize::MAX);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time_ps: f64, seq: u64, comp: u32) -> Event {
        torture::event(Time::from_ps(time_ps).as_fs(), comp, seq)
    }

    /// Drains a queue and returns the popped `(time, seq)` pairs.
    fn drain(q: &mut Queue) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time(), e.seq()))
            .collect()
    }

    #[test]
    fn event_packing_round_trips_every_field() {
        let pin = Pin::new(ComponentId((EVENT_COMPONENT_LIMIT - 1) as u32), 0xA5);
        let e = Event::new(
            Time::from_fs(EVENT_TIME_LIMIT_FS - 1),
            EVENT_SEQ_LIMIT - 1,
            pin,
        );
        assert_eq!(e.time_fs(), EVENT_TIME_LIMIT_FS - 1);
        assert_eq!(e.seq(), EVENT_SEQ_LIMIT - 1);
        assert_eq!(e.target(), pin);
        assert_eq!(e.pin(), 0xA5);
        assert_eq!(e.component_index() as u64, EVENT_COMPONENT_LIMIT - 1);
    }

    #[test]
    #[should_panic(expected = "56-bit packed window")]
    fn event_time_overflow_panics_with_widening_note() {
        let _ = Event::new(
            Time::from_fs(EVENT_TIME_LIMIT_FS),
            0,
            Pin::new(ComponentId(0), 0),
        );
    }

    #[test]
    #[should_panic(expected = "40-bit packed window")]
    fn event_seq_overflow_panics_with_widening_note() {
        let _ = Event::new(
            Time::from_fs(0),
            EVENT_SEQ_LIMIT,
            Pin::new(ComponentId(0), 0),
        );
    }

    #[test]
    #[should_panic(expected = "24-bit packed window")]
    fn event_component_overflow_panics_with_widening_note() {
        let pin = Pin::new(ComponentId(EVENT_COMPONENT_LIMIT as u32), 0);
        let _ = Event::new(Time::from_fs(0), 0, pin);
    }

    #[test]
    fn default_kind_tracks_the_feature() {
        let expect = if cfg!(feature = "reference-queue") {
            SchedulerKind::ReferenceHeap
        } else if cfg!(feature = "lane-scheduler") {
            SchedulerKind::LaneBatched
        } else {
            SchedulerKind::CalendarQueue
        };
        assert_eq!(SchedulerKind::default(), expect);
        assert_eq!(Queue::new(SchedulerKind::default()).kind(), expect);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SchedulerKind::parse("no-such-queue"), None);
    }

    #[test]
    fn thread_default_pins_and_restores() {
        let before = SchedulerKind::default();
        for kind in SchedulerKind::ALL {
            SchedulerKind::with_thread_default(kind, || {
                assert_eq!(SchedulerKind::default(), kind);
                assert_eq!(Queue::new(SchedulerKind::default()).kind(), kind);
            });
        }
        assert_eq!(SchedulerKind::default(), before);
    }

    #[test]
    fn all_queues_pop_in_identical_order() {
        // A mix of same-bucket, cross-bucket, and far-overflow events.
        let script = [
            ev(5.0, 0, 3),
            ev(5.0, 1, 1),
            ev(0.25, 2, 9),
            ev(0.75, 3, 9),
            ev(9_999.0, 4, 2), // beyond both wheel horizons
            ev(5.0, 5, 1),
            ev(4_100.0, 6, 0), // just past the horizons at push time
        ];
        let mut queues: Vec<Queue> = SchedulerKind::ALL.map(Queue::new).into();
        for e in script {
            for q in &mut queues {
                q.push(e);
            }
        }
        let reference = drain(&mut queues[0]);
        for q in &mut queues[1..] {
            assert_eq!(drain(q), reference, "{}", q.kind());
        }
    }

    #[test]
    fn same_time_same_component_pops_in_insertion_order() {
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            q.push(ev(7.0, 10, 4));
            q.push(ev(7.0, 11, 4));
            q.push(ev(7.0, 12, 4));
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
            assert_eq!(seqs, vec![10, 11, 12], "{kind}");
        }
    }

    #[test]
    fn same_time_ties_break_on_component_id_first() {
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            // Inserted high-component first: component id outranks
            // insertion order at equal times.
            q.push(ev(7.0, 0, 9));
            q.push(ev(7.0, 1, 2));
            let comps: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|e| e.component_index() as u32)
                .collect();
            assert_eq!(comps, vec![2, 9], "{kind}");
        }
    }

    #[test]
    fn push_behind_cursor_rebuilds_correctly() {
        // The deadline-bounded-run pattern: pop advances the cursor, the
        // event is reseated, then an earlier stimulus arrives.
        for kind in SchedulerKind::ALL {
            let mut q = Queue::new(kind);
            q.push(ev(10.0, 0, 1));
            let reseat = q.pop().expect("pending");
            q.push(reseat);
            q.push(ev(4.0, 1, 1));
            q.push(ev(9_999.0, 2, 1)); // far event to exercise overflow re-seating
            let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
            assert_eq!(seqs, vec![1, 0, 2], "{kind}");
        }
    }

    #[test]
    fn clear_mid_serve_matches_a_fresh_queue() {
        // Leave events everywhere a scheduler parks them — a half-served
        // batch, wheel buckets, overflow — then clear and replay: the
        // cleared queue must pop exactly what a new one pops.
        let script = |q: &mut Queue| {
            for (i, t) in [3.0, 3.0, 3.5, 40.0, 9_999.0, 20_000.0]
                .into_iter()
                .enumerate()
            {
                q.push(ev(t, i as u64, (i % 3) as u32));
            }
            let mut out: Vec<u64> = Vec::new();
            out.extend(q.pop().map(|e| e.seq()));
            q.push(ev(3.0, 9, 0));
            out.extend(std::iter::from_fn(|| q.pop()).map(|e| e.seq()));
            out
        };
        for kind in SchedulerKind::ALL {
            let mut fresh = Queue::new(kind);
            let expect = script(&mut fresh);
            let mut reused = Queue::new(kind);
            script(&mut reused);
            for (i, t) in [5.0, 5.0, 6.0, 9_000.0].into_iter().enumerate() {
                reused.push(ev(t, i as u64, i as u32));
            }
            assert!(reused.pop().is_some());
            reused.clear();
            assert!(reused.is_empty(), "{kind}");
            assert_eq!(script(&mut reused), expect, "{kind}");
        }
    }

    #[test]
    fn calendar_storage_stays_bounded_by_peak_pending() {
        // Many runs on one queue, each starting at a seeded wheel slot so
        // its bursts land on different buckets, with echo pushes while
        // serving, some runs cleared mid-serve, and one 8 k-event
        // same-tick burst. Retained node storage must track the most
        // events ever pending at once, not the union of buckets touched.
        let mut rng = crate::rng::Rng64::new(0x5107);
        let mut q = Queue::new(SchedulerKind::CalendarQueue);
        let mut heap = Queue::new(SchedulerKind::ReferenceHeap);
        let mut peak = 0;
        for run in 0..48u64 {
            let base_fs = (run * 4_099 + rng.next_below(NUM_BUCKETS) as u64) * BUCKET_WIDTH_FS;
            let same_tick = run == 17;
            let burst = if same_tick {
                8_192
            } else {
                64 + rng.next_below(960)
            };
            let mut seq = 0u64;
            let mut push =
                |q: &mut Queue, heap: &mut Queue, t: u64, rng: &mut crate::rng::Rng64| {
                    let e = torture::event(t, rng.next_below(64) as u32, seq);
                    seq += 1;
                    q.push(e);
                    heap.push(e);
                    q.len()
                };
            for _ in 0..burst {
                let t = if same_tick {
                    base_fs
                } else {
                    base_fs + rng.next_below(3_000_000) as u64
                };
                peak = peak.max(push(&mut q, &mut heap, t, &mut rng));
            }
            let stop_after = if run % 5 == 3 { burst / 2 } else { usize::MAX };
            let mut served = 0;
            while served < stop_after {
                let Some(e) = heap.pop() else { break };
                assert_eq!(q.pop(), Some(e), "run {run}");
                served += 1;
                if rng.next_f64() < 0.4 {
                    let t = e.time_fs() + rng.next_below(5_000) as u64;
                    peak = peak.max(push(&mut q, &mut heap, t, &mut rng));
                }
            }
            for cleared in [false, true] {
                if cleared {
                    q.clear();
                    heap.clear();
                }
                let Queue::Wheel(w) = &q else {
                    unreachable!("calendar queue")
                };
                assert!(
                    w.node_capacity() <= 2 * peak,
                    "run {run} (cleared: {cleared}): {} nodes retained for a peak of {peak} pending",
                    w.node_capacity()
                );
            }
        }
        assert!(peak >= 8_192, "the same-tick burst was pending at once");
    }

    #[test]
    fn lane_capacity_spill_keeps_total_order() {
        // Same-timestamp burst at one component, deeper than a lane:
        // the overflow spills to the insertion buffer, and the lazy
        // sort must still serve everything in seq order. The burst is
        // pushed mid-serve so the lane path (not the wheel) takes it.
        let mut q = Queue::new(SchedulerKind::LaneBatched);
        q.push(ev(1.0, 0, 5));
        q.push(ev(1.0, 1, 5));
        let first = q.pop().expect("pending");
        assert_eq!(first.seq(), 0);
        // Mid-serve: seq 1 is still unserved, so these park on lanes.
        for seq in 2..(2 + 2 * LANE_CAPACITY as u64) {
            q.push(ev(1.0, seq, 5));
        }
        // Lower component id at the same instant must jump the queue.
        q.push(ev(1.0, 99, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq()).collect();
        let mut expect = vec![99, 1];
        expect.extend(2..(2 + 2 * LANE_CAPACITY as u64));
        assert_eq!(order, expect);
    }

    #[test]
    fn interleaved_push_pop_matches_heap() {
        // Push/pop interleaving with a seeded pseudo-random script, the
        // way a running simulator uses the queue (pops advance time, new
        // pushes land at or after the popped time). The heap is the
        // oracle; every other scheduler must mirror it pop for pop.
        let mut rng = crate::rng::Rng64::new(0xD1FF);
        let mut heap = Queue::new(SchedulerKind::ReferenceHeap);
        let mut wheel = Queue::new(SchedulerKind::CalendarQueue);
        let mut lane = Queue::new(SchedulerKind::LaneBatched);
        let mut seq = 0u64;
        let mut now_fs = 0u64;
        let mut popped = Vec::new();
        for _ in 0..2_000 {
            if heap.is_empty() || rng.next_f64() < 0.6 {
                // Delays from sub-bucket to beyond-horizon scale.
                let delay_fs = [120, 500, 2_500, 40_000, 5_000_000][rng.next_below(5)]
                    + rng.next_below(997) as u64;
                let e = torture::event(now_fs + delay_fs, rng.next_below(7) as u32, seq);
                seq += 1;
                heap.push(e);
                wheel.push(e);
                lane.push(e);
            } else {
                let a = heap.pop().expect("non-empty");
                let b = wheel.pop().expect("mirrors heap");
                let c = lane.pop().expect("mirrors heap");
                assert_eq!(a, b);
                assert_eq!(a, c);
                now_fs = a.time_fs();
                popped.push(a);
            }
            assert_eq!(heap.len(), wheel.len());
            assert_eq!(heap.len(), lane.len());
        }
        let reference = drain(&mut heap);
        assert_eq!(drain(&mut wheel), reference);
        assert_eq!(drain(&mut lane), reference);
        assert!(popped.windows(2).all(|w| w[0].time() <= w[1].time()));
    }
}

#[cfg(test)]
mod bench {
    use super::*;
    use std::time::Instant;

    #[test]
    #[ignore]
    fn queue_only_throughput() {
        for kind in [
            SchedulerKind::CalendarQueue,
            SchedulerKind::LaneBatched,
            SchedulerKind::ReferenceHeap,
        ] {
            let mut q = Queue::new(kind);
            let n: u64 = 2_000_000;
            let t0 = Instant::now();
            let mut now_fs = 0u64;
            let mut seq = 0u64;
            // steady state: 1 in flight, 3ps hops
            q.push(torture::event(0, 0, 0));
            for _ in 0..n {
                let ev = q.pop().unwrap();
                now_fs = ev.time_fs();
                seq += 1;
                q.push(torture::event(
                    now_fs + 3_000,
                    ev.component_index() as u32,
                    seq,
                ));
            }
            let el = t0.elapsed();
            eprintln!(
                "{kind}: {:.1} ns/pop+push (1 in flight)",
                el.as_nanos() as f64 / n as f64
            );
            // deeper queue: 64 in flight
            let mut q = Queue::new(kind);
            for i in 0..64u64 {
                q.push(torture::event(i * 500, i as u32, i));
            }
            let t0 = Instant::now();
            for _ in 0..n {
                let ev = q.pop().unwrap();
                seq += 1;
                q.push(torture::event(
                    ev.time_fs() + 32_000,
                    ev.component_index() as u32,
                    seq,
                ));
            }
            let el = t0.elapsed();
            eprintln!(
                "{kind}: {:.1} ns/pop+push (64 in flight) now={now_fs}",
                el.as_nanos() as f64 / n as f64
            );
        }
    }
}
