//! Batched, optionally sharded TTB sweeps.
//!
//! A node hosting many activities drives every due [`DgcState`] once
//! per beat. The naive loop materializes a fresh `Vec<Action>` per
//! activity plus two table-sized `Vec`s inside `on_tick` — at hundreds
//! of thousands of activities that is the sweep's dominant cost. This
//! module is the zero-allocation replacement shared by every runtime:
//!
//! * [`ActionSink`] — where [`DgcState::on_tick_into`] emits its
//!   actions instead of returning a `Vec`; an `Outbox`-feeding sink
//!   makes the sweep one pass from table walk to egress queue.
//! * [`SweepScratch`] — the reusable per-sweep buffers behind
//!   `expire_silent` / `broadcast_targets`.
//! * [`sweep_sharded`] — chunks a due list by activity-id range over N
//!   workers (scoped threads), each filling its own [`SweepUnit`]
//!   buffer; draining the buffers in shard order reproduces the exact
//!   unit order of the unsharded sweep, so determinism — and the
//!   conformance verdicts that hang off it — is preserved by
//!   construction.
//! * [`DueTable`] — the runtimes' endpoint store, indexed by deadline:
//!   finding the due endpoints costs O(due · log n) instead of a walk
//!   over every hosted activity, and the earliest deadline is a heap
//!   peek. Its due batches come out in ascending activity-id order,
//!   which is the order [`sweep_sharded`] expects.
//!
//! [`DgcState`]: crate::protocol::DgcState
//! [`DgcState::on_tick_into`]: crate::protocol::DgcState::on_tick_into

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::{Deref, DerefMut};

use crate::id::AoId;
use crate::message::Action;

/// Receives the actions of a sweep as they are produced.
///
/// `from` names the activity that produced the action — the routing
/// key a batched sweep needs once actions of many activities share one
/// buffer.
pub trait ActionSink {
    /// Accepts one action emitted by `from`.
    fn emit(&mut self, from: AoId, action: Action);
}

/// The compatibility sink: collects actions, drops the origin (the
/// caller already knows it).
impl ActionSink for Vec<Action> {
    #[inline]
    fn emit(&mut self, _from: AoId, action: Action) {
        self.push(action);
    }
}

/// One action of a batched sweep, tagged with its origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepUnit {
    /// The activity that emitted the action.
    pub from: AoId,
    /// The action itself.
    pub action: Action,
}

/// The batching sink: many activities' actions in one reused buffer.
impl ActionSink for Vec<SweepUnit> {
    #[inline]
    fn emit(&mut self, from: AoId, action: Action) {
        self.push(SweepUnit { from, action });
    }
}

/// Reusable scratch buffers for one sweep worker. All buffers are
/// cleared (not shrunk) between activities, so a warm sweep allocates
/// nothing.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Referencers expired this tick.
    pub(crate) expired: Vec<AoId>,
    /// Broadcast targets of this tick.
    pub(crate) targets: Vec<AoId>,
    /// Referenced edges dropped after honouring `must_send_once`.
    pub(crate) dropped: Vec<AoId>,
}

impl SweepScratch {
    /// Fresh (cold) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-shard `(scratch, unit buffer)` pairs, reused across sweeps so
/// the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct SweepPools {
    shards: Vec<(SweepScratch, Vec<SweepUnit>)>,
}

impl SweepPools {
    /// Empty pool; shards materialize on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        while self.shards.len() < n {
            self.shards.push((SweepScratch::new(), Vec::new()));
        }
    }

    /// Drains every buffered unit in shard order — the exact order the
    /// unsharded sweep would have produced.
    pub fn drain_units(&mut self) -> impl Iterator<Item = SweepUnit> + '_ {
        self.shards.iter_mut().flat_map(|(_, buf)| buf.drain(..))
    }

    /// Units currently buffered (all shards).
    pub fn buffered(&self) -> usize {
        self.shards.iter().map(|(_, buf)| buf.len()).sum()
    }
}

/// Sweeps `due` with up to `shards` parallel workers.
///
/// `due` must already be in the deterministic order the caller wants
/// units emitted in (runtimes pass activity-id order); it is split into
/// contiguous chunks — id *ranges* — one per worker. Each worker runs
/// `tick` over its chunk with a private [`SweepScratch`] and
/// [`SweepUnit`] buffer from `pools`; afterwards
/// [`SweepPools::drain_units`] yields all units in shard order, which
/// equals the sequential order. With `shards <= 1` (or a single due
/// entry) no thread is spawned and the sweep runs inline.
pub fn sweep_sharded<E, F>(due: &mut [E], shards: usize, pools: &mut SweepPools, tick: F)
where
    E: Send,
    F: Fn(&mut E, &mut SweepScratch, &mut Vec<SweepUnit>) + Sync,
{
    let shards = shards.clamp(1, due.len().max(1));
    pools.ensure(shards);
    if shards == 1 {
        // dgc-analysis: allow(hot-path-panic): pools.ensure(shards) sized the vec one line up
        let (scratch, buf) = &mut pools.shards[0];
        for e in due.iter_mut() {
            tick(e, scratch, buf);
        }
        return;
    }
    let chunk = due.len().div_ceil(shards);
    std::thread::scope(|s| {
        for (slot, es) in pools.shards.iter_mut().zip(due.chunks_mut(chunk)) {
            let tick = &tick;
            s.spawn(move || {
                let (scratch, buf) = slot;
                for e in es.iter_mut() {
                    tick(e, scratch, buf);
                }
            });
        }
    });
}

/// One endpoint of a [`DueTable`]: an activity index, its next
/// deadline and the runtime's per-activity value.
#[derive(Debug)]
pub struct DueSlot<T, V> {
    id: u32,
    next_tick: T,
    /// The runtime's per-activity state.
    pub value: V,
}

impl<T: Copy, V> DueSlot<T, V> {
    /// The activity index the slot is keyed by.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// When the endpoint is next due.
    pub fn next_tick(&self) -> T {
        self.next_tick
    }

    /// Moves the endpoint's next deadline. Slots are only reachable
    /// mutably through a [`Due`] batch, which re-indexes every slot's
    /// deadline when it is dropped.
    pub fn set_next_tick(&mut self, at: T) {
        self.next_tick = at;
    }
}

/// Endpoints keyed by activity index and indexed by deadline.
///
/// The values live in one dense `Vec` (removal is a `swap_remove`), an
/// index maps activity index → slot, and a min-heap holds one
/// `(deadline, index)` entry per endpoint. Heap entries are
/// invalidated lazily: an entry is live only while its endpoint exists
/// and still has exactly that deadline. A removed endpoint's entry
/// therefore lingers until its deadline passes, at most one TTB, and
/// [`DueTable::take_due`] discards it then.
#[derive(Debug)]
pub struct DueTable<T, V> {
    slots: Vec<DueSlot<T, V>>,
    index: HashMap<u32, usize>,
    heap: BinaryHeap<Reverse<(T, u32)>>,
    /// Slot positions of the batch being gathered, reused across turns.
    picked: Vec<usize>,
}

impl<T: Ord + Copy, V> Default for DueTable<T, V> {
    fn default() -> Self {
        DueTable {
            slots: Vec::new(),
            index: HashMap::new(),
            heap: BinaryHeap::new(),
            picked: Vec::new(),
        }
    }
}

impl<T: Ord + Copy, V> DueTable<T, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Endpoints held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no endpoint is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap entries, stale ones included (bounded by the live
    /// endpoints plus those removed within the last TTB).
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `value` under `id`, first due at `next_tick`. An
    /// existing endpoint under `id` is replaced and returned.
    pub fn insert(&mut self, id: u32, next_tick: T, value: V) -> Option<V> {
        self.heap.push(Reverse((next_tick, id)));
        let slot = DueSlot {
            id,
            next_tick,
            value,
        };
        match self.index.get(&id).and_then(|&s| self.slots.get_mut(s)) {
            Some(old) => Some(std::mem::replace(old, slot).value),
            None => {
                self.index.insert(id, self.slots.len());
                self.slots.push(slot);
                None
            }
        }
    }

    /// Removes and returns the endpoint under `id`.
    pub fn remove(&mut self, id: u32) -> Option<V> {
        let s = self.index.remove(&id)?;
        if s >= self.slots.len() {
            return None;
        }
        let gone = self.slots.swap_remove(s);
        if let Some(moved) = self.slots.get(s) {
            self.index.insert(moved.id, s);
        }
        Some(gone.value)
    }

    /// The endpoint under `id`.
    pub fn get(&self, id: u32) -> Option<&V> {
        let &s = self.index.get(&id)?;
        self.slots.get(s).map(|e| &e.value)
    }

    /// The endpoint under `id`, mutably.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut V> {
        let &s = self.index.get(&id)?;
        self.slots.get_mut(s).map(|e| &mut e.value)
    }

    /// Every endpoint, in slot order (not id order).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().map(|e| &mut e.value)
    }

    /// The earliest deadline in the heap: never later than the earliest
    /// endpoint's, and earlier only while a stale entry sits on top,
    /// which costs one early wake that discards it.
    pub fn next_tick(&self) -> Option<T> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }

    /// Whether the heap entry `(at, id)` still names a live deadline.
    fn live_slot(&self, at: T, id: u32) -> Option<usize> {
        let &s = self.index.get(&id)?;
        self.slots
            .get(s)
            .is_some_and(|e| e.next_tick == at)
            .then_some(s)
    }

    /// Takes every endpoint due at `now` (deadline `<= now`) as one
    /// batch in ascending id order. Stale heap entries met on the way
    /// are discarded. Dropping the batch re-indexes each taken slot at
    /// its deadline as it then stands, so a slot left untouched is
    /// due again on the next call.
    pub fn take_due(&mut self, now: T) -> Due<'_, T, V> {
        let mut picked = std::mem::take(&mut self.picked);
        picked.clear();
        while let Some(&Reverse((at, id))) = self.heap.peek() {
            let live = self.live_slot(at, id);
            if at > now && live.is_some() {
                break;
            }
            self.heap.pop();
            picked.extend(live);
        }
        // A re-inserted id can own two entries at one deadline.
        picked.sort_unstable();
        picked.dedup();
        let mut entries = Vec::with_capacity(picked.len());
        let mut rest: &mut [DueSlot<T, V>] = &mut self.slots;
        let mut base = 0;
        for &s in &picked {
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(s - base);
            if let Some((slot, tail)) = tail.split_first_mut() {
                entries.push(slot);
                rest = tail;
            }
            base = s + 1;
        }
        entries.sort_unstable_by_key(|e| e.id);
        self.picked = picked;
        Due {
            entries,
            heap: &mut self.heap,
        }
    }
}

/// A batch of due endpoints from [`DueTable::take_due`], in ascending
/// id order. Dropping it puts each slot back on the deadline heap.
#[derive(Debug)]
pub struct Due<'a, T: Ord + Copy, V> {
    entries: Vec<&'a mut DueSlot<T, V>>,
    heap: &'a mut BinaryHeap<Reverse<(T, u32)>>,
}

impl<'a, T: Ord + Copy, V> Deref for Due<'a, T, V> {
    type Target = [&'a mut DueSlot<T, V>];

    fn deref(&self) -> &Self::Target {
        &self.entries
    }
}

impl<T: Ord + Copy, V> DerefMut for Due<'_, T, V> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.entries
    }
}

impl<T: Ord + Copy, V> Drop for Due<'_, T, V> {
    fn drop(&mut self) {
        for e in &self.entries {
            self.heap.push(Reverse((e.next_tick, e.id)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TerminateReason;

    fn ao(i: u32) -> AoId {
        AoId::new(0, i)
    }

    fn terminate() -> Action {
        Action::Terminate {
            reason: TerminateReason::Acyclic,
        }
    }

    #[test]
    fn vec_action_sink_collects() {
        let mut v: Vec<Action> = Vec::new();
        v.emit(ao(1), terminate());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn sharded_order_matches_sequential() {
        // 25 "activities" each emitting its own id; any shard count must
        // reproduce the sequential emission order.
        let mut seq: Vec<u32> = Vec::new();
        for shards in [1usize, 2, 3, 7, 25, 64] {
            let mut due: Vec<u32> = (0..25).collect();
            let mut pools = SweepPools::new();
            sweep_sharded(&mut due, shards, &mut pools, |e, _scratch, buf| {
                buf.emit(ao(*e), terminate());
                // Mark the entry so we know every chunk was visited.
                *e += 100;
            });
            let got: Vec<u32> = pools.drain_units().map(|u| u.from.index).collect();
            assert!(due.iter().all(|e| *e >= 100), "shards={shards}");
            if shards == 1 {
                seq = got.clone();
            }
            assert_eq!(got, seq, "shards={shards}");
            assert_eq!(pools.buffered(), 0, "drained clean");
        }
    }

    #[test]
    fn empty_due_list_is_fine() {
        let mut due: Vec<u32> = Vec::new();
        let mut pools = SweepPools::new();
        sweep_sharded(&mut due, 4, &mut pools, |_, _, _| unreachable!());
        assert_eq!(pools.drain_units().count(), 0);
    }
}
