//! The deadline-indexed endpoint table against a linear-scan oracle.
//!
//! `DueTable` replaced runtimes that kept endpoints in a `BTreeMap`
//! and found the due ones with `filter(next_tick <= now)` — a walk over
//! every endpoint per loop turn. These properties drive the table and
//! that scan side by side through random insert / remove / tick
//! streams with mixed TTBs (adaptive timing included: a tick may move
//! an endpoint to a different TTB) and demand:
//!
//! * `take_due` returns exactly the scan's due set, in ascending id
//!   order;
//! * no removed endpoint is ever returned;
//! * `next_tick()` is never later than the true earliest deadline;
//! * the heap holds at most the live endpoints plus those removed (or
//!   replaced) within the last max-TTB, so it stays bounded under churn.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dgc_core::sweep::DueTable;

/// The TTBs an endpoint may run at (ms): mixed fast and slow beats.
const TTBS: [u64; 4] = [1, 5, 20, 50];
const MAX_TTB: u64 = 50;

#[derive(Debug, Clone)]
enum Op {
    /// Insert (or replace) `id`, first due one TTB from now.
    Insert {
        id: u32,
        ttb: usize,
    },
    Remove {
        id: u32,
    },
    /// Advance the clock by `dt`, take the due batch and reschedule it.
    /// `adaptive` moves each ticked endpoint to a TTB drawn from
    /// `salt`; `skip` leaves every `skip`-th one untouched (still due).
    Tick {
        dt: u64,
        adaptive: bool,
        salt: u64,
        skip: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0u32..24,
        0usize..4,
        0u64..60,
        any::<bool>(),
        any::<u64>(),
        0u64..5,
    )
        .prop_map(|(kind, id, ttb, dt, adaptive, salt, skip)| match kind {
            0..=2 => Op::Insert { id, ttb },
            3..=4 => Op::Remove { id },
            _ => Op::Tick {
                dt,
                adaptive,
                salt,
                skip,
            },
        })
}

/// The oracle's endpoint: its deadline, its TTB and the value the
/// table must hand back.
#[derive(Debug, Clone, Copy)]
struct Model {
    next: u64,
    ttb: u64,
    value: u64,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn due_table_matches_linear_scan(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let mut table: DueTable<u64, u64> = DueTable::new();
        let mut model: BTreeMap<u32, Model> = BTreeMap::new();
        // Times at which an endpoint left the table (removed, or
        // replaced by a re-insert): each may leave one stale entry.
        let mut retired: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let mut serial = 0u64;
        for op in ops {
            match op {
                Op::Insert { id, ttb } => {
                    serial += 1;
                    let ttb = TTBS[ttb];
                    let replaced = table.insert(id, now + ttb, serial);
                    let old = model.insert(id, Model { next: now + ttb, ttb, value: serial });
                    prop_assert_eq!(replaced, old.map(|m| m.value));
                    if old.is_some() {
                        retired.push(now);
                    }
                }
                Op::Remove { id } => {
                    let got = table.remove(id);
                    let old = model.remove(&id);
                    prop_assert_eq!(got, old.map(|m| m.value));
                    if old.is_some() {
                        retired.push(now);
                    }
                }
                Op::Tick { dt, adaptive, salt, skip } => {
                    now += dt;
                    let expected: Vec<u32> = model
                        .iter()
                        .filter(|(_, m)| m.next <= now)
                        .map(|(&id, _)| id)
                        .collect();
                    let mut due = table.take_due(now);
                    let got: Vec<u32> = due.iter().map(|slot| slot.id()).collect();
                    prop_assert_eq!(&got, &expected, "due set at t={}", now);
                    for (k, slot) in due.iter_mut().enumerate() {
                        let id = slot.id();
                        let m = model.get_mut(&id);
                        prop_assert!(m.is_some(), "removed endpoint {} returned", id);
                        let m = m.unwrap();
                        prop_assert_eq!(slot.value, m.value);
                        prop_assert!(slot.next_tick() <= now);
                        if skip > 0 && (k as u64).is_multiple_of(skip) {
                            continue; // untouched: due again next turn
                        }
                        if adaptive {
                            let pick = (salt.rotate_left(id) ^ id as u64) % TTBS.len() as u64;
                            m.ttb = TTBS[pick as usize];
                        }
                        m.next = now + m.ttb;
                        slot.set_next_tick(m.next);
                    }
                    drop(due);
                    // Stale entries from removals that long ago have
                    // all been discarded by this tick.
                    retired.retain(|&r| r + MAX_TTB > now);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for (&id, m) in &model {
                prop_assert_eq!(table.get(id), Some(&m.value));
            }
            if let Some(min) = model.values().map(|m| m.next).min() {
                let next = table.next_tick();
                prop_assert!(next.is_some_and(|t| t <= min), "next_tick {:?} > min {}", next, min);
            }
            prop_assert!(
                table.heap_len() <= model.len() + retired.len(),
                "heap {} > live {} + retired {}",
                table.heap_len(),
                model.len(),
                retired.len()
            );
        }
    }
}

/// Churn at a steady population: the heap stays within a TTB's worth
/// of removals of the live count, however many endpoints come and go.
#[test]
fn heap_stays_bounded_under_churn() {
    let mut table: DueTable<u64, ()> = DueTable::new();
    let ttb = 10u64;
    let live = 100u32;
    for id in 0..live {
        table.insert(id, ttb, ());
    }
    for now in 1..10_000u64 {
        // One endpoint leaves and one arrives per time unit.
        let arriving = live + now as u32 - 1;
        table.remove(arriving - live);
        table.insert(arriving, now + ttb, ());
        let mut due = table.take_due(now);
        for slot in due.iter_mut() {
            slot.set_next_tick(now + ttb);
        }
        drop(due);
        assert_eq!(table.len(), live as usize);
        assert!(
            table.heap_len() <= live as usize + ttb as usize,
            "heap grew to {} at t={now}",
            table.heap_len()
        );
    }
}
