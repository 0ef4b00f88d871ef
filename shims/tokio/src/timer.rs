//! Timer entries, fired by the reactor thread.
//!
//! Entries live in an ordered map keyed by `(deadline, seq)`, so the
//! earliest deadline is the first key and any entry can be removed. A
//! [`Sleep`](crate::time::Sleep) owns at most one entry: it registers on
//! its first pending poll, replaces the waker only when the task's waker
//! changes, and removes the entry when it drops. A finished or abandoned
//! timeout therefore leaves nothing behind.
//!
//! Adding an entry wakes the reactor (through its eventfd) only when the
//! entry becomes the earliest deadline; otherwise the reactor's current
//! `epoll_wait` timeout already covers it.

use crate::reactor::{lock, reactor};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::task::Waker;
use std::time::Instant;

/// Identifies one timer entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key {
    at: Instant,
    seq: u64,
}

impl Key {
    /// A fresh key for a deadline at `at`.
    pub(crate) fn new(at: Instant) -> Key {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        Key {
            at,
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        }
    }
}

#[derive(Default)]
pub(crate) struct Timers {
    entries: Mutex<BTreeMap<Key, Waker>>,
}

impl Timers {
    /// Pops every entry due at `now` into `out`; returns the next deadline.
    pub(crate) fn fire_due(&self, now: Instant, out: &mut Vec<Waker>) -> Option<Instant> {
        let mut entries = lock(&self.entries);
        while let Some(entry) = entries.first_entry() {
            if entry.key().at > now {
                return Some(entry.key().at);
            }
            out.push(entry.remove());
        }
        None
    }
}

/// Arranges for `waker` to be woken at `key`'s deadline, replacing any
/// waker already registered under `key`.
pub(crate) fn set(key: Key, waker: Waker) {
    let r = reactor();
    let mut entries = lock(&r.timers.entries);
    let earliest = entries
        .first_key_value()
        .is_none_or(|(first, _)| key < *first);
    let replaced = entries.insert(key, waker);
    drop(entries);
    if earliest {
        r.notify();
    }
    // Dropped outside the lock: it may hold the last reference to a task
    // whose future owns a `Sleep`, whose `Drop` takes the lock.
    drop(replaced);
}

/// Removes `key`'s entry, if it has not fired yet.
pub(crate) fn cancel(key: Key) {
    let removed = lock(&reactor().timers.entries).remove(&key);
    drop(removed); // after the guard, as in `set`
}

/// Number of registered entries.
#[cfg(test)]
pub(crate) fn len() -> usize {
    lock(&reactor().timers.entries).len()
}
