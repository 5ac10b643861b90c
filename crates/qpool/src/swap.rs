//! # `SwapCell` — a lock-free hot-swap slot for shared immutable state
//!
//! The serving loop must roll a retrained artifact out mid-traffic with
//! zero dropped and zero torn requests. The workspace is dependency-free,
//! so this is a hand-rolled `arc-swap`: a two-slot cell where **readers
//! are lock-free** (a reader retries only when a concurrent swap has
//! completed, i.e. when the system as a whole made progress) and
//! **swappers serialize** on a mutex and briefly spin while the retired
//! slot's last readers drain. Swaps are rare (one per retrain); loads are
//! per-request, so the asymmetry is the right one.
//!
//! ## Protocol
//!
//! Each slot holds a raw `Arc<T>` pointer and a reader count. `current`
//! names the live slot. A **reader**:
//!
//! 1. loads `current` → `idx`,
//! 2. increments `slots[idx].readers` (SeqCst),
//! 3. re-checks `current == idx` (SeqCst) — on mismatch it decrements and
//!    retries without ever touching the pointer,
//! 4. clones the `Arc` out of the slot, decrements, and returns the clone
//!    (which keeps the value alive for as long as the caller needs,
//!    independent of any later swaps).
//!
//! A **swapper** (holding the writer mutex):
//!
//! 1. picks the *inactive* slot `idx = 1 - current`,
//! 2. spins until `slots[idx].readers == 0` (SeqCst load),
//! 3. installs the new pointer into `slots[idx]` (the old pointer it
//!    evicts has been reader-free since step 2),
//! 4. flips `current = idx` (SeqCst store), publishing the new value.
//!
//! ## Why no reader ever observes a freed or torn value
//!
//! The pointer itself is a single atomic word, so tearing is structurally
//! impossible; the hazard is use-after-free: a swapper reclaiming the
//! `Arc` evicted in step 3 while a reader still intends to clone it.
//! The SeqCst total order rules this out. Let `S2` be the flip that moved
//! `current` *away* from slot `idx` (the previous swap) and `D` the
//! drain load in step 2 that observed `readers == 0`; the writer mutex
//! orders `S2 < D`. Take any reader of slot `idx` with increment `A`
//! (step 2) and re-check load `R` (step 3), `A < R` in SeqCst order:
//!
//! * If `A < D` in the total order, the drain saw the reader and spun
//!   until its decrement — the evicted pointer is not reclaimed while
//!   this reader can reach it.
//! * If `D < A`, then `S2 < D < A < R`, so `R` observes `current ≠ idx`
//!   (no store returns `current` to `idx` until step 4, which the same
//!   swapper performs *after* replacing the pointer). The reader fails
//!   the re-check and retries without dereferencing. If `R` instead
//!   observes the *new* flip (step 4 already done), the pointer it then
//!   reads (SeqCst, after `R`) is the freshly installed one — the evicted
//!   value is unreachable either way.
//!
//! So `readers[idx] == 0` observed after `S2` really means no present or
//! future reader of the old pointer exists: reclamation is sound. This
//! argument is restated (and cross-referenced) in DESIGN.md §"Serving at
//! throughput"; the interleaving-stress tests below hammer it with
//! double-drop canaries.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// One publication slot: a raw `Arc<T>` pointer plus the count of readers
/// currently inside steps 2–4 of the read protocol.
struct Slot {
    ptr: AtomicPtr<()>,
    readers: AtomicUsize,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            readers: AtomicUsize::new(0),
        }
    }
}

/// A lock-free publication cell: [`load`](SwapCell::load) hands out
/// `Arc<T>` clones of the current value; [`swap`](SwapCell::swap)
/// atomically publishes a replacement while readers keep going.
///
/// # Example
///
/// ```
/// use qpool::swap::SwapCell;
/// let cell = SwapCell::new("v1".to_string());
/// let before = cell.load();
/// let retired = cell.swap("v2".to_string());
/// assert_eq!(*cell.load(), "v2");
/// assert_eq!(*before, "v1"); // clones outlive the swap
/// assert!(retired.is_none()); // nothing evicted until the *second* swap
/// ```
pub struct SwapCell<T> {
    slots: [Slot; 2],
    /// Index of the live slot (0 or 1). Only ever flipped by a swapper
    /// holding `writer`, and only *after* the target slot is populated.
    current: AtomicUsize,
    /// Serializes swappers; never touched by readers.
    writer: Mutex<()>,
    _marker: PhantomData<Arc<T>>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads, which is
// exactly `Arc<T>: Send + Sync`, i.e. `T: Send + Sync`. The raw pointers
// are only dereferenced under the protocol proven in the module docs.
unsafe impl<T: Send + Sync> Send for SwapCell<T> {}
unsafe impl<T: Send + Sync> Sync for SwapCell<T> {}

impl<T> SwapCell<T> {
    /// Creates a cell publishing `value`.
    pub fn new(value: T) -> SwapCell<T> {
        let cell = SwapCell {
            slots: [Slot::empty(), Slot::empty()],
            current: AtomicUsize::new(0),
            writer: Mutex::new(()),
            _marker: PhantomData,
        };
        cell.slots[0]
            .ptr
            .store(Arc::into_raw(Arc::new(value)).cast_mut().cast(), SeqCst);
        cell
    }

    /// Returns an `Arc` clone of the currently published value.
    ///
    /// Lock-free: never blocks, and retries only when a concurrent
    /// [`swap`](SwapCell::swap) completed between steps — each retry
    /// witnesses system-wide progress. The returned clone pins the value
    /// regardless of how many swaps happen afterwards.
    pub fn load(&self) -> Arc<T> {
        loop {
            let idx = self.current.load(SeqCst);
            let slot = &self.slots[idx];
            slot.readers.fetch_add(1, SeqCst);
            if self.current.load(SeqCst) == idx {
                let ptr = slot.ptr.load(SeqCst).cast_const().cast::<T>();
                // SAFETY: the re-check passed, so per the module-docs
                // ordering argument `ptr` is the live published `Arc`,
                // and our reader count blocks its reclamation until the
                // decrement below. Incrementing the strong count while
                // counted, then materializing, yields an owned clone.
                let arc = unsafe {
                    Arc::increment_strong_count(ptr);
                    Arc::from_raw(ptr)
                };
                slot.readers.fetch_sub(1, SeqCst);
                return arc;
            }
            // A swap flipped `current` under us; back out and retry.
            slot.readers.fetch_sub(1, SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publishes `value`, returning the `Arc` *evicted* from the slot
    /// being reused — the value published two swaps ago, now proven
    /// reader-free (clones handed out by [`load`](SwapCell::load) may of
    /// course still be alive; dropping the returned `Arc` only releases
    /// the cell's own reference). Returns `None` on the first swap, when
    /// the reused slot is still empty.
    ///
    /// In-flight readers are never blocked, dropped, or redirected
    /// mid-read: each sees either the old value or the new one, intact.
    pub fn swap(&self, value: T) -> Option<Arc<T>> {
        let new_ptr: *mut () = Arc::into_raw(Arc::new(value)).cast_mut().cast();
        let _writer = self.writer.lock().expect("swap writer lock");
        let idx = 1 - self.current.load(SeqCst);
        let slot = &self.slots[idx];
        // Step 2: wait out stragglers still counted on the retired slot.
        // `current` has pointed away from `idx` since the previous swap,
        // so this count can only shrink (late arrivals fail the re-check
        // and back out; see the module docs).
        while slot.readers.load(SeqCst) != 0 {
            std::thread::yield_now();
        }
        let old = slot.ptr.swap(new_ptr, SeqCst);
        // Step 4: publish. From here every new reader lands on `value`.
        self.current.store(idx, SeqCst);
        if old.is_null() {
            return None;
        }
        // SAFETY: `old` was evicted after the drain observed zero readers
        // on a slot `current` had already left — per the module-docs
        // argument no reader can still reach it, so reclaiming the cell's
        // reference is sound.
        Some(unsafe { Arc::from_raw(old.cast_const().cast::<T>()) })
    }
}

impl<T> Drop for SwapCell<T> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let ptr = slot.ptr.load(SeqCst);
            if !ptr.is_null() {
                // SAFETY: `&mut self` means no readers or swappers exist;
                // each non-null slot owns exactly one strong reference.
                drop(unsafe { Arc::from_raw(ptr.cast_const().cast::<T>()) });
            }
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SwapCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapCell").field("value", &self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    #[test]
    fn load_returns_initial_value() {
        let cell = SwapCell::new(41u64);
        assert_eq!(*cell.load(), 41);
        assert_eq!(*cell.load(), 41);
    }

    #[test]
    fn swap_publishes_and_evicts_two_generations_behind() {
        let cell = SwapCell::new(0u64);
        assert!(cell.swap(1).is_none(), "first swap reuses the empty slot");
        assert_eq!(*cell.load(), 1);
        let evicted = cell.swap(2).expect("second swap evicts generation 0");
        assert_eq!(*evicted, 0);
        assert_eq!(*cell.load(), 2);
        assert_eq!(*cell.swap(3).unwrap(), 1);
        assert_eq!(*cell.load(), 3);
    }

    #[test]
    fn clones_pin_old_values_across_swaps() {
        let cell = SwapCell::new(String::from("old"));
        let pinned = cell.load();
        for round in 0..10 {
            cell.swap(format!("gen{round}"));
        }
        assert_eq!(*pinned, "old");
        assert_eq!(*cell.load(), "gen9");
    }

    /// A value whose invariant (`check == !gen`) would be visibly broken
    /// by a torn read, and whose drop is counted and double-drop-fatal —
    /// a stale-free or double-free under the stress tests below trips it.
    struct Canary {
        gen: u64,
        check: u64,
        dropped: AtomicBool,
        drops: Arc<AtomicU64>,
    }

    impl Canary {
        fn new(gen: u64, drops: &Arc<AtomicU64>) -> Canary {
            Canary {
                gen,
                check: !gen,
                dropped: AtomicBool::new(false),
                drops: Arc::clone(drops),
            }
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            assert!(
                !self.dropped.swap(true, Ordering::SeqCst),
                "canary gen {} dropped twice",
                self.gen
            );
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Loom-style interleaving stress (scaled for a 1-core CI container):
    /// swappers churn generations while readers assert, on every load,
    /// that the value is internally consistent and that the generation
    /// sequence each thread observes never goes backwards. Afterwards,
    /// every canary ever created was dropped exactly once.
    #[test]
    fn concurrent_swaps_never_tear_or_stale_free() {
        const READERS: usize = 4;
        const LOADS: usize = 20_000;
        const SWAPPERS: usize = 2;
        const SWAPS: u64 = 400;

        let drops = Arc::new(AtomicU64::new(0));
        let created = Arc::new(AtomicU64::new(1));
        // Generations are numbered under the same test-side lock that
        // publishes them. Numbered before the cell's own writer lock, a
        // swapper could publish gen 73 after another had published 74–76,
        // and readers would see labels go backwards with no fault in the
        // cell.
        let next_gen = Arc::new(Mutex::new(1u64));
        let cell = Arc::new(SwapCell::new(Canary::new(0, &drops)));

        std::thread::scope(|scope| {
            for _ in 0..SWAPPERS {
                let cell = Arc::clone(&cell);
                let drops = Arc::clone(&drops);
                let created = Arc::clone(&created);
                let next_gen = Arc::clone(&next_gen);
                scope.spawn(move || {
                    for _ in 0..SWAPS {
                        let mut gen = next_gen.lock().expect("generation lock");
                        created.fetch_add(1, Ordering::SeqCst);
                        // The returned eviction is reader-free; dropping
                        // it here is exactly the reclamation under test.
                        drop(cell.swap(Canary::new(*gen, &drops)));
                        *gen += 1;
                        drop(gen);
                        std::thread::yield_now();
                    }
                });
            }
            for _ in 0..READERS {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last_gen = 0u64;
                    for i in 0..LOADS {
                        let canary = cell.load();
                        assert_eq!(
                            canary.check, !canary.gen,
                            "torn or reused canary observed"
                        );
                        assert!(
                            canary.gen >= last_gen,
                            "generation went backwards: {} after {}",
                            canary.gen,
                            last_gen
                        );
                        last_gen = canary.gen;
                        if i % 1024 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });

        let total = created.load(Ordering::SeqCst);
        assert_eq!(total, 1 + SWAPPERS as u64 * SWAPS);
        drop(cell); // reclaim the final two generations still in the slots
        assert_eq!(
            drops.load(Ordering::SeqCst),
            total,
            "every canary must be dropped exactly once"
        );
    }

    /// Readers that pin a clone mid-churn keep it valid arbitrarily long
    /// after many further swaps reclaimed everything else.
    #[test]
    fn pinned_clones_survive_heavy_churn() {
        let drops = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(SwapCell::new(Canary::new(0, &drops)));
        let pinned: Vec<Arc<Canary>> = (0..8).map(|_| cell.load()).collect();
        std::thread::scope(|scope| {
            let cell = Arc::clone(&cell);
            let drops = Arc::clone(&drops);
            scope.spawn(move || {
                for gen in 1..=200 {
                    cell.swap(Canary::new(gen, &drops));
                }
            });
        });
        for canary in &pinned {
            assert_eq!(canary.gen, 0);
            assert_eq!(canary.check, !0);
        }
        drop(pinned);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 201);
    }
}
