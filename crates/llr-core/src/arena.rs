//! `NameArena`: a production acquire/release service over any renaming
//! protocol, with a `k`-bounded admission gate.
//!
//! The paper's protocols are only correct while **at most `k` processes
//! concurrently request or hold names** — the concurrency bound is an
//! obligation on the *environment*, not something SPLIT or the grid
//! enforce themselves. [`NameArena`] turns that obligation into an API
//! guarantee: it wraps any [`Renaming`] object with a counting admission
//! gate of `k` permits, so an arbitrary number of client threads can hammer
//! `acquire`/`release` and at most `k` of them are ever inside the protocol
//! (from the start of their `GetName` to the end of their `ReleaseName` —
//! holding a name counts as occupying a slot, exactly the paper's notion
//! of a participating process).
//!
//! The gate is infrastructure, not protocol: it may use read-modify-write
//! operations freely. Only the renaming protocol behind it is restricted
//! to the paper's read/write registers. Waiting at the gate is a **bounded
//! spin then park** (mutex + condvar), so oversubscribed clients do not
//! burn CPU that the `k` admitted ones need — on the single-core benchmark
//! host this matters more than the spin.
//!
//! The gate is also **churn-safe**: admission travels in an RAII permit
//! guard and the park mutex recovers from poison, so a client thread that
//! panics or dies at any point of its session returns its slot and never
//! wedges a parked waiter (`tests/arena_churn.rs` hammers this). See
//! [`NameArena::with_permits`] for the capacity headroom a deployment
//! needs when clients may die while *holding* a name.
//!
//! Steady-state `acquire`/`release` through an arena over SPLIT, the
//! Moir–Anderson grid or the LevelArray performs **no heap allocation**
//! (verified by `tests/arena_alloc.rs`): the per-thread [`ArenaClient`]
//! reuses its session machinery, and SPLIT's path lives inline in the
//! machine ([`crate::split::PathVec`]). FILTER is the one exception: each
//! acquire allocates exactly one vector, its per-tree progress (one
//! `Copy` [`crate::tournament::TreeProgress`] per name in `N_p`, no
//! per-tree vectors), which moves into the token and on into the release.
//! The zero-alloc guarantee covers the SPLIT/MA/chain/LevelArray paths.
//!
//! # Hot-path layout
//!
//! A cycle through an arena writes exactly two kinds of shared memory:
//! the gate's permit counter and the protocol's registers. Nothing else
//! is written per operation — the protocol machines borrow their shape
//! from the client's core, so no reference count is touched (see
//! [`crate::session`]). The gate is stored as a [`CachePadded`]`<Gate>`,
//! so its counter owns its cache line(s): a permit CAS by one client never
//! invalidates the line holding the protocol object's fields (the
//! register-file pointer, the shape), which every client reads on every
//! step.
//!
//! # Example
//!
//! More client threads than the protocol admits — the gate multiplexes
//! 8 threads onto a `k = 4` SPLIT:
//!
//! ```
//! use llr_core::arena::NameArena;
//! use llr_core::split::Split;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! let arena = NameArena::new(Split::new(4));
//! std::thread::scope(|s| {
//!     for t in 0..8u64 {
//!         let arena = &arena;
//!         s.spawn(move || {
//!             let mut c = arena.client(t * 7 + 1);
//!             for _ in 0..25 {
//!                 let name = c.acquire();
//!                 assert!(name < arena.dest_size());
//!                 c.release();
//!             }
//!         });
//!     }
//! });
//! ```

use crate::traits::{Renaming, RenamingHandle};
use crate::types::{Name, Pid};
use llr_mem::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// A counting admission gate: `k` permits, bounded spin then park.
///
/// `enter` takes a permit; `exit` returns one. The fast path is a single
/// CAS; a full gate spins briefly (contention is usually transient — a
/// protocol operation is O(k) register accesses) and then parks on a
/// condvar so waiters cost nothing while blocked.
#[derive(Debug)]
struct Gate {
    /// Free permits. Only ever decremented via CAS from a positive value,
    /// so it stays in `0..=k` (the type is signed only to make underflow
    /// bugs loud in debug builds rather than wrapping).
    permits: AtomicI64,
    /// Number of threads at or past the park decision point. The
    /// `waiters`/`permits` pair forms a SeqCst Dekker pattern with `exit`
    /// (see the comments there) that makes lost wakeups impossible.
    waiters: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Spin rounds before parking: a handful of doubling busy-wait rounds,
/// then scheduler yields. Tuned small — past this, parking is cheaper.
const SPIN_ROUNDS: u32 = 6;

impl Gate {
    fn new(permits: usize) -> Self {
        assert!(permits >= 1, "gate needs at least one permit");
        Self {
            permits: AtomicI64::new(permits as i64),
            waiters: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// One CAS attempt at taking a permit.
    fn try_enter(&self) -> bool {
        let mut p = self.permits.load(Ordering::SeqCst);
        while p > 0 {
            match self
                .permits
                .compare_exchange_weak(p, p - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(actual) => p = actual,
            }
        }
        false
    }

    /// Takes a permit, blocking until one is free.
    fn enter(&self) {
        // Bounded backoff: brief doubling spins, then yields.
        for round in 0..SPIN_ROUNDS {
            if self.try_enter() {
                return;
            }
            if round < 3 {
                for _ in 0..(1u32 << round) {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::yield_now();
            }
        }
        // Park. Dekker pair, waiter side: *write* waiters, then *read*
        // permits (inside try_enter). The exiter does the mirror image
        // (write permits, read waiters), all SeqCst — so if the exiter
        // missed our waiter count, we cannot have missed its permit.
        //
        // Poison is recovered, not propagated: the mutex guards no data
        // (every gate invariant lives in the `permits`/`waiters`
        // atomics), so a lock poisoned by some client's panic is still a
        // perfectly good park/notify rendezvous — and under churn,
        // surviving clients must keep working after a peer dies.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !self.try_enter() {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Returns a permit, waking one parked waiter if any.
    fn exit(&self) {
        self.permits.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taking the mutex before notifying closes the window between
            // a waiter's failed try_enter and its cv.wait: we cannot
            // notify while the waiter is deciding, only before (it then
            // re-checks and sees our permit) or after (the notify lands).
            // Poison recovered for the same reason as in `enter`.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.cv.notify_one();
        }
    }
}

/// An RAII admission permit: taken from the gate on construction,
/// returned on drop — **including the drop that unwinding performs when
/// the client panics**. This is the arena's churn-safety mechanism: a
/// client that dies mid-acquire (or mid-release, or while holding) can
/// never leak its admission slot, because the permit travels in this
/// guard across every protocol call.
#[derive(Debug)]
struct Permit<'a> {
    gate: &'a Gate,
}

impl<'a> Permit<'a> {
    /// Blocks until a permit is free, then wraps it.
    fn take(gate: &'a Gate) -> Self {
        gate.enter();
        Permit { gate }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.exit();
    }
}

/// A `k`-admission-gated renaming service over any [`Renaming`] protocol.
///
/// `NameArena` itself implements [`Renaming`], so everything written
/// against the trait — benchmarks, stress tests, the experiment drivers —
/// runs on gated arenas unchanged. Unlike the raw protocol, an arena is
/// safe to share with **more** client threads than `k`: excess acquirers
/// wait at the gate instead of violating the protocol's concurrency bound.
///
/// Each client thread should create its own [`ArenaClient`] (with a pid
/// that is valid for the underlying protocol and unique among concurrent
/// clients) and reuse it for all its operations: the client's session
/// state is reused across operations, so steady-state acquire/release
/// does not allocate (for SPLIT/MA/chain; see the module docs).
///
/// Admission is churn-safe: the permit travels in an RAII guard, so a
/// client that panics inside `acquire` (or `release`), or whose thread
/// dies and drops the client mid-session, always returns its admission
/// slot — survivors keep being admitted. What a dead client *cannot*
/// return is in-protocol state: a client that dies **holding** a name
/// leaves that name's marks set forever (the session layer's
/// `crash_robust_uniqueness` reservation). Under expected churn,
/// provision headroom with [`with_permits`](Self::with_permits): gate at
/// `k_gate` on a capacity-`k` protocol and up to `k − k_gate` such
/// deaths are absorbed without the live admitted set ever exceeding the
/// protocol's remaining capacity.
#[derive(Debug)]
pub struct NameArena<R: Renaming> {
    inner: R,
    /// Padded onto its own cache line(s): the permit counter is written
    /// by every admission, `inner` is read by every protocol step.
    gate: CachePadded<Gate>,
}

impl<R: Renaming> NameArena<R> {
    /// Wraps `inner`, gating admission at `inner.concurrency()` permits.
    ///
    /// # Example
    ///
    /// Acquire through a client: the gate admits, the protocol names.
    ///
    /// ```
    /// use llr_core::arena::NameArena;
    /// use llr_core::levelarray::LevelArray;
    /// use llr_core::traits::{Renaming, RenamingHandle};
    ///
    /// let arena = NameArena::new(LevelArray::new(4));
    /// let mut c = arena.client(987_654_321);
    /// let name = c.acquire();
    /// assert!(name < arena.dest_size());
    /// assert_eq!(c.held(), Some(name));
    /// c.release();
    /// ```
    pub fn new(inner: R) -> Self {
        let k = inner.concurrency();
        Self::with_permits(inner, k)
    }

    /// Wraps `inner`, gating admission at `permits ≤ inner.concurrency()`
    /// — crash headroom for churn-prone deployments: each client that
    /// dies while holding a name permanently occupies one unit of the
    /// protocol's capacity, so a gate of `k − f` permits keeps the
    /// protocol inside its concurrency bound through `f` such deaths.
    pub fn with_permits(inner: R, permits: usize) -> Self {
        let k = inner.concurrency();
        assert!(
            (1..=k).contains(&permits),
            "gate permits ({permits}) must be in 1..=concurrency ({k})"
        );
        Self {
            inner,
            gate: CachePadded::new(Gate::new(permits)),
        }
    }

    /// Creates a client for process `pid` — [`Renaming::handle`] under its
    /// arena-specific name.
    pub fn client(&self, pid: Pid) -> ArenaClient<'_, R> {
        ArenaClient {
            gate: &self.gate,
            permit: None,
            handle: self.inner.handle(pid),
        }
    }

    /// Free admission permits right now. Exact only at quiescence (no
    /// client mid-operation); the churn tests use it to assert that dead
    /// clients leaked nothing.
    pub fn free_permits(&self) -> usize {
        self.gate.permits.load(Ordering::SeqCst) as usize
    }

    /// The wrapped protocol object.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: Renaming> Renaming for NameArena<R> {
    type Handle<'a>
        = ArenaClient<'a, R>
    where
        R: 'a;

    fn handle(&self, pid: Pid) -> ArenaClient<'_, R> {
        self.client(pid)
    }

    fn source_size(&self) -> u64 {
        self.inner.source_size()
    }

    fn dest_size(&self) -> u64 {
        self.inner.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.inner.concurrency()
    }
}

/// A client thread's handle on a [`NameArena`]: the underlying protocol
/// handle plus gate admission around each session.
///
/// The permit is held from the start of `acquire` to the end of `release`
/// — a client *holding* a name still occupies one of the `k` slots, which
/// is exactly the paper's definition of a concurrently participating
/// process.
///
/// The permit lives in an RAII guard: if the protocol panics under the
/// client — or the client is dropped mid-session by a dying thread — the
/// guard's drop returns the slot to the gate, so churn never starves the
/// survivors of admission.
#[derive(Debug)]
pub struct ArenaClient<'a, R: Renaming + 'a> {
    gate: &'a Gate,
    /// The admission slot held between `acquire` and `release`. `None`
    /// while idle; dropping the client mid-session returns it.
    permit: Option<Permit<'a>>,
    handle: R::Handle<'a>,
}

impl<R: Renaming> RenamingHandle for ArenaClient<'_, R> {
    fn acquire(&mut self) -> Name {
        // The permit is a local until the protocol call returns: a panic
        // inside `handle.acquire()` unwinds through it and the gate gets
        // its slot back.
        let permit = Permit::take(self.gate);
        let name = self.handle.acquire();
        self.permit = Some(permit);
        name
    }

    fn release(&mut self) {
        // Move the permit into a local first: whether the release
        // completes or panics, the slot goes back to the gate — but only
        // *after* the protocol work, since a releasing client still
        // occupies its slot.
        let permit = self.permit.take();
        self.handle.release();
        drop(permit);
    }

    fn pid(&self) -> Pid {
        self.handle.pid()
    }

    fn held(&self) -> Option<Name> {
        self.handle.held()
    }

    fn accesses(&self) -> u64 {
        self.handle.accesses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::Split;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn gate_counts_permits() {
        let g = Gate::new(2);
        g.enter();
        g.enter();
        assert!(!g.try_enter());
        g.exit();
        assert!(g.try_enter());
        g.exit();
        g.exit();
        assert_eq!(g.permits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn gate_parks_and_wakes() {
        let g = std::sync::Arc::new(Gate::new(1));
        g.enter();
        let g2 = std::sync::Arc::clone(&g);
        let waiter = std::thread::spawn(move || {
            g2.enter(); // must park: no permit free
            g2.exit();
        });
        // Give the waiter time to reach the parked state, then release.
        std::thread::sleep(std::time::Duration::from_millis(20));
        g.exit();
        waiter.join().unwrap();
        assert_eq!(g.permits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn gate_sits_on_its_own_cache_line() {
        let arena = NameArena::new(Split::new(3));
        let line = std::mem::align_of::<CachePadded<Gate>>();
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert_eq!(line, 128);
        let gate = std::ptr::addr_of!(arena.gate) as usize;
        let gate_end = gate + std::mem::size_of::<CachePadded<Gate>>();
        assert_eq!(gate % line, 0, "the gate must start a cache line");
        let inner = std::ptr::addr_of!(arena.inner) as usize;
        let inner_end = inner + std::mem::size_of::<Split>();
        assert!(
            inner_end <= gate || gate_end <= inner,
            "gate [{gate:#x}, {gate_end:#x}) overlaps inner [{inner:#x}, {inner_end:#x})"
        );
    }

    #[test]
    fn arena_forwards_renaming_facts() {
        let arena = NameArena::new(Split::new(3));
        assert_eq!(arena.dest_size(), 9);
        assert_eq!(arena.source_size(), u64::MAX);
        assert_eq!(arena.concurrency(), 3);
        assert_eq!(arena.inner().shape().k(), 3);
    }

    #[test]
    fn client_cycles_like_a_handle() {
        let arena = NameArena::new(Split::new(3));
        let mut c = arena.client(42);
        assert_eq!(c.pid(), 42);
        assert_eq!(c.held(), None);
        let n = c.acquire();
        assert!(n < 9);
        assert_eq!(c.held(), Some(n));
        c.release();
        assert_eq!(c.held(), None);
        assert!(c.accesses() > 0);
    }

    #[test]
    fn admission_never_exceeds_k() {
        // 8 threads on a k = 2 arena: an in-protocol counter incremented
        // on acquire and decremented on release must never exceed 2.
        let arena = NameArena::new(Split::new(2));
        let inside = AtomicU64::new(0);
        let violated = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let arena = &arena;
                let inside = &inside;
                let violated = &violated;
                s.spawn(move || {
                    let mut c = arena.client(t * 31 + 7);
                    for _ in 0..100 {
                        c.acquire();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        if now > 2 {
                            violated.store(true, Ordering::SeqCst);
                        }
                        inside.fetch_sub(1, Ordering::SeqCst);
                        c.release();
                    }
                });
            }
        });
        assert!(
            !violated.load(Ordering::SeqCst),
            "more than k clients inside the protocol"
        );
    }

    #[test]
    fn with_permits_gates_below_protocol_capacity() {
        let arena = NameArena::with_permits(Split::new(4), 2);
        assert_eq!(arena.concurrency(), 4, "protocol capacity is unchanged");
        assert_eq!(arena.free_permits(), 2, "but admission is gated at 2");
        let mut a = arena.client(1);
        let mut b = arena.client(2);
        a.acquire();
        b.acquire();
        assert_eq!(arena.free_permits(), 0);
        assert!(!arena.gate.try_enter(), "third admission must wait");
        a.release();
        b.release();
        assert_eq!(arena.free_permits(), 2);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=concurrency")]
    fn with_permits_rejects_oversized_gates() {
        let _ = NameArena::with_permits(Split::new(2), 3);
    }

    #[test]
    fn panicking_acquire_returns_its_permit() {
        let arena = NameArena::new(Split::new(2));
        let mut c = arena.client(7);
        c.acquire();
        assert_eq!(arena.free_permits(), 1);
        // Misuse the handle: a second acquire while holding panics inside
        // the protocol handle — *after* the gate admitted us. The RAII
        // guard must hand the second permit straight back.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.acquire()));
        assert!(r.is_err(), "double acquire must panic");
        assert_eq!(
            arena.free_permits(),
            1,
            "the panicking acquire leaked its permit"
        );
        // The survivor's own session is untouched.
        c.release();
        assert_eq!(arena.free_permits(), 2);
    }

    #[test]
    fn dropping_a_holding_client_returns_the_permit() {
        let arena = NameArena::new(Split::new(2));
        {
            let mut c = arena.client(3);
            c.acquire();
            assert_eq!(arena.free_permits(), 1);
            // `c` is dropped while holding — the thread-death analogue.
            // Its name's marks stay in the protocol; the admission slot
            // must not.
        }
        assert_eq!(arena.free_permits(), 2);
    }

    #[test]
    fn oversubscribed_names_stay_unique() {
        let arena = NameArena::new(Split::new(4));
        let claimed: Vec<AtomicBool> = (0..arena.dest_size())
            .map(|_| AtomicBool::new(false))
            .collect();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let arena = &arena;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut c = arena.client(t * 104_729 + 1);
                    for _ in 0..200 {
                        let n = c.acquire();
                        let was = claimed[n as usize].swap(true, Ordering::SeqCst);
                        assert!(!was, "name {n} double-held");
                        claimed[n as usize].store(false, Ordering::SeqCst);
                        c.release();
                    }
                });
            }
        });
    }
}
