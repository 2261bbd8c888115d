//! The **LevelArray** — the strongest practical long-lived renaming rival
//! to the paper's read/write protocols (Alistarh–Kopinsky–Matveev–Shavit,
//! "fast, practical long-lived renaming", arXiv:1405.5461), reconstructed
//! here as a [`ProtocolCore`] so the model checker, the fault model, and
//! the `NameArena` production path all apply to it unchanged.
//!
//! # Reconstruction note
//!
//! Only the abstract of arXiv:1405.5461 is available offline (see
//! PAPERS.md), so as with the Moir–Anderson grid (`crate::ma`) the
//! implementation is rebuilt from the abstract plus first principles. The
//! load-bearing ingredients are the ones the abstract names: per-level
//! **bit arrays** claimed with **test-and-set**, geometrically shrinking
//! level widths so a process descends past contention fast, and a final
//! full-width reserve level that guarantees termination. Concretely:
//!
//! * Level `i` is an array of `wᵢ` claim bits, `w₀ = k`,
//!   `wᵢ₊₁ = ⌈wᵢ/2⌉`, down to width 1; a final **reserve level** has
//!   exactly `k` bits. Total names `D ≤ 3k + log₂k` — **O(k)**, the best
//!   name-space bound in this crate (SPLIT pays `3^(k-1)`, the grids
//!   `k(k+1)/2`).
//! * A process probes [`PROBES`] deterministically-chosen slots per level
//!   (one [`Memory::swap`] each); claiming a free bit **is** the acquire —
//!   slot `j` of level `i` is name `base(i) + j`. Probing an occupied bit
//!   writes `TRUE` over `TRUE`, so failed probes leave **no marks**.
//! * Release is a single [`Memory::write_rel`] clearing the claimed bit:
//!   **O(1)**, unconditionally.
//! * The reserve level is scanned cyclically until a bit is won. At most
//!   `k − 1` rivals each hold at most one bit anywhere, so of the `k`
//!   reserve bits at least one is free at every instant; a scan can only
//!   keep failing while rivals release and re-acquire under it. A probe
//!   budget of `8k² + 8` converts that liveness argument into a loud
//!   tripwire panic (same device as the `crate::tas` baseline's scan
//!   budget) — never observed under exhaustive checking or stress.
//!
//! Uncontended acquire is therefore **one shared access** (first probe
//! wins) and release always one — the O(1) fast path that makes the
//! LevelArray the head-to-head speed benchmark for E6/E11.
//!
//! # The swap extension, loudly
//!
//! The LevelArray is **not** a read/write protocol: claim bits are taken
//! with an atomic exchange ([`Memory::swap`], test-and-set on a boolean).
//! That is the entire point of benchmarking it — the paper's protocols
//! buy read/write portability with name-space and step complexity, and
//! this rival shows what a single stronger primitive wins back. Unlike the
//! raw `crate::tas` baseline, the LevelArray runs *inside* the substrate:
//! same [`Layout`], same access accounting (a swap counts one read + one
//! write), same step machines, and the model checker explores it exactly
//! like the read/write protocols ([`spec`]).
//!
//! # Crash behaviour
//!
//! The successful swap is the acquire's **only** mutating access, and it
//! completes the acquire in the same step. A crash mid-acquire therefore
//! leaves *zero* partial marks (failed probes write nothing); a crash
//! while holding (or mid-release, before the clear) leaves the claimed bit
//! set forever — the name stays reserved, which is exactly the
//! [`crash_robust_uniqueness`](crate::session::crash_robust_uniqueness)
//! contract. The LevelArray is the only long-lived core in this crate
//! whose mid-acquire crashes burn no capacity at all
//! (`tests/crash_tolerance.rs` pins this).
//!
//! # Example
//!
//! ```
//! use llr_core::levelarray::LevelArray;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! let la = LevelArray::new(4);
//! let mut h = la.handle(123_456_789);
//! let name = h.acquire();
//! assert!(name < la.dest_size()); // D = 4+2+1 + 4 reserve = 11 names
//! h.release();
//! assert_eq!(h.accesses(), 3); // 1 swap (= read+write) + 1 clear
//! ```

use crate::session::{Handle, ProtocolCore};
use crate::traits::Renaming;
use crate::types::enc::{FALSE, TRUE};
use crate::types::{Name, Pid};
use llr_mc::Footprint;
use llr_mem::{AtomicMemory, Layout, Loc, MemPolicy, Memory, Word};
use std::sync::Arc;

/// Probes per non-reserve level before descending. Two is enough to make
/// same-level collisions transient (distinct pids start at distinct
/// hashed offsets) while keeping the worst-case descent `O(k)` probes.
pub const PROBES: usize = 2;

/// One level's claim bits: `width` consecutive registers starting at
/// `first`, naming `base..base+width`.
#[derive(Clone, Debug)]
struct LevelRegs {
    first: Loc,
    width: usize,
    base: Name,
}

impl LevelRegs {
    fn slot(&self, j: usize) -> Loc {
        debug_assert!(j < self.width);
        Loc(self.first.0 + j as u32)
    }
}

/// The static shape of a LevelArray: the level widths and their claim-bit
/// registers. Cheap to clone (the levels live behind an `Arc`).
#[derive(Clone, Debug)]
pub struct LevelShape {
    k: usize,
    /// Geometric levels followed by the width-`k` reserve level.
    levels: Arc<[LevelRegs]>,
    dest: u64,
}

impl LevelShape {
    /// Allocates the level arrays in `layout`: widths `k, ⌈k/2⌉, …, 1`
    /// plus the reserve level of exactly `k` bits, all initially `FALSE`.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    pub fn build(k: usize, layout: &mut Layout) -> Self {
        assert!(k >= 1, "concurrency bound k must be at least 1");
        let mut levels = Vec::new();
        let mut base = 0u64;
        let mut width = k;
        let mut level = 0;
        loop {
            let arr = layout.array(format!("L{level}"), width, FALSE);
            levels.push(LevelRegs {
                first: arr.at(0),
                width,
                base,
            });
            base += width as u64;
            if width == 1 {
                break;
            }
            width = width.div_ceil(2);
            level += 1;
        }
        let arr = layout.array("RESERVE", k, FALSE);
        levels.push(LevelRegs {
            first: arr.at(0),
            width: k,
            base,
        });
        let dest = base + k as u64;
        Self {
            k,
            levels: levels.into(),
            dest,
        }
    }

    /// The concurrency bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total names, `D ≤ 3k + log₂k`.
    pub fn dest_size(&self) -> u64 {
        self.dest
    }

    /// Index of the reserve level (the last one).
    fn reserve(&self) -> usize {
        self.levels.len() - 1
    }

    /// Deterministic start offset of `pid` in level `lvl` — a SplitMix64
    /// finalizer over `(pid, lvl)`, so distinct pids spread over distinct
    /// slots and the solo fast path is stable.
    fn start(&self, pid: Pid, lvl: usize) -> usize {
        let mut z = pid ^ ((lvl as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.levels[lvl].width as u64) as usize
    }

    /// The register and name of probe target `(lvl, j-th offset)`.
    fn target(&self, pid: Pid, lvl: usize, probe: usize) -> (Loc, Name) {
        let level = &self.levels[lvl];
        let j = (self.start(pid, lvl) + probe) % level.width;
        (level.slot(j), level.base + j as u64)
    }
}

/// Reserve-level probe budget: the wait-freedom tripwire (see module
/// docs). Failing it means more than `k` concurrent participants or a
/// liveness bug, and the panic makes either loud instead of silent.
fn reserve_budget(k: usize) -> u32 {
    (8 * k * k + 8) as u32
}

/// LevelArray `GetName` as a step machine: one swap probe per step.
#[derive(Clone, Debug)]
pub struct LevelAcquire {
    lvl: usize,
    probe: usize,
    budget: u32,
}

/// What a holder keeps: the claimed name and its claim-bit register.
#[derive(Clone, Debug)]
pub struct LevelToken {
    name: Name,
    slot: Loc,
}

/// LevelArray `ReleaseName`: one clearing write.
#[derive(Clone, Debug)]
pub struct LevelRelease {
    slot: Loc,
}

/// The LevelArray's per-process [`ProtocolCore`]: shape + pid.
#[derive(Clone, Debug)]
pub struct LevelArrayCore {
    shape: LevelShape,
    pid: Pid,
}

impl LevelArrayCore {
    /// A core for process `pid` on the level arrays described by `shape`.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::levelarray::{LevelArrayCore, LevelShape};
    /// use llr_core::session::Session;
    /// use llr_mem::Layout;
    ///
    /// let mut layout = Layout::new();
    /// let shape = LevelShape::build(3, &mut layout);
    /// let user = Session::start(LevelArrayCore::new(shape, 42), 2);
    /// assert_eq!(user.core().pid(), 42);
    /// # use llr_core::session::ProtocolCore;
    /// ```
    pub fn new(shape: LevelShape, pid: Pid) -> Self {
        Self { shape, pid }
    }

    /// The probe target of an in-flight acquire.
    fn current(&self, a: &LevelAcquire) -> (Loc, Name) {
        self.shape.target(self.pid, a.lvl, a.probe)
    }

    /// Advances `a` past a failed probe.
    fn advance(&self, a: &mut LevelAcquire) {
        let reserve = self.shape.reserve();
        if a.lvl == reserve {
            a.probe += 1; // cyclic: `target` wraps modulo the width
            a.budget -= 1;
            assert!(
                a.budget > 0,
                "LevelArray wait-freedom tripwire: p{} exhausted {} reserve \
                 probes — more than k = {} concurrent participants?",
                self.pid,
                reserve_budget(self.shape.k),
                self.shape.k
            );
        } else if a.probe + 1 < PROBES.min(self.shape.levels[a.lvl].width) {
            a.probe += 1;
        } else {
            a.lvl += 1;
            a.probe = 0;
        }
    }
}

impl ProtocolCore for LevelArrayCore {
    type Acquire = LevelAcquire;
    type Token = LevelToken;
    type Release = LevelRelease;

    // Idle → Acquiring is a pure local transition; the first probe's swap
    // is its own scheduled step.
    const LAZY_START: bool = true;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn begin_acquire(&self) -> LevelAcquire {
        LevelAcquire {
            lvl: 0,
            probe: 0,
            budget: reserve_budget(self.shape.k),
        }
    }

    fn step_acquire<M: Memory + ?Sized>(
        &self,
        a: &mut LevelAcquire,
        mem: &M,
    ) -> Option<LevelToken> {
        let (slot, name) = self.current(a);
        if mem.swap(slot, TRUE) == FALSE {
            // The winning swap is the whole acquire: the bit is ours and
            // the name is `slot`'s.
            Some(LevelToken { name, slot })
        } else {
            self.advance(a);
            None
        }
    }

    fn begin_release(&self, token: LevelToken) -> LevelRelease {
        LevelRelease { slot: token.slot }
    }

    fn step_release<M: Memory + ?Sized>(&self, r: &mut LevelRelease, mem: &M) -> bool {
        // The release's single (and final) access to the object: the
        // release-path store class of the ordering policy.
        mem.write_rel(r.slot, FALSE);
        true
    }

    fn token_name(&self, token: &LevelToken) -> Option<Name> {
        Some(token.name)
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn key_acquire(&self, a: &LevelAcquire, out: &mut Vec<Word>) {
        out.push(a.lvl as u64);
        out.push(a.probe as u64);
        out.push(a.budget as u64);
    }

    fn key_token(&self, t: &LevelToken, out: &mut Vec<Word>) {
        // The name determines the slot bijectively.
        out.push(t.name);
    }

    fn key_release(&self, r: &LevelRelease, out: &mut Vec<Word>) {
        out.push(r.slot.index() as u64);
    }

    fn acquire_footprint(&self, a: &LevelAcquire, fp: &mut Footprint) -> bool {
        let (slot, _) = self.current(a);
        // A swap is one read + one write of the probed bit, and any probe
        // may win (completion is data-dependent).
        fp.read(slot);
        fp.write(slot);
        true
    }

    fn release_footprint(&self, r: &LevelRelease, fp: &mut Footprint) -> bool {
        fp.write(r.slot);
        true
    }

    fn future_footprint(&self, fp: &mut Footprint) {
        // Probes can land on any claim bit over a lifetime of sessions.
        for level in self.shape.levels.iter() {
            for j in 0..level.width {
                let s = level.slot(j);
                fp.future_read(s);
                fp.future_write(s);
            }
        }
    }

    fn release_future_footprint(&self, r: &LevelRelease, fp: &mut Footprint) {
        // A final-session release touches exactly its own claim bit.
        fp.future_write(r.slot);
    }

    fn describe_acquire(&self, a: &LevelAcquire) -> String {
        format!("LaAcquire@L{}+{}", a.lvl, a.probe)
    }

    fn describe_token(&self, t: &LevelToken) -> String {
        format!("Holding({})", t.name)
    }

    fn describe_release(&self, r: &LevelRelease) -> String {
        format!("LaRelease(slot {})", r.slot.index())
    }
}

/// The LevelArray long-lived renaming object: `D = O(k)` names, O(1)
/// uncontended acquire and O(1) release — at the price of test-and-set
/// claim bits (see the module docs).
#[derive(Debug)]
pub struct LevelArray {
    shape: LevelShape,
    mem: AtomicMemory,
}

impl LevelArray {
    /// Creates a LevelArray for at most `k` concurrent processes.
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use llr_core::levelarray::LevelArray;
    /// use llr_core::traits::Renaming;
    ///
    /// let la = LevelArray::new(8);
    /// assert_eq!(la.dest_size(), 8 + 4 + 2 + 1 + 8); // levels + reserve
    /// assert_eq!(la.concurrency(), 8);
    /// ```
    pub fn new(k: usize) -> Self {
        Self::with_mem_policy(k, MemPolicy::default())
    }

    /// Creates a LevelArray with an explicit [`MemPolicy`] — the E11
    /// ablation hook, as on [`crate::split::Split::with_mem_policy`].
    ///
    /// # Panics
    ///
    /// Panics if `k = 0`.
    pub fn with_mem_policy(k: usize, policy: MemPolicy) -> Self {
        let mut layout = Layout::new();
        let shape = LevelShape::build(k, &mut layout);
        layout.set_policy(policy);
        let mem = AtomicMemory::new(&layout);
        Self { shape, mem }
    }

    /// The level shape (for building custom drivers/model checks).
    pub fn shape(&self) -> &LevelShape {
        &self.shape
    }
}

impl Renaming for LevelArray {
    type Handle<'a> = LevelArrayHandle<'a>;

    fn handle(&self, pid: Pid) -> LevelArrayHandle<'_> {
        Handle::new(LevelArrayCore::new(self.shape.clone(), pid), &self.mem)
    }

    fn source_size(&self) -> u64 {
        // Cost and correctness are independent of S: any 64-bit pid.
        u64::MAX
    }

    fn dest_size(&self) -> u64 {
        self.shape.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.shape.k
    }
}

/// Process handle on a [`LevelArray`]: the generic session handle driving
/// [`LevelArrayCore`]'s machines.
pub type LevelArrayHandle<'a> = Handle<'a, LevelArrayCore>;

pub mod spec {
    //! Model-checkable specification of the LevelArray. The session loop,
    //! key encoding, and invariants are the generic ones from
    //! [`crate::session`]; the checker explores every interleaving of the
    //! swap probes exactly as it does read/write steps (a probe is one
    //! atomic transition either way).

    use super::*;
    use crate::session::{run_check, Engine, Session};
    use llr_mc::{CheckStats, ModelChecker, Violation, World};

    /// A process running repeated LevelArray sessions: the generic session
    /// machine over [`LevelArrayCore`].
    pub type LevelArrayUser = Session<LevelArrayCore>;

    /// No two holders share a name, and all names are below `D` — the
    /// generic [`crate::session::unique_names_invariant`].
    pub fn unique_names_invariant(world: &World<'_, LevelArrayUser>) -> Result<(), String> {
        crate::session::unique_names_invariant(world)
    }

    /// Builds the model checker for `pids.len() ≤ k` processes running
    /// `sessions` acquire/release cycles each (shared by the exhaustive
    /// tests and the E2/E12 drivers).
    pub fn checker(k: usize, pids: &[Pid], sessions: u8) -> ModelChecker<LevelArrayUser> {
        assert!(pids.len() <= k, "more processes than the concurrency bound");
        let mut layout = Layout::new();
        let shape = LevelShape::build(k, &mut layout);
        let machines: Vec<LevelArrayUser> = pids
            .iter()
            .map(|&p| Session::start(LevelArrayCore::new(shape.clone(), p), sessions))
            .collect();
        ModelChecker::new(layout, machines)
    }

    /// Exhaustively checks name uniqueness for `pids.len() ≤ k` processes
    /// over `sessions` cycles each.
    ///
    /// # Errors
    ///
    /// Returns the violating schedule if two processes can hold the same
    /// name.
    pub fn check_levelarray(
        k: usize,
        pids: &[Pid],
        sessions: u8,
    ) -> Result<CheckStats, Box<Violation>> {
        run_check(
            checker(k, pids, sessions),
            &Engine::Sequential,
            unique_names_invariant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{stress, StressConfig};
    use crate::traits::RenamingHandle;

    #[test]
    fn shape_widths_and_dest() {
        let mut layout = Layout::new();
        let s = LevelShape::build(4, &mut layout);
        let widths: Vec<usize> = s.levels.iter().map(|l| l.width).collect();
        assert_eq!(widths, vec![4, 2, 1, 4]);
        assert_eq!(s.dest_size(), 11);
        let mut layout = Layout::new();
        let s = LevelShape::build(1, &mut layout);
        let widths: Vec<usize> = s.levels.iter().map(|l| l.width).collect();
        assert_eq!(widths, vec![1, 1]);
        assert_eq!(s.dest_size(), 2);
    }

    #[test]
    fn solo_cycle_is_two_steps() {
        let la = LevelArray::new(4);
        let mut h = la.handle(99);
        let n = h.acquire();
        assert!(n < la.dest_size());
        assert_eq!(h.held(), Some(n));
        h.release();
        // 1 swap (read+write) + 1 clearing write.
        assert_eq!(h.accesses(), 3);
        // The solo fast path is stable: same pid, same name.
        let n2 = h.acquire();
        assert_eq!(n2, n);
        h.release();
    }

    #[test]
    fn sequential_cycles_stay_in_range() {
        let la = LevelArray::new(3);
        let (names, max_acc) = crate::traits::test_support::sequential_cycle(&la, &[5, 17, 4096]);
        assert!(names.iter().all(|&n| n < la.dest_size()));
        // Solo cycles: one winning swap + one clear each.
        assert_eq!(max_acc, 3);
    }

    #[test]
    fn k_concurrent_holders_all_served() {
        // k holders acquire without releasing: all distinct, all in range
        // — the reserve level guarantees the k-th.
        let la = LevelArray::new(4);
        let mut handles: Vec<_> = (0..4u64).map(|i| la.handle(i * 3 + 1)).collect();
        let names: Vec<Name> = handles.iter_mut().map(|h| h.acquire()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 4, "duplicate names: {names:?}");
        assert!(names.iter().all(|&n| n < la.dest_size()));
        for h in &mut handles {
            h.release();
        }
    }

    #[test]
    fn stress_full_contention() {
        let la = LevelArray::new(8);
        let report = stress(
            &la,
            &StressConfig {
                pids: (0..8).map(|i| i * 999_999_937 + 13).collect(),
                concurrency: 8,
                ops_per_thread: 400,
                dwell_spins: 20,
                seed: 11,
            },
        );
        assert_eq!(report.violations, 0);
        assert!(report.max_name < la.dest_size());
        // Worst case: full descent + a few reserve scans, plus 1 release.
        assert!(report.max_accesses_per_op <= 2 * (8 * 8 * 8 + 8) as u64);
    }

    #[test]
    fn exhaustive_small_configs() {
        // State spaces are tiny compared to the read/write protocols:
        // a swap-based claim makes the whole acquire 1-2 steps.
        let stats = spec::check_levelarray(2, &[0, 1], 2).unwrap();
        assert!(stats.states > 20, "states={}", stats.states);
        let stats = spec::check_levelarray(3, &[2, 9, 77], 2).unwrap();
        assert!(stats.states > 50, "states={}", stats.states);
    }

    #[test]
    #[should_panic(expected = "wait-freedom tripwire")]
    fn oversubscription_trips_the_budget() {
        // Sequential acquirers without releases can claim every one of
        // the D = 5 bits of a k = 2 array (each probe sequence covers all
        // levels); the next acquirer must exhaust the reserve budget
        // loudly instead of spinning forever.
        let la = LevelArray::new(2);
        let mut handles: Vec<_> = (1..=6u64).map(|p| la.handle(p)).collect();
        for h in &mut handles {
            h.acquire();
        }
    }
}
