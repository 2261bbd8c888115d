//! Randomized-schedule testing over the protocols' model-checkable
//! specifications. Exhaustive checking covers tiny configurations
//! completely; these tests sample much larger ones.
//!
//! The workspace builds fully offline, so instead of proptest these are
//! deterministic seeded sweeps: a [`SplitMix64`] stream drives both the
//! per-case configuration draw and the schedule sampling, so every
//! failure is reproducible from the constant seeds below.

use llr_core::filter::spec as filter_spec;
use llr_core::levelarray::spec as la_spec;
use llr_core::ma::spec as ma_spec;
use llr_core::onetime::spec as onetime_spec;
use llr_core::split::spec as split_spec;
use llr_core::split::SplitShape;
use llr_core::splitter::spec as splitter_spec;
use llr_core::splitter::SplitterRegs;
use llr_core::tournament::spec as tree_spec;
use llr_core::tournament::TreeShape;
use llr_gf::FilterParams;
use llr_mc::{independent, Footprint, ModelChecker, SplitMix64, StepMachine};
use llr_mem::{Layout, SimMemory, Word};

const CASES: usize = 24;

/// Splitter output-set invariant under random schedules with 3–5
/// processes and arbitrary initial advice registers.
#[test]
fn splitter_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0001);
    for _ in 0..CASES {
        let ell = 3 + gen.next_index(3); // 3..=5
        let sessions = 1 + gen.next_below(3) as u8; // 1..=3
        let init_a1 = gen.next_below(3); // 0..=2
        let init_a2 = [0u64, 2][gen.next_index(2)];
        let seed = gen.next_u64();

        let mut layout = Layout::new();
        let regs = SplitterRegs::allocate(&mut layout, "B");
        layout.set_initial(regs.a1, init_a1);
        layout.set_initial(regs.a2, init_a2);
        let machines: Vec<_> = (0..ell as u64)
            .map(|p| splitter_spec::SplitterUser::new(p, regs, sessions))
            .collect();
        let mc = ModelChecker::new(layout, machines);
        mc.random_walks(splitter_spec::output_set_invariant, 40, 100_000, seed)
            .unwrap_or_else(|v| {
                panic!("ell={ell} sessions={sessions} a1={init_a1} a2={init_a2}: {v}")
            });
    }
}

/// SPLIT name uniqueness under random schedules at larger k than the
/// exhaustive tests can afford.
#[test]
fn split_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0002);
    for _ in 0..CASES {
        let k = 3 + gen.next_index(3); // 3..=5
        let seed = gen.next_u64();

        let mut layout = Layout::new();
        let shape = SplitShape::build(k, &mut layout);
        let machines: Vec<_> = (0..k as u64)
            .map(|i| split_spec::SplitUser::new(shape.clone(), i * 999_983 + 1, 2))
            .collect();
        let mc = ModelChecker::new(layout, machines);
        mc.random_walks(split_spec::unique_names_invariant, 25, 200_000, seed)
            .unwrap_or_else(|v| panic!("k={k}: {v}"));
    }
}

/// Tournament-tree root exclusion with 2–8 processes in a 16-leaf tree.
#[test]
fn tournament_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0003);
    let mut done = 0usize;
    while done < CASES {
        let mask = 1 + gen.next_below((1 << 8) - 1) as u16;
        let participants: Vec<u64> = (0..8u64).filter(|&p| mask & (1 << p) != 0).collect();
        if participants.len() < 2 {
            continue; // rejected draw, like prop_assume!
        }
        let seed = gen.next_u64();
        done += 1;

        let mut layout = Layout::new();
        let shape = TreeShape::build(&mut layout, "T", 16, &participants);
        let machines: Vec<_> = participants
            .iter()
            .map(|&p| tree_spec::TreeUser::new(shape.clone(), p, 2))
            .collect();
        let mc = ModelChecker::new(layout, machines);
        mc.random_walks(tree_spec::root_exclusion, 25, 200_000, seed)
            .unwrap_or_else(|v| panic!("participants={participants:?}: {v}"));
    }
}

/// Draws a sorted `want`-element subsequence of `0..n` (the offline
/// stand-in for proptest's `subsequence` strategy).
fn draw_pids(gen: &mut SplitMix64, n: u64, want: usize) -> Vec<u64> {
    let mut pids: Vec<u64> = Vec::with_capacity(want);
    while pids.len() < want {
        let p = gen.next_below(n);
        if !pids.contains(&p) {
            pids.push(p);
        }
    }
    pids.sort_unstable();
    pids
}

/// FILTER uniqueness + block exclusion with 3 processes over GF(5).
#[test]
fn filter_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0004);
    for _ in 0..CASES {
        let pids = draw_pids(&mut gen, 24, 3);
        let seed = gen.next_u64();

        // k = 3, d = 1, z = 5: S ≤ 25, N_p of size 4, D = 20.
        let params = FilterParams::new(3, 25, 1, 5).unwrap();
        let mut layout = Layout::new();
        let shape = llr_core::filter::FilterShape::build(params, &pids, &mut layout).unwrap();
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| filter_spec::FilterUser::new(shape.clone(), p, 2))
            .collect();
        let mc = ModelChecker::new(layout, machines);
        let inv = |w: &llr_mc::World<'_, filter_spec::FilterUser>| {
            filter_spec::unique_names_invariant(w)?;
            filter_spec::block_exclusion_invariant(w)
        };
        mc.random_walks(inv, 20, 400_000, seed)
            .unwrap_or_else(|v| panic!("pids={pids:?}: {v}"));
    }
}

/// Steps machines `i` and `j` (clones) in the given order from the
/// current memory state and returns the resulting joint state: register
/// contents, both machines' keys, and both done flags.
fn run_pair<M: StepMachine>(
    mem: &SimMemory,
    machines: &[M],
    i: usize,
    j: usize,
    i_first: bool,
) -> (Vec<Word>, Vec<u64>, Vec<u64>, bool, bool) {
    let mut mi = machines[i].clone();
    let mut mj = machines[j].clone();
    let (di, dj) = if i_first {
        let di = mi.step(mem).is_done();
        (di, mj.step(mem).is_done())
    } else {
        let dj = mj.step(mem).is_done();
        (mi.step(mem).is_done(), dj)
    };
    let (mut ki, mut kj) = (Vec::new(), Vec::new());
    mi.key(&mut ki);
    mj.key(&mut kj);
    (mem.snapshot(), ki, kj, di, dj)
}

/// Walks a random schedule and, at every visited state, verifies the
/// diamond property for each pair of running machines whose declared
/// footprints [`independent`] flags as independent: stepping them in
/// either order must land in the same joint state. This is the exact
/// commutation fact the ample-set construction in `llr-mc/src/por.rs`
/// relies on. Returns how many diamonds were closed so the caller can
/// reject a vacuous run.
fn check_diamonds<M: StepMachine>(
    label: &str,
    mc: &ModelChecker<M>,
    gen: &mut SplitMix64,
    max_steps: usize,
) -> usize {
    let (mem, mut machines, mut done) = mc.run_schedule(&[]);
    let mut diamonds = 0usize;
    for _ in 0..max_steps {
        let running: Vec<usize> = (0..machines.len()).filter(|&i| !done[i]).collect();
        if running.is_empty() {
            break;
        }
        for (a, &i) in running.iter().enumerate() {
            for &j in &running[a + 1..] {
                let mut fi = Footprint::new();
                machines[i].footprint(&mut fi);
                let mut fj = Footprint::new();
                machines[j].footprint(&mut fj);
                if !independent(&fi, &fj) {
                    continue;
                }
                diamonds += 1;
                let snap = mem.snapshot();
                let ij = run_pair(&mem, &machines, i, j, true);
                mem.restore(&snap);
                let ji = run_pair(&mem, &machines, i, j, false);
                mem.restore(&snap);
                assert_eq!(
                    ij,
                    ji,
                    "{label}: steps of machines {i} [{}] and {j} [{}] were declared \
                     independent but do not commute",
                    machines[i].describe(),
                    machines[j].describe()
                );
            }
        }
        let i = running[gen.next_index(running.len())];
        if machines[i].step(&mem).is_done() {
            done[i] = true;
        }
    }
    diamonds
}

/// The diamond property behind partial-order reduction, checked on
/// random reachable states of every family that declares footprints.
#[test]
fn independent_steps_commute() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0006);
    let mut diamonds = 0usize;
    for _ in 0..8 {
        let init_a1 = gen.next_below(3);
        diamonds += check_diamonds(
            "splitter ℓ=3",
            &splitter_spec::checker(3, 2, 0, init_a1, 2),
            &mut gen,
            200,
        );
        diamonds += check_diamonds("SPLIT k=3", &split_spec::checker(3, 3, 2), &mut gen, 200);
        diamonds += check_diamonds(
            "tournament S=8",
            &tree_spec::checker(8, &[1, 4, 6], 2),
            &mut gen,
            200,
        );
        let gf5 = FilterParams::new(3, 25, 1, 5).unwrap();
        diamonds += check_diamonds(
            "FILTER gf5",
            &filter_spec::checker(gf5, &[2, 7, 12], 2),
            &mut gen,
            200,
        );
        diamonds += check_diamonds(
            "MA k=3",
            &ma_spec::checker(3, 4, &[0, 1, 3], 2),
            &mut gen,
            200,
        );
        // Hashed probe starts make most LevelArray slot pairs disjoint —
        // a swap (read+write of one slot) must still commute with its
        // independent peers.
        diamonds += check_diamonds(
            "LevelArray k=4",
            &la_spec::checker(4, &[1, 5, 9, 13], 2),
            &mut gen,
            200,
        );
        diamonds += check_diamonds(
            "small net ℓ=3",
            &onetime_spec::small_net_checker(3, &[0, 1, 2, 3]),
            &mut gen,
            200,
        );
    }
    assert!(
        diamonds > 1_000,
        "the sweep closed only {diamonds} diamonds — the independence \
         relation has gone vacuous"
    );
}

/// One seeded schedule with 0–2 injected crash–restarts, run
/// differentially: a fault-free mirror world takes *identical* scheduling
/// choices, and until the first crash fires the two worlds must agree
/// exactly — register file, every machine's key, every done flag. From
/// the first crash on, the faulty world is on its own and must satisfy
/// [`crash_robust_uniqueness`] at every visited state.
///
/// Returns the number of crashes actually injected.
fn crash_differential<P: llr_core::session::ProtocolCore>(
    label: &str,
    layout: &Layout,
    machines: Vec<llr_core::session::Session<P>>,
    gen: &mut SplitMix64,
    max_steps: usize,
) -> usize {
    use llr_core::session::{crash_robust_uniqueness, Fault};

    let mem_f = SimMemory::new(layout);
    let mem_c = SimMemory::new(layout);
    let mut faulty = machines.clone();
    let mut clean = machines;
    let n = faulty.len();
    let mut done_f = vec![false; n];
    let mut done_c = vec![false; n];

    // Draw crash points from the early quarter of the step budget: the
    // budget is sized for the *post-crash* tail (restarted incarnations
    // redo all their sessions), and worlds quiesce well before it runs
    // out, so a uniform draw would mostly land after quiescence.
    let mut crash_at: Vec<usize> = (0..gen.next_index(3))
        .map(|_| gen.next_index(max_steps / 4))
        .collect();
    crash_at.sort_unstable();
    crash_at.dedup();
    let mut injected = 0usize;

    let keys = |ms: &[llr_core::session::Session<P>]| -> Vec<Vec<Word>> {
        ms.iter()
            .map(|m| {
                let mut k = Vec::new();
                m.key(&mut k);
                k
            })
            .collect()
    };

    for step in 0..max_steps {
        if injected == 0 {
            // The untouched prefix: fault-free and faulty worlds are
            // bit-identical.
            assert_eq!(
                mem_f.snapshot(),
                mem_c.snapshot(),
                "{label}: prefix registers diverged at step {step}"
            );
            assert_eq!(
                keys(&faulty),
                keys(&clean),
                "{label}: prefix machine state diverged at step {step}"
            );
            assert_eq!(
                done_f, done_c,
                "{label}: prefix done flags diverged at step {step}"
            );
        }
        let running: Vec<usize> = (0..n).filter(|&i| !done_f[i]).collect();
        if running.is_empty() {
            break;
        }
        let i = running[gen.next_index(running.len())];
        if crash_at.binary_search(&step).is_ok() {
            done_f[i] = faulty[i].inject(Fault::CrashRestart).is_done();
            injected += 1;
        } else {
            done_f[i] = faulty[i].step(&mem_f).is_done();
            if injected == 0 {
                done_c[i] = clean[i].step(&mem_c).is_done();
            }
        }
        let world = llr_mc::World {
            mem: &mem_f,
            machines: &faulty,
            done: &done_f,
        };
        crash_robust_uniqueness(&world).unwrap_or_else(|msg| panic!("{label}: step {step}: {msg}"));
    }
    injected
}

/// More than 500 independent crash–restart schedules across five
/// protocol families, each provisioned so live incarnations + crash
/// ghosts never exceed the protocol's concurrency bound (k = 4 serving
/// 2 live machines: up to 2 crashes leave at most 4 participants).
#[test]
fn crash_schedules_differential() {
    use llr_core::filter::FilterCore;
    use llr_core::levelarray::{LevelArrayCore, LevelShape};
    use llr_core::ma::{MaCore, MaShape};
    use llr_core::onetime::{OneTimeCore, OneTimeShape};
    use llr_core::session::Session;
    use llr_core::split::SplitCore;

    const SCHEDULES_PER_FAMILY: usize = 110;
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0007);
    let mut schedules = 0usize;
    let mut crashes = 0usize;

    // SPLIT k = 4, 2 live + 2 spares each.
    let mut layout = Layout::new();
    let split_shape = SplitShape::build(4, &mut layout);
    for _ in 0..SCHEDULES_PER_FAMILY {
        let machines: Vec<_> = [1u64, 1_000]
            .iter()
            .map(|&p| {
                Session::start(SplitCore::new(split_shape.clone(), p), 2).with_spares(vec![
                    SplitCore::new(split_shape.clone(), p + 2_000),
                    SplitCore::new(split_shape.clone(), p + 4_000),
                ])
            })
            .collect();
        crashes += crash_differential("SPLIT k=4", &layout, machines, &mut gen, 200);
        schedules += 1;
    }

    // MA k = 4, S = 8, 2 live + 2 spares each (all pids distinct).
    let mut layout = Layout::new();
    let ma_shape = MaShape::build(4, 8, &mut layout);
    for _ in 0..SCHEDULES_PER_FAMILY {
        let machines: Vec<_> = [(0u64, [1u64, 2]), (4, [5, 6])]
            .iter()
            .map(|&(p, spares)| {
                Session::start(MaCore::new(ma_shape.clone(), p), 2).with_spares(
                    spares
                        .iter()
                        .map(|&q| MaCore::new(ma_shape.clone(), q))
                        .collect(),
                )
            })
            .collect();
        crashes += crash_differential("MA k=4 S=8", &layout, machines, &mut gen, 300);
        schedules += 1;
    }

    // FILTER k = 4 (two_k_four), 2 live + 1 spare each; a second crash
    // of the same slot degrades to a freeze, which is also a legal fault.
    let params = FilterParams::two_k_four(4).unwrap();
    let mut layout = Layout::new();
    let filter_shape =
        llr_core::filter::FilterShape::build(params, &[1, 6, 11, 16], &mut layout).unwrap();
    for _ in 0..SCHEDULES_PER_FAMILY {
        let machines: Vec<_> = [(1u64, 11u64), (6, 16)]
            .iter()
            .map(|&(p, spare)| {
                Session::start(FilterCore::new(filter_shape.clone(), p), 1)
                    .with_spares(vec![FilterCore::new(filter_shape.clone(), spare)])
            })
            .collect();
        crashes += crash_differential("FILTER 2k-4", &layout, machines, &mut gen, 400);
        schedules += 1;
    }

    // LevelArray k = 4, 2 live + 2 spares each: a crash mid-acquire
    // burns no capacity (failed probes leave no marks); a crash while
    // Holding leaks the bit, which `crash_robust_uniqueness` accounts as
    // a claim.
    let mut layout = Layout::new();
    let la_shape = LevelShape::build(4, &mut layout);
    for _ in 0..SCHEDULES_PER_FAMILY {
        let machines: Vec<_> = [3u64, 9_000]
            .iter()
            .map(|&p| {
                Session::start(LevelArrayCore::new(la_shape.clone(), p), 2).with_spares(vec![
                    LevelArrayCore::new(la_shape.clone(), p + 20_000),
                    LevelArrayCore::new(la_shape.clone(), p + 40_000),
                ])
            })
            .collect();
        crashes += crash_differential("LevelArray k=4", &layout, machines, &mut gen, 200);
        schedules += 1;
    }

    // Small network ℓ = 3 (4 entrants), 2 live + 1 spare each: a
    // restarted incarnation is a *new entrant*, so live + spares must
    // stay within the network's capacity.
    let mut layout = Layout::new();
    let net_shape = OneTimeShape::small_net(3, &mut layout);
    for _ in 0..SCHEDULES_PER_FAMILY {
        let machines: Vec<_> = [0u64, 1]
            .iter()
            .map(|&p| {
                Session::start(OneTimeCore::new(net_shape.clone(), p), 1)
                    .with_spares(vec![OneTimeCore::new(net_shape.clone(), p + 2)])
            })
            .collect();
        crashes += crash_differential("small net ℓ=3", &layout, machines, &mut gen, 200);
        schedules += 1;
    }

    assert!(schedules > 500, "only {schedules} schedules ran");
    assert!(
        crashes > schedules / 2,
        "only {crashes} crashes across {schedules} schedules — injection gone vacuous"
    );
}

/// LevelArray uniqueness at k = 3..=5 with random sparse pids — larger
/// than the exhaustive configurations, every claim a swap.
#[test]
fn levelarray_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0008);
    for _ in 0..CASES {
        let k = 3 + gen.next_index(3); // 3..=5
        let sessions = 1 + gen.next_below(2) as u8; // 1..=2
        let salt = gen.next_below(1 << 20);
        let pids: Vec<u64> = (0..k as u64).map(|i| i * 999_999_937 + salt).collect();
        let seed = gen.next_u64();
        la_spec::checker(k, &pids, sessions)
            .random_walks(la_spec::unique_names_invariant, 25, 200_000, seed)
            .unwrap_or_else(|v| panic!("k={k} sessions={sessions} salt={salt}: {v}"));
    }
}

/// Small-network one-shot uniqueness at depths the exhaustive tests
/// cannot afford, with full and partial occupancy.
#[test]
fn smallnet_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0009);
    for _ in 0..CASES {
        let ell = 3 + gen.next_index(3); // 3..=5
        let entrants = 2 + gen.next_index(ell); // 2..=ℓ+1
        let pids = draw_pids(&mut gen, 64, entrants);
        let seed = gen.next_u64();
        onetime_spec::small_net_checker(ell, &pids)
            .random_walks(onetime_spec::unique_names_invariant, 25, 200_000, seed)
            .unwrap_or_else(|v| panic!("ℓ={ell} pids={pids:?}: {v}"));
    }
}

/// MA grid uniqueness with 3 processes and random pids.
#[test]
fn ma_random_walks() {
    let mut gen = SplitMix64::new(0x5EED_5917_7E55_0005);
    for _ in 0..CASES {
        let pids = draw_pids(&mut gen, 8, 3);
        let seed = gen.next_u64();

        let mut layout = Layout::new();
        let shape = llr_core::ma::MaShape::build(3, 8, &mut layout);
        let machines: Vec<_> = pids
            .iter()
            .map(|&p| ma_spec::MaUser::new(shape.clone(), p, 2))
            .collect();
        let mc = ModelChecker::new(layout, machines);
        mc.random_walks(ma_spec::unique_names_invariant, 25, 200_000, seed)
            .unwrap_or_else(|v| panic!("pids={pids:?}: {v}"));
    }
}
