//! Cross-cutting unit tests for the BDD package: a brute-force truth-table
//! oracle over few variables, exercising all operations together.

use crate::{Bdd, Budget, Manager, Resource, VarId};

/// Build every assignment of `n` variables.
fn assignments(n: usize) -> Vec<Vec<bool>> {
    (0..1usize << n).map(|bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect()).collect()
}

/// A tiny deterministic LCG that drives every random test of the BDD
/// package against its truth-table oracle.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

type BoolOracle = Box<dyn Fn(&[bool]) -> bool>;

/// Evaluate the same random expression with BDDs and with plain bools.
fn random_expr(m: &mut Manager, vars: &[VarId], rng: &mut Lcg, depth: u32) -> (Bdd, BoolOracle) {
    if depth == 0 || rng.next().is_multiple_of(4) {
        let i = (rng.next() as usize) % vars.len();
        let v = vars[i];
        return (m.var(v), Box::new(move |a: &[bool]| a[v.0 as usize]));
    }
    match rng.next() % 5 {
        0 => {
            let (f, ef) = random_expr(m, vars, rng, depth - 1);
            (m.not(f), Box::new(move |a: &[bool]| !ef(a)))
        }
        1 => {
            let (f, ef) = random_expr(m, vars, rng, depth - 1);
            let (g, eg) = random_expr(m, vars, rng, depth - 1);
            (m.and(f, g), Box::new(move |a: &[bool]| ef(a) && eg(a)))
        }
        2 => {
            let (f, ef) = random_expr(m, vars, rng, depth - 1);
            let (g, eg) = random_expr(m, vars, rng, depth - 1);
            (m.or(f, g), Box::new(move |a: &[bool]| ef(a) || eg(a)))
        }
        3 => {
            let (f, ef) = random_expr(m, vars, rng, depth - 1);
            let (g, eg) = random_expr(m, vars, rng, depth - 1);
            (m.xor(f, g), Box::new(move |a: &[bool]| ef(a) ^ eg(a)))
        }
        _ => {
            let (f, ef) = random_expr(m, vars, rng, depth - 1);
            let (g, eg) = random_expr(m, vars, rng, depth - 1);
            let (h, eh) = random_expr(m, vars, rng, depth - 1);
            (m.ite(f, g, h), Box::new(move |a: &[bool]| if ef(a) { eg(a) } else { eh(a) }))
        }
    }
}

#[test]
fn fuzz_algebra_against_truth_tables() {
    let mut rng = Lcg(0x5151_2026);
    for round in 0..60 {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let (f, oracle) = random_expr(&mut m, &vars, &mut rng, 5);
        for asg in assignments(5) {
            assert_eq!(m.eval(f, &asg), oracle(&asg), "round {round}: mismatch at {asg:?}");
        }
        // Canonicity: rebuilding from cubes gives the identical handle.
        let cubes: Vec<_> = m.cubes(f).collect();
        let mut rebuilt = Bdd::FALSE;
        for cube in cubes {
            let lits: Vec<Bdd> = cube.iter().map(|&(v, b)| m.literal(v, b)).collect();
            let c = m.and_many(&lits);
            rebuilt = m.or(rebuilt, c);
        }
        assert_eq!(rebuilt, f, "round {round}: cube cover not canonical");
        // Canonicity: two functions share a handle iff they agree everywhere.
        let (g, oracle_g) = random_expr(&mut m, &vars, &mut rng, 5);
        let equivalent = assignments(5).iter().all(|a| oracle(a) == oracle_g(a));
        assert_eq!(f == g, equivalent, "round {round}: handle equality is not equivalence");
    }
}

#[test]
fn fuzz_quantification_against_oracle() {
    let mut rng = Lcg(0xdead_beef);
    for round in 0..40 {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let (f, oracle) = random_expr(&mut m, &vars, &mut rng, 4);
        let qi = (rng.next() as usize) % 5;
        let qv = vars[qi];
        let set = m.varset(&[qv]);
        let ex = m.exists(f, set);
        let fa = m.forall(f, set);
        for asg in assignments(5) {
            let mut a0 = asg.clone();
            let mut a1 = asg.clone();
            a0[qi] = false;
            a1[qi] = true;
            let expect_ex = oracle(&a0) || oracle(&a1);
            let expect_fa = oracle(&a0) && oracle(&a1);
            assert_eq!(m.eval(ex, &asg), expect_ex, "round {round} exists");
            assert_eq!(m.eval(fa, &asg), expect_fa, "round {round} forall");
        }
    }
}

#[test]
fn fuzz_and_exists_is_fused_correctly() {
    let mut rng = Lcg(0x1234_5678);
    for _ in 0..40 {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let (f, _) = random_expr(&mut m, &vars, &mut rng, 4);
        let (g, _) = random_expr(&mut m, &vars, &mut rng, 4);
        let q: Vec<VarId> = vars.iter().copied().filter(|_| rng.next().is_multiple_of(2)).collect();
        let set = m.varset(&q);
        let fused = m.and_exists(f, g, set);
        let plain = {
            let conj = m.and(f, g);
            m.exists(conj, set)
        };
        assert_eq!(fused, plain);
    }
}

#[test]
fn gc_mid_computation_preserves_roots() {
    let mut rng = Lcg(42);
    let mut m = Manager::new();
    let vars = m.new_vars(5);
    let (f, oracle_f) = random_expr(&mut m, &vars, &mut rng, 5);
    let (g, oracle_g) = random_expr(&mut m, &vars, &mut rng, 5);
    m.gc(&[f, g]);
    let h = m.and(f, g);
    for asg in assignments(5) {
        assert_eq!(m.eval(h, &asg), oracle_f(&asg) && oracle_g(&asg));
    }
    // GC with only h rooted must keep h's cone intact.
    m.gc(&[h]);
    for asg in assignments(5) {
        assert_eq!(m.eval(h, &asg), oracle_f(&asg) && oracle_g(&asg));
    }
}

/// Differential test of the node-free emptiness tests: over random pairs
/// on up to 10 variables, `intersects` and `implies_holds` must agree with
/// the materialized `and`/`diff`, both on empty caches and on caches warm
/// with every pair's conjunction. `intersects` must create no node, the
/// `f ∧ g = false` entries it leaves in the AND cache must be exact, and a
/// one-tick budget must still stop it.
#[test]
fn emptiness_tests_agree_with_materialized_ops() {
    for seed in 0..120u64 {
        let mut rng = Lcg(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n = 1 + (rng.next() % 10) as usize;
        let mut m = Manager::new();
        let vars = m.new_vars(n);
        let fs: Vec<Bdd> = (0..4).map(|_| random_expr(&mut m, &vars, &mut rng, 6).0).collect();
        let asgs = assignments(n);
        for warm in [false, true] {
            if warm {
                for &f in &fs {
                    for &g in &fs {
                        m.and(f, g);
                    }
                }
            }
            for &f in &fs {
                for &g in &fs {
                    if !warm {
                        m.gc(&fs); // drops every operation cache
                        if !f.is_const() && !g.is_const() && f != g {
                            m.set_budget(Budget::unlimited().with_max_ticks(1));
                            let err = m.try_intersects(f, g).expect_err("one tick cannot suffice");
                            assert_eq!(err.resource(), Resource::Ticks, "seed {seed}");
                            m.clear_budget();
                        }
                    }
                    let live = m.stats().live_nodes;
                    let meets = m.intersects(f, g);
                    assert_eq!(m.stats().live_nodes, live, "seed {seed}: intersects built nodes");
                    let included = m.implies_holds(f, g);
                    let conj = m.and(f, g);
                    let d = m.diff(f, g);
                    assert_eq!(meets, !conj.is_false(), "seed {seed} warm={warm}: intersects");
                    assert_eq!(included, d.is_false(), "seed {seed} warm={warm}: implies_holds");
                    for a in &asgs {
                        let want = m.eval(f, a) && m.eval(g, a);
                        assert_eq!(m.eval(conj, a), want, "seed {seed} warm={warm}: and at {a:?}");
                    }
                }
            }
        }
    }
}

/// Differential test of the node-free cofactor test: `f[lits_f] ∧
/// g[lits_g]` is satisfiable iff some assignment satisfies `f` with
/// `lits_f` written over it and `g` with `lits_g` written over it. Random
/// functions on up to 10 variables, under an order shuffled by adjacent
/// swaps, meet literal sets that are empty, random, overlapping (the same
/// variables, some polarities flipped) and over every variable, listed in
/// random order. Each call must agree with brute force, build no node,
/// take at least one tick and answer the same again on a warm table.
#[test]
fn cofactors_intersect_against_truth_tables() {
    type Lits = Vec<(VarId, bool)>;
    let meets = |m: &mut Manager, f: Bdd, lf: &[(VarId, bool)], g: Bdd, lg: &[(VarId, bool)]| {
        m.try_cofactors_intersect(f, lf, g, lg).expect("no budget")
    };
    {
        // With f = (a ∧ b) ∨ c: f[a := 1] = b ∨ c, f[a := 0, c := 0] =
        // false, a literal outside the support changes nothing, constants
        // are fixed points, and f[b := x] = ∃b. f ∧ (b = x).
        let mut m = Manager::new();
        let vs = m.new_vars(4);
        let (a, b, c) = (m.var(vs[0]), m.var(vs[1]), m.var(vs[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let b_or_c = m.or(b, c);
        let (nf, n_b_or_c) = (m.not(f), m.not(b_or_c));
        assert!(!meets(&mut m, f, &[(vs[0], true)], n_b_or_c, &[]));
        assert!(!meets(&mut m, nf, &[(vs[0], true)], b_or_c, &[]));
        assert!(!meets(&mut m, f, &[(vs[0], false), (vs[2], false)], Bdd::TRUE, &[]));
        assert!(!meets(&mut m, f, &[(vs[3], true)], nf, &[]));
        assert!(meets(&mut m, f, &[(vs[3], true)], f, &[(vs[3], false)]));
        assert!(meets(&mut m, Bdd::TRUE, &[(vs[0], false)], Bdd::TRUE, &[(vs[1], true)]));
        assert!(!meets(&mut m, Bdd::FALSE, &[(vs[0], false)], Bdd::TRUE, &[]));
        let set = m.varset(&[vs[1]]);
        for val in [false, true] {
            let lit = m.literal(vs[1], val);
            let conj = m.and(f, lit);
            let via_exists = m.exists(conj, set);
            for g in [a, c, nf, n_b_or_c] {
                let want = m.intersects(via_exists, g);
                assert_eq!(meets(&mut m, f, &[(vs[1], val)], g, &[]), want);
            }
        }
    }
    for seed in 0..120u64 {
        let mut rng = Lcg(seed ^ 0xc0fa_c7e5);
        let n = 1 + (rng.next() % 10) as usize;
        let mut m = Manager::new();
        let vars = m.new_vars(n);
        let mut fs: Vec<Bdd> = (0..3).map(|_| random_expr(&mut m, &vars, &mut rng, 6).0).collect();
        fs.extend([Bdd::TRUE, Bdd::FALSE]);
        for _ in 0..2 * n {
            if n > 1 {
                m.swap_adjacent((rng.next() % (n as u64 - 1)) as u32);
            }
        }
        let random = |rng: &mut Lcg, keep: u64| -> Lits {
            let mut lits = Lits::new();
            for &v in &vars {
                if rng.next() % 4 < keep {
                    lits.push((v, rng.next().is_multiple_of(2)));
                }
            }
            for k in (1..lits.len()).rev() {
                lits.swap(k, (rng.next() % (k as u64 + 1)) as usize);
            }
            lits
        };
        let some = random(&mut rng, 2);
        let overlapping: Lits =
            some.iter().map(|&(v, b)| (v, b ^ rng.next().is_multiple_of(2))).collect();
        let sets: [Lits; 5] =
            [Vec::new(), some, overlapping, random(&mut rng, 4), random(&mut rng, 1)];
        let asgs = assignments(n);
        let over = |a: &[bool], lits: &[(VarId, bool)]| {
            let mut a = a.to_vec();
            for &(v, b) in lits {
                a[v.0 as usize] = b;
            }
            a
        };
        for _ in 0..16 {
            let (f, g) = (fs[(rng.next() % 5) as usize], fs[(rng.next() % 5) as usize]);
            let (lf, lg) = (&sets[(rng.next() % 5) as usize], &sets[(rng.next() % 5) as usize]);
            let want = asgs.iter().any(|a| m.eval(f, &over(a, lf)) && m.eval(g, &over(a, lg)));
            let (live, ticks) = (m.live_nodes(), m.ticks_used());
            let got = meets(&mut m, f, lf, g, lg);
            assert_eq!(got, want, "seed {seed}: f={f:?}{lf:?} g={g:?}{lg:?}");
            assert_eq!(m.live_nodes(), live, "seed {seed}: built nodes");
            assert!(m.ticks_used() > ticks, "seed {seed}: took no tick");
            assert_eq!(meets(&mut m, f, lf, g, lg), want, "seed {seed}: warm table");
        }
    }
}

#[test]
fn sat_count_random_cross_check() {
    let mut rng = Lcg(777);
    for _ in 0..30 {
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let (f, oracle) = random_expr(&mut m, &vars, &mut rng, 4);
        let expect = assignments(5).iter().filter(|a| oracle(a)).count();
        assert_eq!(m.sat_count(f, 5), expect as f64);
    }
}

/// A truth table over [`TT_VARS`] variables: bit `a` of the table is the
/// value at the assignment whose bit `i` is variable `i`.
type Tt = [u64; 16];

const TT_VARS: usize = 10;
const LOW: usize = TT_VARS / 2;

/// The table of variable `v`.
fn tt_var(v: usize) -> Tt {
    const IN_WORD: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    std::array::from_fn(|w| match v {
        0..6 => IN_WORD[v],
        _ if (w >> (v - 6)) & 1 == 1 => u64::MAX,
        _ => 0,
    })
}

fn tt_zip(f: &Tt, g: &Tt, op: impl Fn(u64, u64) -> u64) -> Tt {
    std::array::from_fn(|w| op(f[w], g[w]))
}

/// `∃v. t`: each assignment takes the OR of its two `v`-cofactors.
fn tt_exists(t: &Tt, v: usize) -> Tt {
    std::array::from_fn(|w| {
        let flipped = match v {
            0..6 => {
                let (hi, s) = (tt_var(v)[0], 1 << v);
                ((t[w] & hi) >> s) | ((t[w] & !hi) << s)
            }
            _ => t[w ^ (1 << (v - 6))],
        };
        t[w] | flipped
    })
}

/// `t` with its variables fed from others: variable `i` of `t` reads
/// variable `from[i]` of the result's assignment.
fn tt_substitute(t: &Tt, from: &[usize]) -> Tt {
    let mut r = [0u64; 16];
    for a in 0..1usize << TT_VARS {
        let b = (0..TT_VARS).filter(|&i| (a >> from[i]) & 1 == 1).fold(0, |b, i| b | 1 << i);
        if (t[b / 64] >> (b % 64)) & 1 == 1 {
            r[a / 64] |= 1 << (a % 64);
        }
    }
    r
}

/// The truth table of an oracle.
fn tt_from(oracle: &dyn Fn(&[bool]) -> bool) -> Tt {
    let mut t = [0u64; 16];
    for (a, asg) in assignments(TT_VARS).iter().enumerate() {
        if oracle(asg) {
            t[a / 64] |= 1 << (a % 64);
        }
    }
    t
}

/// The truth table of a BDD, memoized per node in `memo`.
fn tt_of(m: &Manager, f: Bdd, memo: &mut std::collections::HashMap<Bdd, Tt>) -> Tt {
    if f.is_const() {
        return [if f.is_true() { u64::MAX } else { 0 }; 16];
    }
    if let Some(t) = memo.get(&f) {
        return *t;
    }
    let lo = tt_of(m, m.node_lo(f), memo);
    let hi = tt_of(m, m.node_hi(f), memo);
    let x = tt_var(m.node_var(f).0 as usize);
    let t = std::array::from_fn(|w| (x[w] & hi[w]) | (!x[w] & lo[w]));
    memo.insert(f, t);
    t
}

/// Seeds per table test; CI runs a wider sweep in release mode.
fn table_seeds() -> u64 {
    std::env::var("BDD_TABLE_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(3)
}

/// One memoized call of the computed-table differential test: operator,
/// up to three operands, and a varset (or rename direction) index.
#[derive(Clone, Copy)]
struct Call {
    op: u64,
    f: Bdd,
    g: Bdd,
    h: Bdd,
    k: usize,
}

/// The varsets, rename maps and truth-table shapes a [`Call`] indexes.
struct Vocabulary {
    /// Random varsets and their members.
    sets: Vec<(crate::VarSetId, Vec<usize>)>,
    /// Per direction (low → high, high → low): the half to quantify away
    /// first, so the map preserves order on what is left, and its members.
    away: [(crate::VarSetId, Vec<usize>); 2],
    maps: [crate::RenameId; 2],
    /// Per direction: where each variable of the renamed function reads.
    from: [Vec<usize>; 2],
}

impl Vocabulary {
    fn new(m: &mut Manager, vars: &[VarId], rng: &mut Lcg) -> Self {
        let set = |m: &mut Manager, q: Vec<usize>| {
            let ids: Vec<VarId> = q.iter().map(|&i| vars[i]).collect();
            (m.varset(&ids), q)
        };
        let sets = (0..6)
            .map(|_| set(m, (0..TT_VARS).filter(|_| rng.next().is_multiple_of(3)).collect()))
            .collect();
        let away = [set(m, (LOW..TT_VARS).collect()), set(m, (0..LOW).collect())];
        let up: Vec<(VarId, VarId)> = (0..LOW).map(|i| (vars[i], vars[i + LOW])).collect();
        let down: Vec<(VarId, VarId)> = up.iter().map(|&(a, b)| (b, a)).collect();
        Vocabulary {
            sets,
            away,
            maps: [m.rename_map(&up), m.rename_map(&down)],
            from: [
                (0..TT_VARS).map(|i| if i < LOW { i + LOW } else { i }).collect(),
                (0..TT_VARS).map(|i| if i >= LOW { i - LOW } else { i }).collect(),
            ],
        }
    }

    /// Run `c` on the manager.
    fn apply(&self, m: &mut Manager, c: Call) -> Bdd {
        let set = self.sets[c.k % self.sets.len()].0;
        let d = c.k % 2;
        match c.op {
            0 => m.and(c.f, c.g),
            1 => m.or(c.f, c.g),
            2 => m.xor(c.f, c.g),
            3 => m.not(c.f),
            4 => m.ite(c.f, c.g, c.h),
            5 => m.exists(c.f, set),
            6 => m.and_exists(c.f, c.g, set),
            7 => {
                let e = m.exists(c.f, self.away[d].0);
                m.rename(e, self.maps[d])
            }
            _ => {
                let live = m.live_nodes();
                let meets = m.intersects(c.f, c.g);
                assert_eq!(m.live_nodes(), live, "intersects built nodes");
                if meets {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            }
        }
    }

    /// What `c` must return, from its operands' truth tables.
    fn truth(&self, c: Call, tf: &Tt, tg: &Tt, th: &Tt) -> Tt {
        let quantify = |t: Tt, q: &[usize]| q.iter().fold(t, |t, &v| tt_exists(&t, v));
        let conj = tt_zip(tf, tg, |x, y| x & y);
        let q = &self.sets[c.k % self.sets.len()].1;
        let d = c.k % 2;
        match c.op {
            0 => conj,
            1 => tt_zip(tf, tg, |x, y| x | y),
            2 => tt_zip(tf, tg, |x, y| x ^ y),
            3 => tf.map(|x| !x),
            4 => std::array::from_fn(|w| (tf[w] & tg[w]) | (!tf[w] & th[w])),
            5 => quantify(*tf, q),
            6 => quantify(conj, q),
            7 => tt_substitute(&quantify(*tf, &self.away[d].1), &self.from[d]),
            _ => [if conj == [0; 16] { 0 } else { u64::MAX }; 16],
        }
    }
}

/// Differential test of the lossy computed table. One manager per seed
/// runs thousands of random `and/or/xor/not/ite/exists/and_exists/
/// rename/intersects` calls over a pool of functions on 10 variables, so
/// the 4,096-entry minimum table is overwritten many times and grows with
/// the arena. Results that are not constant join the pool, and fresh
/// random expressions keep it from collapsing. Every result is checked
/// against truth tables, and replaying an earlier call, whose entry may
/// be gone, must return the same handle.
#[test]
fn computed_table_differential_against_truth_tables() {
    const STEPS: usize = 3000;
    const POOL: usize = 24;
    for seed in 0..table_seeds() {
        let ctx = format!("seed {seed} (rerun: BDD_TABLE_SEEDS={})", seed + 1);
        let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7ab1e);
        let mut m = Manager::new();
        let vars = m.new_vars(TT_VARS);
        let voc = Vocabulary::new(&mut m, &vars, &mut rng);
        let mut memo = std::collections::HashMap::new();
        let mut pool: Vec<(Bdd, Tt)> = (0..TT_VARS).map(|i| (m.var(vars[i]), tt_var(i))).collect();
        let mut log: Vec<(Call, Bdd)> = Vec::new();
        let misses_before = m.stats().cache_lookups - m.stats().cache_hits;
        let put = |pool: &mut Vec<(Bdd, Tt)>, slot: usize, entry| match pool.get_mut(slot) {
            Some(old) => *old = entry,
            None => pool.push(entry),
        };
        for step in 0..STEPS {
            let slot = (rng.next() as usize) % POOL;
            if rng.next().is_multiple_of(8) {
                let (f, oracle) = random_expr(&mut m, &vars, &mut rng, 5);
                put(&mut pool, slot, (f, tt_from(&oracle)));
            }
            if !log.is_empty() && rng.next().is_multiple_of(4) {
                let (call, r) = log[(rng.next() as usize) % log.len()];
                let again = voc.apply(&mut m, call);
                assert_eq!(
                    again, r,
                    "{ctx}, step {step}: replayed op {} changed its result",
                    call.op
                );
                continue;
            }
            let mut pick = || pool[(rng.next() as usize) % pool.len()];
            let ((f, tf), (g, tg), (h, th)) = (pick(), pick(), pick());
            let call = Call { op: rng.next() % 9, f, g, h, k: rng.next() as usize };
            let r = voc.apply(&mut m, call);
            let tr = voc.truth(call, &tf, &tg, &th);
            assert_eq!(tt_of(&m, r, &mut memo), tr, "{ctx}, step {step}: op {}", call.op);
            log.push((call, r));
            if !r.is_const() {
                put(&mut pool, slot, (r, tr));
            }
        }
        let misses = m.stats().cache_lookups - m.stats().cache_hits - misses_before;
        let minimum = 1 << crate::table::COMPUTED_MIN_LOG2;
        assert!(misses > 8 * minimum as u64, "{ctx}: only {misses} memo inserts");
        assert!(m.computed.capacity() > minimum, "{ctx}: the computed table never grew");
    }
}

/// The open-addressed unique table under in-place rewrites, backward-shift
/// deletion and rebuilds: random functions go through `swap_adjacent`,
/// `sift` (which must not grow them) and `gc`. After each, the manager
/// passes `check_consistency`, every node in the functions' cones is found
/// by its own key, every function keeps its truth table, and a dump of
/// them round-trips in the order reached.
#[test]
fn unique_table_survives_swaps_sift_and_gc() {
    for seed in 0..table_seeds() {
        let ctx = format!("seed {seed} (rerun: BDD_TABLE_SEEDS={})", seed + 1);
        let mut rng = Lcg(seed ^ 0x0071_ab1e);
        let mut m = Manager::new();
        let vars = m.new_vars(TT_VARS);
        let mut fs: Vec<(Bdd, Tt)> = Vec::new();
        for round in 0..16 {
            // Enough functions that the arena outgrows the smallest table.
            while fs.len() < 16 || m.nodes.len() <= 2048 {
                let (f, oracle) = random_expr(&mut m, &vars, &mut rng, 8);
                fs.push((f, tt_from(&oracle)));
            }
            let roots: Vec<Bdd> = fs.iter().map(|e| e.0).collect();
            match rng.next() % 4 {
                0 => {
                    let (before, after) = m.sift(&roots);
                    assert!(after <= before, "{ctx}, round {round}: sift grew {before} → {after}");
                }
                1 => {
                    // Drop a third of the functions, then collect.
                    fs.retain(|_| !rng.next().is_multiple_of(3));
                    let kept: Vec<Bdd> = fs.iter().map(|e| e.0).collect();
                    m.gc(&kept);
                }
                _ => {
                    for _ in 0..8 {
                        m.swap_adjacent((rng.next() % (TT_VARS as u64 - 1)) as u32);
                    }
                }
            }
            let ctx = format!("{ctx}, round {round}");
            m.set_gc_roots(fs.iter().map(|e| e.0).collect());
            m.check_consistency().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let mut stack: Vec<Bdd> = fs.iter().map(|e| e.0).collect();
            while let Some(f) = stack.pop() {
                if !f.is_const() {
                    let found = m.unique.find(&m.nodes, m.node(f));
                    assert_eq!(found, Ok(f.0), "{ctx}: node {f:?} not found by its key");
                    stack.extend([m.node_lo(f), m.node_hi(f)]);
                }
            }
            let mut memo = Default::default();
            for &(f, t) in &fs {
                assert_eq!(tt_of(&m, f, &mut memo), t, "{ctx}: {f:?} changed its function");
            }
            // A dump in this order loads into a fresh manager with the same
            // order, node counts, functions and bytes; into a manager in
            // the default order with the same functions; and into `m` as
            // the same handles. A flipped byte or a cut is an error.
            let roots: Vec<Bdd> = fs.iter().map(|e| e.0).collect();
            let dump = m.dump_bdds_to_vec(&roots);
            let (fresh, loaded) = Manager::load_bdds(&mut &dump[..]).expect(&ctx);
            assert_eq!(fresh.current_order(), m.current_order(), "{ctx}: loaded order");
            assert_eq!(fresh.node_count_many(&loaded), m.node_count_many(&roots), "{ctx}");
            assert_eq!(fresh.dump_bdds_to_vec(&loaded), dump, "{ctx}: re-dump differs");
            let mut other = Manager::new();
            other.new_vars(TT_VARS);
            let translated = other.load_bdds_into(&mut &dump[..]).expect(&ctx);
            let (mut fresh_memo, mut other_memo) = Default::default();
            for (k, &(_, t)) in fs.iter().enumerate() {
                assert_eq!(tt_of(&fresh, loaded[k], &mut fresh_memo), t, "{ctx}: loaded");
                assert_eq!(tt_of(&other, translated[k], &mut other_memo), t, "{ctx}: translated");
            }
            assert_eq!(m.load_bdds_into(&mut &dump[..]).expect(&ctx), roots, "{ctx}: reloaded");
            let mut corrupt = dump.clone();
            corrupt[(rng.next() as usize) % dump.len()] ^= 1 << (rng.next() % 8);
            assert!(Manager::load_bdds(&mut &corrupt[..]).is_err(), "{ctx}: flip accepted");
            let cut = (rng.next() as usize) % dump.len();
            assert!(Manager::load_bdds(&mut &dump[..cut]).is_err(), "{ctx}: cut accepted");
        }
        assert!(m.unique.capacity() > 1 << 12, "{ctx}: the unique table never grew");
    }
}
