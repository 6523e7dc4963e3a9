//! Cross-cutting unit tests for the BDD package: a brute-force truth-table
//! oracle over few variables, exercising all operations together.

use crate::{Bdd, Budget, Manager, Resource, VarId};

/// Build every assignment of `n` variables.
fn assignments(n: usize) -> Vec<Vec<bool>> {
    (0..1usize << n).map(|bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect()).collect()
}

/// A tiny random-expression generator (deterministic, seedless LCG) used to
/// fuzz the algebra against the truth-table oracle without pulling proptest
/// into the unit-test tier.
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
