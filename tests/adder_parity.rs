//! Integration test: the in-memory parallel adder (paper reference [9])
//! against scalar arithmetic, including its interaction with faults.

use memcim_mvp::arith::{add_bit_planes, add_vectors, from_bit_planes, to_bit_planes};
use memcim_mvp::MvpSimulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn wide_random_vectors_add_exactly() {
    let mut rng = SmallRng::seed_from_u64(99);
    let lanes = 1024;
    let a: Vec<u64> = (0..lanes).map(|_| rng.gen_range(0..1 << 16)).collect();
    let b: Vec<u64> = (0..lanes).map(|_| rng.gen_range(0..1 << 16)).collect();
    let mut mvp = MvpSimulator::new(8, lanes);
    let sums = add_vectors(&mut mvp, &a, &b, 16).expect("adds");
    for ((&x, &y), &s) in a.iter().zip(&b).zip(&sums) {
        assert_eq!(s, x + y);
    }
    // 16 bits × 5 scouting cycles, regardless of the 1024 lanes.
    assert_eq!(mvp.ledger().scouting_ops(), 80);
    // Sum planes are sensed; only the final carry plane is read.
    assert_eq!(mvp.ledger().reads(), 1);
}

#[test]
fn plane_codecs_are_inverse() {
    let values: Vec<u64> = (0..100).map(|i| i * 37 % 4096).collect();
    let planes = to_bit_planes(&values, 12).expect("encodes");
    assert_eq!(from_bit_planes(&planes).expect("decodes"), values);
    assert!(from_bit_planes(&[]).expect("empty is fine").is_empty());
}

#[test]
fn adder_with_stuck_carry_row_corrupts_predictably() {
    // A stuck cell in a working row corrupts only lanes that touch it —
    // the fault-propagation behaviour a designer would need to know.
    let lanes = 8;
    let mut mvp = MvpSimulator::new(8, lanes);
    // Row 6 is the first carry row; stick lane 3's carry at 1.
    mvp.crossbar_mut().faults_mut().inject_stuck_at(6, 3, true);
    let a = vec![0u64; lanes];
    let b = vec![0u64; lanes];
    let sums = add_vectors(&mut mvp, &a, &b, 4).expect("adds");
    // Lane 3 sees a phantom carry-in at bit 0: 0 + 0 + 1 = 1 (and the
    // stuck carry keeps re-injecting at every bit).
    assert_ne!(sums[3], 0, "stuck carry must corrupt lane 3");
    for (lane, &s) in sums.iter().enumerate() {
        if lane != 3 {
            assert_eq!(s, 0, "lane {lane} must stay clean");
        }
    }
}

#[test]
fn chained_additions_accumulate() {
    // sum = a + b + c via two in-memory passes.
    let a = [10u64, 20, 30];
    let b = [1u64, 2, 3];
    let c = [100u64, 200, 255];
    let mut mvp = MvpSimulator::new(8, 3);
    let ab = add_vectors(&mut mvp, &a, &b, 9).expect("a+b");
    let abc = add_vectors(&mut mvp, &ab, &c, 10).expect("(a+b)+c");
    assert_eq!(abc, vec![111, 222, 288]);
}

#[test]
fn bit_plane_interface_exposes_the_carry_plane() {
    let mut mvp = MvpSimulator::new(8, 2);
    let planes = add_bit_planes(
        &mut mvp,
        &to_bit_planes(&[0b11, 0b01], 2).expect("encodes"),
        &to_bit_planes(&[0b01, 0b01], 2).expect("encodes"),
    )
    .expect("adds");
    // w + 1 planes: 2 sum bits plus carry-out.
    assert_eq!(planes.len(), 3);
    assert_eq!(from_bit_planes(&planes).expect("decodes"), vec![0b100, 0b010]);
    assert!(planes[2].get(0), "lane 0 carries out");
    assert!(!planes[2].get(1), "lane 1 does not");
}
