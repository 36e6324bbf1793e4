//! The random-zone generator shared by the DBM property tests: a zone is the
//! origin after a random sequence of operations (delay, constrain, reset,
//! free), so every generated zone is canonical and shaped like the zones
//! forward reachability produces.  Each test binary uses a subset.
#![allow(dead_code)]

use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Dbm};

/// The range of the generated zones.
#[derive(Clone, Copy, Debug)]
pub struct Space {
    /// Number of real clocks.
    pub clocks: usize,
    /// Single-clock bounds are drawn from `0..bound`.
    pub bound: i64,
    /// Difference bounds are drawn from `-diff..diff`.
    pub diff: i64,
    /// Reset values are drawn from `0..reset`.
    pub reset: i64,
    /// Operation sequences have `0..ops` operations.
    pub ops: usize,
}

/// One symbolic operation applied while generating a random zone.
#[derive(Clone, Debug)]
pub enum Op {
    Up,
    UpperBound { clock: u32, value: i64, strict: bool },
    LowerBound { clock: u32, value: i64, strict: bool },
    Diff { a: u32, b: u32, value: i64, strict: bool },
    Reset { clock: u32, value: i64 },
    Free { clock: u32 },
}

pub fn clock_idx(space: Space) -> impl Strategy<Value = u32> {
    1..=(space.clocks as u32)
}

pub fn op_strategy(space: Space) -> impl Strategy<Value = Op> {
    let clock = move || clock_idx(space);
    prop_oneof![
        Just(Op::Up),
        (clock(), 0..space.bound, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::UpperBound { clock, value, strict }),
        (clock(), 0..space.bound, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::LowerBound { clock, value, strict }),
        (clock(), clock(), -space.diff..space.diff, any::<bool>())
            .prop_map(|(a, b, value, strict)| Op::Diff { a, b, value, strict }),
        (clock(), 0..space.reset).prop_map(|(clock, value)| Op::Reset { clock, value }),
        clock().prop_map(|clock| Op::Free { clock }),
    ]
}

pub fn apply(z: &mut Dbm, op: &Op) {
    match *op {
        Op::Up => {
            z.up();
        }
        Op::UpperBound { clock, value, strict } => {
            z.constrain(Clock(clock), Clock::REF, Bound::new(value, strict));
        }
        Op::LowerBound { clock, value, strict } => {
            z.constrain(Clock::REF, Clock(clock), Bound::new(-value, strict));
        }
        Op::Diff { a, b, value, strict } => {
            if a != b {
                z.constrain(Clock(a), Clock(b), Bound::new(value, strict));
            }
        }
        Op::Reset { clock, value } => {
            z.reset(Clock(clock), value);
        }
        Op::Free { clock } => {
            z.free(Clock(clock));
        }
    }
}

/// A random operation sequence.
pub fn ops(space: Space) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(space), 0..space.ops)
}

pub fn random_zone(space: Space) -> impl Strategy<Value = Dbm> {
    ops(space).prop_map(move |ops| {
        let mut z = Dbm::zero(space.clocks);
        for op in &ops {
            apply(&mut z, op);
        }
        z
    })
}

/// A valuation (entry 0 the reference clock) with clock values in `0..max`.
pub fn valuation(space: Space, max: i64) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0..max, space.clocks).prop_map(|mut v| {
        v.insert(0, 0);
        v
    })
}
