//! Result checks against the `vtjoin-core` algebra oracles.
//!
//! Results are compared as multisets through an order-independent
//! digest: the tuple count plus two wrapping sums of independently salted
//! tuple hashes, and a hash of the schema. A digest is built in one pass
//! without allocation, so a result can be checked as soon as it arrives
//! and the result itself dropped.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use vtjoin_core::algebra::{
    antijoin_pred, count_over_time, extremum_over_time, full_outerjoin_pred, outerjoin_pred,
    predicate_join, segments_to_relation, semijoin_pred, sum_over_time, Extremum, JoinSide,
};
use vtjoin_core::{AggFunc, JoinPredicate, Operator, Relation, Tuple};

/// Order-independent fingerprint of a relation's schema and tuple multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Hash of the schema's display form.
    pub schema: u64,
    /// Number of tuples.
    pub tuples: u64,
    sum_a: u64,
    sum_b: u64,
}

fn salted(salt: u64, t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    t.hash(&mut h);
    h.finish()
}

impl Digest {
    /// An empty multiset over the schema of `rel`.
    pub fn empty_of(rel: &Relation) -> Digest {
        let mut h = DefaultHasher::new();
        rel.schema().to_string().hash(&mut h);
        Digest {
            schema: h.finish(),
            ..Digest::default()
        }
    }

    /// Adds one tuple.
    pub fn add(&mut self, t: &Tuple) {
        self.tuples += 1;
        self.sum_a = self.sum_a.wrapping_add(salted(0x5eed_aaaa, t));
        self.sum_b = self.sum_b.wrapping_add(salted(0x5eed_bbbb, t));
    }

    /// The digest of a whole relation.
    pub fn of(rel: &Relation) -> Digest {
        let mut d = Digest::empty_of(rel);
        rel.iter().for_each(|t| d.add(t));
        d
    }
}

/// The oracle result of `op` over `r`, `s` under `pred`: the algebra's
/// hash-join, outer/semi/anti oracles, or the aggregate over the oracle
/// join.
pub fn oracle(r: &Relation, s: &Relation, op: &Operator, pred: &JoinPredicate) -> Relation {
    let out = match op {
        Operator::Inner => predicate_join(r, s, pred),
        Operator::Left => outerjoin_pred(r, s, JoinSide::Left, pred),
        Operator::Full => full_outerjoin_pred(r, s, pred),
        Operator::Semi => semijoin_pred(r, s, pred),
        Operator::Anti => antijoin_pred(r, s, pred),
        Operator::Aggregate(f) => {
            let joined = predicate_join(r, s, pred).expect("oracle join over benchmark schemas");
            let segs = match f {
                AggFunc::Count => count_over_time(&joined),
                AggFunc::Sum(a) => sum_over_time(&joined, a).expect("oracle sum"),
                AggFunc::Min(a) => {
                    extremum_over_time(&joined, a, Extremum::Min).expect("oracle min")
                }
                AggFunc::Max(a) => {
                    extremum_over_time(&joined, a, Extremum::Max).expect("oracle max")
                }
            };
            return segments_to_relation(&segs);
        }
    };
    out.expect("oracle over benchmark schemas")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::{Interval, Value};
    use vtjoin_workload::generate::{
        generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig,
        KeyDistribution, TimeDistribution,
    };

    fn pair() -> (Relation, Relation) {
        let cfg = GeneratorConfig {
            tuples: 300,
            long_lived: 10,
            lifespan: 1_000,
            keys: 20,
            key_dist: KeyDistribution::Uniform,
            time_dist: TimeDistribution::Uniform,
            duration_dist: DurationDistribution::UniformUpTo(20),
            pad_bytes: 0,
            seed: 3,
        };
        let s_cfg = GeneratorConfig {
            seed: 4,
            ..cfg.clone()
        };
        (
            generate(outer_schema(0), &cfg),
            generate(inner_schema(0), &s_cfg),
        )
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let (r, _) = pair();
        let mut reversed = r.tuples().to_vec();
        reversed.reverse();
        let rev = Relation::from_parts_unchecked(r.schema().clone(), reversed.clone());
        assert_eq!(Digest::of(&r), Digest::of(&rev));
        reversed.push(reversed[0].clone());
        let dup = Relation::from_parts_unchecked(r.schema().clone(), reversed);
        assert_ne!(Digest::of(&r), Digest::of(&dup));
    }

    #[test]
    fn a_corrupted_result_fails_the_check() {
        let (r, s) = pair();
        let want = Digest::of(&oracle(
            &r,
            &s,
            &Operator::Inner,
            &JoinPredicate::intersects(),
        ));
        let good = vtjoin_core::algebra::natural_join(&r, &s).unwrap();
        assert_eq!(Digest::of(&good), want);

        // Shift one tuple's interval by a chronon: same count, wrong value.
        let mut tuples = good.tuples().to_vec();
        let t = &tuples[0];
        let v = t.valid();
        let shifted = Interval::from_raw(v.start().value(), v.end().value() + 1).unwrap();
        tuples[0] = t.with_valid(shifted);
        let corrupt = Relation::from_parts_unchecked(good.schema().clone(), tuples.clone());
        assert_ne!(Digest::of(&corrupt), want);

        // Change one attribute value.
        let mut values = tuples[1].values().to_vec();
        values[0] = Value::Int(-1);
        tuples[1] = Tuple::new(values, tuples[1].valid());
        let corrupt = Relation::from_parts_unchecked(good.schema().clone(), tuples);
        assert_ne!(Digest::of(&corrupt), want);

        // Drop one tuple.
        let mut fewer = good.tuples().to_vec();
        fewer.pop();
        let corrupt = Relation::from_parts_unchecked(good.schema().clone(), fewer);
        assert_ne!(Digest::of(&corrupt), want);
    }

    #[test]
    fn operator_oracles_differ_from_the_inner_join() {
        let (r, s) = pair();
        let pred = JoinPredicate::intersects();
        let inner = Digest::of(&oracle(&r, &s, &Operator::Inner, &pred));
        for op in ["left", "anti", "aggregate:count"] {
            let op: Operator = op.parse().unwrap();
            assert_ne!(Digest::of(&oracle(&r, &s, &op, &pred)), inner, "{op}");
        }
    }
}
