//! Property-based tests (proptest) over the core invariants:
//! budget accounting, clamping, partitioning, percentile domains, and
//! the end-to-end range guarantee of the aggregate.

use gupt::core::{partition_grouped, partition_range, sample_and_aggregate};
use gupt::dp::{
    dp_percentile, laplace_mechanism, Accountant, Epsilon, Laplace, OutputRange, Percentile,
    Sensitivity,
};
use gupt::dp::{geometric_mechanism, RandomizedResponse, TwoSidedGeometric};
use gupt::ml::histogram::Histogram;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;

fn eps_strategy() -> impl Strategy<Value = f64> {
    (0.01f64..100.0).prop_filter("finite", |e| e.is_finite())
}

proptest! {
    #[test]
    fn epsilon_split_recombines(total in eps_strategy(), parts in 1usize..64) {
        let eps = Epsilon::new(total).unwrap();
        let share = eps.split(parts).unwrap();
        let sum = share.value() * parts as f64;
        prop_assert!((sum - total).abs() <= total * 1e-12);
    }

    #[test]
    fn accountant_never_overspends(
        total in eps_strategy(),
        charges in prop::collection::vec(0.001f64..10.0, 0..50),
    ) {
        let mut acc = Accountant::new(Epsilon::new(total).unwrap());
        for c in charges {
            let _ = acc.charge(Epsilon::new(c).unwrap());
            prop_assert!(acc.spent() <= total * (1.0 + 1e-9));
            prop_assert!(acc.remaining() >= 0.0);
            prop_assert!((acc.spent() + acc.remaining() - total).abs() < total * 1e-6 + 1e-9);
        }
    }

    #[test]
    fn clamp_is_idempotent_and_in_range(
        lo in -1e6f64..1e6, width in 0.0f64..1e6, x in -1e9f64..1e9,
    ) {
        let range = OutputRange::new(lo, lo + width).unwrap();
        let once = range.clamp(x);
        prop_assert!(range.contains(once));
        prop_assert_eq!(once, range.clamp(once));
    }

    #[test]
    fn loosen_twofold_always_contains(lo in -1e5f64..1e5, width in 0.0f64..1e5) {
        let range = OutputRange::new(lo, lo + width).unwrap();
        let loose = range.loosen_twofold();
        prop_assert!(loose.lo() <= range.lo());
        prop_assert!(loose.hi() >= range.hi());
    }

    #[test]
    fn partition_covers_each_index_gamma_times(
        n in 1usize..400, beta in 1usize..100, gamma in 1usize..5, seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = partition_range(0, n, beta, gamma, &mut rng);
        let mut counts = vec![0usize; n];
        for block in plan.blocks() {
            // No duplicates within a block.
            let set: HashSet<usize> = block.iter().copied().collect();
            prop_assert_eq!(set.len(), block.len());
            prop_assert!(block.len() <= beta.min(n).max(1));
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == gamma));
    }

    #[test]
    fn laplace_sample_is_finite(mu in -1e6f64..1e6, b in 1e-6f64..1e6, seed in 0u64..500) {
        let dist = Laplace::new(mu, b).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            prop_assert!(dist.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn laplace_cdf_monotone(b in 1e-3f64..1e3, x1 in -1e3f64..1e3, x2 in -1e3f64..1e3) {
        let dist = Laplace::new(0.0, b).unwrap();
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(dist.cdf(lo) <= dist.cdf(hi) + 1e-15);
    }

    #[test]
    fn mechanism_output_is_finite(
        value in -1e6f64..1e6, sens in 0.0f64..1e3, eps in eps_strategy(), seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = laplace_mechanism(
            value,
            Sensitivity::new(sens).unwrap(),
            Epsilon::new(eps).unwrap(),
            &mut rng,
        );
        prop_assert!(out.is_finite());
    }

    #[test]
    fn percentile_stays_in_domain(
        data in prop::collection::vec(-1e4f64..1e4, 1..200),
        p in 0.0f64..100.0,
        eps in eps_strategy(),
        seed in 0u64..500,
    ) {
        let domain = OutputRange::new(-1e4, 1e4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let v = dp_percentile(
            &data,
            Percentile::new(p).unwrap(),
            domain,
            Epsilon::new(eps).unwrap(),
            &mut rng,
        )
        .unwrap();
        prop_assert!(domain.contains(v));
    }

    #[test]
    fn aggregate_mean_component_is_clamped(
        outputs in prop::collection::vec(-1e6f64..1e6, 1..100),
        lo in -100.0f64..100.0,
        width in 0.1f64..100.0,
        eps in eps_strategy(),
        seed in 0u64..500,
    ) {
        // The pre-noise mean of clamped outputs must itself be in range;
        // the noisy release is finite.
        let range = OutputRange::new(lo, lo + width).unwrap();
        let rows: Vec<Vec<f64>> = outputs.iter().map(|&v| vec![v]).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let out = sample_and_aggregate(
            &rows,
            &[range],
            1,
            Epsilon::new(eps).unwrap(),
            &mut rng,
        )
        .unwrap();
        prop_assert!(out[0].is_finite());
        let means = gupt::core::clamped_block_means(&rows, &[range]).unwrap();
        prop_assert!(range.contains(means[0]));
    }

    #[test]
    fn grouped_partition_is_group_atomic(
        group_sizes in prop::collection::vec(1usize..6, 1..40),
        beta in 1usize..30,
        gamma in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut next = 0usize;
        let groups: Vec<Vec<usize>> = group_sizes
            .iter()
            .map(|&size| {
                let ids: Vec<usize> = (next..next + size).collect();
                next += size;
                ids
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = partition_grouped(&groups, beta, gamma, &mut rng);
        let mut counts = vec![0usize; next];
        for block in plan.blocks() {
            let set: HashSet<usize> = block.iter().copied().collect();
            for group in &groups {
                let present = group.iter().filter(|i| set.contains(i)).count();
                prop_assert!(present == 0 || present == group.len());
            }
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == gamma));
    }

    #[test]
    fn geometric_mechanism_is_integer_and_nonnegative(
        count in 0u64..100_000,
        eps in 0.05f64..20.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = geometric_mechanism(count, 1, Epsilon::new(eps).unwrap(), &mut rng).unwrap();
        // u64 by construction; just confirm it is not absurdly far for
        // reasonable eps (tail bound: P(|Z| > 60/eps) is astronomically small).
        let bound = (200.0 / eps) as u64 + 200;
        prop_assert!(out <= count + bound);
    }

    #[test]
    fn geometric_distribution_variance_positive(alpha in 0.01f64..0.99) {
        let d = TwoSidedGeometric::new(alpha).unwrap();
        prop_assert!(d.variance() > 0.0);
        prop_assert!(d.variance().is_finite());
    }

    #[test]
    fn randomized_response_estimate_in_unit_interval(
        truths in prop::collection::vec(any::<bool>(), 1..200),
        eps in 0.05f64..10.0,
        seed in 0u64..500,
    ) {
        let rr = RandomizedResponse::new(Epsilon::new(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let responses = rr.respond_all(&truths, &mut rng);
        prop_assert_eq!(responses.len(), truths.len());
        let est = rr.estimate_fraction(&responses).unwrap();
        prop_assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn histogram_fractions_sum_to_one(
        values in prop::collection::vec(-100.0f64..100.0, 1..300),
        bins in 1usize..20,
    ) {
        let h = Histogram::build(&values, -100.0, 100.0, bins);
        let total: f64 = h.fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert_eq!(h.total() as usize, values.len());
    }

    #[test]
    fn csv_roundtrip(
        rows in prop::collection::vec(
            prop::collection::vec(-1e6f64..1e6, 3),
            1..50
        ),
    ) {
        use gupt::datasets::csv;
        let text = csv::to_csv_string(None, &rows);
        let parsed = csv::parse_csv(&text, false).unwrap();
        prop_assert_eq!(parsed, rows);
    }

    #[test]
    fn budget_distribution_conserves_total(
        widths in prop::collection::vec(0.1f64..1e4, 1..20),
        total in eps_strategy(),
    ) {
        use gupt::core::{distribute_budget, QueryNoiseProfile};
        let profiles: Vec<QueryNoiseProfile> = widths
            .iter()
            .map(|&w| QueryNoiseProfile {
                output_width: w,
                num_blocks: 10,
                gamma: 1,
            })
            .collect();
        let shares = distribute_budget(Epsilon::new(total).unwrap(), &profiles).unwrap();
        let sum: f64 = shares.iter().map(|e| e.value()).sum();
        prop_assert!((sum - total).abs() <= total * 1e-9);
        // Noise scales equalised.
        let scales: Vec<f64> = profiles
            .iter()
            .zip(&shares)
            .map(|(p, e)| p.zeta() / e.value())
            .collect();
        for s in &scales[1..] {
            prop_assert!((s - scales[0]).abs() <= scales[0] * 1e-6);
        }
    }
}
