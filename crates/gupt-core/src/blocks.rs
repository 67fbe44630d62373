//! Dataset partitioning and the §4.2 resampling scheme.
//!
//! Algorithm 1 splits the dataset into `ℓ = n^0.4` disjoint blocks of
//! size `β = n^0.6`. Resampling generalises this: each record resides in
//! exactly `γ` distinct blocks, realised here as `γ` independent
//! partitions of the record indices (so `ℓ = γ·⌈n/β⌉` in total). Claim 1:
//! because one record can perturb at most `γ` block outputs, the
//! sensitivity of the block average is `γ·s/ℓ = s·β/n` — independent of
//! `γ` — so resampling reduces partition variance for free.

use gupt_sandbox::view::{BlockView, RowStore};
use rand::Rng;
use std::sync::Arc;

/// A partition plan: blocks of record indices into the dataset.
///
/// Index lists are `Arc`-backed so that the [`BlockView`]s handed to
/// chamber workers share them instead of copying — block preparation
/// allocates the index lists once, here, and nothing else.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    blocks: Vec<Arc<[usize]>>,
    block_size: usize,
    gamma: usize,
    records: usize,
}

impl BlockPlan {
    /// The blocks (shared lists of record indices).
    pub fn blocks(&self) -> &[Arc<[usize]>] {
        &self.blocks
    }

    /// Total number of blocks `ℓ`.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Target block size `β`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Resampling factor `γ` (1 = the classic disjoint partition).
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Number of records partitioned.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Sensitivity multiplier for the block-output average: a single
    /// record influences `γ` of the `ℓ` blocks, so an output range of
    /// width `s` yields average-sensitivity `γ·s/ℓ`.
    pub fn average_sensitivity(&self, output_width: f64) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        self.gamma as f64 * output_width / self.blocks.len() as f64
    }

    /// Builds the zero-copy [`BlockView`]s the computation manager ships
    /// to the chambers: each view is two `Arc` bumps (store + index
    /// list), so this allocates only the outer `Vec` — O(ℓ) handles, no
    /// row data, independent of γ·dataset-bytes.
    ///
    /// Panics when the plan was built for more records than `store`
    /// holds (views bounds-check their indices on construction).
    pub fn views(&self, store: &Arc<RowStore>) -> Vec<BlockView> {
        self.blocks
            .iter()
            .map(|idx| BlockView::sparse(Arc::clone(store), Arc::clone(idx)))
            .collect()
    }

    /// Bytes of index bookkeeping the plan holds — the *only* per-query
    /// block-preparation allocation on the view plane (the legacy clone
    /// plane copied `γ · payload_bytes` of row data instead).
    pub fn index_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.len() * std::mem::size_of::<usize>())
            .sum()
    }

    /// Materialises one block by deep-cloning the referenced rows.
    ///
    /// Legacy clone plane: survives only for the equivalence tests and
    /// the clone-vs-view benchmark. Query paths use [`BlockPlan::views`].
    pub fn materialize(&self, store: &RowStore, block: usize) -> Vec<Vec<f64>> {
        self.blocks[block]
            .iter()
            .map(|&i| store.row(i).to_vec())
            .collect()
    }

    /// Materialises every block by deep-cloning rows (legacy clone
    /// plane — see [`BlockPlan::materialize`]).
    pub fn materialize_all(&self, store: &RowStore) -> Vec<Vec<Vec<f64>>> {
        (0..self.blocks.len())
            .map(|b| self.materialize(store, b))
            .collect()
    }
}

/// The paper's default block size `β = ⌈n^0.6⌉` (so `ℓ ≈ n^0.4`).
pub fn default_block_size(n: usize) -> usize {
    if n == 0 {
        return 1;
    }
    ((n as f64).powf(0.6).ceil() as usize).clamp(1, n)
}

/// Fisher–Yates shuffle: a uniform permutation that reads nothing but
/// the generator, so a partition built from it is independent of the
/// data.
fn shuffle<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = draw_below(i as u64 + 1, rng) as usize;
        items.swap(i, j);
    }
}

/// A uniform draw from `[0, bound)` by Lemire's nearly divisionless
/// multiply-shift ("Fast Random Integer Generation in an Interval",
/// ACM TOMACS 2019): the high word of `x · bound` is the draw, and the
/// low word rejects the `2^64 mod bound` values of `x` that would bias
/// it. The one division computes that threshold and runs only when the
/// low word falls below `bound`, which for a shuffle of `n` items
/// happens with probability under `n / 2^64` per draw.
///
/// `bound` must be non-zero.
fn draw_below<R: Rng + ?Sized>(bound: u64, rng: &mut R) -> u64 {
    debug_assert!(bound > 0);
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    if (m as u64) < bound {
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(bound);
        }
    }
    (m >> 64) as u64
}

/// Builds a partition plan over the contiguous record range
/// `start..end`: `gamma` independent shuffles of the range, each chopped
/// into blocks of `block_size` (the final block of a round may be
/// smaller when `block_size ∤ end - start`). `partition_range(0, n, ..)`
/// partitions a whole table; a sub-range partitions one stream window,
/// whose [`BlockPlan`] views the rows in place (no copy, no re-indexing
/// of the underlying store).
///
/// Panics never; degenerate inputs are clamped (`block_size ∈ [1,
/// end - start]`, `gamma ≥ 1`). An empty or inverted range yields a
/// plan with no blocks.
pub fn partition_range<R: Rng + ?Sized>(
    start: usize,
    end: usize,
    block_size: usize,
    gamma: usize,
    rng: &mut R,
) -> BlockPlan {
    let gamma = gamma.max(1);
    let n = end.saturating_sub(start);
    if n == 0 {
        return BlockPlan {
            blocks: Vec::new(),
            block_size: block_size.max(1),
            gamma,
            records: 0,
        };
    }
    let block_size = block_size.clamp(1, n);
    let mut blocks = Vec::with_capacity(gamma * n.div_ceil(block_size));
    for _ in 0..gamma {
        let mut order: Vec<usize> = (start..end).collect();
        shuffle(&mut order, rng);
        for chunk in order.chunks(block_size) {
            blocks.push(Arc::from(chunk));
        }
    }
    BlockPlan {
        blocks,
        block_size,
        gamma,
        records: n,
    }
}

/// Builds a *group-aware* partition plan for user-level privacy (§8.1):
/// all records of a group (user) stay together, so changing one user
/// perturbs at most `gamma` blocks and the `γ·s/ℓ` sensitivity bound
/// holds at user granularity.
///
/// `groups` lists the record indices of each group. Each of the `gamma`
/// rounds shuffles the group order and greedily packs whole groups into
/// blocks, closing a block once it holds at least `block_size` records.
/// A group is never split, so a block can overshoot `block_size`: a
/// group larger than `block_size` joins the partial block before it (if
/// any) and closes that block. Empty groups are skipped.
pub fn partition_grouped<R: Rng + ?Sized>(
    groups: &[Vec<usize>],
    block_size: usize,
    gamma: usize,
    rng: &mut R,
) -> BlockPlan {
    let gamma = gamma.max(1);
    let block_size = block_size.max(1);
    let records: usize = groups.iter().map(Vec::len).sum();
    if records == 0 {
        return BlockPlan {
            blocks: Vec::new(),
            block_size,
            gamma,
            records: 0,
        };
    }
    let mut blocks: Vec<Arc<[usize]>> = Vec::new();
    for _ in 0..gamma {
        let mut order: Vec<usize> = (0..groups.len())
            .filter(|&g| !groups[g].is_empty())
            .collect();
        shuffle(&mut order, rng);
        let mut current: Vec<usize> = Vec::new();
        for &g in &order {
            current.extend_from_slice(&groups[g]);
            if current.len() >= block_size {
                blocks.push(Arc::from(std::mem::take(&mut current)));
            }
        }
        if !current.is_empty() {
            blocks.push(Arc::from(current));
        }
    }
    BlockPlan {
        blocks,
        block_size,
        gamma,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::HashSet;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB10C)
    }

    #[test]
    fn default_block_size_matches_paper() {
        // 26733^0.6 ≈ 453.8 → 454.
        assert_eq!(default_block_size(26_733), 454);
        assert_eq!(default_block_size(0), 1);
        assert_eq!(default_block_size(1), 1);
        // Never exceeds n.
        assert_eq!(default_block_size(2), 2);
    }

    #[test]
    fn disjoint_partition_covers_all_indices_once() {
        let plan = partition_range(0, 1000, 100, 1, &mut rng());
        assert_eq!(plan.num_blocks(), 10);
        let mut seen = vec![0usize; 1000];
        for block in plan.blocks() {
            assert!(block.len() <= 100);
            for &i in block.iter() {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn resampling_each_record_in_exactly_gamma_blocks() {
        let gamma = 4;
        let plan = partition_range(0, 500, 50, gamma, &mut rng());
        assert_eq!(plan.num_blocks(), gamma * 10);
        let mut counts = vec![0usize; 500];
        for block in plan.blocks() {
            // No record twice within one block.
            let set: HashSet<usize> = block.iter().copied().collect();
            assert_eq!(set.len(), block.len());
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == gamma));
    }

    #[test]
    fn uneven_sizes_keep_coverage() {
        let plan = partition_range(0, 103, 10, 2, &mut rng());
        // Each round: 10 full blocks + 1 of size 3.
        assert_eq!(plan.num_blocks(), 22);
        let mut counts = vec![0usize; 103];
        for block in plan.blocks() {
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn average_sensitivity_is_gamma_invariant_in_beta() {
        // Claim 1: for fixed β, sensitivity γ·s/ℓ = s·β/n independent of γ.
        let n = 1000;
        let beta = 100;
        let s = 5.0;
        for gamma in [1usize, 2, 4, 8] {
            let plan = partition_range(0, n, beta, gamma, &mut rng());
            let sens = plan.average_sensitivity(s);
            assert!(
                (sens - s * beta as f64 / n as f64).abs() < 1e-12,
                "γ={gamma}: {sens}"
            );
        }
    }

    #[test]
    fn degenerate_inputs_clamped() {
        let plan = partition_range(0, 10, 0, 0, &mut rng());
        assert_eq!(plan.block_size(), 1);
        assert_eq!(plan.gamma(), 1);
        assert_eq!(plan.num_blocks(), 10);

        let empty = partition_range(0, 0, 5, 2, &mut rng());
        assert_eq!(empty.num_blocks(), 0);
        assert_eq!(empty.average_sensitivity(1.0), 0.0);
    }

    #[test]
    fn block_size_larger_than_n_means_one_block_per_round() {
        let plan = partition_range(0, 7, 100, 3, &mut rng());
        assert_eq!(plan.num_blocks(), 3);
        assert!(plan.blocks().iter().all(|b| b.len() == 7));
    }

    #[test]
    fn materialize_clones_correct_rows() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let store = RowStore::from_rows(&rows);
        let plan = partition_range(0, 20, 5, 1, &mut rng());
        let all = plan.materialize_all(&store);
        assert_eq!(all.len(), 4);
        for (b, block) in all.iter().enumerate() {
            for (r, row) in block.iter().enumerate() {
                assert_eq!(row[0] as usize, plan.blocks()[b][r]);
            }
        }
    }

    #[test]
    fn shuffles_are_seed_deterministic() {
        let a = partition_range(0, 100, 10, 2, &mut StdRng::seed_from_u64(5));
        let b = partition_range(0, 100, 10, 2, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.blocks(), b.blocks());
        let c = partition_range(0, 100, 10, 2, &mut StdRng::seed_from_u64(6));
        assert_ne!(a.blocks(), c.blocks());
    }

    #[test]
    fn range_partition_covers_exactly_the_window() {
        let plan = partition_range(100, 350, 50, 2, &mut rng());
        assert_eq!(plan.records(), 250);
        assert_eq!(plan.num_blocks(), 10);
        let mut counts = vec![0usize; 350];
        for block in plan.blocks() {
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        assert!(counts[..100].iter().all(|&c| c == 0), "leaked below start");
        assert!(counts[100..].iter().all(|&c| c == 2));
        // Matches the whole-table partition shifted by the window start.
        let shifted = partition_range(0, 250, 50, 2, &mut StdRng::seed_from_u64(9));
        let ranged = partition_range(100, 350, 50, 2, &mut StdRng::seed_from_u64(9));
        for (a, b) in shifted.blocks().iter().zip(ranged.blocks()) {
            let bumped: Vec<usize> = a.iter().map(|&i| i + 100).collect();
            assert_eq!(&bumped[..], &b[..]);
        }
    }

    #[test]
    fn range_partition_degenerate_ranges() {
        assert_eq!(partition_range(5, 5, 10, 2, &mut rng()).num_blocks(), 0);
        assert_eq!(partition_range(9, 3, 10, 2, &mut rng()).num_blocks(), 0);
        let one = partition_range(4, 5, 100, 1, &mut rng());
        assert_eq!(one.num_blocks(), 1);
        assert_eq!(&one.blocks()[0][..], &[4]);
    }

    #[test]
    fn grouped_partition_keeps_groups_atomic() {
        // 30 groups of 1-5 records each.
        let mut next = 0usize;
        let groups: Vec<Vec<usize>> = (0..30)
            .map(|g| {
                let size = g % 5 + 1;
                let ids: Vec<usize> = (next..next + size).collect();
                next += size;
                ids
            })
            .collect();
        let gamma = 3;
        let plan = partition_grouped(&groups, 8, gamma, &mut rng());
        // Every record appears exactly γ times.
        let mut counts = vec![0usize; next];
        for block in plan.blocks() {
            for &i in block.iter() {
                counts[i] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == gamma));
        // Group atomicity: all members of a group share blocks.
        for block in plan.blocks() {
            let set: HashSet<usize> = block.iter().copied().collect();
            for group in &groups {
                let present = group.iter().filter(|i| set.contains(i)).count();
                assert!(
                    present == 0 || present == group.len(),
                    "group split across blocks"
                );
            }
        }
    }

    #[test]
    fn grouped_partition_never_splits_an_oversized_group() {
        let groups = vec![(0..20).collect::<Vec<_>>(), vec![20], vec![21]];
        let plan = partition_grouped(&groups, 5, 1, &mut rng());
        // The 20-record group must be intact in one block.
        let big = plan
            .blocks()
            .iter()
            .find(|b| b.contains(&0))
            .expect("big group present");
        assert!(big.len() >= 20);
    }

    #[test]
    fn grouped_partition_empty_inputs() {
        let plan = partition_grouped(&[], 5, 2, &mut rng());
        assert_eq!(plan.num_blocks(), 0);
        let plan = partition_grouped(&[vec![], vec![]], 5, 2, &mut rng());
        assert_eq!(plan.num_blocks(), 0);
    }

    #[test]
    fn grouped_partition_sensitivity_counts_groups() {
        let groups: Vec<Vec<usize>> = (0..100).map(|g| vec![2 * g, 2 * g + 1]).collect();
        let plan = partition_grouped(&groups, 10, 2, &mut rng());
        // ℓ = γ·(200 records / 10 per block) = 40 blocks.
        assert_eq!(plan.num_blocks(), 40);
        // One *user* affects γ blocks: sensitivity = γ·s/ℓ.
        assert!((plan.average_sensitivity(5.0) - 2.0 * 5.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_produces_permutation() {
        let mut items: Vec<usize> = (0..50).collect();
        shuffle(&mut items, &mut rng());
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Pearson's χ² of `counts` against equal expected counts.
    fn chi_square(counts: &[u64]) -> f64 {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    #[test]
    fn shuffle_draws_all_24_orders_of_four_items_uniformly() {
        // Lehmer rank of a permutation of 0..4, in 0..24.
        fn rank(p: &[usize; 4]) -> usize {
            (0..4).fold(0, |r, i| {
                r * (4 - i) + p[i + 1..].iter().filter(|&&v| v < p[i]).count()
            })
        }
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut counts = [0u64; 24];
        for _ in 0..24_000 {
            let mut items = [0, 1, 2, 3];
            shuffle(&mut items, &mut rng);
            counts[rank(&items)] += 1;
        }
        // 49.73 is the 0.999 quantile of χ² with 23 degrees of freedom.
        // A Sattolo draw (j < i) reaches only the 6 cyclic orders.
        let chi2 = chi_square(&counts);
        assert!(chi2 < 49.73, "χ² = {chi2:.1} over {counts:?}");
    }

    #[test]
    fn first_block_is_a_uniform_three_subset_of_six() {
        // The 20 subsets {a, b, c} ⊂ 0..6 as 6-bit masks, in a fixed order.
        let subsets: Vec<u32> = (0u32..64).filter(|m| m.count_ones() == 3).collect();
        assert_eq!(subsets.len(), 20);
        let mut rng = StdRng::seed_from_u64(0xF1857);
        let mut counts = [0u64; 20];
        for _ in 0..20_000 {
            let plan = partition_range(0, 6, 3, 1, &mut rng);
            let mask = plan.blocks()[0].iter().fold(0u32, |m, &i| m | 1 << i);
            let slot = subsets.iter().position(|&s| s == mask).expect("3 of 6");
            counts[slot] += 1;
        }
        // 43.82 is the 0.999 quantile of χ² with 19 degrees of freedom.
        let chi2 = chi_square(&counts);
        assert!(chi2 < 43.82, "χ² = {chi2:.1} over {counts:?}");
    }

    /// Replays a fixed list of words, so a test sees exactly how many
    /// words a draw consumed.
    struct Scripted(std::vec::IntoIter<u64>);

    impl Rng for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("script exhausted")
        }
    }

    #[test]
    fn draw_below_redraws_only_under_the_rejection_threshold() {
        // bound 6: 2^64 mod 6 = 4 values of x are rejected, those whose
        // product with 6 has a low word below 4.
        // x = ⌈2^64/6⌉: 6x = 2^64 + 2, low word 2 < 4, so it redraws;
        // u64::MAX then gives 6x = 6·2^64 − 6, high word 5.
        let mut rng = Scripted(vec![3_074_457_345_618_258_603, u64::MAX].into_iter());
        assert_eq!(draw_below(6, &mut rng), 5);
        assert_eq!(rng.0.len(), 0, "the redraw consumed the second word");
        // 6x = 2·2^64 + 4: low word 4 is below the bound but not below
        // the threshold, so the first word stands.
        let mut rng = Scripted(vec![6_148_914_691_236_517_206, u64::MAX].into_iter());
        assert_eq!(draw_below(6, &mut rng), 2);
        assert_eq!(rng.0.len(), 1, "no redraw at the threshold");
        // Powers of two never reject: 2^64 mod 8 = 0.
        let mut rng = Scripted(vec![0].into_iter());
        assert_eq!(draw_below(8, &mut rng), 0);
    }

    #[test]
    fn partition_stream_is_pinned() {
        // A change to the draw changes every seeded answer; this literal
        // makes such a change deliberate.
        let plan = partition_range(0, 10, 4, 2, &mut StdRng::seed_from_u64(7));
        let blocks: Vec<Vec<usize>> = plan.blocks().iter().map(|b| b.to_vec()).collect();
        let golden: Vec<Vec<usize>> = vec![
            vec![3, 8, 9, 4],
            vec![6, 7, 2, 5],
            vec![1, 0],
            vec![7, 4, 3, 6],
            vec![2, 9, 5, 8],
            vec![1, 0],
        ];
        assert_eq!(blocks, golden);
    }
}
