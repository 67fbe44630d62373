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
use rand::{Rng, RngExt};
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

/// Fisher–Yates shuffle (rand 0.10 ships no slice shuffle in our
/// dependency set).
fn shuffle<R: Rng + ?Sized, T>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
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
/// blocks until at least `block_size` records accumulate; a group larger
/// than `block_size` becomes its own (oversized) block. Empty groups are
/// skipped.
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
    fn grouped_partition_oversized_group_gets_own_block() {
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
}
