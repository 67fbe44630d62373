//! The GUPT runtime — privacy-preserving data analysis made easy.
//!
//! This crate implements the system described in *GUPT: Privacy
//! Preserving Data Analysis Made Easy* (SIGMOD 2012): a platform that
//! runs **unmodified, untrusted** analysis programs over sensitive
//! datasets and releases only ε-differentially private outputs, built on
//! the sample-and-aggregate framework of Smith (STOC 2011).
//!
//! # Architecture (paper §3.1)
//!
//! - [`dataset_manager::DatasetManager`] registers datasets and maintains
//!   each one's lifetime privacy budget.
//! - [`computation_manager::ComputationManager`] pipes data blocks into
//!   isolated execution chambers (`gupt-sandbox`) and collects outputs.
//! - [`runtime::GuptRuntime`] ties them together: budget resolution,
//!   block planning (§4.2–4.3), range estimation (§4.1), aggregation
//!   (Algorithm 1) and the Theorem 1 budget splits.
//!
//! # Quick example
//!
//! ```
//! use gupt_core::{GuptRuntimeBuilder, QuerySpec, RangeEstimation};
//! use gupt_dp::{Epsilon, OutputRange};
//!
//! let rows: Vec<Vec<f64>> = (0..2000).map(|i| vec![(i % 50) as f64]).collect();
//! let runtime = GuptRuntimeBuilder::new()
//!     .register_dataset("t", rows, Epsilon::new(5.0).unwrap())
//!     .unwrap()
//!     .seed(1)
//!     .build();
//!
//! // A *named* program is zero-copy (runs on [`BlockView`]s) and carries
//! // a stable identity, so repeated runs replay from the answer cache at
//! // zero additional ε.
//! let spec = QuerySpec::builder()
//!     .view(|block: &gupt_core::BlockView| {
//!         vec![block.iter().map(|r| r[0]).sum::<f64>() / block.len() as f64]
//!     })
//!     .identity("mean", 1)
//!     .epsilon(Epsilon::new(1.0).unwrap())
//!     .range_estimation(RangeEstimation::Tight(vec![OutputRange::new(0.0, 49.0).unwrap()]))
//!     .build()
//!     .unwrap();
//!
//! let answer = runtime.run("t", spec).unwrap();
//! assert!((answer.values[0] - 24.5).abs() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregator;
pub mod aging;
pub mod batch;
pub mod block_size;
pub mod blocks;
pub mod budget_distribution;
pub mod budget_estimator;
pub mod cache;
pub mod computation_manager;
pub mod dataset;
pub mod dataset_manager;
pub mod error;
pub mod explain;
pub mod output_range;
mod plan;
pub mod prelude;
pub mod principal;
pub mod query;
pub mod runtime;
pub mod saf;
pub mod service;
pub mod storage;
pub mod stream;
pub mod telemetry;

pub use aggregator::Aggregator;
pub use aging::{aged_block_stats, AgedBlockStats};
pub use batch::BatchAnswer;
pub use block_size::{optimal_block_size, BlockSizeChoice};
pub use blocks::{default_block_size, partition_grouped, partition_range, BlockPlan};
pub use budget_distribution::{distribute_budget, QueryNoiseProfile};
pub use budget_estimator::{estimate_epsilon, AccuracyGoal, TailBound};
pub use cache::{
    AnswerCache, CacheStats, Memo, ProgramIdentity, QueryFingerprint, DEFAULT_CACHE_CAPACITY,
};
pub use computation_manager::{ComputationManager, ExecutionSummary};
pub use dataset::Dataset;
pub use dataset_manager::{
    AppendReceipt, DatasetEntry, DatasetManager, DatasetRegistration, IngestStats, LedgerState,
};
pub use error::GuptError;
pub use explain::{BudgetSplit, QueryPlan};
pub use gupt_sandbox::view::{BlockRows, BlockView, RowStore};
pub use gupt_sandbox::ExecutionPolicy;
pub use output_range::{RangeEstimation, RangeTranslator};
pub use principal::{validate_principal_name, ExhaustedPolicy, PrincipalState, PrincipalTable};
pub use query::{BlockSizeSpec, BudgetSpec, QuerySpec, QuerySpecBuilder};
pub use runtime::{DatasetHandle, GuptRuntime, GuptRuntimeBuilder, PrivateAnswer};
pub use saf::{clamped_block_means, sample_and_aggregate};
pub use service::{QueryService, ServiceConfig, ServiceStats};
pub use storage::{
    CacheRecord, Durability, FailingStore, FailureMode, FsyncPolicy, LedgerStore, PrincipalBooks,
    RecoveredLedger, StorageConfig, StorageStats,
};
pub use stream::{ContinuousQuery, WindowKey, WindowResult, WindowSpec, STREAM_CACHE_EPOCH};
pub use telemetry::{
    BlockCounters, IngestTelemetry, LedgerEvent, ParallelTelemetry, QueryTelemetry, ServeTelemetry,
    SqlTelemetry, Stage, StageTiming, StreamTelemetry, TelemetryReport, TELEMETRY_SCHEMA_VERSION,
};
