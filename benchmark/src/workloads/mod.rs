//! The six workloads. Each makes a different layer do most of the work.

pub mod churn_flap;
pub mod packet_burst;
pub mod probes;
pub mod query;
pub mod table_build;
pub mod whatif_sweep;
