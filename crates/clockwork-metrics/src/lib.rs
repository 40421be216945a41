//! Telemetry primitives for Clockwork-RS.
//!
//! Every figure in the paper's evaluation is built from the same handful of
//! statistics: latency percentiles and CDFs scaled to emphasise the tail
//! (Figs. 2a, 5, 9), goodput/throughput time series (Figs. 6, 8), resource
//! utilization over time (Fig. 6 d–e), and batch-size / cold-start counters
//! (Fig. 8 c–e). This crate provides those building blocks:
//!
//! * [`LatencyHistogram`] — a log-bucketed histogram with accurate tail
//!   percentiles and CDF export, cheap enough to record every request.
//! * [`Summary`] — streaming count/mean/min/max.
//! * [`TimeSeries`] — fixed-interval bucketed counters and gauges.
//! * [`UtilizationTracker`] — busy-interval accounting per time bucket.
//! * [`percentile`] — exact percentiles over small sample vectors.
//! * [`trace`] — structured request-lifecycle spans ([`TraceEvent`]) behind a
//!   zero-cost-when-off [`Tracer`] trait, with a bounded [`RingTracer`] and
//!   deterministic JSONL export for SLO-blame attribution.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod histogram;
pub mod orderstat;
pub mod percentile;
pub mod summary;
pub mod timeseries;
pub mod trace;
pub mod utilization;

pub use histogram::LatencyHistogram;
pub use orderstat::OrderStatWindow;
pub use summary::Summary;
pub use timeseries::TimeSeries;
pub use trace::{NoopTracer, RingTracer, TraceEvent, TraceRecord, Tracer};
pub use utilization::UtilizationTracker;
