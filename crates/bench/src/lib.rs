#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Shared helpers for the benchmark harness.
//!
//! Each bench binary regenerates one paper artifact (the figure's series
//! or the capability a Table I row demands), prints the summary rows the
//! paper reports, and then times the representative kernels with
//! Criterion.  Absolute numbers come from our simulator, not the authors'
//! machines; `EXPERIMENTS.md` records the *shape* comparisons.

use hpcmon_metrics::{CompId, MetricId, Sample, Ts};
use hpcmon_store::TimeSeriesStore;

/// Seed used by every bench for reproducibility.
pub const BENCH_SEED: u64 = 2018;

/// Populate a store with `series` node series × `points` minutely points
/// of slowly varying data — the standing dataset for query benches.
pub fn populated_store(series: u32, points: u64) -> TimeSeriesStore {
    let store = TimeSeriesStore::new();
    for n in 0..series {
        for m in 0..points {
            let v = 200.0 + (n as f64) + ((m as f64) * 0.05).sin() * 10.0;
            store.insert(&Sample::new(MetricId(0), CompId::node(n), Ts::from_mins(m), v));
        }
    }
    store
}

/// Print a labelled series summary (first/last/mean/max) as one row.
pub fn print_series_row(label: &str, series: &[(Ts, f64)]) {
    if series.is_empty() {
        println!("  {label:<28} (empty)");
        return;
    }
    let values: Vec<f64> = series.iter().map(|p| p.1).collect();
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "  {label:<28} n={:<5} min={:<12.4} mean={:<12.4} max={:<12.4}",
        series.len(),
        min,
        mean,
        max
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populated_store_has_expected_shape() {
        let store = populated_store(4, 100);
        let stats = store.stats();
        assert_eq!(stats.series, 4);
        assert_eq!(stats.hot_points + stats.warm_points, 400);
    }

    #[test]
    fn print_helpers_do_not_panic() {
        print_series_row("empty", &[]);
        print_series_row("one", &[(Ts(0), 1.0)]);
    }
}
