//! Trace a frame: follow one datum end-to-end through the pipeline.
//!
//! Runs the monitored machine with always-on tracing, prints one healthy
//! frame's span tree (collect → transport → store, analysis, response),
//! then induces a backpressure drop and a gateway deadline shed and shows
//! the drop-provenance traces that explain each loss.  Writes the healthy
//! frame's flamegraph timeline to `trace_timeline.svg`, and ends with where
//! the tick's time went: one row per tick stage, read off the plane's own
//! `stage.*` histograms.  Exits 1 if a stage recorded nothing or the
//! stages account for less than 98% of `stage.tick`.
//!
//! ```sh
//! cargo run --release --example trace_a_frame
//! ```

use hpcmon::system::TICK_STAGES;
use hpcmon::trace::{DropReason, Sampler};
use hpcmon::viz::{render_span_tree, svg_trace_timeline};
use hpcmon::{MonitoringSystem, SimConfig};
use hpcmon_gateway::{GatewayConfig, QueryRequest};
use hpcmon_metrics::{CompId, SeriesKey, Ts, MINUTE_MS};
use hpcmon_response::Consumer;
use hpcmon_sim::{AppProfile, JobSpec};
use hpcmon_store::TimeRange;
use hpcmon_transport::{BackpressurePolicy, TopicFilter};
use std::time::Duration;

fn main() {
    // Full pipeline with a gateway, tracing every frame.
    let mut mon = MonitoringSystem::builder(SimConfig::small())
        .tracing(Sampler::always())
        .gateway(GatewayConfig { default_deadline_ms: 10_000, ..GatewayConfig::default() })
        .build();
    mon.submit_job(JobSpec::new(
        AppProfile::compute_heavy("stencil3d"),
        "alice",
        32,
        25 * MINUTE_MS,
        Ts::ZERO,
    ));
    mon.run_ticks(10);

    // --- 1. A healthy frame, end to end -------------------------------
    let healthy =
        mon.traces().completed().rev().find(|t| !t.has_drop()).expect("a lossless frame exists");
    println!("=== a healthy frame, end to end ===");
    print!("{}", render_span_tree(healthy));
    let svg = svg_trace_timeline(healthy, 900);
    std::fs::write("trace_timeline.svg", &svg).expect("write svg");
    println!("(flamegraph timeline written to trace_timeline.svg, {} bytes)\n", svg.len());

    // --- 2. Where did my frame go? Backpressure drop provenance -------
    // A consumer that never drains a two-slot queue: further frames to it
    // are dropped, and every drop records which stage lost it and why.
    let _laggard = mon.broker().subscribe(
        TopicFilter::new("metrics/frame"),
        2,
        BackpressurePolicy::DropNewest,
    );
    mon.run_ticks(4);
    println!("=== a frame lost to backpressure ===");
    let dropped = mon.traces().with_drops().next_back().expect("induced drop traced");
    print!("{}", render_span_tree(dropped));
    println!();

    // --- 3. Where did my answer go? Gateway shed provenance -----------
    let gw = mon.gateway().unwrap().clone();
    let req = QueryRequest::Series {
        key: SeriesKey::new(mon.metrics().system_power, CompId::SYSTEM),
        range: TimeRange::all(),
    };
    let _ = gw.query_with_deadline(&Consumer::admin("impatient"), req, Duration::from_millis(0));
    mon.run_ticks(2);
    println!("=== a query shed at its deadline ===");
    let shed = mon
        .traces()
        .completed()
        .rev()
        .find(|t| t.first_drop_reason() == Some(DropReason::DeadlineShed))
        .expect("shed query traced");
    print!("{}", render_span_tree(shed));

    // --- 4. The tracing layer's own accounting ------------------------
    let stats = mon.tracer().stats();
    println!("\n=== tracer self-accounting ===");
    println!(
        "sampled traces: {}   spans recorded: {}   ring rejections: {}",
        stats.traces_sampled, stats.spans_recorded, stats.spans_rejected
    );
    println!(
        "completed traces: {} ({} with drops) — exported as hpcmon.self.trace.*",
        mon.traces().completed_total(),
        mon.traces().completed_with_drops()
    );

    // --- 5. Where the tick's time went --------------------------------
    let report = mon.telemetry_report();
    let hist = |name: &str| report.histograms.iter().find(|h| h.name == name);
    let total_ns = |h: &hpcmon::telemetry::HistogramSnapshot| h.mean_ns * h.count;
    let tick = hist("stage.tick").expect("stage.tick registered");
    println!("\n=== where the tick's time went ({} ticks) ===", tick.count);
    println!("{:<10} {:>10} {:>8}", "stage", "p50 us", "share");
    let (mut staged_ns, mut silent) = (0, Vec::new());
    for stage in TICK_STAGES {
        let h = hist(&format!("stage.{stage}")).filter(|h| h.count > 0);
        let Some(h) = h else {
            silent.push(stage);
            continue;
        };
        staged_ns += total_ns(h);
        let share = 100.0 * total_ns(h) as f64 / total_ns(tick) as f64;
        println!("{stage:<10} {:>10.1} {share:>7.1}%", h.p50_ns as f64 / 1e3);
    }
    let covered = 100.0 * staged_ns as f64 / total_ns(tick) as f64;
    println!("{:<10} {:>10.1} {covered:>7.1}%", "tick", tick.p50_ns as f64 / 1e3);
    if !silent.is_empty() || covered < 98.0 {
        eprintln!(
            "stages with no observations: {silent:?}; stages cover {covered:.1}% of the tick"
        );
        std::process::exit(1);
    }
}
