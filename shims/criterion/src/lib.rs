#![forbid(unsafe_code)]

//! Offline stand-in for `criterion`.
//!
//! Same macro/type surface as the real crate for the subset the bench files
//! use (`criterion_group!`/`criterion_main!`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `iter`, `iter_with_setup`,
//! `Throughput`, `BenchmarkId`, `black_box`), implemented as a plain
//! wall-clock timer: calibrate an iteration count, take samples, report the
//! median.  No statistics, plots, or baseline comparisons.
//!
//! One extension beyond the real crate's surface: every benchmark
//! executable also writes a machine-readable `BENCH_<name>.json` at the
//! workspace root (median/p99 ns per iteration and derived throughput), so
//! CI and EXPERIMENTS.md tables can be regenerated without scraping stdout.
//! An overhead is two of its medians divided by the reader.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::Instant;

pub use std::hint::black_box;

/// One finished measurement, destined for `BENCH_<name>.json`.
struct Measurement {
    group: String,
    id: String,
    median_ns: f64,
    p99_ns: f64,
    /// Units (elements or bytes) processed per second at the median,
    /// when the group declared a throughput.
    throughput_per_sec: Option<f64>,
    throughput_unit: Option<&'static str>,
}

/// Process-global result sink: groups run one after another inside one
/// bench executable, and `criterion_main!` flushes this at exit.
static RESULTS: Mutex<Vec<Measurement>> = Mutex::new(Vec::new());

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\nbench group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// Unit attached to a measurement for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Composite benchmark name (`function/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id from a function name and a displayed parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }
}

/// A group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Set the number of timing samples (clamped small: this is a shim).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.clamp(2, 20);
        self
    }

    /// Attach a throughput unit to subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.into_bench_id(), &mut f);
        self
    }

    /// Run one benchmark with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: impl IntoBenchId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.into_bench_id(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// End the group (printing is already done per-benchmark).
    pub fn finish(self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher { iters: 1, elapsed_ns: 0.0 };
        // Calibrate: grow the iteration count until one sample costs ~2ms.
        loop {
            f(&mut bencher);
            if bencher.elapsed_ns >= 2_000_000.0 || bencher.iters >= 1 << 20 {
                break;
            }
            bencher.iters *= 4;
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            f(&mut bencher);
            samples.push(bencher.elapsed_ns / bencher.iters as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        let p99 =
            samples[((samples.len() as f64 * 0.99).ceil() as usize - 1).min(samples.len() - 1)];
        let (rate, per_sec, unit) = match self.throughput {
            Some(Throughput::Elements(n)) => {
                let v = n as f64 * 1e9 / median;
                let each = median / n as f64;
                (format!("  ({v:.0} elem/s, {each:.2} ns/elem)"), Some(v), Some("elements"))
            }
            Some(Throughput::Bytes(n)) => {
                let v = n as f64 * 1e9 / median;
                (format!("  ({v:.0} bytes/s)"), Some(v), Some("bytes"))
            }
            None => (String::new(), None, None),
        };
        println!("  {id}: {median:.1} ns/iter{rate}");
        if let Ok(mut results) = RESULTS.lock() {
            results.push(Measurement {
                group: self.name.clone(),
                id: id.to_string(),
                median_ns: median,
                p99_ns: p99,
                throughput_per_sec: per_sec,
                throughput_unit: unit,
            });
        }
    }
}

/// Write `BENCH_<name>.json` at the workspace root, where `<name>` is the
/// benchmark executable's stem (cargo's `-<hash>` suffix stripped).
/// Called by `criterion_main!` after every group has run; a standalone
/// `fn main` bench may call it directly.
pub fn write_machine_report() {
    let results = match RESULTS.lock() {
        Ok(r) => r,
        Err(poisoned) => poisoned.into_inner(),
    };
    if results.is_empty() {
        return;
    }
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": {:?}, \"id\": {:?}, \"median_ns\": {:.1}, \"p99_ns\": {:.1}, \
             \"throughput_per_sec\": {}, \"throughput_unit\": {}}}{}\n",
            m.group,
            m.id,
            m.median_ns,
            m.p99_ns,
            m.throughput_per_sec.map_or("null".to_string(), |v| format!("{v:.1}")),
            m.throughput_unit.map_or("null".to_string(), |u| format!("{u:?}")),
            if i + 1 == results.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let exe = std::env::current_exe().unwrap_or_default();
    let stem = exe
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "bench".to_string());
    // Strip cargo's `-<16 hex>` disambiguation hash, if present.
    let name = match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    };
    // The workspace root is the nearest ancestor of the executable (which
    // lives under `<root>/target/...`) that carries a Cargo.toml; fall
    // back to the current directory.
    let root = exe
        .ancestors()
        .skip(1)
        .find(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| dir.to_path_buf())
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    let path = root.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nmachine-readable results: {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Conversion into the printed benchmark name.
pub trait IntoBenchId {
    /// The printable id.
    fn into_bench_id(self) -> String;
}

impl IntoBenchId for &str {
    fn into_bench_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchId for String {
    fn into_bench_id(self) -> String {
        self
    }
}

impl IntoBenchId for BenchmarkId {
    fn into_bench_id(self) -> String {
        self.id
    }
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    iters: u64,
    elapsed_ns: f64,
}

impl Bencher {
    /// Time `routine` over the calibrated iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed_ns = start.elapsed().as_secs_f64() * 1e9;
    }

    /// Time `routine` with a fresh un-timed `setup` product per iteration.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total_ns = 0.0;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total_ns += start.elapsed().as_secs_f64() * 1e9;
        }
        self.elapsed_ns = total_ns;
    }
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Entry point running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_machine_report();
        }
    };
}
