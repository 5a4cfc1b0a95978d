//! Result assembly: sample statistics, the host record, and the final
//! JSON line.

use std::fmt::Write as _;

/// What one benchmark invocation measured.
#[derive(Default)]
pub struct Outcome {
    /// Rounds (or fleet jobs) attempted.
    pub attempted: u64,
    /// Attempted rounds (or jobs) that errored or belong to a run that
    /// failed a correctness check.
    pub failed: u64,
    /// Every failed check, in the order found.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics this workload does not exercise, with the reason.
    /// They print as 0 so every workload reports the same metric set.
    pub absent: Vec<(&'static str, &'static str)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a measured per-layer metric (its unit comes from
    /// [`PER_LAYER`]).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.metric(name, value, unit);
    }

    /// Adds every per-layer metric the workload did not measure as 0,
    /// with `reason(name)` recorded in the absence note, and orders the
    /// metrics as [`PER_LAYER`] lists them.
    pub fn finish_layers(&mut self, reason: &dyn Fn(&str) -> &'static str) {
        for &(name, unit) in PER_LAYER {
            if !self.metrics.iter().any(|(n, _, _)| *n == name) {
                self.metrics.push((name, 0.0, unit));
                self.absent.push((name, reason(name)));
            }
        }
        self.metrics.sort_by_key(|(n, _, _)| {
            PER_LAYER
                .iter()
                .position(|(p, _)| p == n)
                .unwrap_or(usize::MAX)
        });
    }

    /// Records `count` attempted units, all failed when `failure` is set.
    pub fn tally(&mut self, count: u64, failure: Option<String>) {
        self.attempted += count;
        if let Some(failure) = failure {
            self.failed += count;
            self.failures.push(failure);
        }
    }

    /// Prints the failure and absence notes, then the result object as the
    /// last line of standard output.
    pub fn print(&self) {
        for failure in &self.failures {
            println!("check failed: {failure}");
        }
        if !self.absent.is_empty() {
            let mut line = String::from("{\"absent\": {");
            for (i, (name, reason)) in self.absent.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(line, "{sep}\"{name}\": \"{reason}\"");
            }
            line.push_str("}}");
            println!("{line}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// The per-layer ledger: every traced run prints all of these, `(name,
/// unit)`. Counts and times are per round unless the name says otherwise;
/// `README.md` defines each one.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("fl.partition_ms", "ms"),
    ("crypto.keygen_ms", "ms"),
    ("fl.select_ms", "ms"),
    ("ml.train_ms", "ms"),
    ("ml.train_samples", "count"),
    ("crypto.upload_ms", "ms"),
    ("crypto.bytes_hashed", "bytes"),
    ("crypto.rejected", "count"),
    ("core.exchange_ms", "ms"),
    ("core.global_update_ms", "ms"),
    ("cluster.points", "count"),
    ("core.dropped", "count"),
    ("chain.mine_ms", "ms"),
    ("chain.pow_hashes", "count"),
    ("chain.block_bytes", "bytes"),
    ("ml.eval_ms", "ms"),
    ("crypto.serialize_us", "us"),
    ("crypto.sha256_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verify_us", "us"),
    ("net.events_per_round", "count"),
    ("net.dropped_uploads", "count"),
    ("net.retried_uploads", "count"),
    ("core.stale_included", "count"),
    ("core.stale_discarded", "count"),
    ("core.useful_upload_ratio", "ratio"),
    ("core.mempool_depth_at_seal", "count"),
    ("alloc.allocs_per_round", "count"),
    ("alloc.live_growth_kib_per_round", "KiB"),
    ("harness.run_fleet_ms.table2_attack", "ms"),
    ("harness.run_fleet_ms.quota_churn", "ms"),
    ("harness.run_fleet_ms.fault_resilience", "ms"),
    ("harness.summarize_ms", "ms"),
    ("harness.jobs", "count"),
    ("harness.rounds", "count"),
    ("harness.worker_util", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The closed-loop budget: another run starts while fewer than `min` have
/// run, or while one more run of the mean length so far still ends within
/// `budget`, so an invocation stays inside its budget.
pub fn another_run(
    start: std::time::Instant,
    budget: std::time::Duration,
    done: usize,
    min: usize,
) -> bool {
    let elapsed = start.elapsed();
    done < min || elapsed + elapsed / done as u32 <= budget
}

/// The lowest of `values`: the best run of a lower-is-better timing.
/// Contention on a shared host only ever slows a run, so the best run is
/// the steadiest estimate of the program's own speed.
pub fn best_low(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The highest of `values`: the best run of a higher-is-better rate.
pub fn best_high(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, f64::max)
}

/// SplitMix64: derives independent input seeds from the `--seed` argument.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hex SHA-256 of `bytes`.
pub fn digest_hex(bytes: &[u8]) -> String {
    bfl_crypto::sha256::to_hex(&bfl_crypto::sha256(bytes))
}

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// The host and settings line printed with every result: the checkout's
/// git revision (when it has a `.git`), core count, ML kernel tier and the
/// environment variables that change the compute substrate.
pub fn host_line(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |key: &str| match std::env::var(key) {
        Ok(value) => format!("\"{}\"", value.escape_default()),
        Err(_) => "null".to_string(),
    };
    format!(
        "{{\"host\": {{\"git_sha\": \"{}\", \"source_sha256\": \"{}\", \"nproc\": {nproc}, \
         \"par_max_threads\": {}, \"simd_tier\": \"{}\", \"BFL_MAX_THREADS\": {}, \
         \"BFL_SIMD\": {}, \"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}}}}}",
        git_sha(),
        source_sha256(),
        bfl_ml::par::max_threads(),
        if bfl_ml::simd::active() {
            "avx2-fma"
        } else {
            "scalar"
        },
        env("BFL_MAX_THREADS"),
        env("BFL_SIMD"),
        u8::from(trace),
    )
}

/// SHA-256 over the path and bytes of every build input in the working
/// directory (manifests, lock files, cargo config, `.rs` sources), in
/// sorted order. It names the code version where the checkout has no
/// `.git`.
fn source_sha256() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && name != ".bench_build" && name != ".git" {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || ["Cargo.toml", "Cargo.lock", "config.toml"]
                    .map(std::ffi::OsString::from)
                    .contains(&name)
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in [".cargo", "benchmark", "crates", "src", "vendor"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(std::path::PathBuf::from));
    files.sort();
    let mut hasher = bfl_crypto::Sha256::new();
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            hasher.update(file.to_string_lossy().as_bytes());
            hasher.update(&bytes);
        }
    }
    bfl_crypto::sha256::to_hex(&hasher.finalize())
}

/// Resolves `HEAD` by reading `.git` in the working directory (no
/// subprocess, no search outside the checkout); `unknown` otherwise.
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let resolved = read(".git/HEAD").and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            None => Some(head.to_string()),
            Some(name) => read(&format!(".git/{name}"))
                .map(|s| s.trim().to_string())
                .or_else(|| {
                    read(".git/packed-refs")?.lines().find_map(|line| {
                        let (sha, r) = line.split_once(' ')?;
                        (r == name).then(|| sha.to_string())
                    })
                }),
        }
    });
    resolved
        .filter(|s| s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}
