//! Order statistics, the quiet-sample estimator and process memory.

use crate::Metrics;

/// Nearest-rank percentile of `values` (`q` in 0..=1); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median, averaging the middle pair of an even-sized sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Indices of the quiet samples: the quarter of `secs` (at least one) that
/// took the least time, fastest first.
///
/// A shared host alternates between quiet and contended stretches, and the
/// same work runs 30–60 % slower in a contended one. A median over every
/// sample then tracks how busy the host was; the fastest quarter tracks the
/// code's own speed.
pub fn quiet(secs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..secs.len()).collect();
    order.sort_by(|&a, &b| secs[a].total_cmp(&secs[b]));
    order.truncate((secs.len() / 4).max(1));
    order
}

/// The median of the quiet samples of `secs`.
pub fn quiet_median(secs: &[f64]) -> f64 {
    let picked: Vec<f64> = quiet(secs).into_iter().map(|i| secs[i]).collect();
    median(&picked)
}

/// Repeated timings of one fixed sequence of pieces of work: a set-up pass
/// or a timed round is one pass, and piece `j` does the same work in every
/// pass. Quiet samples are picked piece by piece, so a contended stretch
/// shorter than a pass costs only the pieces it overlapped.
#[derive(Debug, Default)]
pub struct Passes {
    passes: Vec<Vec<f64>>,
}

impl Passes {
    pub fn push(&mut self, pieces: Vec<f64>) {
        self.passes.push(pieces);
    }

    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Each piece's samples over the passes, piece by piece.
    fn by_piece(&self) -> impl Iterator<Item = Vec<f64>> + '_ {
        let pieces = self.passes.iter().map(Vec::len).min().unwrap_or(0);
        (0..pieces).map(|j| self.passes.iter().map(|pass| pass[j]).collect())
    }

    /// The quiet time of a whole pass: the sum over pieces of each piece's
    /// quiet median.
    pub fn quiet_total(&self) -> f64 {
        self.by_piece().map(|samples| quiet_median(&samples)).sum()
    }

    /// Every quiet sample of every piece: a latency distribution over the
    /// pieces of work with host contention filtered out.
    pub fn quiet_samples(&self) -> Vec<f64> {
        self.by_piece()
            .flat_map(|samples| quiet(&samples).into_iter().map(move |i| samples[i]))
            .collect()
    }
}

/// The end-to-end timings of a run, all from quiet samples: `setup_s` is
/// the quiet set-up pass, and the latency percentiles run over the quiet
/// samples of every operation. The workload gives its own throughput.
pub fn end_to_end(workload: &str, setup_secs: &Passes, ops_ms: &Passes, mb_per_s: f64) -> Metrics {
    let quiet_ops = ops_ms.quiet_samples();
    eprintln!(
        "{workload}: {} set-up passes, {} rounds, {} quiet operation samples",
        setup_secs.len(),
        ops_ms.len(),
        quiet_ops.len()
    );
    Metrics::from([
        ("setup_s", setup_secs.quiet_total()),
        ("throughput_mb_per_s", mb_per_s),
        ("latency_p50_ms", percentile(&quiet_ops, 0.50)),
        ("latency_p90_ms", percentile(&quiet_ops, 0.90)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Megabytes per second for `bytes` processed in `secs`.
pub fn mb_per_s(bytes: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes / 1e6 / secs
    } else {
        0.0
    }
}
