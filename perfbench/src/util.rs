//! Small helpers: the seeded generator, quantiles, peak RSS, metrics.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every draw.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed` (independent streams for
    /// independent choices, so adding one never shifts another).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of lines.
pub fn digest(lines: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in line.as_bytes().iter().chain(b"\n") {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// The `q` quantile (0..=1) of `samples`, linearly interpolated between
/// the two nearest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in kB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One reported metric, with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Print one metric per line with its unit and sample count.
pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The two latency metrics over per-operation samples (ms).  p90 is only
/// meaningful with at least ten samples beyond it; `p90_backed` says
/// whether the run had them.
pub fn latency_metrics(latencies_ms: &[f32]) -> (Metric, Metric, bool) {
    let n = latencies_ms.len() as u64;
    let beyond_p90 = latencies_ms.len() - (0.9 * latencies_ms.len() as f64).ceil() as usize;
    let latencies_ms: Vec<f64> = latencies_ms.iter().map(|&l| f64::from(l)).collect();
    let latencies_ms = &latencies_ms[..];
    (
        Metric::new("latency_p50_ms", "ms", quantile(latencies_ms, 0.5), n),
        Metric::new("latency_p90_ms", "ms", quantile(latencies_ms, 0.9), n),
        beyond_p90 >= 10,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next(), Rng::new(2, 2).next());
        assert_ne!(Rng::new(1, 2).next(), Rng::new(1, 3).next());
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f32> = (0..50).map(|i| i as f32).collect();
        assert!(!latency_metrics(&few).2);
        let enough: Vec<f32> = (0..100).map(|i| i as f32).collect();
        assert!(latency_metrics(&enough).2);
    }
}
