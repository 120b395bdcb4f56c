//! Sample bookkeeping: per-class latency samples, attempted/failed counts,
//! and the percentile rule the report uses.

use crate::gen::Class;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The p50 and, only when at least 1000 samples exist (ten beyond it),
/// the p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p99: Option<f64>,
}

pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = (v.len() >= 1000).then(|| quantile(&v, 0.99));
    Tail { n: v.len(), p50: quantile(&v, 0.5), p99 }
}

/// Slices a window is cut into for the reported medians: five once a
/// kind of call reaches the 1000 samples a p99 needs, else the whole
/// window (a few long calls cannot be sliced without cutting them).
pub fn slice_count(samples: usize) -> usize {
    if samples >= 1000 {
        5
    } else {
        1
    }
}

/// The median over `k` equal time slices of the window of `f` applied to
/// each slice's calls and length. A burst that slows one slice (a
/// neighbour on the host, a stall) moves the median far less than it
/// moves the pooled figure.
pub fn sliced(calls: &[Call], wall_s: f64, k: usize, f: impl Fn(&[Call], f64) -> f64) -> f64 {
    let len = wall_s / k as f64;
    let mut parts: Vec<Vec<Call>> = vec![Vec::new(); k];
    for c in calls {
        parts[((c.end_s / len) as usize).min(k - 1)].push(*c);
    }
    let values: Vec<f64> = parts.iter().map(|p| f(p, len)).collect();
    median(&values)
}

/// One successful call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Completion time, seconds since the window opened.
    pub end_s: f64,
    pub us: f64,
    pub class: Class,
    /// User bytes the call moved.
    pub bytes: u64,
}

/// What one client (or a whole run) did in a timed window.
#[derive(Debug, Default, Clone)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    pub calls: Vec<Call>,
    /// First few failure descriptions, for the report.
    pub errors: Vec<String>,
}

impl Record {
    /// Counts one call. A failed call (an error, or a reply the model
    /// rejects) is counted, never dropped; only successes carry latency.
    pub fn call(&mut self, class: Class, end_s: f64, us: f64, outcome: Result<u64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(bytes) => self.calls.push(Call { end_s, us, class, bytes }),
            Err(e) => self.fail(e),
        }
    }

    /// A failure found outside a timed call (the final sweep).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    pub fn merge(&mut self, o: Record) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.calls.extend(o.calls);
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn completed(&self) -> u64 {
        self.calls.len() as u64
    }

    pub fn samples(&self, class: Class) -> Vec<f64> {
        self.calls.iter().filter(|c| c.class == class).map(|c| c.us).collect()
    }

    pub fn bytes(&self, class: Class) -> u64 {
        self.calls.iter().filter(|c| c.class == class).map(|c| c.bytes).sum()
    }

    pub fn mean_us(&self) -> f64 {
        self.calls.iter().map(|c| c.us).sum::<f64>() / self.calls.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_only_at_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.p99, None);
        assert_eq!(t.p50, 500.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).p99, Some(990.0));
    }

    #[test]
    fn failed_call_is_counted_not_dropped() {
        let mut r = Record::default();
        r.call(Class::Meta, 0.1, 10.0, Ok(0));
        r.call(Class::Read, 0.2, 20.0, Err("checksum".into()));
        r.call(Class::Write, 0.3, 30.0, Ok(4096));
        assert_eq!((r.attempted, r.failed, r.completed()), (3, 1, 2));
        assert!(r.samples(Class::Read).is_empty(), "a failed call carries no latency sample");
        assert_eq!(r.bytes(Class::Write), 4096);
        assert_eq!(r.errors, vec!["checksum".to_string()]);
    }

    #[test]
    fn slices_take_the_median() {
        let calls: Vec<Call> = (0..5000)
            .map(|i| Call {
                end_s: i as f64 / 1000.0,
                // One slow second out of five.
                us: if i < 1000 { 100.0 } else { 1.0 },
                class: Class::Meta,
                bytes: 0,
            })
            .collect();
        let k = slice_count(calls.len());
        assert_eq!(k, 5);
        let p99 = |c: &[Call], _: f64| {
            let mut v: Vec<f64> = c.iter().map(|c| c.us).collect();
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.99)
        };
        assert_eq!(sliced(&calls, 5.0, k, p99), 1.0);
        let rate = sliced(&calls, 5.0, k, |c, len| c.len() as f64 / len);
        assert_eq!(rate, 1000.0);
        assert_eq!(slice_count(999), 1);
        assert_eq!(slice_count(1000), 5);
        assert_eq!(slice_count(1_000_000), 5);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
