//! Latency and throughput accounting.

use crate::config::cycles_to_usec;
use crate::hist::LatencyHistogram;

/// Statistics collected over a measurement window.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    /// Cycle the window opened.
    pub window_start: u64,
    /// Cycle the window closed (exclusive).
    pub window_end: u64,
    /// Flits consumed at destinations during the window.
    pub flits_delivered: u64,
    /// Messages created during the window.
    pub messages_generated: u64,
    /// Flits of messages created during the window.
    pub flits_generated: u64,
    /// Latencies (creation to tail delivery), in cycles, of delivered
    /// messages that were created during the window.
    pub latencies: LatencyHistogram,
    /// Network latencies (injection to tail delivery) of the same
    /// messages.
    pub network_latencies: LatencyHistogram,
    /// Header hop counts of the same messages, in delivery order: 4
    /// bytes per windowed delivery, read by the oracle comparison and
    /// the benchmark suite — and, now that packets live in recycled
    /// slots, the only structure left that grows with every message.
    pub hop_counts: Vec<u32>,
    /// Samples of the total number of queued messages, taken
    /// periodically during the window.
    pub queue_samples: Vec<usize>,
}

impl MetricsCollector {
    /// Mean of `latencies`, converted to microseconds.
    pub fn avg_latency_usec(&self) -> Option<f64> {
        self.latencies
            .mean()
            .map(|c| c / crate::config::FLITS_PER_USEC)
    }

    /// Mean of `network_latencies`, converted to microseconds.
    pub fn avg_network_latency_usec(&self) -> Option<f64> {
        self.network_latencies
            .mean()
            .map(|c| c / crate::config::FLITS_PER_USEC)
    }

    /// The `q`-quantile (0..=1) of message latency, in microseconds.
    ///
    /// Read straight from the latency histogram: O(buckets) per query
    /// with no clone or sort, accurate to one histogram bucket width
    /// (exact for latencies under [`crate::hist::LINEAR_LIMIT`] cycles).
    pub fn latency_quantile_usec(&self, q: f64) -> Option<f64> {
        self.latencies.quantile(q).map(cycles_to_usec)
    }

    /// Delivered throughput over the window, in flits per microsecond
    /// (network total, as the paper reports).
    pub fn throughput_flits_per_usec(&self) -> f64 {
        let cycles = self.window_end.saturating_sub(self.window_start);
        if cycles == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / cycles_to_usec(cycles)
    }

    /// Mean header hop count of measured messages.
    pub fn avg_hops(&self) -> Option<f64> {
        if self.hop_counts.is_empty() {
            None
        } else {
            Some(
                self.hop_counts.iter().map(|&h| h as f64).sum::<f64>()
                    / self.hop_counts.len() as f64,
            )
        }
    }

    /// `true` if source queues stayed small and bounded: the paper's
    /// sustainability criterion. Compares queue occupancy early in the
    /// window against late; growth beyond both a 1.5x factor and an
    /// absolute slack marks saturation.
    pub fn queues_bounded(&self) -> bool {
        let n = self.queue_samples.len();
        if n < 4 {
            return true;
        }
        let early: f64 = self.queue_samples[..n / 2]
            .iter()
            .map(|&q| q as f64)
            .sum::<f64>()
            / (n / 2) as f64;
        let late: f64 = self.queue_samples[n / 2..]
            .iter()
            .map(|&q| q as f64)
            .sum::<f64>()
            / (n - n / 2) as f64;
        late <= early * 1.5 + 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_has_no_latency() {
        let m = MetricsCollector::default();
        assert_eq!(m.avg_latency_usec(), None);
        assert_eq!(m.latency_quantile_usec(0.95), None);
        assert_eq!(m.throughput_flits_per_usec(), 0.0);
        assert!(m.queues_bounded());
    }

    #[test]
    fn latency_converts_to_usec() {
        let m = MetricsCollector {
            latencies: LatencyHistogram::from_values(&[20, 40, 60]),
            ..Default::default()
        };
        // Mean 40 cycles = 2 usec at 20 flits/usec.
        assert_eq!(m.avg_latency_usec(), Some(2.0));
        assert_eq!(m.latency_quantile_usec(0.0), Some(1.0));
        assert_eq!(m.latency_quantile_usec(1.0), Some(3.0));
    }

    #[test]
    fn throughput_counts_window_flits() {
        let m = MetricsCollector {
            window_start: 1000,
            window_end: 3000, // 100 usec
            flits_delivered: 5000,
            ..Default::default()
        };
        assert_eq!(m.throughput_flits_per_usec(), 50.0);
    }

    #[test]
    fn bounded_queues_detected() {
        let stable = MetricsCollector {
            queue_samples: vec![3, 4, 3, 5, 4, 3, 4, 4],
            ..Default::default()
        };
        assert!(stable.queues_bounded());
        let growing = MetricsCollector {
            queue_samples: vec![5, 20, 40, 60, 80, 100, 120, 140],
            ..Default::default()
        };
        assert!(!growing.queues_bounded());
    }

    #[test]
    fn avg_hops() {
        let m = MetricsCollector {
            hop_counts: vec![2, 4, 6],
            ..Default::default()
        };
        assert_eq!(m.avg_hops(), Some(4.0));
    }
}
