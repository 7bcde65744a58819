//! The live heap, sampled every [`PERIOD`] on a background thread.
//!
//! The allocator's high-water mark depends on whether rare transient
//! allocations happen to coincide (two workers rebuilding an oracle at
//! once), and so does any high percentile of the live heap, so both
//! read differently run to run. The time-averaged live heap counts
//! every allocation in proportion to how long it lives and repeats; the
//! table reports it and the high-water mark.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sampling period.
const PERIOD: Duration = Duration::from_millis(20);

/// A running sampler.
pub struct HeapSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl HeapSampler {
    /// Start sampling.
    pub fn start() -> HeapSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::with_capacity(1 << 12);
            while !flag.load(Ordering::Relaxed) {
                samples.push(cad_obs::alloc::stats().heap_bytes as f64 / (1 << 20) as f64);
                std::thread::sleep(PERIOD);
            }
            samples
        });
        HeapSampler { stop, handle }
    }

    /// Stop sampling; returns the samples in MiB.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("heap sampler panicked")
    }
}

/// Add `heap_mean_mb` (mean of the samples) and `peak_heap_mb` (the
/// process high-water mark) to `report`.
pub fn report(samples: &[f64], report: &mut crate::report::RunReport) {
    if !samples.is_empty() {
        report.add(
            "heap_mean_mb",
            "MiB",
            samples.iter().sum::<f64>() / samples.len() as f64,
            samples.len(),
            "mean live heap, sampled every 20 ms while timed",
        );
    }
    report.add(
        "peak_heap_mb",
        "MiB",
        cad_obs::alloc::stats().heap_peak_bytes as f64 / (1 << 20) as f64,
        1,
        "process heap high-water mark",
    );
}
