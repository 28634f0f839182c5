//! Wall-clock profiling, quarantined from the deterministic exports.
//!
//! Everything in this module measures *host* time (`std::time::Instant`)
//! and therefore varies run to run. It must never leak into a metrics or
//! trace export, which are required to be bit-identical across repeats;
//! host-time tables (the benchmark's per-layer rows) belong here.

use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        assert!(sw.elapsed_s() >= 0.0);
    }
}
