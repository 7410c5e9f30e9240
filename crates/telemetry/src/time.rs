//! The one sanctioned wall-clock site in the workspace.
//!
//! Simulator crates are deterministic by construction: the `PA-DET005`
//! lint rule and the `clippy.toml` `disallowed-methods` list ban
//! `Instant::now`/`SystemTime::now` there, because wall-clock reads in
//! simulation logic make runs unreproducible. Observability is the
//! exception — phase-duration histograms measure the *host's* real
//! time by definition — so instrumented code takes its timestamps
//! through [`Stopwatch`] instead of `std::time` directly. A stopwatch
//! never feeds a value back into simulation state; it only records
//! into telemetry, and it reads the clock at all only while a
//! telemetry context is installed.

/// Measures elapsed wall-clock time for telemetry histograms.
///
/// When no telemetry context is installed starting a stopwatch does
/// not touch the clock and [`Stopwatch::elapsed_ns`] reports zero,
/// keeping the hot path free of syscalls.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Option<std::time::Instant>);

impl Stopwatch {
    /// Starts a stopwatch (a no-op when telemetry is off).
    #[must_use]
    pub fn start() -> Self {
        if crate::enabled() {
            // The sanctioned wall-clock read: observability only.
            #[allow(clippy::disallowed_methods)]
            Self(Some(std::time::Instant::now()))
        } else {
            Self(None)
        }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`;
    /// zero if telemetry was off at start.
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_without_context_is_inert() {
        // No telemetry context installed in this test thread.
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_ns(), 0);
    }

    #[test]
    fn stopwatch_with_context_measures() {
        let (sink, _events) = crate::RingBufferSink::new(1);
        crate::install(crate::Telemetry::new(Box::new(sink)));
        let sw = Stopwatch::start();
        // Elapsed is monotone; we only assert it does not panic and is
        // readable twice.
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        crate::uninstall();
    }
}
