//! Fixture: misuse of the fleet / backpressure namespaces — a typo, a
//! kind mismatch, and an unregistered backpressure gauge.
pub fn report(r: &Registry) {
    r.counter("prosper.fleet.deferred_commit").inc(); // typo: unregistered
    r.counter("prosper.fleet.peak_to_mean_milli").add(1375); // registered as gauge
    r.gauge("prosper.stall.backpressure_occupancy").set(70); // unregistered
}
