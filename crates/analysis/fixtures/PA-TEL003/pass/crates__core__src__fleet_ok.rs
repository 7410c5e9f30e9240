//! Fixture: the fleet / backpressure names, registered and
//! kind-correct.
pub fn report(r: &Registry) {
    r.counter("prosper.fleet.commits").add(32);
    r.counter("prosper.fleet.deferred_commits").inc();
    r.counter("prosper.fleet.ckpt_nvm_bytes").add(4096);
    r.gauge("prosper.fleet.peak_to_mean_milli").set(1375);
    r.counter("prosper.stall.backpressure_ns").add(900);
}
