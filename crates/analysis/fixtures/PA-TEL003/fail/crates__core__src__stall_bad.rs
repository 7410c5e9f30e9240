//! Fixture: misuse of the spine counters and the commit gauge — a
//! typo, two kind mismatches, and an unregistered spine counter.
pub fn report(r: &Registry) {
    r.counter("prosper.spine.mergess").add(250); // typo: unregistered
    r.gauge("prosper.spine.merges").set(250); // registered as counter
    r.histogram("prosper.commit.workers").record(2048); // registered as gauge
    r.counter("prosper.spine.merge_runs").add(1); // unregistered (merges exists)
}
