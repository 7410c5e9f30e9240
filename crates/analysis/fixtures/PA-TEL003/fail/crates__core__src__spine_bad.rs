//! Fixture: misuse of the spine and commit names — a typo, a kind
//! mismatch, and an unregistered spine counter.
pub fn report(r: &Registry) {
    r.counter("prosper.spine.mergez").add(1); // typo: unregistered
    r.counter("prosper.commit.workers").add(1); // registered as gauge
    r.counter("prosper.spine.retired_bytes").add(16); // unregistered (merged_bytes exists)
}
