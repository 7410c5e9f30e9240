//! Fixture: misuse of the tax / SLO namespaces — a typo, two kind
//! mismatches, and an unregistered tax metric.
pub fn report(r: &Registry) {
    r.counter("prosper.tax.stall_nss").add(250); // typo: unregistered
    r.gauge("prosper.tax.stall_ns").set(250); // registered as counter
    r.histogram("prosper.slo.p99_ns").record(2048); // registered as gauge
    r.counter("prosper.tax.stalls").inc(); // unregistered (stall_ns exists)
}
