//! Fixture: the tax / SLO names, registered and kind-correct.
pub fn report(r: &Registry) {
    r.counter("prosper.tax.stall_ns").add(1290);
    r.gauge("prosper.slo.p50_ns").set(640);
    r.gauge("prosper.slo.p999_ns").set(4096);
    r.gauge("prosper.slo.p99_ns").set(2048);
    r.gauge("prosper.slo.burn_rate_milli").set(120);
    r.counter("prosper.slo.violations").inc();
    r.counter("prosper.tax.reports").inc();
    r.counter("prosper.tax.useful_ns").add(9000);
}
