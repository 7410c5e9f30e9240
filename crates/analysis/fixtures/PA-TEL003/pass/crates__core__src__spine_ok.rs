//! Fixture: the staged-delta-spine / write-amplification names,
//! registered and kind-correct.
pub fn report(r: &Registry) {
    r.gauge("prosper.spine.batches").set(3);
    r.counter("prosper.spine.merges").inc();
    r.counter("prosper.spine.merged_bytes").add(4096);
    r.histogram("prosper.commit.phase.merge_ns").record(512);
    r.histogram("prosper.ckpt.phase.merge_cycles").record(40);
    r.counter("prosper.ckpt.nvm_bytes_stage").add(8192);
    r.counter("prosper.ckpt.nvm_bytes_seal").add(8);
    r.counter("prosper.ckpt.nvm_bytes_apply").add(8192);
    r.counter("prosper.ckpt.nvm_bytes_merge").add(4096);
}
