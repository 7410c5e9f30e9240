//! Full process checkpoint/restore: registers + memory, with
//! torn-write-safe register slots.
//!
//! The GemOS baseline persists the register state of every thread at
//! each checkpoint alongside the memory mechanisms. A crash can land
//! mid-write, so the store keeps **two register slots per thread**
//! (ping-pong) with a sequence number and a validity marker written
//! last; recovery picks the newest valid slot. In the full system the
//! slots are written by the commit engine of
//! `prosper_core::recovery::PersistentProcess`, under the same sealed
//! process commit record that makes every thread's persistent stack
//! durable.

use serde::{Deserialize, Serialize};

use crate::process::RegisterFile;

/// One persisted register slot.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct RegSlot {
    regs: RegisterFile,
    sequence: u64,
    /// Written last; a torn write leaves it false.
    valid: bool,
}

/// Torn-write-safe register checkpoint area for one thread.
#[derive(Clone, Default, Debug, Serialize, Deserialize)]
pub struct RegisterStore {
    slots: [RegSlot; 2],
}

/// Error returned when no valid register checkpoint exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NoValidCheckpoint;

impl std::fmt::Display for NoValidCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("no valid register checkpoint found")
    }
}

impl std::error::Error for NoValidCheckpoint {}

impl RegisterStore {
    /// Creates an empty store (no checkpoint yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Persists `regs` at an externally-supplied sequence number (the
    /// whole-process commit record's) into the older slot (ping-pong),
    /// marking it valid only after the payload is "written". Idempotent
    /// for a given `(regs, sequence)` pair: recovery can re-apply an
    /// interrupted register apply and recover the same state.
    pub fn checkpoint_at(&mut self, regs: RegisterFile, sequence: u64) {
        let idx = self.older_slot();
        // Model the write order: invalidate, write payload, validate.
        self.slots[idx].valid = false;
        self.slots[idx].regs = regs;
        self.slots[idx].sequence = sequence;
        self.slots[idx].valid = true;
    }

    fn older_slot(&self) -> usize {
        if self.slots[0].sequence <= self.slots[1].sequence {
            0
        } else {
            1
        }
    }

    /// Recovers the newest valid register state.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if neither slot is valid (no
    /// checkpoint ever completed).
    pub fn recover(&self) -> Result<(RegisterFile, u64), NoValidCheckpoint> {
        self.slots
            .iter()
            .filter(|s| s.valid)
            .max_by_key(|s| s.sequence)
            .map(|s| (s.regs, s.sequence))
            .ok_or(NoValidCheckpoint)
    }
}

/// A whole-process checkpoint store: per-thread register stores plus a
/// sequence counter that ties register and memory state together.
#[derive(Clone, Default, Debug)]
pub struct ProcessCheckpointStore {
    registers: Vec<RegisterStore>,
    /// Sequence of the last complete whole-process checkpoint.
    pub committed_sequence: u64,
}

impl ProcessCheckpointStore {
    /// Creates a store for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Self {
            registers: vec![RegisterStore::new(); threads],
            committed_sequence: 0,
        }
    }

    /// Applies one thread's registers at an explicit whole-process
    /// sequence number — phase two of the two-phase process commit.
    /// Idempotent, so recovery can replay an interrupted apply.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn apply_thread_at(&mut self, tid: usize, regs: RegisterFile, sequence: u64) {
        self.registers[tid].checkpoint_at(regs, sequence);
    }

    /// Durably records `sequence` as the last complete whole-process
    /// checkpoint (written after every thread's slot is applied).
    pub fn set_committed_sequence(&mut self, sequence: u64) {
        self.committed_sequence = sequence;
    }

    /// Recovers all threads' registers.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if any thread lacks a valid slot.
    pub fn recover(&self) -> Result<Vec<RegisterFile>, NoValidCheckpoint> {
        self.registers
            .iter()
            .map(|s| s.recover().map(|(r, _)| r))
            .collect()
    }

    /// Recovers all threads' registers together with each slot's
    /// sequence number — the fault-injection harness asserts these
    /// never skew across threads.
    ///
    /// # Errors
    ///
    /// Returns [`NoValidCheckpoint`] if any thread lacks a valid slot.
    pub fn recover_detailed(&self) -> Result<Vec<(RegisterFile, u64)>, NoValidCheckpoint> {
        self.registers.iter().map(|s| s.recover()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs(marker: u64) -> RegisterFile {
        let mut r = RegisterFile::default();
        r.gpr[0] = marker;
        r.rip = 0x400000 + marker;
        r
    }

    /// Begins the write of `checkpoint_at(regs, sequence)` but
    /// "crashes" before the validity marker: the older slot holds the
    /// payload and stays invalid.
    fn checkpoint_torn_at(s: &mut RegisterStore, regs: RegisterFile, sequence: u64) {
        let idx = s.older_slot();
        s.slots[idx] = RegSlot {
            regs,
            sequence,
            valid: false,
        };
    }

    #[test]
    fn empty_store_cannot_recover() {
        let s = RegisterStore::new();
        assert_eq!(s.recover(), Err(NoValidCheckpoint));
        assert!(NoValidCheckpoint.to_string().contains("no valid"));
    }

    #[test]
    fn recover_returns_latest() {
        let mut s = RegisterStore::new();
        s.checkpoint_at(regs(1), 1);
        s.checkpoint_at(regs(2), 2);
        s.checkpoint_at(regs(3), 3);
        let (r, seq) = s.recover().unwrap();
        assert_eq!(r.gpr[0], 3);
        assert_eq!(seq, 3);
    }

    #[test]
    fn torn_write_falls_back_to_previous() {
        let mut s = RegisterStore::new();
        s.checkpoint_at(regs(1), 1);
        s.checkpoint_at(regs(2), 2);
        checkpoint_torn_at(&mut s, regs(3), 3);
        let (r, seq) = s.recover().unwrap();
        assert_eq!(r.gpr[0], 2, "torn slot skipped");
        assert_eq!(seq, 2);
    }

    #[test]
    fn torn_first_checkpoint_recovers_nothing() {
        let mut s = RegisterStore::new();
        checkpoint_torn_at(&mut s, regs(1), 1);
        assert_eq!(s.recover(), Err(NoValidCheckpoint));
    }

    #[test]
    fn ping_pong_alternates_slots() {
        let mut s = RegisterStore::new();
        s.checkpoint_at(regs(1), 1);
        s.checkpoint_at(regs(2), 2);
        // Both slots now valid with sequences 1 and 2; a torn third
        // write may only destroy the *older* one.
        checkpoint_torn_at(&mut s, regs(3), 3);
        let (r, _) = s.recover().unwrap();
        assert_eq!(r.gpr[0], 2);
    }

    #[test]
    fn checkpoint_at_is_idempotent_for_reapply() {
        let mut s = RegisterStore::new();
        s.checkpoint_at(regs(1), 1);
        s.checkpoint_at(regs(2), 2);
        // Recovery re-applies the same (regs, sequence) pair.
        s.checkpoint_at(regs(2), 2);
        let (r, seq) = s.recover().unwrap();
        assert_eq!(r.gpr[0], 2);
        assert_eq!(seq, 2);
    }

    #[test]
    fn recover_detailed_exposes_per_thread_sequences() {
        let mut p = ProcessCheckpointStore::new(2);
        p.apply_thread_at(0, regs(5), 4);
        p.apply_thread_at(1, regs(6), 4);
        p.set_committed_sequence(4);
        let detailed = p.recover_detailed().unwrap();
        assert!(detailed.iter().all(|(_, seq)| *seq == 4));
        assert_eq!(p.committed_sequence, 4);
    }

    #[test]
    fn one_torn_thread_fails_whole_recovery() {
        let mut p = ProcessCheckpointStore::new(2);
        p.apply_thread_at(0, regs(1), 1);
        checkpoint_torn_at(&mut p.registers[1], regs(2), 1);
        assert!(p.recover().is_err());
    }
}
