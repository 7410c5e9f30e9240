//! Memory controller: routes physical line accesses to DRAM or NVM by
//! address, following the hybrid layout in
//! [`config::MemoryLayout`](crate::config::MemoryLayout).

use crate::addr::PhysAddr;
use crate::config::{DramConfig, MemoryLayout, NvmConfig};
use crate::dram::Dram;
use crate::nvm::Nvm;
use crate::Cycles;

/// Which device backs a physical address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Device {
    /// Volatile DRAM (process working memory).
    Dram,
    /// Non-volatile memory (checkpoint/persistent storage).
    Nvm,
}

/// The memory controller plus both devices.
#[derive(Clone, Debug)]
pub struct MemoryController {
    layout: MemoryLayout,
    dram: Dram,
    nvm: Nvm,
}

impl MemoryController {
    /// Builds a controller over idle devices.
    pub fn new(layout: MemoryLayout, dram_cfg: DramConfig, nvm_cfg: NvmConfig) -> Self {
        Self {
            layout,
            dram: Dram::new(dram_cfg),
            nvm: Nvm::new(nvm_cfg),
        }
    }

    /// The physical layout served by this controller.
    pub fn layout(&self) -> MemoryLayout {
        self.layout
    }

    /// Classifies a physical address.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the installed memory.
    pub fn device_of(&self, addr: PhysAddr) -> Device {
        let raw = addr.raw();
        if raw < self.layout.dram_bytes {
            Device::Dram
        } else if raw < self.layout.dram_bytes + self.layout.nvm_bytes {
            Device::Nvm
        } else {
            panic!("physical address {addr} beyond installed memory");
        }
    }

    /// First physical address of the NVM region.
    pub fn nvm_base(&self) -> PhysAddr {
        self.layout.nvm_base()
    }

    /// Services one line-sized access at absolute cycle `now`.
    pub fn access(&mut self, now: Cycles, addr: PhysAddr, is_write: bool) -> Cycles {
        match self.device_of(addr) {
            Device::Dram => self.dram.access(addr, is_write),
            Device::Nvm => {
                if is_write {
                    self.nvm.write(now, addr)
                } else {
                    self.nvm.read(now, addr)
                }
            }
        }
    }

    /// Read-only view of the DRAM device.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Read-only view of the NVM device.
    pub fn nvm(&self) -> &Nvm {
        &self.nvm
    }

    /// Mutable access to the NVM device (used by bulk-copy modelling).
    pub fn nvm_mut(&mut self) -> &mut Nvm {
        &mut self.nvm
    }

    /// Cycles to copy `bytes` from DRAM to NVM as a pipelined stream:
    /// bounded by the slower of the DRAM read stream and the NVM write
    /// stream (in practice always the NVM write bandwidth).
    pub fn dram_to_nvm_copy_cycles(&self, bytes: u64) -> Cycles {
        self.dram
            .stream_cycles(bytes)
            .max(self.nvm.stream_write_cycles(bytes))
    }

    /// Cycles to copy `bytes` within NVM (read + write streams overlap;
    /// bound is the write stream plus read-stream startup).
    pub fn nvm_to_nvm_copy_cycles(&self, bytes: u64) -> Cycles {
        self.nvm
            .stream_read_cycles(bytes)
            .max(self.nvm.stream_write_cycles(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn ctrl() -> MemoryController {
        let c = MachineConfig::setup_i();
        MemoryController::new(c.layout, c.dram, c.nvm)
    }

    #[test]
    fn routing_by_address() {
        let m = ctrl();
        assert_eq!(m.device_of(PhysAddr::new(0)), Device::Dram);
        assert_eq!(
            m.device_of(PhysAddr::new(3 * 1024 * 1024 * 1024 - 1)),
            Device::Dram
        );
        assert_eq!(m.device_of(m.nvm_base()), Device::Nvm);
    }

    #[test]
    #[should_panic(expected = "beyond installed memory")]
    fn out_of_range_panics() {
        ctrl().device_of(PhysAddr::new(5 * 1024 * 1024 * 1024));
    }

    #[test]
    fn nvm_write_slower_than_dram_write() {
        let mut m = ctrl();
        let d = m.access(0, PhysAddr::new(0), true);
        // Saturate the NVM write buffer so the array latency shows.
        let base = m.nvm_base();
        let mut worst = 0;
        for i in 0..60 {
            worst = worst.max(m.access(0, base + i * 64, true));
        }
        assert!(worst > d);
    }

    #[test]
    fn copy_bound_by_nvm_write_bandwidth() {
        let m = ctrl();
        let bytes = 1 << 20;
        assert_eq!(
            m.dram_to_nvm_copy_cycles(bytes),
            m.nvm().stream_write_cycles(bytes)
        );
    }

    #[test]
    fn stats_reach_devices() {
        let mut m = ctrl();
        m.access(0, PhysAddr::new(64), false);
        m.access(0, m.nvm_base(), false);
        assert_eq!(m.dram().reads, 1);
        assert_eq!(m.nvm().reads, 1);
    }
}
