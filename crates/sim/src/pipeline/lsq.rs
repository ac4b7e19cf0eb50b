//! Load/store queue view: in-flight store ordering and forwarding.
//!
//! The machine models its LSQ as a view over the ROB. Dispatch enforces
//! its capacity from the window's running load+store count
//! ([`Window::lsq_used`]); a load may not issue past an unissued older
//! store, which issue checks against one barrier per cycle
//! ([`Window::store_barrier`], taken before select, so a store issuing
//! this cycle unblocks loads from the next cycle on); and an issuing load
//! reads memory through [`OverlayLoader`], which overlays the values of
//! the older in-flight stores on the committed memory image —
//! store-to-load forwarding with byte granularity. The overlay walks the
//! window's list of stores ([`Window::older_stores`]), not every older
//! ROB entry.
//!
//! [`Window::lsq_used`]: super::window::Window::lsq_used
//! [`Window::store_barrier`]: super::window::Window::store_barrier
//! [`Window::older_stores`]: super::window::Window::older_stores

use super::window::Window;
use crate::mem::Memory;
use crate::semantics::LoadSource;

/// Committed memory overlaid with the stores older than the load `seq`
/// (oldest first, so the youngest store to a byte wins).
pub(in crate::pipeline) struct OverlayLoader<'a> {
    pub mem: &'a Memory,
    pub win: &'a Window,
    pub seq: u64,
}

impl LoadSource for OverlayLoader<'_> {
    fn load(&self, addr: u64, size: u8) -> u32 {
        let size = size.min(4) as u64;
        let mut bytes = self.mem.read(addr, size as u8).to_le_bytes();
        for s in self.win.older_stores(self.seq) {
            for j in 0..s.size.min(4) as u64 {
                let a = s.addr + j;
                if a >= addr && a < addr + size {
                    bytes[(a - addr) as usize] = (s.value >> (8 * j)) as u8;
                }
            }
        }
        u32::from_le_bytes(bytes)
    }
}
