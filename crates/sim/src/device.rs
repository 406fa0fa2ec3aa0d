//! GPU device specification.

use serde::{Deserialize, Serialize};

use crate::comm::CommParams;
use crate::kernel::KernelParams;
use crate::DEFAULT_MEM_BYTES;

/// Hardware description of one GPU class plus the interconnect it sits on.
///
/// A [`GpuSpec`] bundles the kernel cost law, the communication cost law and
/// the embedding-table memory budget. The paper's benchmark tasks cap the
/// embedding memory per GPU at 4 GB even though a 2080 Ti has 11 GB — the
/// rest is reserved for activations, dense layers and caches.
///
/// # Example
///
/// ```
/// use nshard_sim::GpuSpec;
///
/// let gpu = GpuSpec::rtx_2080_ti();
/// assert_eq!(gpu.mem_budget_bytes(), 4 * 1024 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    kernel: KernelParams,
    comm: CommParams,
    mem_budget_bytes: u64,
}

impl GpuSpec {
    /// Creates a spec from explicit cost laws and a memory budget.
    pub fn new(kernel: KernelParams, comm: CommParams, mem_budget_bytes: u64) -> Self {
        Self {
            kernel,
            comm,
            mem_budget_bytes,
        }
    }

    /// The paper's benchmarking GPU: RTX 2080 Ti on a PCIe server, 4 GB
    /// embedding budget.
    pub fn rtx_2080_ti() -> Self {
        Self::new(
            KernelParams::rtx_2080_ti(),
            CommParams::pcie_server(),
            DEFAULT_MEM_BYTES,
        )
    }

    /// A datacenter accelerator on an RDMA fabric (Table 4's production
    /// platform), with a large embedding budget.
    pub fn datacenter() -> Self {
        Self::new(
            KernelParams::datacenter_a100_like(),
            CommParams::rdma_cluster(),
            32 * 1024 * 1024 * 1024,
        )
    }

    /// The kernel cost law of this device.
    pub fn kernel(&self) -> &KernelParams {
        &self.kernel
    }

    /// The communication cost law of this device's interconnect.
    pub fn comm(&self) -> &CommParams {
        &self.comm
    }

    /// Embedding-table memory budget in bytes.
    pub fn mem_budget_bytes(&self) -> u64 {
        self.mem_budget_bytes
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        Self::rtx_2080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_2080_ti() {
        assert_eq!(GpuSpec::default(), GpuSpec::rtx_2080_ti());
    }

    #[test]
    fn datacenter_has_more_memory() {
        assert!(
            GpuSpec::datacenter().mem_budget_bytes() > GpuSpec::rtx_2080_ti().mem_budget_bytes()
        );
    }
}
