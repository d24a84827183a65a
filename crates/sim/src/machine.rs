//! Hardware description of the simulated multiprocessor.
//!
//! Parameters come from the paper's §4: "a machine containing 20
//! processors and 16 Mbytes of memory.  Each Balance 21000 processor is a
//! 10 MHz National Semiconductor NS32032 microprocessor, and all
//! processors are connected to shared memory by a shared bus with a
//! 80 Mbyte/s (maximum) transfer rate.  Each processor has a 8K byte,
//! write-through cache and an 8K byte local memory."

/// Static machine parameters.  Simulated time is counted in CPU cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of processors.
    pub cpus: u32,
    /// CPU clock in Hz (cycle = 1/`cpu_hz` seconds).
    pub cpu_hz: u64,
    /// Shared-bus peak transfer rate in bytes/second.
    pub bus_bytes_per_sec: u64,
    /// Physical memory in bytes.
    pub mem_bytes: u64,
    /// Memory reserved for the OS and process images per process, in
    /// bytes — drives the paging model's working-set estimate.
    pub os_bytes: u64,
    /// Per-process resident working set (code + stack + mapped region
    /// bookkeeping) in bytes.
    pub per_process_ws: u64,
    /// Page size in bytes (NS32082 MMU: 512-byte pages).
    pub page_bytes: u64,
    /// Cache size per CPU in bytes (write-through).
    pub cache_bytes: u64,
}

impl MachineConfig {
    /// The paper's machine.
    pub fn balance21000() -> Self {
        Self {
            cpus: 20,
            cpu_hz: 10_000_000,
            bus_bytes_per_sec: 80_000_000,
            mem_bytes: 16 << 20,
            os_bytes: 4 << 20,
            per_process_ws: 520 << 10,
            page_bytes: 512,
            cache_bytes: 8 << 10,
        }
    }

    /// Bus occupancy, in CPU cycles, for transferring `bytes` over the
    /// shared bus at peak rate.
    pub fn bus_cycles(&self, bytes: u64) -> u64 {
        // cycles = bytes / (bytes_per_sec / cpu_hz)
        (bytes * self.cpu_hz).div_ceil(self.bus_bytes_per_sec)
    }

    /// Converts simulated cycles to seconds.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cpu_hz as f64
    }

    /// Bytes of memory available to user pages.
    pub fn user_mem_bytes(&self) -> u64 {
        self.mem_bytes.saturating_sub(self.os_bytes)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::balance21000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_parameters_match_paper() {
        let m = MachineConfig::balance21000();
        assert_eq!(m.cpus, 20);
        assert_eq!(m.cpu_hz, 10_000_000);
        assert_eq!(m.bus_bytes_per_sec, 80_000_000);
        assert_eq!(m.mem_bytes, 16 << 20);
    }

    #[test]
    fn bus_cycles_at_peak_rate() {
        let m = MachineConfig::balance21000();
        // 80 MB/s at 10 MHz = 8 bytes per cycle.
        assert_eq!(m.bus_cycles(8), 1);
        assert_eq!(m.bus_cycles(80), 10);
        assert_eq!(m.bus_cycles(1), 1, "partial transfers round up");
    }

    #[test]
    fn time_conversion() {
        let m = MachineConfig::balance21000();
        assert!((m.cycles_to_secs(10_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn user_memory_excludes_os() {
        let m = MachineConfig::balance21000();
        assert_eq!(m.user_mem_bytes(), 12 << 20);
    }
}
