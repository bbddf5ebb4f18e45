//! Simulated hardware performance counters.
//!
//! Mirrors what the paper reads through likwid/NumaMMA:
//!
//! * per-node served read/write bytes (IMC counters) — used by the
//!   canonical tuner to estimate `bw(src -> dst)` while the profiling
//!   workload runs;
//! * per-process `(memory node, CPU node)` traffic matrices — the
//!   per-worker attribution the paper derives from per-node counters;
//! * per-process cycle and stall-cycle counters — the DWP tuner's signal
//!   ("resource stall rate", §III-B1);
//! * per-process processed traffic — for MAPI-style intensity metrics.
//!
//! Counters are cumulative; consumers take [`ProcessSample`] snapshots and
//! difference them, exactly like sampling a real PMU.

use crate::process::ProcessId;

/// Cumulative counters for one process.
#[derive(Debug, Clone)]
pub struct ProcCounters {
    /// Executed cycles across all threads.
    pub cycles: f64,
    /// Cycles stalled on memory (latency or bandwidth starvation).
    pub stall_cycles: f64,
    /// Total traffic processed, bytes.
    pub traffic_bytes: f64,
    /// Read bytes by (memory node `src`, CPU node `dst`): row-major
    /// `src * n + dst`.
    pub flow_read_bytes: Vec<f64>,
    /// Write bytes by (memory node, CPU node).
    pub flow_write_bytes: Vec<f64>,
}

impl ProcCounters {
    fn new(n: usize) -> Self {
        ProcCounters {
            cycles: 0.0,
            stall_cycles: 0.0,
            traffic_bytes: 0.0,
            flow_read_bytes: vec![0.0; n * n],
            flow_write_bytes: vec![0.0; n * n],
        }
    }
}

/// Snapshot of a process's counters at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessSample {
    /// Simulated time of the snapshot (seconds).
    pub time: f64,
    /// Cumulative cycles.
    pub cycles: f64,
    /// Cumulative stall cycles.
    pub stall_cycles: f64,
    /// Cumulative traffic bytes.
    pub traffic_bytes: f64,
}

impl ProcessSample {
    /// Average stall rate (stalled cycles per second) between `earlier` and
    /// `self` — the metric the DWP tuner hill-climbs on.
    pub fn stall_rate_since(&self, earlier: &ProcessSample) -> f64 {
        let dt = self.time - earlier.time;
        if dt <= 0.0 {
            return 0.0;
        }
        (self.stall_cycles - earlier.stall_cycles) / dt
    }

    /// Average memory throughput (bytes/second) between two samples.
    pub fn throughput_since(&self, earlier: &ProcessSample) -> f64 {
        let dt = self.time - earlier.time;
        if dt <= 0.0 {
            return 0.0;
        }
        (self.traffic_bytes - earlier.traffic_bytes) / dt
    }
}

/// All counters of the machine.
#[derive(Debug, Clone)]
pub struct PerfCounters {
    n: usize,
    node_read_bytes: Vec<f64>,
    node_write_bytes: Vec<f64>,
    procs: Vec<ProcCounters>,
}

impl PerfCounters {
    /// Fresh counters for an `n`-node machine.
    pub fn new(n: usize) -> Self {
        PerfCounters {
            n,
            node_read_bytes: vec![0.0; n],
            node_write_bytes: vec![0.0; n],
            procs: Vec::new(),
        }
    }

    /// Register a new process (called by the engine on spawn).
    pub(crate) fn register_process(&mut self, pid: ProcessId) {
        while self.procs.len() <= pid.0 {
            self.procs.push(ProcCounters::new(self.n));
        }
    }

    /// Record one epoch's traffic for a process: `read`/`write` in bytes
    /// from memory node `src` consumed by threads on `dst`.
    pub(crate) fn record_flow(
        &mut self,
        pid: ProcessId,
        src: usize,
        dst: usize,
        read: f64,
        write: f64,
    ) {
        self.node_read_bytes[src] += read;
        self.node_write_bytes[src] += write;
        let pc = &mut self.procs[pid.0];
        pc.flow_read_bytes[src * self.n + dst] += read;
        pc.flow_write_bytes[src * self.n + dst] += write;
        pc.traffic_bytes += read + write;
    }

    /// Record one migrated chunk of `bytes` for a process: read from node
    /// `from` and written into node `to` — the two flows
    /// [`PerfCounters::record_flow`] would record for it, minus their zero
    /// terms (adding `0.0` to these non-negative sums changes no bit).
    pub(crate) fn record_migration(&mut self, pid: ProcessId, from: usize, to: usize, bytes: f64) {
        let n = self.n;
        self.node_read_bytes[from] += bytes;
        self.node_write_bytes[to] += bytes;
        let pc = &mut self.procs[pid.0];
        pc.flow_read_bytes[from * n + to] += bytes;
        pc.flow_write_bytes[to * n + to] += bytes;
        pc.traffic_bytes += bytes;
        pc.traffic_bytes += bytes;
    }

    /// Record one epoch's cycle accounting for a process.
    pub(crate) fn record_cycles(&mut self, pid: ProcessId, cycles: f64, stall_cycles: f64) {
        let pc = &mut self.procs[pid.0];
        pc.cycles += cycles;
        pc.stall_cycles += stall_cycles;
    }

    /// Cumulative read bytes served by a node's memory.
    pub fn node_read_bytes(&self, node: usize) -> f64 {
        self.node_read_bytes[node]
    }

    /// Cumulative write bytes absorbed by a node's memory.
    pub fn node_write_bytes(&self, node: usize) -> f64 {
        self.node_write_bytes[node]
    }

    /// Per-process counters.
    pub fn process(&self, pid: ProcessId) -> &ProcCounters {
        &self.procs[pid.0]
    }

    /// Read bytes process `pid`'s threads on `dst` pulled from memory on
    /// `src`.
    pub fn flow_read_bytes(&self, pid: ProcessId, src: usize, dst: usize) -> f64 {
        self.procs[pid.0].flow_read_bytes[src * self.n + dst]
    }

    /// Write counterpart of [`Self::flow_read_bytes`].
    pub fn flow_write_bytes(&self, pid: ProcessId, src: usize, dst: usize) -> f64 {
        self.procs[pid.0].flow_write_bytes[src * self.n + dst]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_accumulate_per_node_and_process() {
        let mut c = PerfCounters::new(2);
        c.register_process(ProcessId(0));
        c.record_flow(ProcessId(0), 0, 1, 100.0, 20.0);
        c.record_flow(ProcessId(0), 0, 1, 50.0, 0.0);
        assert_eq!(c.node_read_bytes(0), 150.0);
        assert_eq!(c.node_write_bytes(0), 20.0);
        assert_eq!(c.flow_read_bytes(ProcessId(0), 0, 1), 150.0);
        assert_eq!(c.process(ProcessId(0)).traffic_bytes, 170.0);
    }

    #[test]
    fn sample_deltas() {
        let a = ProcessSample { time: 1.0, cycles: 100.0, stall_cycles: 30.0, traffic_bytes: 10.0 };
        let b = ProcessSample { time: 3.0, cycles: 300.0, stall_cycles: 90.0, traffic_bytes: 50.0 };
        assert_eq!(b.stall_rate_since(&a), 30.0);
        assert_eq!(b.throughput_since(&a), 20.0);
        // degenerate window
        assert_eq!(a.stall_rate_since(&a), 0.0);
    }

    #[test]
    fn register_is_idempotent_and_gap_free() {
        let mut c = PerfCounters::new(2);
        c.register_process(ProcessId(2));
        c.register_process(ProcessId(0));
        c.record_cycles(ProcessId(2), 10.0, 5.0);
        assert_eq!(c.process(ProcessId(2)).stall_cycles, 5.0);
        assert_eq!(c.process(ProcessId(0)).cycles, 0.0);
    }
}
