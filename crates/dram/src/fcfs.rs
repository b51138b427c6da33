//! In-order (FCFS) memory controller with bank/row-buffer timing.
//!
//! Service of a request decomposes into a bank phase (row-buffer hit or
//! miss latency) and a channel data-bus phase (line transfer). Banks of a
//! channel overlap their row phases; transfers serialise on the channel
//! bus. Under random traffic the controller is bank-limited; under
//! row-friendly streaming it is bus-limited — reproducing the asymmetry
//! between the paper's random-gather (CG) and streaming (SP sweeps)
//! workloads.
//!
//! Because service is in arrival order per resource, the completion time
//! of a request is fully determined at enqueue ("reservation" style):
//! [`McModel::enqueue`] always returns [`EnqueueResult::Completed`] and
//! [`McModel::wake`] is a no-op. This keeps the hot path of the machine
//! simulator allocation-free.

use offchip_simcore::SimTime;
use offchip_topology::machine::DramSpec;

use crate::mapping::AddressMapping;
use crate::stats::McStats;
use crate::{EnqueueResult, McModel, Request, WakeResult};

/// Timing configuration shared by both schedulers.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Address decomposition.
    pub mapping: AddressMapping,
    /// Bank cycles when the row buffer already holds the row.
    pub row_hit_cycles: u64,
    /// Bank cycles when a new row must be activated.
    pub row_miss_cycles: u64,
    /// Channel-bus cycles per line transfer.
    pub transfer_cycles: u64,
}

/// Default DRAM row size (bytes) used when deriving a config from a
/// [`DramSpec`]: 2 KiB rows, typical of DDR2/DDR3 x8 devices.
pub const DEFAULT_ROW_BYTES: u64 = 2048;

impl McConfig {
    /// Derives a configuration from a machine's [`DramSpec`].
    pub fn from_spec(spec: &DramSpec, line_bytes: u32) -> McConfig {
        McConfig {
            mapping: AddressMapping::new(
                spec.channels,
                spec.banks_per_channel,
                line_bytes,
                DEFAULT_ROW_BYTES,
            ),
            row_hit_cycles: spec.row_hit_cycles,
            row_miss_cycles: spec.row_miss_cycles,
            transfer_cycles: spec.transfer_cycles,
        }
    }
}

/// The in-order controller.
#[derive(Debug, Clone)]
pub struct FcfsController {
    cfg: McConfig,
    /// `bank_free[channel][bank]`: when the bank can begin a new access.
    bank_free: Vec<Vec<SimTime>>,
    /// `open_row[channel][bank]`.
    open_row: Vec<Vec<Option<u64>>>,
    /// `bus_free[channel]`: when the data bus can begin a new transfer.
    bus_free: Vec<SimTime>,
    stats: McStats,
    /// Per-run telemetry observer; `None` when the run has no registry,
    /// so the hot path pays one predictable branch.
    obs: Option<Box<offchip_obs::McObs>>,
}

impl FcfsController {
    /// Creates an idle controller.
    pub fn new(cfg: McConfig) -> FcfsController {
        let ch = cfg.mapping.channels() as usize;
        let banks = cfg.mapping.banks() as usize;
        FcfsController {
            cfg,
            bank_free: vec![vec![SimTime::ZERO; banks]; ch],
            open_row: vec![vec![None; banks]; ch],
            bus_free: vec![SimTime::ZERO; ch],
            stats: McStats::default(),
            obs: None,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }
}

impl McModel for FcfsController {
    fn enqueue(&mut self, now: SimTime, req: Request) -> EnqueueResult {
        // The request reaches the controller after its network latency.
        let arrival = now + req.network_latency;
        let coord = self.cfg.mapping.map(req.line_addr);
        let (c, b) = (coord.channel as usize, coord.bank as usize);

        if req.is_write {
            // Write-backs drain from the controller's write buffer in
            // row batches when convenient; they cost data-bus bandwidth
            // but neither close the reads' open rows nor occupy a bank
            // synchronously.
            let transfer_start = arrival.max(self.bus_free[c]);
            let completion = transfer_start + self.cfg.transfer_cycles;
            self.bus_free[c] = completion;
            self.stats.requests += 1;
            self.stats.writes += 1;
            self.stats.total_residence_cycles += completion - arrival;
            self.stats.total_queueing_cycles += transfer_start - arrival;
            self.stats.bus_busy_cycles += self.cfg.transfer_cycles;
            self.stats.last_completion = self.stats.last_completion.max(completion);
            if let Some(obs) = &mut self.obs {
                obs.record(arrival.0, arrival.0, transfer_start - arrival, completion.0);
            }
            return EnqueueResult::Completed(completion + req.network_latency);
        }

        let row_time = if self.open_row[c][b] == Some(coord.row) {
            self.stats.row_hits += 1;
            self.cfg.row_hit_cycles
        } else {
            self.stats.row_misses += 1;
            self.open_row[c][b] = Some(coord.row);
            self.cfg.row_miss_cycles
        };

        let bank_start = arrival.max(self.bank_free[c][b]);
        let data_ready = bank_start + row_time;
        let transfer_start = data_ready.max(self.bus_free[c]);
        let completion = transfer_start + self.cfg.transfer_cycles;
        // Row latency is *latency*, not occupancy: consecutive CAS bursts
        // to an open row pipeline at the data-bus rate (tCCD), so a hit
        // holds the bank only for its transfer slot. An activation
        // (row miss) occupies the bank for the full activate/precharge
        // window, which is what bounds random-row bank throughput.
        self.bank_free[c][b] = if row_time == self.cfg.row_hit_cycles {
            bank_start + self.cfg.transfer_cycles
        } else {
            bank_start + self.cfg.row_miss_cycles
        };
        self.bus_free[c] = completion;

        self.stats.requests += 1;
        if req.is_write {
            self.stats.writes += 1;
        }
        self.stats.total_residence_cycles += completion - arrival;
        self.stats.total_queueing_cycles += bank_start - arrival;
        self.stats.bus_busy_cycles += self.cfg.transfer_cycles;
        self.stats.last_completion = self.stats.last_completion.max(completion);

        if let Some(obs) = &mut self.obs {
            obs.record(arrival.0, arrival.0, bank_start - arrival, completion.0);
        }

        // Response crosses the network back to the requester.
        EnqueueResult::Completed(completion + req.network_latency)
    }

    fn wake(&mut self, _now: SimTime) -> WakeResult {
        WakeResult::default()
    }

    fn stats(&self) -> &McStats {
        &self.stats
    }

    fn pending(&self) -> usize {
        0
    }

    fn attach_obs(&mut self, obs: Box<offchip_obs::McObs>) {
        self.obs = Some(obs);
    }

    fn take_obs(&mut self) -> Option<Box<offchip_obs::McObs>> {
        self.obs.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_1ch() -> McConfig {
        McConfig {
            mapping: AddressMapping::new(1, 4, 64, 2048),
            row_hit_cycles: 40,
            row_miss_cycles: 110,
            transfer_cycles: 8,
        }
    }

    fn req(id: u64, line: u64) -> Request {
        Request {
            id,
            line_addr: line * 64,
            is_write: false,
            network_latency: 0,
        }
    }

    fn completed(r: EnqueueResult) -> SimTime {
        match r {
            EnqueueResult::Completed(t) => t,
            other => panic!("FCFS must reserve immediately, got {other:?}"),
        }
    }

    #[test]
    fn idle_latency_is_row_miss_plus_transfer() {
        let mut mc = FcfsController::new(cfg_1ch());
        let t = completed(mc.enqueue(SimTime(100), req(0, 0)));
        assert_eq!(t, SimTime(100 + 110 + 8));
        assert_eq!(mc.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut mc = FcfsController::new(cfg_1ch());
        let t1 = completed(mc.enqueue(SimTime(0), req(0, 0)));
        // Line 1 lives in the same 2 KiB row (32 lines/row, 1 channel).
        let t2 = completed(mc.enqueue(t1, req(1, 1)));
        assert_eq!(t2 - t1, 40 + 8, "open-row access skips activation");
        assert_eq!(mc.stats().row_hits, 1);
    }

    #[test]
    fn same_bank_requests_serialise() {
        let mut mc = FcfsController::new(cfg_1ch());
        let t1 = completed(mc.enqueue(SimTime(0), req(0, 0)));
        let t2 = completed(mc.enqueue(SimTime(0), req(1, 0)));
        assert!(t2 >= t1 + 40, "second access waits for the bank");
    }

    #[test]
    fn different_banks_overlap_but_share_bus() {
        let mut mc = FcfsController::new(cfg_1ch());
        // Lines 0 and 32 are in different banks (32 lines per row).
        let t1 = completed(mc.enqueue(SimTime(0), req(0, 0)));
        let t2 = completed(mc.enqueue(SimTime(0), req(1, 32)));
        // Bank phases overlap: both rows activate in parallel; the second
        // transfer queues behind the first on the bus.
        assert_eq!(t1, SimTime(118));
        assert_eq!(t2, SimTime(126), "only the transfer serialises");
    }

    #[test]
    fn channels_are_independent() {
        let cfg = McConfig {
            mapping: AddressMapping::new(2, 4, 64, 2048),
            ..cfg_1ch()
        };
        let mut mc = FcfsController::new(cfg);
        // Lines 0 and 1 map to channels 0 and 1.
        let t1 = completed(mc.enqueue(SimTime(0), req(0, 0)));
        let t2 = completed(mc.enqueue(SimTime(0), req(1, 1)));
        assert_eq!(t1, t2, "parallel channels serve simultaneously");
    }

    #[test]
    fn network_latency_charged_both_ways() {
        let mut mc = FcfsController::new(cfg_1ch());
        let mut r = req(0, 0);
        r.network_latency = 100;
        let t = completed(mc.enqueue(SimTime(0), r));
        assert_eq!(t, SimTime(100 + 118 + 100));
        // Residence stats exclude the network (controller-local time).
        assert_eq!(mc.stats().total_residence_cycles, 118);
    }

    #[test]
    fn saturation_grows_residence() {
        // Offered load far above capacity: mean residence must blow up
        // relative to the unloaded service time.
        let mut mc = FcfsController::new(cfg_1ch());
        let mut now = SimTime(0);
        for i in 0..1000u64 {
            // One request per 10 cycles, all to different rows of the same
            // bank: service ~118 ≫ 10.
            let _ = mc.enqueue(now, req(i, i * 32 * 4)); // stride keeps bank 0? no: row_seq=i*4 → bank=i*4%4=0 ✓
            now += 10;
        }
        assert!(
            mc.stats().mean_residence() > 10.0 * 118.0,
            "mean residence {} should show heavy queueing",
            mc.stats().mean_residence()
        );
        assert!(mc.stats().mean_queueing() > 0.0);
    }

    #[test]
    fn low_load_residence_stays_near_service() {
        let mut mc = FcfsController::new(cfg_1ch());
        let mut now = SimTime(0);
        for i in 0..1000u64 {
            let _ = mc.enqueue(now, req(i, i * 32 * 4));
            now += 1000; // far slower than service
        }
        let mean = mc.stats().mean_residence();
        assert!((mean - 118.0).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn wake_is_noop() {
        let mut mc = FcfsController::new(cfg_1ch());
        let w = mc.wake(SimTime(5));
        assert!(w.committed.is_empty());
        assert!(w.next_wake.is_none());
        assert_eq!(mc.pending(), 0);
    }
}
