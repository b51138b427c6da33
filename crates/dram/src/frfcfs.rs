//! First-ready FCFS (FR-FCFS) memory controller.
//!
//! Real controllers reorder their queues to prefer row-buffer hits
//! ("first-ready"), falling back to oldest-first, with a starvation cap so
//! a stream of hits cannot indefinitely bypass an old miss (cf. the
//! scheduling literature the paper cites: ATLAS \[13\], fair queueing \[18\],
//! PAR-BS \[17\]). This implementation keeps pending requests in per-bank
//! queues and commits them when channel resources free, so — unlike the
//! reservation-style [`FcfsController`](crate::fcfs::FcfsController) — it
//! genuinely reorders. It exists for the scheduler ablation bench, which
//! shows the contention *shape* of the study is insensitive to the
//! scheduling discipline.
//!
//! # Why per-bank queues
//!
//! Row-hit selection compares each candidate against its bank's open row,
//! and bank readiness gates whole groups of requests at once. A single
//! arrival-ordered channel queue therefore re-derives the DRAM coordinates
//! of every entry on every pick, which made serving a queue of n requests
//! O(n²) in address-mapping work. Splitting the queue per bank caches the
//! coordinates once at enqueue, prunes whole banks that are busy, and
//! reduces the starvation check to an O(1) formula on the channel head
//! (see `Channel::pick`).

use std::collections::VecDeque;

use offchip_simcore::SimTime;

use crate::fcfs::McConfig;
use crate::stats::McStats;
use crate::{EnqueueResult, McModel, Request, WakeResult};

#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    arrival: SimTime,
    /// Row coordinate, cached at enqueue (the mapping is fixed).
    row: u64,
    /// Channel-local enqueue sequence number; bank queues stay sorted by it.
    seq: u64,
    /// Channel serve count at enqueue time (for the O(1) bypass count).
    serves_at_enq: u64,
    /// Requests already pending on the channel at enqueue time; every one
    /// of them is older than this request.
    older_at_enq: u64,
}

#[derive(Debug)]
struct Bank {
    /// Pending requests for this bank, ordered by `seq`. Removal can be
    /// mid-queue: arrival order need not match `seq` order when network
    /// latencies differ, so the oldest *ready* entry may sit behind a
    /// not-yet-arrived older one.
    queue: VecDeque<Pending>,
    free_at: SimTime,
    open_row: Option<u64>,
    /// Earliest `arrival` in `queue`; meaningless while the queue is empty.
    min_arrival: SimTime,
}

#[derive(Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: SimTime,
    /// Requests pending across all of this channel's banks.
    pending: u64,
    /// Requests served so far on this channel.
    serves: u64,
    /// Sequence number for the next enqueue.
    next_seq: u64,
}

impl Channel {
    /// Bank whose queue front is the channel's oldest pending request.
    fn head_bank(&self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (b, bank) in self.banks.iter().enumerate() {
            if let Some(p) = bank.queue.front() {
                if best.is_none_or(|(s, _)| p.seq < s) {
                    best = Some((p.seq, b));
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// Picks the `(bank, queue index)` of the request to serve next among
    /// those whose bank and arrival are ready at `now`; `None` if nothing
    /// is ready.
    fn pick(&self, now: SimTime, starvation_cap: u32) -> Option<(usize, usize)> {
        let head_bank = self.head_bank()?;
        let head = &self.banks[head_bank].queue[0];
        // Whatever bypasses a request also bypasses everything older than
        // it, so bypass counts are non-increasing in age and only the
        // channel's oldest pending request can be starved. Being the
        // oldest, all `older_at_enq` requests that preceded it have been
        // served, so its bypass count is exactly the serves since its
        // enqueue minus the serves owed to those elders — no per-entry
        // bookkeeping needed.
        let bypassed = self.serves - head.serves_at_enq - head.older_at_enq;
        if bypassed >= u64::from(starvation_cap) {
            if head.arrival <= now && self.banks[head_bank].free_at <= now {
                return Some((head_bank, 0));
            }
            // A starved request blocks reordering past it until servable.
            return None;
        }
        // (seq, bank, idx) of the oldest ready row hit and the oldest
        // ready request overall; a hit wins over any non-hit.
        let mut best_hit: Option<(u64, usize, usize)> = None;
        let mut best_ready: Option<(u64, usize, usize)> = None;
        for (b, bank) in self.banks.iter().enumerate() {
            if bank.free_at > now {
                continue;
            }
            let mut saw_ready = false;
            for (i, p) in bank.queue.iter().enumerate() {
                if p.arrival > now {
                    continue;
                }
                if !saw_ready {
                    saw_ready = true;
                    if best_ready.is_none_or(|(s, _, _)| p.seq < s) {
                        best_ready = Some((p.seq, b, i));
                    }
                }
                if bank.open_row == Some(p.row) {
                    if best_hit.is_none_or(|(s, _, _)| p.seq < s) {
                        best_hit = Some((p.seq, b, i));
                    }
                    break; // later entries in this bank are younger hits
                }
                if bank.open_row.is_none() {
                    break; // a closed row cannot hit: oldest ready suffices
                }
                if best_hit.is_some_and(|(s, _, _)| s < p.seq) {
                    break; // any hit deeper in this bank is younger still
                }
            }
        }
        best_hit.or(best_ready).map(|(_, b, i)| (b, i))
    }

    /// Earliest time this channel could serve something, given its queues.
    fn next_opportunity(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for bank in &self.banks {
            if bank.queue.is_empty() {
                continue;
            }
            // All of a bank's requests share `free_at`, so the bank's
            // earliest chance is its earliest arrival against the bank
            // and bus frees.
            let ready = bank.min_arrival.max(bank.free_at).max(self.bus_free);
            earliest = Some(earliest.map_or(ready, |e| e.min(ready)));
        }
        earliest
    }
}

/// The reordering controller.
#[derive(Debug)]
pub struct FrFcfsController {
    cfg: McConfig,
    channels: Vec<Channel>,
    /// Maximum times a request may be bypassed by row hits before it gets
    /// absolute priority.
    starvation_cap: u32,
    stats: McStats,
    /// Per-run telemetry observer; `None` when the run has no registry.
    obs: Option<Box<offchip_obs::McObs>>,
}

impl FrFcfsController {
    /// Creates an idle controller with the default starvation cap (4).
    pub fn new(cfg: McConfig) -> FrFcfsController {
        Self::with_starvation_cap(cfg, 4)
    }

    /// Creates an idle controller with an explicit starvation cap.
    pub fn with_starvation_cap(cfg: McConfig, starvation_cap: u32) -> FrFcfsController {
        let ch = cfg.mapping.channels() as usize;
        let banks = cfg.mapping.banks() as usize;
        let channels = (0..ch)
            .map(|_| Channel {
                banks: (0..banks)
                    .map(|_| Bank {
                        queue: VecDeque::new(),
                        free_at: SimTime::ZERO,
                        open_row: None,
                        min_arrival: SimTime::ZERO,
                    })
                    .collect(),
                bus_free: SimTime::ZERO,
                pending: 0,
                serves: 0,
                next_seq: 0,
            })
            .collect();
        FrFcfsController {
            cfg,
            channels,
            starvation_cap,
            stats: McStats::default(),
            obs: None,
        }
    }
}

impl McModel for FrFcfsController {
    fn enqueue(&mut self, now: SimTime, req: Request) -> EnqueueResult {
        let arrival = now + req.network_latency;
        let coord = self.cfg.mapping.map(req.line_addr);
        let ch = &mut self.channels[coord.channel as usize];
        let p = Pending {
            req,
            arrival,
            row: coord.row,
            seq: ch.next_seq,
            serves_at_enq: ch.serves,
            older_at_enq: ch.pending,
        };
        ch.next_seq += 1;
        ch.pending += 1;
        let bank = &mut ch.banks[coord.bank as usize];
        if bank.queue.is_empty() || arrival < bank.min_arrival {
            bank.min_arrival = arrival;
        }
        bank.queue.push_back(p);
        // Ask for a wake as soon as the request could possibly be served.
        EnqueueResult::Deferred(Some(arrival))
    }

    fn wake(&mut self, now: SimTime) -> WakeResult {
        let mut committed = Vec::new();
        for ch in &mut self.channels {
            // Serve at most one request per channel per wake: the bus
            // occupies until `completion`, so further picks belong to a
            // later wake anyway.
            if ch.bus_free > now {
                continue;
            }
            let Some((b, idx)) = ch.pick(now, self.starvation_cap) else {
                continue;
            };
            let bank = &mut ch.banks[b];
            let p = bank.queue.remove(idx).expect("picked index exists");
            if let Some(m) = bank.queue.iter().map(|q| q.arrival).min() {
                bank.min_arrival = m;
            }
            ch.pending -= 1;
            ch.serves += 1;
            if p.req.is_write {
                // Buffered write: data-bus cost only (cf. the FCFS model).
                let transfer_start = now.max(ch.bus_free);
                let completion = transfer_start + self.cfg.transfer_cycles;
                ch.bus_free = completion;
                self.stats.requests += 1;
                self.stats.writes += 1;
                self.stats.total_residence_cycles += completion - p.arrival;
                self.stats.total_queueing_cycles += now - p.arrival;
                if let Some(obs) = &mut self.obs {
                    obs.record(p.arrival.0, now.0, now - p.arrival, completion.0);
                }
                committed.push((p.req, completion + p.req.network_latency));
                continue;
            }
            // Hits pipeline on the open row (bank held for the transfer
            // slot only); activations occupy the bank for the full window
            // (cf. the FCFS model).
            let (row_time, occupancy) = if bank.open_row == Some(p.row) {
                self.stats.row_hits += 1;
                (self.cfg.row_hit_cycles, self.cfg.transfer_cycles)
            } else {
                self.stats.row_misses += 1;
                bank.open_row = Some(p.row);
                (self.cfg.row_miss_cycles, self.cfg.row_miss_cycles)
            };
            bank.free_at = now + occupancy;
            let data_ready = now + row_time;
            let transfer_start = data_ready.max(ch.bus_free);
            let completion = transfer_start + self.cfg.transfer_cycles;
            ch.bus_free = completion;

            self.stats.requests += 1;
            self.stats.total_residence_cycles += completion - p.arrival;
            self.stats.total_queueing_cycles += now - p.arrival;

            if let Some(obs) = &mut self.obs {
                obs.record(p.arrival.0, now.0, now - p.arrival, completion.0);
            }

            committed.push((p.req, completion + p.req.network_latency));
        }
        // Next wake: the earliest opportunity over all channels.
        let mut next_wake: Option<SimTime> = None;
        for ch in &self.channels {
            if let Some(t) = ch.next_opportunity() {
                let t = t.max(now + 1);
                next_wake = Some(next_wake.map_or(t, |w| w.min(t)));
            }
        }
        WakeResult {
            committed,
            next_wake,
        }
    }

    fn stats(&self) -> &McStats {
        &self.stats
    }

    fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.pending as usize).sum()
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
    use crate::mapping::AddressMapping;

    fn cfg() -> McConfig {
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

    /// Drives the controller until idle, returning (id, completion) pairs.
    fn drain(mc: &mut FrFcfsController, start: SimTime) -> Vec<(u64, SimTime)> {
        let mut done = Vec::new();
        let mut wake_at = start;
        loop {
            let w = mc.wake(wake_at);
            for (r, t) in w.committed {
                done.push((r.id, t));
            }
            match w.next_wake {
                Some(t) => wake_at = t,
                None => break,
            }
            if done.len() > 10_000 {
                panic!("controller did not drain");
            }
        }
        done
    }

    #[test]
    fn serves_a_single_request() {
        let mut mc = FrFcfsController::new(cfg());
        assert_eq!(
            mc.enqueue(SimTime(10), req(0, 0)),
            EnqueueResult::Deferred(Some(SimTime(10)))
        );
        assert_eq!(mc.pending(), 1);
        let done = drain(&mut mc, SimTime(10));
        assert_eq!(done, vec![(0, SimTime(10 + 110 + 8))]);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn row_hit_bypasses_older_miss() {
        let mut mc = FrFcfsController::new(cfg());
        // Open row 0 of bank 0 with request 0.
        mc.enqueue(SimTime(0), req(0, 0));
        let w = mc.wake(SimTime(0));
        assert_eq!(w.committed.len(), 1);
        let t0 = w.committed[0].1;
        // Queue: older request to a *different* row (miss) then a younger
        // one to the open row (hit).
        mc.enqueue(SimTime(1), req(1, 32 * 4)); // bank 0, row 1 → miss
        mc.enqueue(SimTime(2), req(2, 1)); // bank 0, row 0 → hit
        let done = drain(&mut mc, t0);
        let pos1 = done.iter().position(|&(id, _)| id == 1).unwrap();
        let pos2 = done.iter().position(|&(id, _)| id == 2).unwrap();
        assert!(pos2 < pos1, "row hit must be served first: {done:?}");
    }

    #[test]
    fn starvation_cap_eventually_serves_old_miss() {
        let mut mc = FrFcfsController::with_starvation_cap(cfg(), 2);
        // Open row 0.
        mc.enqueue(SimTime(0), req(0, 0));
        let w = mc.wake(SimTime(0));
        let mut t = w.committed[0].1;
        // One old miss + a long stream of row hits arriving up front.
        mc.enqueue(t, req(100, 32 * 4)); // miss, bank 0 row 1
        for i in 0..10 {
            mc.enqueue(t, req(i, 2 + i)); // hits in open row 0
        }
        let done = drain(&mut mc, t);
        let miss_pos = done.iter().position(|&(id, _)| id == 100).unwrap();
        assert!(
            miss_pos <= 2,
            "starved miss served after at most cap bypasses, got position {miss_pos} in {done:?}"
        );
        t = done.last().unwrap().1;
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn fcfs_order_when_no_hits_possible() {
        let mut mc = FrFcfsController::new(cfg());
        // All to different rows of bank 0: no reordering opportunity.
        for i in 0..5 {
            mc.enqueue(SimTime(i), req(i, i * 32 * 4));
        }
        let done = drain(&mut mc, SimTime(0));
        let ids: Vec<u64> = done.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn higher_row_hit_rate_than_fcfs_under_mixed_traffic() {
        use crate::fcfs::FcfsController;
        // Interleave two row streams on one bank: FCFS ping-pongs rows,
        // FR-FCFS batches hits.
        let make_reqs = || -> Vec<Request> {
            (0..40)
                .map(|i| {
                    let row = i % 2; // alternate rows
                    let line = row * 32 * 4 + (i / 2) % 32;
                    req(i, line)
                })
                .collect()
        };
        let mut frf = FrFcfsController::new(cfg());
        for r in make_reqs() {
            frf.enqueue(SimTime(0), r);
        }
        let _ = drain(&mut frf, SimTime(0));

        let mut fcfs = FcfsController::new(cfg());
        for r in make_reqs() {
            let _ = fcfs.enqueue(SimTime(0), r);
        }
        assert!(
            frf.stats().row_hit_rate() > fcfs.stats().row_hit_rate(),
            "FR-FCFS {} vs FCFS {}",
            frf.stats().row_hit_rate(),
            fcfs.stats().row_hit_rate()
        );
    }

    #[test]
    fn row_miss_holds_its_bank_when_hit_and_miss_timings_are_equal() {
        // Occupancy follows the row-hit test, not the latency it picked.
        // The channel bus stays busy past either bank time, so the bank's
        // own free time is read directly.
        let mut mc = FrFcfsController::new(McConfig {
            row_hit_cycles: 110,
            ..cfg()
        });
        mc.enqueue(SimTime(0), req(0, 0));
        let w = mc.wake(SimTime(0));
        assert_eq!(w.committed[0].1, SimTime(110 + 8));
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(mc.channels[0].banks[0].free_at, SimTime(110));
        // A row hit on the same bank holds it for one transfer slot.
        mc.enqueue(SimTime(118), req(1, 1));
        let w = mc.wake(SimTime(118));
        assert_eq!(w.committed[0].1, SimTime(118 + 110 + 8));
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.channels[0].banks[0].free_at, SimTime(118 + 8));
    }

    #[test]
    fn wake_before_arrival_commits_nothing() {
        let mut mc = FrFcfsController::new(cfg());
        let mut r = req(0, 0);
        r.network_latency = 50;
        mc.enqueue(SimTime(0), r);
        let w = mc.wake(SimTime(0));
        assert!(w.committed.is_empty(), "request has not arrived yet");
        assert_eq!(w.next_wake, Some(SimTime(50)));
    }
}
