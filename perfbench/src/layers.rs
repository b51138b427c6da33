//! Per-layer bookkeeping of a traced run, shared by every workload: the
//! simulator layers' per-run attribution ([`crate::replay`]) plus the
//! campaign, pool and model calls around them, each timed.

use std::path::Path;
use std::time::Instant;

use offchip_bench::{build_workload, Campaign, CampaignOptions, ProgramSpec, SweepTiming};
use offchip_machine::Workload;
use offchip_model::robust::{fit_robust_from_sweep, RobustOptions};
use offchip_model::validation::validate;
use offchip_model::FitProtocol;
use offchip_topology::MachineSpec;

use crate::replay::{attribute_run, LayerTotals};
use crate::stats::Samples;
use crate::trace::Lane;
use crate::{Ctx, JOBS};

/// Opens campaign `name` with a fresh journal in `dir`.
pub fn campaign_in(name: &str, dir: &Path) -> std::io::Result<Campaign> {
    let opts = CampaignOptions {
        journal_dir: Some(dir.to_path_buf()),
        ..CampaignOptions::default()
    };
    Campaign::start(name, &opts)
}

/// The layer sums of one traced run (see the module docs).
#[derive(Default)]
pub struct Layers {
    runs: LayerTotals,
    start_ms: Samples,
    busy_s: f64,
    /// Σ jobs × sweep wall.
    capacity_s: f64,
    records: u64,
    resumed: u64,
    append_us: Samples,
    record_len: usize,
    fit_us: Samples,
    points_used: usize,
    points_supplied: usize,
}

impl Layers {
    /// `Campaign::start` in a fresh journal directory, timed.
    pub fn start_campaign(
        &mut self,
        ctx: &mut Ctx,
        name: &str,
        dir: &Path,
        parent: u64,
    ) -> Result<Campaign, String> {
        let t0 = Instant::now();
        let campaign = campaign_in(name, dir).map_err(|e| format!("campaign {name}: {e}"))?;
        let t1 = Instant::now();
        ctx.tracer.record(
            "Campaign::start",
            parent,
            Lane::Campaign,
            t0,
            t1,
            String::new(),
        );
        self.start_ms.push((t1 - t0).as_secs_f64() * 1e3);
        Ok(campaign)
    }

    /// Adds the pool's busy time and capacity of finished sweeps.
    pub fn absorb_sweeps(&mut self, timings: &[SweepTiming]) {
        for t in timings {
            self.busy_s += t.busy.as_secs_f64();
            self.capacity_s += t.jobs as f64 * t.wall.as_secs_f64();
        }
    }

    /// Counts the campaign journal's records and remembers a record's
    /// length for the append probe.
    pub fn count_records(&mut self, campaign: &Campaign) {
        if let Ok(body) = std::fs::read_to_string(campaign.journal_path()) {
            self.records += body.lines().count() as u64;
            if let Some(first) = body.lines().next() {
                self.record_len = first.len();
            }
        }
    }

    /// Attributes one run (see [`attribute_run`]).
    pub fn attribute(
        &mut self,
        ctx: &mut Ctx,
        machine: &MachineSpec,
        workload: &dyn Workload,
        n: usize,
        seed: u64,
        parent: u64,
    ) -> Result<(), String> {
        let a = attribute_run(machine, workload, n, seed, &mut ctx.tracer, parent)?;
        ctx.checks
            .op(a.total_cycles == a.work_cycles + a.stall_cycles, || {
                format!(
                    "{} n={n} seed={seed}: total != work + stall",
                    workload.name()
                )
            });
        self.runs.push(a);
        Ok(())
    }

    /// The service's fill path for `machine_key`/`program`, call by call:
    /// `Campaign::start`, `Campaign::run_sweep` over the fit protocol's
    /// points with the service's seeds, `fit_robust_from_sweep` +
    /// `validate`, then every run of the sweep attributed.
    pub fn fill(&mut self, ctx: &mut Ctx, machine_key: &str, program: &str) -> Result<(), String> {
        let spec = ProgramSpec::parse(program)?;
        let machine = crate::serve::machines()
            .into_iter()
            .find(|(k, _)| *k == machine_key)
            .map(|(_, m)| m)
            .ok_or_else(|| format!("unknown machine {machine_key}"))?;
        let total = machine.total_cores();
        let proto = FitProtocol::for_machine(&machine.name);
        let mut ns = proto.input_cores.clone();
        ns.extend([1, total]);
        ns.sort_unstable();
        ns.dedup();
        let seeds = offchip_bench::seeds();
        let id = ctx.tracer.reserve();
        let t_fill = Instant::now();
        let dir = ctx.scratch(&format!("fill-{machine_key}-{program}"))?;
        let campaign =
            self.start_campaign(ctx, &format!("serve-{machine_key}-{program}"), &dir, id)?;
        let w = build_workload(spec, total);
        let t0 = Instant::now();
        let cs = campaign
            .run_sweep(&machine, w.as_ref(), &ns, &seeds, JOBS)
            .map_err(|e| format!("fill sweep: {e}"))?;
        let t1 = Instant::now();
        ctx.tracer.record(
            "Campaign::run_sweep",
            id,
            Lane::Campaign,
            t0,
            t1,
            String::new(),
        );
        self.absorb_sweeps(&[cs.timing]);
        self.resumed += cs.resumed as u64;
        self.count_records(&campaign);
        ctx.checks.op(cs.errors.is_empty(), || {
            format!("fill {machine_key}/{program} lost points")
        });

        let fit = (|| {
            let r = cs.sweep.mean_misses().map_err(|e| e.to_string())?;
            let cycles = cs.sweep.cycles_sweep().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let robust = fit_robust_from_sweep(
                &proto,
                &cs.sweep.cycles_sweep_f64(),
                r,
                &RobustOptions::default(),
            )
            .map_err(|e| e.to_string())?;
            validate(&robust.model, &cycles).map_err(|e| e.to_string())?;
            Ok::<_, String>((t0, robust.quality))
        })();
        let t_fit = Instant::now();
        match fit {
            Ok((t0, quality)) => {
                ctx.tracer.record(
                    "fit_robust_from_sweep+validate",
                    id,
                    Lane::Model,
                    t0,
                    t_fit,
                    String::new(),
                );
                self.fit_us.push((t_fit - t0).as_secs_f64() * 1e6);
                self.points_used += quality.points_used;
                self.points_supplied += quality.points_supplied;
                ctx.checks.op(true, String::new);
            }
            Err(e) => ctx
                .checks
                .op(false, || format!("fit {machine_key}/{program}: {e}")),
        }
        drop(campaign);
        for &n in &ns {
            for &seed in &seeds {
                self.attribute(ctx, &machine, w.as_ref(), n, seed, id)?;
            }
        }
        ctx.tracer.record_as(
            id,
            "fill",
            0,
            Lane::Bench,
            t_fill,
            Instant::now(),
            format!("\"key\":\"{machine_key}/{program}\""),
        );
        Ok(())
    }

    /// Times fsync'd `append_line` of journal-sized records to a fresh
    /// file.
    pub fn append_probe(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        const APPENDS: usize = 32;
        let path = ctx.scratch("append-probe")?.join("probe.journal");
        let mut file =
            offchip_json::atomic::open_append(&path).map_err(|e| format!("append probe: {e}"))?;
        let record = "x".repeat(self.record_len.max(200));
        for _ in 0..APPENDS {
            let t0 = Instant::now();
            offchip_json::atomic::append_line(&mut file, &record)
                .map_err(|e| format!("append probe: {e}"))?;
            let t1 = Instant::now();
            ctx.tracer.record(
                "atomic::append_line",
                0,
                Lane::Campaign,
                t0,
                t1,
                String::new(),
            );
            self.append_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
        Ok(())
    }

    /// Prints the simulator, pool and campaign metrics.
    pub fn report(&mut self, ctx: &mut Ctx) {
        for (name, value, unit, base) in self.runs.metrics() {
            ctx.metric(name, value, unit, base);
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        ctx.metric(
            "pool.busy_s",
            self.busy_s,
            "s",
            "sum of per-run host time over the sweeps",
        );
        ctx.metric(
            "pool.efficiency",
            ratio(self.busy_s, self.capacity_s),
            "ratio",
            format!(
                "busy {:.3} s / (jobs x sweep wall) {:.3} s",
                self.busy_s, self.capacity_s
            ),
        );
        let starts = self.start_ms.len();
        ctx.metric(
            "campaign.start_ms",
            self.start_ms.median(),
            "ms",
            format!("median of {starts} Campaign::start calls"),
        );
        ctx.metric(
            "campaign.records",
            self.records as f64,
            "count",
            format!("journal lines over {starts} campaigns"),
        );
        ctx.metric(
            "campaign.resumed",
            self.resumed as f64,
            "count",
            "runs replayed from a fresh journal (must be 0)",
        );
        ctx.checks.op(self.resumed == 0, || {
            format!("{} runs resumed from fresh journals", self.resumed)
        });
        let appends = self.append_us.len();
        ctx.metric(
            "campaign.append_us",
            self.append_us.median(),
            "us",
            format!(
                "median of {appends} fsync'd appends of {} B",
                self.record_len.max(200)
            ),
        );
    }

    /// Prints the model-fit metrics.
    pub fn report_model(&mut self, ctx: &mut Ctx) {
        let fits = self.fit_us.len();
        ctx.metric(
            "model.fits",
            fits as f64,
            "count",
            "fit_robust_from_sweep + validate",
        );
        ctx.metric(
            "model.fit_us",
            self.fit_us.median(),
            "us",
            format!("median of {fits} fits"),
        );
        ctx.metric(
            "model.points_used_ratio",
            self.points_used as f64 / self.points_supplied.max(1) as f64,
            "ratio",
            format!(
                "{} used / {} supplied points",
                self.points_used, self.points_supplied
            ),
        );
    }
}
