//! The statistical trace-behaviour model behind the SPEC2K mimics.
//!
//! Execution is modelled as a sequence of *region visits*: a region is a
//! small set of static traces (a loop body); a visit runs the region's
//! traces in order for a region-specific number of loop iterations.
//! Region selection is Zipf-distributed, giving the hot/cold concentration
//! seen in Figures 1–2 of the paper; loop iteration counts produce the
//! short repeat distances of Figures 3–4, while cold-region revisit gaps
//! produce the long tail.
//!
//! The same model drives both the pure [`SyntheticTraceStream`] (fast,
//! cache-only studies) and the generated mimic programs
//! ([`generate_mimic`](crate::generate_mimic), executed on the real
//! pipeline), so the two can cross-validate.

use crate::profiles::SpecProfile;
use itr_core::TraceRecord;
use itr_stats::SplitMix64;

/// One code region: an ordered list of trace lengths (instructions,
/// including the terminating branch) and a fixed loop count.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Instructions per trace, in region order (each 2..=16).
    pub trace_lens: Vec<u32>,
    /// Loop iterations per visit.
    pub loops: u32,
}

impl RegionSpec {
    /// Instructions executed by one visit of this region.
    pub fn instrs_per_visit(&self) -> u64 {
        self.loops as u64 * self.trace_lens.iter().map(|&l| l as u64).sum::<u64>()
    }
}

/// The region-visit model for one benchmark profile.
#[derive(Debug, Clone)]
pub struct MimicModel {
    profile: SpecProfile,
    regions: Vec<RegionSpec>,
    /// Cumulative Zipf weights for region selection.
    cumulative: Vec<f64>,
    rng: SplitMix64,
}

impl MimicModel {
    /// Builds the model for `profile`, deterministically from `seed`.
    pub fn new(profile: SpecProfile, seed: u64) -> MimicModel {
        let mut rng = SplitMix64::new(seed ^ 0x1517_AD5E_ED00_0001);
        // Region count solves: static_traces ≈ Σ traces + 2·regions + 3
        // (generated programs add a jump-back trace and a dual-identity
        // entry trace per region, plus dispatcher overhead; see synth.rs).
        let per_region = profile.region_traces.max(2);
        let body_budget = profile.static_traces.saturating_sub(3);
        let g = (body_budget as f64 / (per_region as f64 + 2.0)).ceil().max(1.0) as u32;
        let traces_total = body_budget.saturating_sub(2 * g).max(g);
        let mut regions = Vec::with_capacity(g as usize);
        let base = traces_total / g;
        let extra = traces_total % g;
        for i in 0..g {
            let n = (base + u32::from(i < extra)).max(1);
            let trace_lens = (0..n)
                .map(|_| {
                    let avg = profile.avg_trace_len as i64;
                    let jitter = rng.gen_range(-(avg / 2)..=avg / 2);
                    (avg + jitter).clamp(2, 16) as u32
                })
                .collect();
            let l = profile.loop_iters.max(1);
            let loops = rng.gen_range(l.div_ceil(2)..=l.saturating_mul(3).div_ceil(2)).max(1);
            regions.push(RegionSpec { trace_lens, loops });
        }
        // Zipf weights over regions: weight(k) = 1/(k+1)^s.
        let mut cumulative = Vec::with_capacity(regions.len());
        let mut acc = 0.0;
        for k in 0..regions.len() {
            acc += 1.0 / ((k + 1) as f64).powf(profile.zipf_s);
            cumulative.push(acc);
        }
        MimicModel { profile, regions, cumulative, rng }
    }

    /// The modelled profile.
    pub fn profile(&self) -> &SpecProfile {
        &self.profile
    }

    /// The region specifications.
    pub fn regions(&self) -> &[RegionSpec] {
        &self.regions
    }

    /// Total static traces the model represents, including the dispatcher
    /// and per-region linkage traces a generated program materializes
    /// (the quantity comparable to the paper's Table 1).
    pub fn modelled_static_traces(&self) -> u32 {
        let body: u32 = self.regions.iter().map(|r| r.trace_lens.len() as u32).sum();
        body + 2 * self.regions.len() as u32 + 3
    }

    /// Samples the next region to visit (Zipf over regions).
    pub fn sample_region(&mut self) -> usize {
        let total = *self.cumulative.last().expect("at least one region");
        let x = self.rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }

    /// Samples a visit sequence whose estimated dynamic instruction count
    /// reaches `target_instrs`.
    pub fn sample_schedule(&mut self, target_instrs: u64) -> Vec<usize> {
        let mut schedule = Vec::new();
        let mut instrs = 0u64;
        while instrs < target_instrs {
            let r = self.sample_region();
            instrs += self.regions[r].instrs_per_visit() + 5; // + dispatcher
            schedule.push(r);
        }
        schedule
    }
}

/// A synthetic committed-trace stream sampled directly from a
/// [`MimicModel`] — no program execution involved.
///
/// Mirrors what a generated mimic program produces on the simulator:
/// region visits interleaved with a hot dispatcher trace. Start PCs are
/// laid out sequentially per region; signatures are a deterministic hash
/// of the start PC (consistent across instances, as fault-free signatures
/// are).
#[derive(Debug, Clone)]
pub struct SyntheticTraceStream {
    model: MimicModel,
    /// Start PC of each trace, per region.
    region_pcs: Vec<Vec<u64>>,
    dispatcher_pc: u64,
    budget: u64,
    // Iteration state.
    region: usize,
    loops_left: u32,
    trace_idx: usize,
    emit_dispatcher: bool,
}

fn sig_of_pc(start_pc: u64) -> u64 {
    // SplitMix64: a fixed, deterministic stand-in for the XOR-folded
    // signature of the trace at `start_pc`.
    let mut z = start_pc.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SyntheticTraceStream {
    /// Streams about `target_instrs` dynamic instructions worth of traces.
    pub fn new(profile: SpecProfile, seed: u64, target_instrs: u64) -> SyntheticTraceStream {
        let model = MimicModel::new(profile, seed);
        let mut pc = 0x0040_0000u64;
        let dispatcher_pc = pc;
        pc += 5 * 4;
        let mut region_pcs = Vec::with_capacity(model.regions().len());
        for region in model.regions() {
            let mut pcs = Vec::with_capacity(region.trace_lens.len());
            for &len in &region.trace_lens {
                pcs.push(pc);
                pc += len as u64 * 4;
            }
            pc += 8; // jump-back + spacing
            region_pcs.push(pcs);
        }
        SyntheticTraceStream {
            model,
            region_pcs,
            dispatcher_pc,
            budget: target_instrs,
            region: 0,
            loops_left: 0,
            trace_idx: 0,
            emit_dispatcher: true,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &MimicModel {
        &self.model
    }
}

impl Iterator for SyntheticTraceStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.budget == 0 {
            return None;
        }
        if self.emit_dispatcher {
            self.emit_dispatcher = false;
            if self.loops_left == 0 {
                // Pick the next region visit.
                self.region = self.model.sample_region();
                self.loops_left = self.model.regions()[self.region].loops;
                self.trace_idx = 0;
            }
            let len = 5u32;
            self.budget = self.budget.saturating_sub(len as u64);
            return Some(TraceRecord {
                start_pc: self.dispatcher_pc,
                signature: sig_of_pc(self.dispatcher_pc),
                len,
            });
        }
        let region = &self.model.regions()[self.region];
        let len = region.trace_lens[self.trace_idx];
        let pc = self.region_pcs[self.region][self.trace_idx];
        self.trace_idx += 1;
        if self.trace_idx == region.trace_lens.len() {
            self.trace_idx = 0;
            self.loops_left -= 1;
            if self.loops_left == 0 {
                self.emit_dispatcher = true;
            }
        }
        self.budget = self.budget.saturating_sub(len as u64);
        Some(TraceRecord { start_pc: pc, signature: sig_of_pc(pc), len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;
    use std::collections::BTreeMap;

    #[test]
    fn model_is_deterministic_per_seed() {
        let p = profiles::by_name("parser").unwrap();
        let mut a = MimicModel::new(p, 7);
        let mut b = MimicModel::new(p, 7);
        for _ in 0..100 {
            assert_eq!(a.sample_region(), b.sample_region());
        }
        let mut c = MimicModel::new(p, 8);
        let same = (0..100).filter(|_| a.sample_region() == c.sample_region()).count();
        assert!(same < 100, "different seeds must diverge");
    }

    #[test]
    fn static_trace_count_tracks_table1() {
        for p in profiles::all() {
            let m = MimicModel::new(p, 1);
            let traces: usize = m.regions().iter().map(|r| r.trace_lens.len()).sum();
            let expected = p.static_traces as f64;
            let modelled = traces as f64 + 2.0 * m.regions().len() as f64 + 3.0;
            let ratio = modelled / expected;
            assert!(
                (0.7..1.3).contains(&ratio),
                "{}: modelled {} vs Table 1 {}",
                p.name,
                modelled,
                expected
            );
        }
    }

    #[test]
    fn stream_respects_instruction_budget() {
        let p = profiles::by_name("vpr").unwrap();
        let total: u64 = SyntheticTraceStream::new(p, 3, 100_000).map(|t| t.len as u64).sum();
        assert!(total >= 100_000);
        assert!(total < 101_000, "overshoot bounded by one trace");
    }

    #[test]
    fn signatures_are_stable_per_start_pc() {
        let p = profiles::by_name("gap").unwrap();
        let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
        for t in SyntheticTraceStream::new(p, 9, 200_000) {
            let prev = seen.insert(t.start_pc, t.signature);
            if let Some(prev) = prev {
                assert_eq!(prev, t.signature);
            }
        }
    }

    #[test]
    fn hot_benchmarks_concentrate_dynamic_instructions() {
        // Figures 1–2: in bzip-like workloads few traces dominate; in
        // vortex-like ones the distribution is flat.
        fn top_100_share(name: &str) -> f64 {
            let p = profiles::by_name(name).unwrap();
            let mut by_trace: BTreeMap<u64, u64> = BTreeMap::new();
            let mut total = 0u64;
            for t in SyntheticTraceStream::new(p, 5, 500_000) {
                *by_trace.entry(t.start_pc).or_default() += t.len as u64;
                total += t.len as u64;
            }
            let mut counts: Vec<u64> = by_trace.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts.iter().take(100).sum::<u64>() as f64 / total as f64
        }
        let bzip = top_100_share("bzip");
        let vortex = top_100_share("vortex");
        assert!(bzip > 0.95, "bzip top-100 share = {bzip}");
        assert!(vortex < bzip, "vortex ({vortex}) flatter than bzip ({bzip})");
    }

    #[test]
    fn repeat_distance_orders_by_proximity_class() {
        // Figures 3–4: nearly all of bzip's repeats land within 5000
        // instructions; a large share of vortex's land beyond.
        fn far_fraction(name: &str) -> f64 {
            let p = profiles::by_name(name).unwrap();
            let mut last_seen: BTreeMap<u64, u64> = BTreeMap::new();
            let (mut far, mut total) = (0u64, 0u64);
            let mut pos = 0u64;
            for t in SyntheticTraceStream::new(p, 11, 500_000) {
                if let Some(prev) = last_seen.insert(t.start_pc, pos) {
                    total += t.len as u64;
                    if pos - prev > 5000 {
                        far += t.len as u64;
                    }
                }
                pos += t.len as u64;
            }
            far as f64 / total.max(1) as f64
        }
        let bzip = far_fraction("bzip");
        let vortex = far_fraction("vortex");
        assert!(bzip < 0.05, "bzip far-repeat fraction = {bzip}");
        assert!(vortex > 0.25, "vortex far-repeat fraction = {vortex}");
        assert!(vortex > bzip * 5.0);
    }
}
