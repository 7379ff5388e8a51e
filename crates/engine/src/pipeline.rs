//! In-order hardware pipeline timing.
//!
//! Both DCART units are pipelines: the PCU's three combining stages
//! (Scan_Operation → Get_Prefix → Combine_Operation, paper §III-B) and each
//! SOU's four operating stages (Index_Shortcut → Traverse_Tree →
//! Trigger_Operation → Generate_Shortcut, §III-C). Items flow in order;
//! a stage with a long-latency item (e.g. an off-chip tree fetch in
//! Traverse_Tree) back-pressures earlier stages.
//!
//! The model is the classic reservation-table recurrence:
//! `finish[s][i] = max(finish[s-1][i], finish[s][i-1]) + latency(s, i)`.

use serde::{Deserialize, Serialize};

/// Timing result of running a batch of items through a pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineRun {
    /// Cycle at which the last item left the last stage.
    pub total_cycles: u64,
    /// Number of items processed.
    pub items: u64,
    /// Busy cycles per stage (for utilization reporting).
    pub stage_busy: Vec<u64>,
    /// Per-item completion cycles (drained lazily; empty unless requested).
    pub completions: Vec<u64>,
}

/// An in-order pipeline with per-item, per-stage latencies.
///
/// # Examples
///
/// ```
/// use dcart_engine::Pipeline;
///
/// // Three unit-latency stages, four items: fill (3) + drain (3) = 6.
/// let mut p = Pipeline::new(3);
/// for _ in 0..4 {
///     p.push(&[1, 1, 1]);
/// }
/// assert_eq!(p.finish().total_cycles, 6);
/// ```
#[derive(Clone, Debug)]
pub struct Pipeline {
    stages: usize,
    /// `finish[s]`: cycle the last item to occupy stage `s` left it.
    finish: Vec<u64>,
    stage_busy: Vec<u64>,
    items: u64,
    record_completions: bool,
    completions: Vec<u64>,
}

impl Pipeline {
    /// Creates a pipeline with `stages` stages, all initially idle.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero.
    pub fn new(stages: usize) -> Self {
        assert!(stages > 0, "a pipeline needs at least one stage");
        Pipeline {
            stages,
            finish: vec![0; stages],
            stage_busy: vec![0; stages],
            items: 0,
            record_completions: false,
            completions: Vec::new(),
        }
    }

    /// Enables per-item completion-time recording (for latency percentiles).
    pub fn record_completions(mut self) -> Self {
        self.record_completions = true;
        self
    }

    /// Number of stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Feeds one item with the given per-stage latencies (cycles), assuming
    /// it is available at the pipeline entrance as soon as the first stage
    /// frees up. Returns the cycle at which the item completes.
    ///
    /// # Panics
    ///
    /// Panics if `latencies.len() != stages`.
    pub fn push(&mut self, latencies: &[u64]) -> u64 {
        self.push_at(0, latencies)
    }

    /// Feeds one item that arrives at cycle `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `latencies.len() != stages`.
    pub fn push_at(&mut self, arrival: u64, latencies: &[u64]) -> u64 {
        assert_eq!(latencies.len(), self.stages, "one latency per stage required");
        let mut ready = arrival;
        for (s, &lat) in latencies.iter().enumerate() {
            let start = ready.max(self.finish[s]);
            let end = start + lat;
            self.finish[s] = end;
            self.stage_busy[s] += lat;
            ready = end;
        }
        self.items += 1;
        if self.record_completions {
            self.completions.push(ready);
        }
        ready
    }

    /// Resets the pipeline to idle without releasing its buffers, so a
    /// caller timing many batches can reuse one `Pipeline` instead of
    /// allocating per batch (the same reuse discipline as the CTT
    /// executor's scratch arenas).
    pub fn reset(&mut self) {
        self.finish.iter_mut().for_each(|f| *f = 0);
        self.stage_busy.iter_mut().for_each(|b| *b = 0);
        self.items = 0;
        self.completions.clear();
    }

    /// Injects a stall bubble into stage `s`: the stage is unavailable for
    /// `cycles` extra cycles, delaying every later item that passes through
    /// it (fault injection; the cycles are *not* counted as busy work).
    ///
    /// # Panics
    ///
    /// Panics if `s >= stages`.
    pub fn stall(&mut self, s: usize, cycles: u64) {
        assert!(s < self.stages, "stage {s} out of range");
        self.finish[s] += cycles;
    }

    /// Cycle at which the pipeline fully drains with the items seen so far.
    pub fn drain_cycle(&self) -> u64 {
        self.finish.last().copied().unwrap_or(0)
    }

    /// Finishes the run and returns the timing summary.
    pub fn finish(self) -> PipelineRun {
        PipelineRun {
            total_cycles: self.drain_cycle(),
            items: self.items,
            stage_busy: self.stage_busy,
            completions: self.completions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_latency_throughput_is_one_per_cycle() {
        let mut p = Pipeline::new(4);
        for _ in 0..100 {
            p.push(&[1, 1, 1, 1]);
        }
        // fill (4 cycles for first item) + 99 more at 1/cycle.
        assert_eq!(p.finish().total_cycles, 4 + 99);
    }

    #[test]
    fn slow_stage_backpressures() {
        let mut p = Pipeline::new(3);
        for _ in 0..10 {
            p.push(&[1, 5, 1]); // stage 1 is the bottleneck
        }
        // Bottleneck initiation interval = 5: 1 (enter) + 10*5 + 1 (exit).
        assert_eq!(p.finish().total_cycles, 1 + 50 + 1);
    }

    #[test]
    fn variable_latencies_mix() {
        let mut p = Pipeline::new(2);
        let c1 = p.push(&[1, 1]);
        let c2 = p.push(&[1, 10]); // long second stage
        let c3 = p.push(&[1, 1]); // waits for stage-1 slot behind item 2
        assert_eq!(c1, 2);
        assert_eq!(c2, 12);
        assert_eq!(c3, 13);
    }

    #[test]
    fn arrival_time_defers_start() {
        let mut p = Pipeline::new(1);
        assert_eq!(p.push_at(100, &[5]), 105);
        assert_eq!(p.push_at(0, &[5]), 110, "in-order: cannot overtake");
    }

    #[test]
    fn stage_utilization_reflects_busy_cycles() {
        let mut p = Pipeline::new(2);
        for _ in 0..50 {
            p.push(&[1, 2]);
        }
        let run = p.finish();
        assert!(run.stage_busy[1] > run.stage_busy[0]);
        assert!(run.stage_busy[1] <= run.total_cycles);
    }

    #[test]
    fn stall_delays_subsequent_items() {
        let mut clean = Pipeline::new(3);
        let mut faulty = Pipeline::new(3);
        clean.push(&[1, 1, 1]);
        faulty.push(&[1, 1, 1]);
        faulty.stall(1, 7); // bubble in the middle stage
        let c = clean.push(&[1, 1, 1]);
        let f = faulty.push(&[1, 1, 1]);
        assert_eq!(f, c + 7, "next item pays the full bubble");
        // Busy cycles unchanged: a stall is idle time, not work.
        assert_eq!(clean.stage_busy, faulty.stage_busy);
    }

    #[test]
    fn reset_restores_a_fresh_pipeline() {
        let mut p = Pipeline::new(3).record_completions();
        for _ in 0..10 {
            p.push(&[1, 5, 1]);
        }
        p.reset();
        for _ in 0..4 {
            p.push(&[1, 1, 1]);
        }
        let run = p.finish();
        assert_eq!(run.items, 4);
        assert_eq!(run.total_cycles, 6, "identical to a brand-new pipeline");
        assert_eq!(run.completions, vec![3, 4, 5, 6]);
    }

    #[test]
    fn completions_recorded_when_enabled() {
        let mut p = Pipeline::new(1).record_completions();
        p.push(&[3]);
        p.push(&[3]);
        assert_eq!(p.finish().completions, vec![3, 6]);
    }
}
