//! Deterministic parallel execution of independent experiment cells.
//!
//! Every exhibit decomposes into independent (workload, engine, config)
//! cells whose results depend only on their inputs: the platform models use
//! simulated clocks (cycle counts, never `Instant`), so a cell computes the
//! same report no matter when or where it runs. That makes the fan-out
//! trivially safe — the only discipline required is *collection order*.
//!
//! [`par_map`] runs cells on up to `jobs` workers of the executor's own
//! scoped pool ([`dcart_engine::par_for_each_mut`]), each cell writing its
//! result into the slot of its input index. Output order is input order,
//! never completion order, so `repro --jobs 1` and `repro --jobs 8` emit
//! byte-identical reports. The worker count is [`Scale::jobs`](crate::Scale),
//! passed explicitly by every exhibit.
//!
//! Per-cell wall-clock (the harness's own cost, not the simulated time) is
//! measured by [`par_map_timed`] for `run_matrix`'s per-cell progress
//! lines.

use std::time::Instant;

/// The default worker count: the host's available parallelism.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One cell's result plus the wall-clock seconds the cell took to compute
/// (harness cost — distinct from the simulated `time_s` inside reports).
#[derive(Clone, Debug)]
pub struct Timed<R> {
    /// The cell's result.
    pub value: R,
    /// Wall-clock seconds spent computing the cell.
    pub seconds: f64,
}

/// Runs `f` over `inputs` on up to `jobs` worker threads and returns the
/// results in input order. Panics in a cell propagate to the caller.
pub fn par_map<I, R, F>(jobs: usize, inputs: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    par_map_timed(jobs, inputs, f).into_iter().map(|t| t.value).collect()
}

/// [`par_map`], with per-cell wall-clock timing attached to each result.
pub fn par_map_timed<I, R, F>(jobs: usize, inputs: Vec<I>, f: F) -> Vec<Timed<R>>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    // One `(input, result)` slot per cell; the pool hands each slot to
    // exactly one worker, so results land by input index.
    let mut slots: Vec<(Option<I>, Option<Timed<R>>)> =
        inputs.into_iter().map(|i| (Some(i), None)).collect();
    dcart_engine::par_for_each_mut(&mut slots, jobs, |_, (input, result)| {
        let item = input.take().expect("the pool visits every slot once");
        let t0 = Instant::now();
        let value = f(item);
        *result = Some(Timed { value, seconds: t0.elapsed().as_secs_f64() });
    });
    slots.into_iter().map(|(_, result)| result.expect("the pool joined every cell")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_deterministic_and_clamped() {
        // Zero workers still runs every cell (inline, like one).
        assert_eq!(par_map(0, vec![1u64, 2, 3], |i| i * 10), vec![10, 20, 30]);

        // Make early cells the slowest so completion order inverts input
        // order; the output must still be input-ordered.
        let out = par_map(4, (0..32u64).collect(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * i
        });
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());

        let timed = par_map_timed(2, vec![1u64, 2, 3], |i| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            i
        });
        assert_eq!(timed.iter().map(|t| t.value).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(timed.iter().all(|t| t.seconds > 0.0));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map(4, Vec::<u32>::new(), |i| i);
        assert!(out.is_empty());
    }
}
