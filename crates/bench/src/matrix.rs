//! The engine × workload run matrix shared by Figs. 7, 8, 9, and 11.

use dcart::{DcartAccel, DcartConfig, DcartSoftware, ExecOpts};
use dcart_baselines::{
    CpuBaseline, CpuConfig, CuArt, GpuConfig, IndexEngine, RunConfig, RunReport,
};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};
use serde::Serialize;

use crate::Scale;

/// The engines of the paper's comparison, in presentation order.
pub fn engine_names() -> [&'static str; 6] {
    ["ART", "Heart", "SMART", "CuART", "DCART-C", "DCART"]
}

/// Builds an engine by name, with platform models scaled to the key set
/// (cache/buffer sizes) and DCART's combining prefix skipped past the key
/// set's common prefix, as the host driver would program it. The DCART
/// engines run their functional CTT pass under `exec`.
fn build_engine(
    name: &str,
    key_set: &dcart_workloads::KeySet,
    exec: ExecOpts,
) -> Box<dyn IndexEngine> {
    let keys = key_set.len();
    let cpu = CpuConfig::xeon_8468().scaled_for_keys(keys);
    let dcart_cfg = DcartConfig::default().scaled_for_keys(keys).with_auto_prefix_skip(key_set);
    match name {
        "ART" => Box::new(CpuBaseline::art(cpu)),
        "Heart" => Box::new(CpuBaseline::heart(cpu)),
        "SMART" => Box::new(CpuBaseline::smart(cpu)),
        "CuART" => Box::new(CuArt::new(GpuConfig::a100().scaled_for_keys(keys))),
        "DCART-C" => Box::new(DcartSoftware::new(dcart_cfg, cpu).with_exec(exec)),
        "DCART" => Box::new(DcartAccel::new(dcart_cfg).with_exec(exec)),
        other => panic!("unknown engine {other}"),
    }
}

/// One cell of the run matrix.
#[derive(Clone, Debug, Serialize)]
pub struct MatrixEntry {
    /// Engine name.
    pub engine: String,
    /// Workload name.
    pub workload: String,
    /// The full run report.
    pub report: RunReport,
}

/// Runs one engine over one workload at the given scale and mix.
pub fn run_engine(engine: &str, workload: Workload, scale: &Scale, mix: Mix) -> RunReport {
    let keys = workload.generate(scale.keys, scale.seed);
    let ops = generate_ops(
        &keys,
        &OpStreamConfig { count: scale.ops, mix, theta: 0.99, seed: scale.seed },
    );
    let mut e = build_engine(engine, &keys, scale.exec);
    e.run(&keys, &ops, &RunConfig { concurrency: scale.concurrency })
}

/// Runs `engines` × `workloads` at the default 50 % read / 50 % write mix
/// (the paper's §IV-A default), printing progress.
///
/// Both stages fan out over the [`crate::parallel`] worker pool: key/op
/// generation per workload, then every engine × workload cell. Cells are
/// collected in matrix order (workload-major, then engine), independent of
/// which worker finishes first, so the report is identical at any `--jobs`.
pub fn run_matrix(engines: &[&str], workloads: &[Workload], scale: &Scale) -> Vec<MatrixEntry> {
    let data = crate::parallel::par_map(scale.jobs, workloads.to_vec(), |workload| {
        let keys = workload.generate(scale.keys, scale.seed);
        let ops = generate_ops(
            &keys,
            &OpStreamConfig { count: scale.ops, mix: Mix::C, theta: 0.99, seed: scale.seed },
        );
        (keys, ops)
    });

    let cells: Vec<(usize, Workload, &str)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(wi, &w)| engines.iter().map(move |&e| (wi, w, e)))
        .collect();
    let timed = crate::parallel::par_map_timed(scale.jobs, cells, |(wi, workload, engine)| {
        let (keys, ops) = &data[wi];
        let mut e = build_engine(engine, keys, scale.exec);
        let report = e.run(keys, ops, &RunConfig { concurrency: scale.concurrency });
        MatrixEntry { engine: engine.to_string(), workload: workload.name().to_string(), report }
    });
    for cell in &timed {
        eprintln!(
            "    ran {:8} on {:6}: {:.4} s simulated, {:.1} Mops/s ({:.2} s wall)",
            cell.value.engine,
            cell.value.workload,
            cell.value.report.time_s,
            cell.value.report.throughput_mops(),
            cell.seconds
        );
    }
    timed.into_iter().map(|t| t.value).collect()
}

/// Convenience lookup in a matrix.
pub(crate) fn find<'a>(matrix: &'a [MatrixEntry], engine: &str, workload: &str) -> &'a RunReport {
    &matrix
        .iter()
        .find(|e| e.engine == engine && e.workload == workload)
        .unwrap_or_else(|| panic!("matrix missing {engine}/{workload}"))
        .report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_all_cells() {
        let scale =
            Scale { keys: 2_000, ops: 6_000, concurrency: 2_048, seed: 1, ..Scale::smoke() };
        let m = run_matrix(&["ART", "DCART"], &[Workload::DenseInt], &scale);
        assert_eq!(m.len(), 2);
        assert_eq!(find(&m, "ART", "DE").counters.ops, 6_000);
        assert_eq!(find(&m, "DCART", "DE").counters.ops, 6_000);
    }

    #[test]
    #[should_panic(expected = "unknown engine")]
    fn unknown_engine_rejected() {
        let scale = Scale::smoke();
        let _ = run_engine("NOPE", Workload::DenseInt, &scale, Mix::C);
    }
}
