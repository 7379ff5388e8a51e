//! Cross-crate integration: every engine consumes the identical workload,
//! produces internally consistent reports, and the CTT execution is
//! functionally equivalent to plain operation-centric execution.

use dcart::{execute_ctt, DcartConfig, ExecOpts};
use dcart_baselines::{
    execute_with_traces, CpuBaseline, CpuConfig, CuArt, GpuConfig, IndexEngine, RunConfig,
};
use dcart_workloads::{generate_ops, Mix, OpStreamConfig, Workload};

const KEYS: usize = 8_000;
const OPS: usize = 40_000;

#[test]
fn every_engine_reports_consistent_counters() {
    for workload in Workload::ALL {
        let keys = workload.generate(KEYS, 7);
        let ops =
            generate_ops(&keys, &OpStreamConfig { count: OPS, mix: Mix::C, theta: 0.99, seed: 7 });
        let run = RunConfig { concurrency: 4_096 };
        let cpu = CpuConfig::xeon_8468().scaled_for_keys(KEYS);
        let mut engines: Vec<Box<dyn IndexEngine>> = vec![
            Box::new(CpuBaseline::art(cpu)),
            Box::new(CpuBaseline::heart(cpu)),
            Box::new(CpuBaseline::smart(cpu)),
            Box::new(CuArt::new(GpuConfig::a100().scaled_for_keys(KEYS))),
        ];
        for engine in &mut engines {
            let r = engine.run(&keys, &ops, &run);
            assert_eq!(r.counters.ops, OPS as u64, "{}/{workload}", r.engine);
            assert_eq!(
                r.counters.reads + r.counters.writes,
                r.counters.ops,
                "{}/{workload}",
                r.engine
            );
            assert!(r.time_s > 0.0, "{}/{workload}", r.engine);
            assert!(r.energy_j > 0.0, "{}/{workload}", r.engine);
            assert!(r.latency_p99_us >= r.latency_mean_us, "{}/{workload}", r.engine);
            assert!(
                r.counters.redundant_node_visits <= r.counters.nodes_traversed,
                "{}/{workload}",
                r.engine
            );
            assert!(r.breakdown.total_s() > 0.0, "{}/{workload}", r.engine);
            // The breakdown must account for the full modelled time.
            let dt = (r.breakdown.total_s() - r.time_s).abs() / r.time_s;
            assert!(dt < 0.05, "{}/{workload}: breakdown drift {dt}", r.engine);
        }
    }
}

#[test]
fn ctt_execution_is_functionally_equivalent_to_plain() {
    for workload in [Workload::Ipgeo, Workload::Dict, Workload::RandomSparse] {
        let keys = workload.generate(KEYS, 3);
        let ops =
            generate_ops(&keys, &OpStreamConfig { count: OPS, mix: Mix::D, theta: 0.99, seed: 3 });
        struct Sink;
        impl dcart::CttConsumer for Sink {}
        let cfg = DcartConfig::default().with_auto_prefix_skip(&keys);
        let (ctt_tree, stats, _) =
            execute_ctt(&keys, &ops, &cfg, 2_048, &ExecOpts::default(), &mut Sink).unwrap();
        let plain_tree = execute_with_traces(&keys, &ops, |_| {});
        assert_eq!(stats.ops, OPS as u64);
        assert_eq!(ctt_tree.len(), plain_tree.len(), "{workload}");
        // Identical key sets, in identical order.
        let a: Vec<_> = ctt_tree.iter().map(|(k, _)| k.clone()).collect();
        let b: Vec<_> = plain_tree.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(a, b, "{workload}");
        // Structural invariants hold after CTT execution.
        let violations = ctt_tree.check_invariants();
        assert!(violations.is_empty(), "{workload}: {violations:?}");
    }
}

/// A run report writes as compact JSON carrying its engine and op count
/// (the program writes reports and reads none back).
#[test]
fn reports_serialize_and_deserialize() {
    let keys = Workload::DenseInt.generate(2_000, 1);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: 5_000, mix: Mix::C, ..Default::default() });
    let mut e = CpuBaseline::smart(CpuConfig::xeon_8468().scaled_for_keys(2_000));
    let r = e.run(&keys, &ops, &RunConfig { concurrency: 1_024 });
    let json = serde_json::to_string(&r).expect("serialize");
    assert!(json.starts_with(&format!("{{\"engine\":\"{}\",", r.engine)), "{json}");
    assert!(json.contains(&format!("\"counters\":{{\"ops\":{},", r.counters.ops)), "{json}");
}

#[test]
fn deterministic_across_runs() {
    let keys = Workload::Email.generate(3_000, 9);
    let ops =
        generate_ops(&keys, &OpStreamConfig { count: 10_000, mix: Mix::C, theta: 0.99, seed: 9 });
    let run = RunConfig { concurrency: 2_048 };
    let r1 = CpuBaseline::art(CpuConfig::xeon_8468().scaled_for_keys(3_000)).run(&keys, &ops, &run);
    let r2 = CpuBaseline::art(CpuConfig::xeon_8468().scaled_for_keys(3_000)).run(&keys, &ops, &run);
    assert_eq!(r1.counters, r2.counters);
    assert_eq!(r1.time_s, r2.time_s);

    let cfg = DcartConfig::default().scaled_for_keys(3_000).with_auto_prefix_skip(&keys);
    let d1 = dcart::DcartAccel::new(cfg).run(&keys, &ops, &run);
    let d2 = dcart::DcartAccel::new(cfg).run(&keys, &ops, &run);
    assert_eq!(d1.counters, d2.counters);
    assert_eq!(d1.time_s, d2.time_s);
}
