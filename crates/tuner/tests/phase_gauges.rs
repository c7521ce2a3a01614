//! The intra-stage phase breakdown covers the whole sweep, tape build
//! and compile included: a telemetry-on tune publishes all eight
//! `tuner.phase.*_secs` gauges, and a telemetry-off outcome carries none
//! of them (wall-clock never enters the byte-identical outcome).
//!
//! Its own test binary: the global collector is process-wide state.

use mist_hardware::{ClusterSpec, GpuSpec, OpCostDb, Platform};
use mist_interference::InterferenceModel;
use mist_models::{gpt3, AttentionImpl, ModelSize};
use mist_tuner::{SearchSpace, Tuner};

const PHASES: [&str; 8] = [
    "tape",
    "compile",
    "ckpt_probe",
    "mem_first",
    "eval",
    "predict",
    "materialize",
    "pareto",
];

#[test]
fn phase_gauges_cover_the_sweep_only_with_telemetry_on() {
    let model = gpt3(ModelSize::B1_3, 2048, AttentionImpl::Flash);
    let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, 2);
    let db = OpCostDb::new(GpuSpec::l4());
    let intf = InterferenceModel::pcie_defaults();
    let space = SearchSpace::mist();
    let tune = || {
        Tuner::new(&model, &cluster, &db, &space, &intf)
            .with_max_grad_accum(8)
            .tune(8)
            .expect("1.3B on 2 GPUs must be tunable")
    };

    let off = tune();
    let leaked: Vec<&String> = off
        .telemetry
        .gauges
        .keys()
        .filter(|k| k.starts_with("tuner.phase."))
        .collect();
    assert!(
        leaked.is_empty(),
        "telemetry-off outcome carries {leaked:?}"
    );

    let collector = mist_telemetry::global();
    collector.reset();
    collector.enable();
    let on = tune();
    collector.disable();
    for phase in PHASES {
        let key = format!("tuner.phase.{phase}_secs");
        let secs = *on
            .telemetry
            .gauges
            .get(&key)
            .unwrap_or_else(|| panic!("telemetry-on tune lacks {key}"));
        assert!(secs >= 0.0, "{key} = {secs}");
    }
    for phase in ["tape", "compile"] {
        let key = format!("tuner.phase.{phase}_secs");
        assert!(
            on.telemetry.gauge(&key) > 0.0,
            "a cold tune builds tapes and compiles programs: {key}"
        );
    }
    assert_eq!(
        serde_json::to_string(&off.plan).unwrap(),
        serde_json::to_string(&on.plan).unwrap(),
        "telemetry must not change the plan"
    );
}
