//! Workload definitions shared by the tune and service workloads: the
//! query universe, the tune workload shapes, and the committed digests
//! every produced plan is checked against.

use std::collections::BTreeMap;

use mist::presets::{gpt3, AttentionImpl, ModelSize, ModelSpec};
use mist::{ClusterSpec, MistSession, Platform, SearchSpace, TuneOutcome, GIB};
use mist_service::{
    canonical_fingerprint, sha256_hex, PlanCache, PlanRequest, PlannerService, Qos,
};
use serde::Value;

/// Interference-calibration seed of every workload (the `seed` field of
/// each planner request; `MistSession::seed` for the tune workloads).
pub const CALIBRATION_SEED: u64 = 7;

/// Sequence length of every query (the L4 default).
const SEQ: u64 = 2048;

/// A GPT-3 preset on an L4 cluster of a fixed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelShape {
    pub name: &'static str,
    pub size: ModelSize,
    pub gpus: u32,
}

impl ModelShape {
    pub fn spec(&self) -> ModelSpec {
        gpt3(self.size, SEQ, AttentionImpl::Flash)
    }

    pub fn session(&self) -> MistSession {
        MistSession::builder(self.spec(), Platform::GcpL4, self.gpus)
            .seed(CALIBRATION_SEED)
            .build()
    }
}

/// The service-mix model shapes: 1.3B on 2, 2.6B on 4 and 6.7B on 8 L4s.
pub const MIX_MODELS: [ModelShape; 3] = [
    ModelShape {
        name: "gpt3-1.3b",
        size: ModelSize::B1_3,
        gpus: 2,
    },
    ModelShape {
        name: "gpt3-2.6b",
        size: ModelSize::B2_6,
        gpus: 4,
    },
    ModelShape {
        name: "gpt3-6.7b",
        size: ModelSize::B6_7,
        gpus: 8,
    },
];

pub const MIX_BATCHES: [u64; 4] = [16, 32, 64, 128];

/// One planner query of the benchmark's universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub model: ModelShape,
    pub batch: u64,
    /// A 16 GiB per-GPU budget instead of the GPU's usable memory.
    pub budget_16g: bool,
    pub interactive: bool,
}

impl Query {
    pub fn key(&self) -> String {
        format!(
            "{}/{}gpu/b{}/{}/{}",
            self.model.name,
            self.model.gpus,
            self.batch,
            if self.budget_16g { "16GiB" } else { "default" },
            self.qos().name()
        )
    }

    pub fn qos(&self) -> Qos {
        if self.interactive {
            Qos::Interactive
        } else {
            Qos::Exhaustive
        }
    }

    pub fn request(&self) -> PlanRequest {
        PlanRequest {
            model: self.model.name.to_owned(),
            gpus: self.model.gpus,
            batch: self.batch,
            budget_gib: self.budget_16g.then_some(16.0),
            qos: self.qos(),
            seed: CALIBRATION_SEED,
            ..PlanRequest::default()
        }
    }

    pub fn request_line(&self) -> String {
        serde_json::to_string(&self.request().to_value()).expect("request serializes")
    }

    /// The exact-fingerprint material the planner hashes for this query,
    /// rebuilt from the public specs (the planner's own resolution is
    /// private). The traced run finds the warm-up entry by its
    /// fingerprint, so a drift from the planner's material fails it.
    pub fn fingerprint_material(&self) -> Value {
        let model = self.model.spec();
        let cluster = ClusterSpec::for_gpu_count(Platform::GcpL4, self.model.gpus);
        let space = self.qos().restrict(&SearchSpace::mist());
        let budget = if self.budget_16g {
            16.0 * GIB
        } else {
            cluster.gpu.memory_bytes
        };
        let req = self.request();
        serde_json::json!({
            "arch": serde_json::to_value(&model).expect("model serializes"),
            "cluster": serde_json::json!({
                "platform": "l4",
                "num_nodes": cluster.num_nodes,
                "gpus_per_node": cluster.gpus_per_node,
            }),
            "space": serde_json::to_value(&space).expect("space serializes"),
            "budget": budget,
            "batch": req.batch,
            "seed": req.seed,
            "max_grad_accum": req.max_grad_accum,
        })
    }

    pub fn fingerprint(&self) -> String {
        canonical_fingerprint(&self.fingerprint_material())
    }
}

/// A repeated-cold-tune workload.
pub struct TuneSpec {
    pub name: &'static str,
    pub model: ModelShape,
    pub batch: u64,
    /// Tuner pool threads.
    pub threads: usize,
}

impl TuneSpec {
    pub fn named(name: &str) -> Option<TuneSpec> {
        match name {
            "tune-6.7b" => Some(TuneSpec {
                name: "tune-6.7b",
                model: MIX_MODELS[2],
                batch: 16,
                threads: 1,
            }),
            "tune-22b-pipeline" => Some(TuneSpec {
                name: "tune-22b-pipeline",
                model: ModelShape {
                    name: "gpt3-22b",
                    size: ModelSize::B22,
                    gpus: 32,
                },
                batch: 256,
                threads: 2,
            }),
            _ => None,
        }
    }

    /// The same tune as a planner query.
    pub fn query(&self) -> Query {
        Query {
            model: self.model,
            batch: self.batch,
            budget_16g: false,
            interactive: false,
        }
    }
}

/// Digest of a tuned plan: SHA-256 of the plan's JSON plus the exact
/// bits of the predicted iteration time.
pub fn outcome_digest(outcome: &TuneOutcome) -> String {
    let plan = serde_json::to_string(&outcome.plan).expect("plan serializes");
    format!(
        "{}:{:016x}",
        sha256_hex(plan.as_bytes()),
        outcome.predicted_iteration.to_bits()
    )
}

/// Digest of a planner reply's deterministic `result` payload.
pub fn result_digest(result: &Value) -> String {
    let text = serde_json::to_string(result).expect("result serializes");
    sha256_hex(text.as_bytes())
}

/// Field lookup in a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The committed digests: per tune workload the plan digest, and per
/// service query key the `result` digest.
pub struct Expected {
    digests: BTreeMap<String, String>,
}

impl Expected {
    pub fn parse(text: &str) -> Expected {
        let value: Value = serde_json::from_str(text).expect("expected.json parses");
        let Value::Object(fields) = value else {
            panic!("expected.json must hold an object");
        };
        let digests = fields
            .into_iter()
            .map(|(k, v)| match v {
                Value::Str(s) => (k, s),
                other => panic!("expected.json: `{k}` is not a string: {other:?}"),
            })
            .collect();
        Expected { digests }
    }

    /// Whether `digest` matches the committed one for `key` (a missing
    /// key never matches).
    pub fn matches(&self, key: &str, digest: &str) -> bool {
        self.digests.get(key).is_some_and(|d| d == digest)
    }
}

/// Every query the service-mix generator can emit.
pub fn mix_universe() -> Vec<Query> {
    let mut out = Vec::new();
    for model in MIX_MODELS {
        for interactive in [false, true] {
            for budget_16g in [false, true] {
                for batch in MIX_BATCHES {
                    out.push(Query {
                        model,
                        batch,
                        budget_16g,
                        interactive,
                    });
                }
            }
        }
    }
    out
}

/// Recomputes every digest from scratch (cold tunes, no cache) and
/// renders `expected.json`.
pub fn record_expected() -> String {
    let mut digests: BTreeMap<String, String> = BTreeMap::new();
    for name in ["tune-6.7b", "tune-22b-pipeline"] {
        let spec = TuneSpec::named(name).expect("known tune workload");
        mist_pool::set_global_threads(spec.threads);
        let outcome = spec
            .model
            .session()
            .tune(spec.batch)
            .expect("tune workloads are feasible");
        digests.insert(name.to_owned(), outcome_digest(&outcome));
    }
    let planner = PlannerService::new(PlanCache::in_memory());
    for q in mix_universe() {
        let mut req = q.request();
        req.no_cache = true;
        let reply = planner.plan(&req);
        let result = field(&reply, "result").expect("planner replies carry a result");
        digests.insert(q.key(), result_digest(result));
    }
    let mut out = String::from("{\n");
    let n = digests.len();
    for (i, (k, v)) in digests.into_iter().enumerate() {
        out.push_str(&format!(
            "  \"{k}\": \"{v}\"{}\n",
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    out
}
