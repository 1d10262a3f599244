//! The named workloads and the metric declarations of `BENCHMARK.json`.
//!
//! Load shape shared by all: closed loop, one process, 3 memory
//! nodes, replication 2, protocol Pandora with `SystemConfig::new`
//! defaults unless the workload says otherwise. README.md records why
//! each workload is here and which layer it bypasses.

use std::sync::Arc;
use std::time::Duration;

use pandora::obs::json::{self, JsonValue};
use pandora::{ProtocolKind, SystemConfig};
use pandora_workloads::{MicroBench, SmallBank, Tatp, Workload};
use rdma_sim::LatencyModel;

/// The benchmark contract, compiled in so that the declared metric and
/// workload names cannot drift from what the binary emits.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

pub const MICRO_KEYS: u64 = 65_536;
/// Requests per `run_interleaved_retrying` call on the `il8` workloads.
pub const IL8_BATCH: usize = 32;
const IL8_INFLIGHT: u32 = 8;
const IL8_STRIPES: u32 = 4;

#[derive(Clone, Copy, PartialEq)]
pub enum Data {
    /// `MicroBench::new(MICRO_KEYS, write_ratio)`, optionally confined
    /// to a hot set.
    Micro {
        write_ratio: f64,
        hot_keys: Option<u64>,
    },
    Tatp,
    SmallBank,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// Modeled round trip in microseconds: 2 (`rtt2`, the model the
    /// repository's release gates use) or 0 (`rtt0`, host CPU only).
    pub rtt_us: u64,
    /// Interleaved scheduler (`inflight_txns = 8`, `qp_stripes = 4`)
    /// through `Workload::request`, or the classic engine through
    /// `Workload::execute`.
    pub il8: bool,
    /// `il8` only: submit batches through `run_interleaved_retrying`.
    /// Off on the hot-key workload, where that wrapper's in-order
    /// resubmission can livelock (README.md, "Findings"): there one
    /// `run_interleaved` pass runs per batch and an aborted request is
    /// counted and replaced by a fresh draw, as on the classic engine.
    pub retry_batches: bool,
    /// One live coordinator runs beside the recovery rounds for the
    /// whole window, in place of two coordinators ahead of them.
    pub failover: bool,
}

/// The workloads `BENCHMARK.json` declares, in its order, then the one
/// that is in the ledger only.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "micro-w4-rtt2",
        data: Data::Micro { write_ratio: 1.0, hot_keys: None },
        rtt_us: 2,
        il8: false,
        retry_batches: false,
        failover: false,
    },
    Spec {
        name: "micro-w4-rtt2-il8",
        data: Data::Micro { write_ratio: 1.0, hot_keys: None },
        rtt_us: 2,
        il8: true,
        retry_batches: true,
        failover: false,
    },
    Spec {
        name: "micro-hot1k-rtt2-il8",
        data: Data::Micro { write_ratio: 0.5, hot_keys: Some(1024) },
        rtt_us: 2,
        il8: true,
        retry_batches: false,
        failover: false,
    },
    Spec {
        name: "tatp-rtt2",
        data: Data::Tatp,
        rtt_us: 2,
        il8: false,
        retry_batches: false,
        failover: false,
    },
    Spec {
        name: "failover-sb-rtt2",
        data: Data::SmallBank,
        rtt_us: 2,
        il8: false,
        retry_batches: false,
        failover: true,
    },
    // Host CPU per transaction, and so as unsteady as the host: on a
    // shared machine whose speed moves by a fifth for minutes at a time
    // every number of it moves with it, past any bound the pipeline
    // allows. `run` measures it and `compare` judges it; the pipeline's
    // gate takes `tatp-rtt2` in its place.
    Spec {
        name: LEDGER_ONLY,
        data: Data::Tatp,
        rtt_us: 0,
        il8: false,
        retry_batches: false,
        failover: false,
    },
];

/// The workload of [`SPECS`] that `BENCHMARK.json` does not declare.
pub const LEDGER_ONLY: &str = "tatp-rtt0";

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The micro workload's configuration, if this is one.
    pub fn micro(&self) -> Option<MicroBench> {
        let Data::Micro { write_ratio, hot_keys } = self.data else { return None };
        let m = MicroBench::new(MICRO_KEYS, write_ratio);
        Some(match hot_keys {
            Some(h) => m.with_hot_keys(h),
            None => m,
        })
    }

    pub fn workload(&self) -> Arc<dyn Workload> {
        match self.data {
            Data::Micro { .. } => Arc::new(self.micro().expect("micro data")),
            Data::Tatp => Arc::new(Tatp::new(8_192)),
            Data::SmallBank => Arc::new(SmallBank::new(16_384)),
        }
    }

    pub fn config(&self) -> SystemConfig {
        let c = SystemConfig::new(ProtocolKind::Pandora);
        if self.il8 {
            c.with_inflight_txns(IL8_INFLIGHT).with_qp_stripes(IL8_STRIPES)
        } else {
            c
        }
    }

    pub fn latency(&self) -> LatencyModel {
        rtt(self.rtt_us)
    }

    /// Transactions one coordinator keeps in flight.
    pub fn inflight(&self) -> u64 {
        if self.il8 {
            IL8_INFLIGHT as u64
        } else {
            1
        }
    }
}

pub fn rtt(us: u64) -> LatencyModel {
    LatencyModel { rtt: Duration::from_micros(us), ns_per_kib: 0 }
}

/// One metric as `BENCHMARK.json` declares it.
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base value a metric may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<JsonValue> {
            doc.get(key).and_then(|v| v.as_array()).expect("BENCHMARK.json list").to_vec()
        };
        let text = |v: &JsonValue, key: &str| -> String {
            v.get(key).and_then(|s| s.as_str()).expect("BENCHMARK.json string").to_string()
        };
        let metrics = |key: &str| -> Vec<MetricDecl> {
            list(key)
                .iter()
                .map(|m| MetricDecl {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(|b| b.as_f64()),
                })
                .collect()
        };
        Contract {
            run_seconds: doc.get("run_seconds").and_then(|v| v.as_f64()).expect("run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_names_the_gated_workloads_and_setup_time() {
        let c = Contract::load();
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        let gated: Vec<&str> = SPECS.iter().map(|s| s.name).filter(|&n| n != LEDGER_ONLY).collect();
        assert_eq!(declared, gated);
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
