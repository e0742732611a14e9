//! The benchmark's definition: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root states the
//! same table; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Characterize,
    Pipeline,
    ServeClosed,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Characterize,
        Workload::Pipeline,
        Workload::ServeClosed,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::Pipeline => "pipeline",
            Workload::ServeClosed => "serve_closed",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(raw: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == raw)
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports every one of these; what "one operation" is
/// differs per workload (a chunk of design points, a whole paper flow, a
/// request) and is documented in `benchmark/README.md`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics of the traced run, `(name, unit, better)`. A workload
/// whose run never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("spice.build_us", "us", Better::Lower),
    ("spice.sweep_us", "us", Better::Lower),
    ("spice.share", "fraction", Better::Lower),
    ("spice.solves_per_point", "count", Better::Lower),
    ("spice.newton_iters_per_solve", "count", Better::Lower),
    ("spice.factorizations_per_solve", "count", Better::Lower),
    ("spice.recovery_frac", "fraction", Better::Lower),
    ("fit.ptanh_us", "us", Better::Lower),
    ("fit.share", "fraction", Better::Lower),
    ("fit.lm_runs_per_fit", "count", Better::Lower),
    ("fit.lm_iters_per_run", "count", Better::Lower),
    ("fit.lm_nonconverged_frac", "fraction", Better::Lower),
    ("fit.lambda_escalations_per_iter", "count", Better::Lower),
    ("surrogate.chunk_s", "s", Better::Lower),
    ("surrogate.stream_overhead_us", "us", Better::Lower),
    ("surrogate.epoch_ms", "ms", Better::Lower),
    ("pipeline.characterize_s", "s", Better::Lower),
    ("pipeline.surrogate_train_s", "s", Better::Lower),
    ("pipeline.pnn_train_s", "s", Better::Lower),
    ("pipeline.eval_s", "s", Better::Lower),
    ("pipeline.compile_s", "s", Better::Lower),
    ("pipeline.unattributed_s", "s", Better::Lower),
    ("pipeline.acc_va_10", "fraction", Better::Higher),
    ("pipeline.std_va_10", "fraction", Better::Lower),
    ("pipeline.acc_gain_10", "fraction", Better::Higher),
    ("pipeline.surrogate_r2", "1", Better::Higher),
    ("core.epochs", "count", Better::Lower),
    ("core.ms_per_mc_draw", "ms", Better::Lower),
    ("core.train_attributed_frac", "fraction", Better::Higher),
    ("autodiff.forward_us.cardiotocography", "us", Better::Lower),
    ("autodiff.backward_us.cardiotocography", "us", Better::Lower),
    ("autodiff.forward_us.seeds", "us", Better::Lower),
    ("autodiff.backward_us.seeds", "us", Better::Lower),
    ("core.plan_infer_us", "us", Better::Lower),
    ("serve.tcp_p50_us", "us", Better::Lower),
    ("serve.tcp_p90_us", "us", Better::Lower),
    ("serve.inproc_p50_us", "us", Better::Lower),
    ("serve.codec_us", "us", Better::Lower),
    ("serve.wire_us", "us", Better::Lower),
    ("serve.batch_size_mean", "count", Better::Higher),
    ("serve.queue_depth_mean", "count", Better::Lower),
    ("serve.server_latency_p50_us", "us", Better::Lower),
    ("serve.gen_late_p99_us", "us", Better::Lower),
    ("serve.backlog_max", "count", Better::Lower),
    ("ledger.unattributed_frac", "fraction", Better::Lower),
    ("trace_overhead_frac", "fraction", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("expected an object, found {other:?}"),
        }
    }

    fn items(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_states_this_table() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = items(field(&spec, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);

        let e2e = items(field(&spec, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(field(json, "name")), ours.name);
            assert_eq!(text(field(json, "unit")), ours.unit);
            assert_eq!(text(field(json, "better")), ours.better.name());
            assert_eq!(number(field(json, "bound")), ours.bound);
        }

        let layers = items(field(&spec, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(field(json, "name")), *name);
            assert_eq!(text(field(json, "unit")), *unit);
            assert_eq!(text(field(json, "better")), better.name());
        }
    }
}
