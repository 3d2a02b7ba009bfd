//! Schema for the JSONL trace files emitted by `reproduce_all --trace` and
//! consumed by `obs_report`.
//!
//! Every line of a trace file is a standalone JSON object with a `"type"`
//! discriminator. Schema version 1 defines seven record types:
//!
//! | type      | required fields |
//! |-----------|-----------------|
//! | `meta`    | `schema`, `task` (str), `scale` (str), `wall_secs`; optional `service` (bool, default false) |
//! | `counter` | `name` (str), `value` |
//! | `gauge`   | `name` (str), `value` |
//! | `hist`    | `name` (str), `count`, `sum`, `buckets` (array of `[index, count]` pairs) |
//! | `span`    | `name` (str), `count`, `total_secs`, `self_secs` |
//! | `point`   | `run` (str), `clock`, `iterations`, `epoch`, `train_loss`, `test_accuracy`, `tau`, `lr`, `comm_bytes`, `compute_secs`, `comm_secs` |
//! | `warning` | `source` (str), `reason` (str) |
//!
//! Unlisted fields are allowed (forward compatibility); unknown `type`
//! values, missing fields, and wrong field types are errors. Validation
//! needs nothing but the lines, so `obs_report --check` works on traces
//! recorded elsewhere.

use crate::json::{self, Value};

/// Version stamped into every `meta` line; bump when the line format
/// changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// One parsed trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Window header: what was traced and how long it took.
    Meta {
        /// Schema version of the file (see [`SCHEMA_VERSION`]).
        schema: u32,
        /// Traced task (figure name, `sweep_wave`, ...).
        task: String,
        /// Scale the task ran at (`smoke` / `quick` / `full`).
        scale: String,
        /// Measured wall-clock seconds for the window.
        wall_secs: f64,
        /// Whether the window traces a long-running service (`sweepd`)
        /// rather than a batch task. A service is mostly idle and its
        /// workers overlap, so span self-times never tile the wall
        /// clock — consumers skip the phase-coverage rule. Absent in the
        /// line means `false` (batch), keeping old traces valid.
        service: bool,
    },
    /// Counter delta for the window.
    Counter {
        /// Registered counter name.
        name: String,
        /// Increment over the window.
        value: f64,
    },
    /// Gauge level at the end of the window.
    Gauge {
        /// Registered gauge name.
        name: String,
        /// Final value.
        value: f64,
    },
    /// Histogram delta for the window.
    Hist {
        /// Registered histogram name.
        name: String,
        /// Observations in the window.
        count: f64,
        /// Sum of observations in the window (unit of the observed value).
        sum: f64,
        /// `(bucket index, count)` pairs, ascending.
        buckets: Vec<(u32, u64)>,
    },
    /// Span (or kernel timer) delta for the window.
    Span {
        /// Registered span name.
        name: String,
        /// Activations in the window.
        count: f64,
        /// Total seconds across activations.
        total_secs: f64,
        /// Total minus child-span seconds.
        self_secs: f64,
    },
    /// One enriched simulator trace point.
    Point {
        /// Run name (scenario key).
        run: String,
        /// Simulated wall-clock seconds.
        clock: f64,
        /// Cumulative local iterations.
        iterations: f64,
        /// Training epochs completed.
        epoch: f64,
        /// Training loss at the point.
        train_loss: f64,
        /// Test accuracy at the point.
        test_accuracy: f64,
        /// Communication period in effect.
        tau: f64,
        /// Learning rate in effect.
        lr: f64,
        /// Cumulative simulated communication bytes.
        comm_bytes: f64,
        /// Simulated compute seconds consumed by the run so far.
        compute_secs: f64,
        /// Simulated communication seconds consumed so far.
        comm_secs: f64,
    },
    /// A non-fatal anomaly the producing subsystem recovered from (e.g.
    /// the run store rejecting a corrupt entry and recomputing).
    /// Warnings are diagnostics, not violations: `obs_report --check`
    /// surfaces them without failing the trace.
    Warning {
        /// The subsystem that recovered (`run_store`, ...).
        source: String,
        /// What was wrong, in the subsystem's own words.
        reason: String,
    },
}

fn req_str(map: &std::collections::BTreeMap<String, Value>, field: &str) -> Result<String, String> {
    map.get(field)
        .ok_or_else(|| format!("missing field {field:?}"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {field:?} must be a string"))
}

fn req_num(map: &std::collections::BTreeMap<String, Value>, field: &str) -> Result<f64, String> {
    map.get(field)
        .ok_or_else(|| format!("missing field {field:?}"))?
        .as_num()
        .ok_or_else(|| format!("field {field:?} must be a number"))
}

/// Parse and validate one trace line.
pub fn parse_line(line: &str) -> Result<Record, String> {
    let value = json::parse(line)?;
    let map = value.as_obj().ok_or("line is not a JSON object")?;
    let kind = req_str(map, "type")?;
    match kind.as_str() {
        "meta" => {
            let schema = req_num(map, "schema")?;
            if schema != SCHEMA_VERSION as f64 {
                return Err(format!(
                    "unsupported schema version {schema} (expected {SCHEMA_VERSION})"
                ));
            }
            let service = match map.get("service") {
                None | Some(Value::Null) => false,
                Some(Value::Bool(b)) => *b,
                Some(_) => return Err("field \"service\" must be a boolean".into()),
            };
            Ok(Record::Meta {
                schema: schema as u32,
                task: req_str(map, "task")?,
                scale: req_str(map, "scale")?,
                wall_secs: req_num(map, "wall_secs")?,
                service,
            })
        }
        "counter" => Ok(Record::Counter {
            name: req_str(map, "name")?,
            value: req_num(map, "value")?,
        }),
        "gauge" => Ok(Record::Gauge {
            name: req_str(map, "name")?,
            value: req_num(map, "value")?,
        }),
        "hist" => {
            let buckets_raw = map
                .get("buckets")
                .ok_or("missing field \"buckets\"")?
                .as_arr()
                .ok_or("field \"buckets\" must be an array")?;
            let mut buckets = Vec::with_capacity(buckets_raw.len());
            for pair in buckets_raw {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("histogram bucket must be an [index, count] pair")?;
                let idx = pair[0]
                    .as_num()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .ok_or("bucket index must be a non-negative integer")?;
                let count = pair[1]
                    .as_num()
                    .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                    .ok_or("bucket count must be a non-negative integer")?;
                buckets.push((idx as u32, count as u64));
            }
            Ok(Record::Hist {
                name: req_str(map, "name")?,
                count: req_num(map, "count")?,
                sum: req_num(map, "sum")?,
                buckets,
            })
        }
        "span" => Ok(Record::Span {
            name: req_str(map, "name")?,
            count: req_num(map, "count")?,
            total_secs: req_num(map, "total_secs")?,
            self_secs: req_num(map, "self_secs")?,
        }),
        "point" => Ok(Record::Point {
            run: req_str(map, "run")?,
            clock: req_num(map, "clock")?,
            iterations: req_num(map, "iterations")?,
            epoch: req_num(map, "epoch")?,
            train_loss: req_num(map, "train_loss")?,
            test_accuracy: req_num(map, "test_accuracy")?,
            tau: req_num(map, "tau")?,
            lr: req_num(map, "lr")?,
            comm_bytes: req_num(map, "comm_bytes")?,
            compute_secs: req_num(map, "compute_secs")?,
            comm_secs: req_num(map, "comm_secs")?,
        }),
        "warning" => Ok(Record::Warning {
            source: req_str(map, "source")?,
            reason: req_str(map, "reason")?,
        }),
        other => Err(format!("unknown record type {other:?}")),
    }
}

/// Validate one trace line without keeping the parse.
pub fn validate_line(line: &str) -> Result<(), String> {
    parse_line(line).map(|_| ())
}

/// Build the `meta` line that heads every trace file.
pub fn meta_line(task: &str, scale: &str, wall_secs: f64) -> String {
    let mut obj = json::ObjectBuilder::new();
    obj.str_field("type", "meta");
    obj.num_field("schema", SCHEMA_VERSION as f64);
    obj.str_field("task", task);
    obj.str_field("scale", scale);
    obj.num_field("wall_secs", wall_secs);
    obj.finish()
}

/// Build the `meta` line for a *service* window (a long-running daemon
/// like `sweepd`): same header plus `"service":true`, which exempts the
/// window from the phase-coverage rule in `obs_report --check`.
pub fn meta_service_line(task: &str, scale: &str, wall_secs: f64) -> String {
    let mut obj = json::ObjectBuilder::new();
    obj.str_field("type", "meta");
    obj.num_field("schema", SCHEMA_VERSION as f64);
    obj.str_field("task", task);
    obj.str_field("scale", scale);
    obj.num_field("wall_secs", wall_secs);
    obj.raw_field("service", "true");
    obj.finish()
}

/// Build a `warning` line: a recovered anomaly worth surfacing in
/// `obs_report`, attributed to the subsystem that saw it.
pub fn warning_line(source: &str, reason: &str) -> String {
    let mut obj = json::ObjectBuilder::new();
    obj.str_field("type", "warning");
    obj.str_field("source", source);
    obj.str_field("reason", reason);
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_line_round_trips() {
        let line = meta_line("fig09_vgg_adacomm", "quick", 1.25);
        match parse_line(&line).unwrap() {
            Record::Meta {
                schema,
                task,
                scale,
                wall_secs,
                service,
            } => {
                assert_eq!(schema, SCHEMA_VERSION);
                assert_eq!(task, "fig09_vgg_adacomm");
                assert_eq!(scale, "quick");
                assert_eq!(wall_secs, 1.25);
                assert!(!service, "batch meta lines must not be marked service");
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn service_meta_line_round_trips() {
        let line = meta_service_line("sweepd", "smoke", 3.5);
        match parse_line(&line).unwrap() {
            Record::Meta { task, service, .. } => {
                assert_eq!(task, "sweepd");
                assert!(service);
            }
            other => panic!("unexpected record {other:?}"),
        }
        assert!(validate_line(
            r#"{"type":"meta","schema":1,"task":"t","scale":"s","wall_secs":0,"service":"yes"}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_bad_lines() {
        for bad in [
            "not json",
            "42",
            "{}",
            r#"{"type":"mystery"}"#,
            r#"{"type":"counter","name":"x"}"#,
            r#"{"type":"counter","name":7,"value":1}"#,
            r#"{"type":"meta","schema":99,"task":"t","scale":"s","wall_secs":0}"#,
            r#"{"type":"hist","name":"h","count":1,"sum":1,"buckets":[[0]]}"#,
            r#"{"type":"hist","name":"h","count":1,"sum":1,"buckets":[[-1,2]]}"#,
            r#"{"type":"warning","source":"run_store"}"#,
        ] {
            assert!(validate_line(bad).is_err(), "accepted bad line {bad:?}");
        }
    }

    #[test]
    fn accepts_extra_fields() {
        let line = r#"{"type":"span","name":"phase.compute","count":3,"total_secs":0.5,"self_secs":0.5,"note":"extra"}"#;
        assert!(validate_line(line).is_ok());
    }

    #[test]
    fn warning_line_round_trips() {
        let line = warning_line("run_store", "payload checksum mismatch; \"quoted\"");
        match parse_line(&line).unwrap() {
            Record::Warning { source, reason } => {
                assert_eq!(source, "run_store");
                assert_eq!(reason, "payload checksum mismatch; \"quoted\"");
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn point_line_parses() {
        let line = r#"{"type":"point","run":"r","clock":1,"iterations":2,"epoch":0.5,"train_loss":0.1,"test_accuracy":0.9,"tau":4,"lr":0.05,"comm_bytes":1024,"compute_secs":0.01,"comm_secs":0.02}"#;
        match parse_line(line).unwrap() {
            Record::Point {
                tau, comm_bytes, ..
            } => {
                assert_eq!(tau, 4.0);
                assert_eq!(comm_bytes, 1024.0);
            }
            other => panic!("unexpected record {other:?}"),
        }
    }
}
