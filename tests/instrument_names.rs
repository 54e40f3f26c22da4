//! Every instrument name the system registers passes
//! `bridge_metrics::valid_name`, the check `Registry::counter`, `gauge`
//! and `histogram` make when an instrument is created.
//!
//! Two sweeps: the name literals passed to those three methods in the
//! program's source (each file up to its first `#[cfg(test)]`), and a
//! live service run with spans, the watch and an SLO on, followed by a
//! health report and an alert tick — a refused name would panic there.

use bridge_dbt::MdaStrategy;
use bridge_metrics::{valid_name, SloKind, SloSpec};
use bridge_serve::{EdgeStatus, ExecService, KernelSpec, RunRequest, ServeConfig};
use bridge_trace::WatchConfig;
use std::path::{Path, PathBuf};

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// String literals passed straight to `.counter(`, `.gauge(` or
/// `.histogram(` in `code`, escapes kept as written.
fn name_literals(code: &str) -> Vec<String> {
    let mut names = Vec::new();
    for call in [".counter(", ".gauge(", ".histogram("] {
        for (at, _) in code.match_indices(call) {
            let rest = code[at + call.len()..].trim_start();
            let Some(lit) = rest.strip_prefix('"') else {
                continue;
            };
            let mut end = 0;
            let bytes = lit.as_bytes();
            while end < bytes.len() && bytes[end] != b'"' {
                end += if bytes[end] == b'\\' { 2 } else { 1 };
            }
            names.push(lit[..end.min(lit.len())].to_string());
        }
    }
    names
}

#[test]
fn every_registered_name_in_the_source_is_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "crates", "benchmark/src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut checked = 0;
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for name in name_literals(code) {
            assert!(
                valid_name(&name),
                "{}: instrument name {name:?} would be refused",
                file.display()
            );
            checked += 1;
        }
    }
    assert!(checked >= 20, "the sweep must find the program's names");
    for code in 0.. {
        let Some(status) = EdgeStatus::from_code(code) else {
            break;
        };
        let name = format!("serve.edge.{}", status.tag());
        assert!(valid_name(&name), "{name:?} would be refused");
    }
}

#[test]
fn a_fully_observed_service_registers_only_valid_names() {
    let cfg = ServeConfig::default()
        .with_shards(1)
        .with_spans(true)
        .with_watch(WatchConfig::default())
        .with_slo(SloSpec::new(
            "exec_p99",
            SloKind::QuantileBelow {
                metric: "serve.exec_cycles".into(),
                q: 0.99,
                bound: u64::MAX,
            },
        ));
    let svc = ExecService::new(cfg);
    let spec = KernelSpec::PhaseChangeSum {
        aligned: 40,
        misaligned: 40,
    };
    for strategy in MdaStrategy::ALL {
        svc.run_one(RunRequest::new(spec, strategy).with_threshold(10));
    }
    svc.health_report();
    svc.tick();
    assert!(
        svc.metrics().len() > 10,
        "the run must register instruments"
    );
}
