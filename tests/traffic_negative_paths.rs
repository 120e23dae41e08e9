//! Negative-path coverage for the traffic axes: malformed, truncated
//! and out-of-range trace files, and invalid MMPP parameters, must
//! surface as typed `SpecError`s through the builder, as `error:` +
//! nonzero exit through the CLI, and as 4xx (never 500, never a panic)
//! through `POST /v1/jobs`.

use std::path::PathBuf;
use std::process::{Command, Output};

use turnroute::experiment::{ExperimentSpec, SpecError};
use turnroute::serve::{client, ServeOptions, Server, ServerHandle};
use turnroute::sim::{Logger, SimConfig, TrafficModel};

fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("turnroute-traffic-neg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    dir
}

fn write_fixture(name: &str, contents: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::write(&path, contents).expect("fixture writes");
    path.display().to_string()
}

fn turnroute(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_turnroute"))
        .args(args)
        .output()
        .expect("spawn turnroute")
}

fn spec_with_pattern(pattern: &str) -> Result<ExperimentSpec, SpecError> {
    ExperimentSpec::builder("mesh:4x4", pattern)
        .algorithm("xy")
        .loads(&[0.05])
        .config(SimConfig::paper().warmup_cycles(100).measure_cycles(500))
        .build()
}

#[test]
fn builder_rejects_bad_trace_files_with_typed_errors() {
    // Missing file.
    let err = spec_with_pattern("trace:/no/such/turnroute-file.trace").unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
    // Malformed weight.
    let bad = write_fixture("bad-weight.trace", "0 1 zap\n");
    let err = spec_with_pattern(&format!("trace:{bad}")).unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
    assert!(err.to_string().contains("bad weight"), "{err}");
    // Truncated line (source without destination).
    let trunc = write_fixture("truncated.trace", "0 1\n3\n");
    let err = spec_with_pattern(&format!("trace:{trunc}")).unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
    assert!(err.to_string().contains("line 2"), "{err}");
    // Zero and negative weights.
    let zero = write_fixture("zero-weight.trace", "0 1 0\n");
    let err = spec_with_pattern(&format!("trace:{zero}")).unwrap_err();
    assert!(err.to_string().contains("positive"), "{err}");
    // Only comments: no entries at all.
    let empty = write_fixture("empty.trace", "# nothing here\n\n");
    let err = spec_with_pattern(&format!("trace:{empty}")).unwrap_err();
    assert!(err.to_string().contains("no entries"), "{err}");
    // Well-formed file referencing a node beyond the topology.
    let oob = write_fixture("oob.trace", "0 99\n");
    let err = spec_with_pattern(&format!("trace:{oob}")).unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
    assert!(
        err.to_string().contains("references node 99"),
        "want the out-of-range node named: {err}"
    );
}

#[test]
fn builder_rejects_bad_mmpp_parameters() {
    for (burst, idle) in [(0.0, 100.0), (100.0, 0.0), (f64::NAN, 100.0), (100.0, -3.0)] {
        let err = ExperimentSpec::builder("mesh:4x4", "uniform")
            .algorithm("xy")
            .loads(&[0.05])
            .config(SimConfig::paper().traffic(TrafficModel::Mmpp {
                burst_cycles: burst,
                idle_cycles: idle,
            }))
            .build()
            .unwrap_err();
        assert_eq!(err.kind(), "invalid", "burst {burst} idle {idle}: {err}");
    }
}

#[test]
fn cli_surfaces_trace_and_traffic_errors_without_panicking() {
    let bad = write_fixture("cli-bad.trace", "0 one\n");
    let oob = write_fixture("cli-oob.trace", "0 400 2\n");
    let scenarios: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["--pattern", "trace:/no/such/file.trace"],
            "cannot read trace file",
        ),
        (vec!["--pattern", "trace-bad"], "unknown pattern"),
        (vec!["--pattern", "uniform", "--traffic", "mmpp:5"], "mmpp"),
        (
            vec!["--pattern", "uniform", "--traffic", "mmpp:0,100"],
            "positive",
        ),
        (
            vec!["--pattern", "uniform", "--traffic", "lava"],
            "unknown traffic model",
        ),
        (vec!["--pattern", "hotspot:999,20"], "references node 999"),
    ];
    let mut scenarios = scenarios;
    let bad_spec = format!("trace:{bad}");
    scenarios.push((vec!["--pattern", &bad_spec], "bad destination node"));
    let oob_spec = format!("trace:{oob}");
    scenarios.push((vec!["--pattern", &oob_spec], "references node 400"));
    for (extra, needle) in &scenarios {
        let mut args = vec![
            "simulate",
            "--topology",
            "mesh:4x4",
            "--algorithm",
            "xy",
            "--load",
            "0.05",
            "--cycles",
            "200",
        ];
        args.extend(extra.iter().copied());
        let out = turnroute(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{extra:?} should fail: {stderr}");
        assert!(stderr.starts_with("error:"), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{extra:?} missing '{needle}': {stderr}"
        );
    }
}

#[test]
fn cli_rejects_patterns_that_do_not_fit_the_topology() {
    // Each pattern asserts a shape in its destination function; the fit
    // check must name the mismatch before any engine runs.
    for (topology, pattern, needle) in [
        ("mesh:4x3", "transpose", "square 2D"),
        ("hypercube:3", "transpose", "square 2D"),
        ("mesh:4x4", "shuffle", "hypercube"),
        ("mesh:4x4", "bit-reversal", "hypercube"),
        ("mesh:4x4", "reverse-flip", "hypercube"),
        ("mesh:4x3", "diagonal-transpose", "square 2D"),
        ("hypercube:3", "hypercube-transpose", "even"),
    ] {
        let out = turnroute(&[
            "simulate",
            "--topology",
            topology,
            "--pattern",
            pattern,
            "--algorithm",
            "xy",
            "--load",
            "0.05",
            "--cycles",
            "200",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let case = format!("{pattern} on {topology}");
        assert!(!out.status.success(), "{case} should fail: {stderr}");
        assert!(stderr.starts_with("error:"), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(
            stderr.contains(needle),
            "{case} missing '{needle}': {stderr}"
        );
    }
    // The builder says the same with a typed error.
    let err = ExperimentSpec::builder("mesh:4x3", "transpose")
        .algorithm("xy")
        .loads(&[0.05])
        .build()
        .unwrap_err();
    assert_eq!(err.kind(), "parse", "{err}");
}

fn start_server() -> (ServerHandle, String) {
    let store = std::env::temp_dir().join(format!("turnroute-neg-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let handle = Server::start(
        "127.0.0.1:0",
        ServeOptions {
            store_dir: store,
            threads: 1,
            logger: Logger::disabled(),
        },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn server_rejects_bad_traffic_and_trace_specs_with_4xx() {
    let (_handle, addr) = start_server();
    let bad_trace = write_fixture("srv-bad.trace", "0 1 nope\n");
    let doc_with = |pattern: &str, traffic: &str| {
        format!(
            r#"{{"topology": "mesh:4x4", "pattern": "{pattern}",
                "algorithms": ["xy"], "loads": [0.05],
                "config": {{"seed": 1, "traffic": "{traffic}"}}}}"#
        )
    };
    let cases = [
        (doc_with("uniform", "mmpp:0,100"), "parse"),
        (doc_with("uniform", "voip"), "parse"),
        (doc_with("trace:/no/such/file.trace", "poisson"), "parse"),
        (
            doc_with(&format!("trace:{bad_trace}"), "mmpp:100,300"),
            "parse",
        ),
        (doc_with("hotspot:999,20", "poisson"), "parse"),
    ];
    for (body, kind) in &cases {
        let (status, response) = client::submit(&addr, body).expect("request reaches the server");
        let text = String::from_utf8_lossy(&response).into_owned();
        assert_eq!(status, 400, "{body}: {text}");
        assert!(
            text.contains(&format!("\"error\":\"{kind}\"")) || text.contains(kind),
            "{body}: want error kind '{kind}' in {text}"
        );
    }
    // A well-formed MMPP spec on the same server still runs to
    // completion: the rejections above are per-request, not wedged
    // state.
    let ok = doc_with("uniform", "mmpp:100,300");
    let (status, response) = client::submit(&addr, &ok).expect("submit reaches the server");
    let text = String::from_utf8_lossy(&response).into_owned();
    assert_eq!(status, 202, "{text}");
}
