//! End-to-end coverage of the job server: submit/poll/fetch round
//! trips, store hits with zero engine cycles, in-flight coalescing,
//! typed 4xx rejections, corruption recovery, and conformance of a
//! server-computed result against the reference oracle.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use turnroute_experiment::json::{self, Value};
use turnroute_experiment::ExperimentSpec;
use turnroute_serve::client;
use turnroute_serve::{ServeOptions, Server, ServerHandle};
use turnroute_sim::report::write_report_json;
use turnroute_sim::{Executor, Logger, SimConfig, TrafficModel};

fn quick() -> SimConfig {
    SimConfig::paper()
        .warmup_cycles(300)
        .measure_cycles(1_500)
        .seed(7)
}

/// A small 2-algorithm, 2-load spec: 4 cells.
fn small_spec() -> ExperimentSpec {
    ExperimentSpec::builder("mesh:6x6", "transpose")
        .algorithm("xy")
        .algorithm("west-first")
        .loads(&[0.02, 0.05])
        .config(quick())
        .build()
        .expect("spec resolves")
}

fn small_spec_with_seed(seed: u64) -> String {
    ExperimentSpec::builder("mesh:6x6", "transpose")
        .algorithm("xy")
        .loads(&[0.02])
        .config(quick().seed(seed))
        .build()
        .expect("spec resolves")
        .to_json()
}

fn start(tag: &str) -> (ServerHandle, String, PathBuf) {
    let store_dir =
        std::env::temp_dir().join(format!("turnroute-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let handle = Server::start(
        "127.0.0.1:0",
        ServeOptions {
            store_dir: store_dir.clone(),
            threads: 2,
            logger: Logger::disabled(),
        },
    )
    .expect("server starts on an ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr, store_dir)
}

fn parse(body: &[u8]) -> Value {
    json::parse(std::str::from_utf8(body).expect("UTF-8 response"))
        .expect("well-formed JSON response")
}

fn str_field<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field '{key}'"))
}

fn submit_ok(addr: &str, spec_json: &str) -> (u16, Value) {
    let (status, body) = client::submit(addr, spec_json).expect("submit reaches the server");
    (status, parse(&body))
}

/// Polls a job until it leaves the queued/running states.
fn wait_done(addr: &str, job_id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = client::status(addr, job_id).expect("status reaches the server");
        assert_eq!(status, 200, "status poll failed: {body:?}");
        let doc = parse(&body);
        match str_field(&doc, "status") {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {job_id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => return doc,
        }
    }
}

fn stats(addr: &str) -> Value {
    let (status, body) = client::cache_stats(addr).expect("stats reach the server");
    assert_eq!(status, 200);
    parse(&body)
}

fn stat(doc: &Value, key: &str) -> u64 {
    doc.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing counter '{key}'"))
}

#[test]
fn submit_poll_fetch_round_trip_matches_the_cli_serializer() {
    let (handle, addr, _store) = start("roundtrip");
    let spec = small_spec();

    let (status, doc) = submit_ok(&addr, &spec.to_json());
    assert_eq!(status, 202, "a fresh spec is queued, not served");
    assert_eq!(str_field(&doc, "status"), "queued");
    let job_id = str_field(&doc, "job_id").to_owned();

    let done = wait_done(&addr, &job_id);
    assert_eq!(str_field(&done, "status"), "done");
    assert_eq!(done.get("cells_total").and_then(Value::as_u64), Some(4));
    assert_eq!(done.get("cells_completed").and_then(Value::as_u64), Some(4));

    let (status, body) = client::fetch(&addr, &job_id).expect("fetch reaches the server");
    assert_eq!(status, 200);

    // Byte identity with the CLI path: same spec, same shared
    // serializer, fresh cold executor.
    let mut executor = Executor::new(3);
    let series = spec.run_on(&mut executor).expect("spec runs");
    let mut expected = Vec::new();
    write_report_json(&series, &executor.stats(), &mut expected).unwrap();
    assert_eq!(
        body, expected,
        "server bytes differ from the CLI serializer"
    );

    let report = parse(&body);
    assert_eq!(
        report.get("schema_version").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        report.get("series").and_then(Value::as_arr).map(<[_]>::len),
        Some(2)
    );

    let (status, body) = client::http_request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(str_field(&parse(&body), "status"), "ok");

    handle.shutdown();
}

#[test]
fn identical_resubmission_hits_the_store_with_zero_engine_cycles() {
    let (handle, addr, _store) = start("cachehit");
    let spec_json = small_spec().to_json();

    let (_, doc) = submit_ok(&addr, &spec_json);
    let first_id = str_field(&doc, "job_id").to_owned();
    wait_done(&addr, &first_id);
    let (_, first_body) = client::fetch(&addr, &first_id).unwrap();

    let before = stats(&addr);
    let cells_before = stat(&before, "engine_cells_simulated");
    assert!(cells_before > 0, "the first run must simulate");
    assert_eq!(stat(&before, "store_hits"), 0);

    // Same spec again: answered from the store, born done.
    let (status, doc) = submit_ok(&addr, &spec_json);
    assert_eq!(status, 200, "a stored spec is answered immediately");
    assert_eq!(str_field(&doc, "status"), "done");
    assert_eq!(doc.get("cached").and_then(Value::as_bool), Some(true));
    let second_id = str_field(&doc, "job_id").to_owned();
    assert_ne!(second_id, first_id, "each submission is its own job");

    let (status, second_body) = client::fetch(&addr, &second_id).unwrap();
    assert_eq!(status, 200);
    assert_eq!(second_body, first_body, "store hit changed the bytes");

    let after = stats(&addr);
    assert_eq!(
        stat(&after, "engine_cells_simulated"),
        cells_before,
        "a store hit must cost zero engine cycles"
    );
    assert_eq!(stat(&after, "store_hits"), 1);
    assert_eq!(stat(&after, "entries"), 1);

    handle.shutdown();
}

#[test]
fn the_job_table_keeps_only_the_most_recent_finished_jobs() {
    use turnroute_serve::server::RETAINED_TERMINAL_JOBS;
    let (handle, addr, _store) = start("eviction");
    let spec_json = small_spec().to_json();

    let (_, doc) = submit_ok(&addr, &spec_json);
    let first_id = str_field(&doc, "job_id").to_owned();
    wait_done(&addr, &first_id);
    let (_, body) = client::fetch(&addr, &first_id).unwrap();

    // Every resubmission is a store hit: a new job, born finished.
    let mut last_id = String::new();
    for _ in 0..RETAINED_TERMINAL_JOBS + 10 {
        let (status, doc) = submit_ok(&addr, &spec_json);
        assert_eq!(status, 200);
        last_id = str_field(&doc, "job_id").to_owned();
    }

    // The oldest job is forgotten exactly like an id never issued...
    let (status, gone) = client::status(&addr, &first_id).unwrap();
    assert_eq!(status, 404, "{}", String::from_utf8_lossy(&gone));
    let (_, unknown) = client::status(&addr, "j999999").unwrap();
    assert_eq!(gone, unknown);
    assert_eq!(client::fetch(&addr, &first_id).unwrap().0, 404);
    // ...the newest is served, with the same bytes the first one had.
    assert_eq!(client::status(&addr, &last_id).unwrap().0, 200);
    assert_eq!(client::fetch(&addr, &last_id).unwrap(), (200, body));

    let after = stats(&addr);
    assert_eq!(stat(&after, "jobs"), RETAINED_TERMINAL_JOBS as u64);
    let (_, page) = client::metrics(&addr).unwrap();
    let page = String::from_utf8(page).unwrap();
    assert!(page.contains("turnroute_jobs_evicted_total 11\n"), "{page}");

    handle.shutdown();
}

#[test]
fn a_job_that_panics_the_engine_fails_alone_and_the_runner_lives_on() {
    let (handle, addr, _store) = start("panic");
    // A spec the boundary accepts and the engine asserts on: p-cube
    // routing needs a hypercube, and only `PCube::route` checks. (If
    // admission control ever rejects it with a 4xx, as it now does a
    // pattern that does not fit its topology, find this test another
    // way into an engine `assert!`.)
    let poison = r#"{"spec_version":1,"topology":"mesh:4x4","pattern":"uniform",
        "algorithms":["p-cube"],"loads":[0.05],
        "config":{"seed":1,"warmup_cycles":100,"measure_cycles":400}}"#;
    let (status, doc) = submit_ok(&addr, poison);
    assert_eq!(status, 202, "{doc:?}");
    let poisoned_id = str_field(&doc, "job_id").to_owned();
    let doc = wait_done(&addr, &poisoned_id);
    assert_eq!(str_field(&doc, "status"), "failed");
    let error = str_field(&doc, "error");
    assert!(error.starts_with("job panicked: "), "{error}");
    assert!(
        error.contains("p-cube routing requires a hypercube"),
        "{error}"
    );
    assert_eq!(client::fetch(&addr, &poisoned_id).unwrap().0, 409);

    // The one runner thread survived, and so did the state lock: a
    // normal job on the same server completes and is served.
    let (status, doc) = submit_ok(&addr, &small_spec().to_json());
    assert_eq!(status, 202);
    let job_id = str_field(&doc, "job_id").to_owned();
    assert_eq!(str_field(&wait_done(&addr, &job_id), "status"), "done");
    assert_eq!(client::fetch(&addr, &job_id).unwrap().0, 200);

    // The same spec again is a new job, not a poisoned cache entry.
    let (_, doc) = submit_ok(&addr, poison);
    let again = str_field(&doc, "job_id").to_owned();
    assert_ne!(again, poisoned_id);
    assert_eq!(str_field(&wait_done(&addr, &again), "status"), "failed");

    let (_, page) = client::metrics(&addr).unwrap();
    let page = String::from_utf8(page).unwrap();
    for line in [
        "turnroute_jobs_total{status=\"panicked\"} 2\n",
        "turnroute_jobs_total{status=\"failed\"} 0\n",
        "turnroute_jobs_total{status=\"done\"} 1\n",
    ] {
        assert!(page.contains(line), "missing {line:?} in:\n{page}");
    }
    handle.shutdown();
}

#[test]
fn a_cancelled_queued_job_may_be_evicted_before_the_runner_reaches_it() {
    use turnroute_serve::server::RETAINED_TERMINAL_JOBS;
    let (handle, addr, _store) = start("evictqueued");
    let cached_json = small_spec().to_json();
    let (_, doc) = submit_ok(&addr, &cached_json);
    wait_done(&addr, str_field(&doc, "job_id"));

    // A long job occupies the single runner while a second one waits in
    // the queue and is cancelled there.
    let long = |seed: u64| {
        ExperimentSpec::builder("mesh:8x8", "transpose")
            .algorithm("xy")
            .algorithm("west-first")
            .loads(&[0.02, 0.04, 0.06, 0.08])
            .config(quick().measure_cycles(60_000).seed(seed))
            .build()
            .expect("spec resolves")
            .to_json()
    };
    let (_, running) = submit_ok(&addr, &long(1));
    let (_, waiting) = submit_ok(&addr, &long(2));
    let waiting_id = str_field(&waiting, "job_id").to_owned();
    let (status, _) = client::cancel(&addr, &waiting_id).unwrap();
    assert_eq!(status, 200);

    // Store hits push the cancelled job out of the table while its id
    // still sits in the run queue.
    for _ in 0..RETAINED_TERMINAL_JOBS {
        assert_eq!(submit_ok(&addr, &cached_json).0, 200);
    }
    assert_eq!(client::status(&addr, &waiting_id).unwrap().0, 404);

    // The runner must skip the forgotten id and keep serving.
    let running_id = str_field(&running, "job_id").to_owned();
    client::cancel(&addr, &running_id).unwrap();
    wait_done(&addr, &running_id);
    let (_, next) = submit_ok(&addr, &small_spec_with_seed(9));
    let next = wait_done(&addr, str_field(&next, "job_id"));
    assert_eq!(str_field(&next, "status"), "done");

    handle.shutdown();
}

#[test]
fn concurrent_duplicate_submissions_coalesce_onto_one_job() {
    let (handle, addr, _store) = start("coalesce");

    // A blocker occupies the single runner so the target job stays
    // in-flight while the duplicates arrive.
    let blocker = ExperimentSpec::builder("mesh:6x6", "uniform")
        .algorithm("xy")
        .loads(&[0.05])
        .config(quick().measure_cycles(6_000))
        .build()
        .unwrap();
    let (_, doc) = submit_ok(&addr, &blocker.to_json());
    let blocker_id = str_field(&doc, "job_id").to_owned();

    let target_json = small_spec().to_json();
    let (status, doc) = submit_ok(&addr, &target_json);
    assert_eq!(status, 202);
    let target_id = str_field(&doc, "job_id").to_owned();

    let dupes: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let json = target_json.clone();
            std::thread::spawn(move || submit_ok(&addr, &json))
        })
        .collect();
    for t in dupes {
        let (status, doc) = t.join().expect("duplicate submitter finished");
        assert_eq!(status, 202);
        assert_eq!(
            str_field(&doc, "job_id"),
            target_id,
            "a duplicate submission must coalesce onto the in-flight job"
        );
        assert_eq!(doc.get("coalesced").and_then(Value::as_bool), Some(true));
    }

    wait_done(&addr, &blocker_id);
    wait_done(&addr, &target_id);
    let after = stats(&addr);
    assert_eq!(stat(&after, "coalesced"), 4);
    assert_eq!(stat(&after, "jobs_submitted"), 6);
    // The coalesced job ran once and is fetchable.
    let (status, _) = client::fetch(&addr, &target_id).unwrap();
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn invalid_submissions_get_typed_4xx_errors() {
    let (handle, addr, _store) = start("errors");

    let kind_of = |body: &[u8]| -> String {
        let doc = parse(body);
        let err = doc.get("error").expect("error envelope");
        str_field(err, "kind").to_owned()
    };

    // Not JSON at all.
    let (status, body) = client::submit(&addr, "{ nope").unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind_of(&body), "malformed");

    // Unknown field.
    let with_unknown = small_spec()
        .to_json()
        .replacen("\"topology\"", "\"typology\"", 1);
    let (status, body) = client::submit(&addr, &with_unknown).unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind_of(&body), "unknown_field");

    // A name that does not resolve.
    let with_bad_name = small_spec().to_json().replacen("xy", "zz", 1);
    let (status, body) = client::submit(&addr, &with_bad_name).unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind_of(&body), "parse");

    // Structural violation: loads out of order.
    let unsorted = small_spec().to_json().replacen("0.02,0.05", "0.05,0.02", 1);
    let (status, body) = client::submit(&addr, &unsorted).unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind_of(&body), "invalid");

    // A pattern that does not fit the topology: transpose needs a
    // square mesh.
    let misfit = small_spec().to_json().replacen("mesh:6x6", "mesh:6x4", 1);
    let (status, body) = client::submit(&addr, &misfit).unwrap();
    assert_eq!(status, 400);
    assert_eq!(kind_of(&body), "parse");

    // Unknown job and unknown path.
    let (status, _) = client::status(&addr, "j999").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::http_request(&addr, "GET", "/v2/jobs", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = client::http_request(&addr, "PUT", "/v1/jobs", None).unwrap();
    assert_eq!(status, 405);

    handle.shutdown();
}

#[test]
fn a_corrupted_store_entry_is_detected_and_recomputed() {
    let (handle, addr, store_dir) = start("corrupt");
    let spec_json = small_spec().to_json();

    let (_, doc) = submit_ok(&addr, &spec_json);
    let first_id = str_field(&doc, "job_id").to_owned();
    wait_done(&addr, &first_id);
    let (_, pristine) = client::fetch(&addr, &first_id).unwrap();
    let cells_once = stat(&stats(&addr), "engine_cells_simulated");

    // Flip one byte of the stored body behind the server's back.
    let entry = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "entry"))
        .expect("one store entry exists");
    let mut bytes = std::fs::read(&entry).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();

    // Resubmitting must detect the damage, recompute, and heal —
    // never serve the flipped bytes.
    let (status, doc) = submit_ok(&addr, &spec_json);
    assert_eq!(status, 202, "a corrupt entry cannot be served as a hit");
    assert_eq!(str_field(&doc, "status"), "queued");
    let second_id = str_field(&doc, "job_id").to_owned();
    wait_done(&addr, &second_id);

    let (status, healed) = client::fetch(&addr, &second_id).unwrap();
    assert_eq!(status, 200);
    assert_eq!(healed, pristine, "recompute must restore identical bytes");

    let after = stats(&addr);
    assert_eq!(stat(&after, "corrupt_detected"), 1);
    assert_eq!(
        stat(&after, "corrupt_healed"),
        1,
        "the recompute must be counted as a heal"
    );
    assert_eq!(
        stat(&after, "engine_cells_simulated"),
        cells_once * 2,
        "the recompute re-ran the full grid"
    );
    // The healed store holds exactly the one entry, and its reported
    // footprint covers at least the pristine body.
    assert_eq!(stat(&after, "entries"), 1);
    assert!(
        stat(&after, "store_bytes") >= pristine.len() as u64,
        "store_bytes must cover the stored report"
    );

    handle.shutdown();
}

#[test]
fn server_results_match_the_reference_oracle() {
    use turnroute_check::oracle::Oracle;
    use turnroute_experiment::cli::{parse_algorithm, parse_pattern, parse_topology};
    use turnroute_sim::cycles_to_usec;
    use turnroute_sim::exec::derive_cell_seed;

    let load = 0.05;
    let config = quick();
    let spec = ExperimentSpec::builder("mesh:6x6", "uniform")
        .algorithm("xy")
        .loads(&[load])
        .config(config.clone())
        .build()
        .unwrap();

    let (handle, addr, _store) = start("oracle");
    let (_, doc) = submit_ok(&addr, &spec.to_json());
    let job_id = str_field(&doc, "job_id").to_owned();
    wait_done(&addr, &job_id);
    let (status, body) = client::fetch(&addr, &job_id).unwrap();
    assert_eq!(status, 200);
    handle.shutdown();

    let report = parse(&body);
    let series = report.get("series").and_then(Value::as_arr).unwrap();
    assert_eq!(series.len(), 1);
    let point = &series[0].get("points").and_then(Value::as_arr).unwrap()[0];
    let delivered = point.get("delivered").and_then(Value::as_u64).unwrap();
    let stranded = point.get("stranded").and_then(Value::as_u64).unwrap();
    let throughput = point
        .get("throughput_flits_per_usec")
        .and_then(Value::as_f64)
        .unwrap();

    // The reference engine, seeded exactly like the executor seeds the
    // cell (by resolved algorithm name).
    let topo = parse_topology("mesh:6x6").unwrap();
    let algo = parse_algorithm("xy", topo.as_ref()).unwrap();
    let pattern = parse_pattern("uniform").unwrap();
    let seed = derive_cell_seed(config.seed, &algo.name(), &pattern.name(), load);
    let oracle = Oracle::new(
        topo.as_ref(),
        algo.as_ref(),
        pattern.as_ref(),
        config.injection_rate(load).seed(seed),
    )
    .run();

    assert_eq!(delivered, oracle.total_delivered);
    assert_eq!(stranded, oracle.stranded_packets);
    let expected =
        oracle.flits_delivered as f64 / cycles_to_usec(oracle.window_end - oracle.window_start);
    assert!(
        (throughput - expected).abs() <= expected.abs() * 1e-9,
        "server throughput {throughput} diverges from the oracle's {expected}"
    );
}

/// The traffic axes travel the wire intact: an MMPP spec with a
/// trace-driven destination file submitted to the server produces the
/// exact bytes the CLI serializer writes for the same spec run locally.
/// Because all injection randomness is drawn from per-node nested
/// streams, this holds regardless of the server's worker count.
#[test]
fn mmpp_and_trace_jobs_match_the_cli_serializer_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("turnroute-serve-mmpp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let trace = dir.join("pairs.trace");
    std::fs::write(
        &trace,
        "# serve fixture\n0 35 3\n1 34\n7 28 2\n12 23\n30 5 4\n",
    )
    .unwrap();

    let bursty = quick().traffic(TrafficModel::Mmpp {
        burst_cycles: 96.0,
        idle_cycles: 288.0,
    });
    let specs = [
        ExperimentSpec::builder("mesh:6x6", "transpose")
            .algorithm("xy")
            .algorithm("west-first")
            .loads(&[0.02, 0.05])
            .config(bursty.clone())
            .build()
            .expect("mmpp spec resolves"),
        ExperimentSpec::builder("mesh:6x6", format!("trace:{}", trace.display()))
            .algorithm("west-first")
            .loads(&[0.05])
            .config(bursty)
            .build()
            .expect("trace spec resolves"),
    ];

    let (handle, addr, _store) = start("mmpp");
    for spec in &specs {
        let (status, doc) = submit_ok(&addr, &spec.to_json());
        assert_eq!(status, 202);
        let job_id = str_field(&doc, "job_id").to_owned();
        let done = wait_done(&addr, &job_id);
        assert_eq!(str_field(&done, "status"), "done");
        let (status, body) = client::fetch(&addr, &job_id).expect("fetch reaches the server");
        assert_eq!(status, 200);

        let mut executor = Executor::new(3);
        let series = spec.run_on(&mut executor).expect("spec runs locally");
        let mut expected = Vec::new();
        write_report_json(&series, &executor.stats(), &mut expected).unwrap();
        assert_eq!(
            body, expected,
            "server bytes differ from the CLI serializer for an MMPP job"
        );
    }
    handle.shutdown();
}
