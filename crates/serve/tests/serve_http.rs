//! End-to-end tests for the repair service over real sockets.
//!
//! Every test binds a server on a loopback ephemeral port, talks to it
//! with a plain `TcpStream` HTTP client, and drains it through
//! `POST /admin/drain` (the per-server drain path, so parallel tests
//! never interfere). The crash/resume test asserts the crate's central
//! contract: a server soft-killed mid-corpus and restarted on its
//! journal renders a final report byte-identical to a control server
//! that never crashed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tml_runtime::{ChaosSpec, ManualClock};
use tml_serve::server::{RunOutcome, ServeOptions, Server};
use tml_telemetry::json::{self, Value};

// ---------------------------------------------------------------------
// Harness.

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tml-serve-{}-{name}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

struct Running {
    server: Arc<Server>,
    addr: SocketAddr,
    handle: JoinHandle<std::io::Result<RunOutcome>>,
}

fn start(opts: ServeOptions) -> Running {
    let server = Arc::new(Server::bind(opts).expect("bind"));
    let addr = server.addr().expect("addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    Running { server, addr, handle }
}

impl Running {
    /// Drains through the admin endpoint and joins the accept loop.
    fn drain(self) -> RunOutcome {
        let (status, _, _) = http(&self.addr, "POST", "/admin/drain", &[], "");
        assert_eq!(status, 200, "drain endpoint");
        let outcome = self.handle.join().expect("join").expect("run");
        drop(self.server);
        outcome
    }

    /// Joins a server expected to stop on its own (simulated crash).
    fn join(self) -> RunOutcome {
        self.handle.join().expect("join").expect("run")
    }
}

/// One HTTP exchange: returns `(status, headers, body)`.
fn http(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: t\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(req.as_bytes()).expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn submit(addr: &SocketAddr, payload: &str) -> (u16, Value) {
    let (status, _, body) = http(addr, "POST", "/v1/jobs", &[], payload);
    let value = json::parse(&body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"));
    (status, value)
}

fn corpus_payload(index: u64) -> String {
    format!("{{\"kind\":\"corpus\",\"index\":{index}}}")
}

fn verify_payload(model: &str, property: &str) -> String {
    let mut out = String::from("{\"kind\":\"verify\",\"model\":");
    json::write_string(&mut out, model);
    out.push_str(",\"property\":");
    json::write_string(&mut out, property);
    out.push('}');
    out
}

/// Polls `/v1/report` until every job concluded; returns the report text.
fn await_report(addr: &SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = http(addr, "GET", "/v1/report", &[], "");
        if status == 200 {
            return body;
        }
        assert_eq!(status, 409, "report while pending");
        assert!(Instant::now() < deadline, "jobs did not conclude in 30s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Reads one sample out of the Prometheus `/metrics` exposition by its
/// exact sample name, e.g. `tml_serve_jobs_accepted_total` (0 when
/// absent). Labeled samples never match a bare name.
fn metric(addr: &SocketAddr, name: &str) -> u64 {
    let (status, head, body) = http(addr, "GET", "/metrics", &[], "");
    assert_eq!(status, 200, "metrics endpoint");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "exposition content type:\n{head}"
    );
    for line in body.lines() {
        let mut cols = line.split_whitespace();
        if cols.next() == Some(name) {
            return cols.next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    0
}

const MODEL_REACHES_GOAL: &str = "dtmc
states 3
initial 0
label \"goal\" = 2
0 -> 1: 0.5, 0: 0.5
1 -> 2: 1.0
2 -> 2: 1.0
";

const MODEL_STUCK: &str = "dtmc
states 2
initial 0
label \"goal\" = 1
0 -> 0: 1.0
1 -> 1: 1.0
";

// ---------------------------------------------------------------------
// Tests.

#[test]
fn submit_poll_report_happy_path() {
    let mut opts = ServeOptions::new(temp_journal("happy"));
    opts.workers = 2;
    let running = start(opts);
    let addr = running.addr;

    for index in 0..3u64 {
        let (status, head, body) = http(&addr, "POST", "/v1/jobs", &[], &corpus_payload(index));
        assert_eq!(status, 202, "corpus submission accepted");
        let value = json::parse(&body).unwrap();
        assert_eq!(value.get("job").and_then(Value::as_u64), Some(index));
        assert_eq!(value.get("status").and_then(Value::as_str), Some("queued"));
        let trace = value.get("trace").and_then(Value::as_str).expect("trace in body");
        assert_eq!(trace.len(), 16, "trace is 16 hex digits: {trace}");
        assert!(
            head.contains(&format!("\r\nX-Trace-Id: {trace}")),
            "X-Trace-Id header matches the body:\n{head}"
        );
    }
    let (status, sat) = submit(&addr, &verify_payload(MODEL_REACHES_GOAL, "P>=0.5 [ F \"goal\" ]"));
    assert_eq!(status, 202);
    let sat_id = sat.get("job").and_then(Value::as_u64).unwrap();
    let (status, vio) = submit(&addr, &verify_payload(MODEL_STUCK, "P>=0.5 [ F \"goal\" ]"));
    assert_eq!(status, 202);
    let vio_id = vio.get("job").and_then(Value::as_u64).unwrap();

    let report = await_report(&addr);
    assert!(report.contains("satisfied"), "report lists verify verdicts:\n{report}");

    let (status, _, body) = http(&addr, "GET", &format!("/v1/jobs/{sat_id}"), &[], "");
    assert_eq!(status, 200);
    let poll = json::parse(&body).unwrap();
    assert_eq!(poll.get("status").and_then(Value::as_str), Some("satisfied"));
    assert_eq!(poll.get("kind").and_then(Value::as_str), Some("verify"));
    assert!(
        poll.get("fingerprint").and_then(Value::as_str).is_some(),
        "dtmc verify jobs report a model fingerprint: {body}"
    );

    let (_, _, body) = http(&addr, "GET", &format!("/v1/jobs/{vio_id}"), &[], "");
    let poll = json::parse(&body).unwrap();
    assert_eq!(poll.get("status").and_then(Value::as_str), Some("violated"));

    // Idempotent corpus resubmission: same index, same job id, no new work.
    let (status, dup) = submit(&addr, &corpus_payload(1));
    assert_eq!(status, 200, "duplicate is acknowledged, not re-queued");
    assert_eq!(dup.get("job").and_then(Value::as_u64), Some(1));
    assert_eq!(dup.get("deduplicated"), Some(&Value::Bool(true)));
    assert!(
        dup.get("trace").and_then(Value::as_str).is_some(),
        "dedup answers with the existing job's trace"
    );

    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 5);
    assert_eq!(metric(&addr, "tml_serve_jobs_completed_total"), 5);
    assert_eq!(metric(&addr, "tml_serve_jobs_deduped_total"), 1);
    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn malformed_submissions_fail_closed() {
    let mut opts = ServeOptions::new(temp_journal("failclosed"));
    opts.workers = 0;
    let running = start(opts);
    let addr = running.addr;

    for (payload, why) in [
        ("not json", "non-JSON body"),
        ("[1,2]", "non-object body"),
        ("{\"kind\":\"corpus\"}", "missing index"),
        ("{\"kind\":\"nonsense\",\"index\":1}", "unknown kind"),
        ("{\"kind\":\"corpus\",\"index\":1,\"extra\":true}", "unknown field"),
        ("{\"kind\":\"corpus\",\"index\":99999999999}", "index past the cap"),
        ("{\"kind\":\"verify\",\"model\":\"dtmc\\nstates nope\",\"property\":\"x\"}", "bad model"),
        ("{\"kind\":\"corpus\",\"index\":1,\"deadline_ms\":\"soon\"}", "non-integer budget"),
    ] {
        let (status, value) = submit(&addr, payload);
        assert_eq!(status, 400, "{why} must be rejected at admission");
        assert!(value.get("error").is_some(), "{why} carries an error body");
    }
    // A parseable model with an unparseable property is rejected too.
    let (status, _) = submit(&addr, &verify_payload(MODEL_STUCK, "eventually goal, please"));
    assert_eq!(status, 400, "bad property");

    // Routing fails closed as well.
    let (status, _, _) = http(&addr, "GET", "/v1/nope", &[], "");
    assert_eq!(status, 404);
    let (status, _, _) = http(&addr, "DELETE", "/v1/jobs", &[], "");
    assert_eq!(status, 405);
    let (status, _, _) = http(&addr, "GET", "/v1/jobs/abc", &[], "");
    assert_eq!(status, 400);
    let (status, _, _) = http(&addr, "GET", "/v1/jobs/7", &[], "");
    assert_eq!(status, 404);

    assert_eq!(metric(&addr, "tml_serve_jobs_rejected_total"), 9, "every rejection counted");
    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 0, "nothing malformed was admitted");
    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn huge_state_count_is_rejected_and_the_daemon_stays_up() {
    let mut opts = ServeOptions::new(temp_journal("hugestates"));
    opts.workers = 0;
    let running = start(opts);
    let addr = running.addr;

    // A 37-byte model claiming 10^11 states: sizing anything by the count
    // would abort the process, which no request isolation can catch.
    for n in ["100000000000", "18446744073709551615"] {
        let model = format!("dtmc\nstates {n}\n0 -> 0: 1.0\n");
        let (status, value) = submit(&addr, &verify_payload(&model, "P>=0.5 [ F \"goal\" ]"));
        assert_eq!(status, 400, "states {n} is rejected at admission");
        let error = value.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(error.contains("line 2") && error.contains("no outgoing distribution"), "{error}");
    }
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "the daemon still answers: {body}");
    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 0);
    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn too_many_reward_structures_are_rejected_and_the_daemon_stays_up() {
    let mut opts = ServeOptions::new(temp_journal("rewardnames"));
    opts.workers = 0;
    let running = start(opts);
    let addr = running.addr;

    // Each reward structure is dense over the states: 3,000 names over
    // 3,000 states would ask for 72 MB from a 120 kB body.
    let mut model = String::from("dtmc\nstates 3000\n");
    for s in 0..3000 {
        model.push_str(&format!("reward \"r{s}\" {s} = 1\n{s} -> {s}: 1\n"));
    }
    let (status, value) = submit(&addr, &verify_payload(&model, "P>=0.5 [ F \"goal\" ]"));
    assert_eq!(status, 400, "the model is rejected at admission");
    let error = value.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(error.contains("line 131") && error.contains("reward structures"), "{error}");
    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200, "the daemon still answers: {body}");
    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 0);
    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn overload_sheds_explicitly_with_retry_after() {
    let mut opts = ServeOptions::new(temp_journal("overload"));
    opts.workers = 0; // nothing drains the queue: deterministic overload
    opts.queue_depth = 2;
    let running = start(opts);
    let addr = running.addr;

    assert_eq!(submit(&addr, &corpus_payload(0)).0, 202);
    assert_eq!(submit(&addr, &corpus_payload(1)).0, 202);
    let (status, head, body) = http(&addr, "POST", "/v1/jobs", &[], &corpus_payload(2));
    assert_eq!(status, 429, "job N+1 sheds: {body}");
    assert!(head.contains("\r\nRetry-After: "), "shed carries Retry-After:\n{head}");

    // A full queue is not ready, but it is healthy.
    let (status, _, body) = http(&addr, "GET", "/readyz", &[], "");
    assert_eq!(status, 503, "full queue is not ready: {body}");
    assert!(body.contains("\"queue_depth\":2"));
    let (status, _, _) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);

    // Counter identity: accepted == completed + queued + running.
    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 2);
    assert_eq!(metric(&addr, "tml_serve_jobs_shed_total"), 1);
    assert_eq!(metric(&addr, "tml_serve_jobs_completed_total"), 0);
    assert_eq!(metric(&addr, "tml_serve_jobs_queued"), 2, "queued is a gauge");
    assert_eq!(metric(&addr, "tml_serve_jobs_running"), 0, "running is a gauge");

    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn drain_preserves_queued_jobs_for_restart() {
    let journal = temp_journal("drainrecover");

    // Accept two jobs on a server that can never run them, then drain:
    // the jobs must survive as journaled submissions.
    let mut opts = ServeOptions::new(&journal);
    opts.workers = 0;
    let running = start(opts);
    let addr = running.addr;
    assert_eq!(submit(&addr, &corpus_payload(0)).0, 202);
    assert_eq!(submit(&addr, &corpus_payload(1)).0, 202);
    assert_eq!(running.drain(), RunOutcome::Drained);

    // Restart on the same journal with real workers: the jobs run to
    // completion without being resubmitted.
    let mut opts = ServeOptions::new(&journal);
    opts.workers = 2;
    let running = start(opts);
    let resumed = await_report(&running.addr);
    assert_eq!(running.drain(), RunOutcome::Drained);

    // Control: a fresh server that was never drained, same submissions.
    let mut opts = ServeOptions::new(temp_journal("draincontrol"));
    opts.workers = 2;
    let control = start(opts);
    assert_eq!(submit(&control.addr, &corpus_payload(0)).0, 202);
    assert_eq!(submit(&control.addr, &corpus_payload(1)).0, 202);
    let uninterrupted = await_report(&control.addr);
    assert_eq!(control.drain(), RunOutcome::Drained);

    assert_eq!(resumed, uninterrupted, "drained-and-resumed report is byte-identical");
}

#[test]
fn crash_resume_report_is_byte_identical_to_control() {
    let chaos = Some(ChaosSpec::parse("panic=0.25,nan=0.25,seed=5").unwrap());
    let jobs = 5u64;

    // Run the 5-job corpus on a server that crashes (soft kill) after its
    // second journaled outcome, then finish it on a restarted server.
    let journal = temp_journal("crash");
    let mut opts = ServeOptions::new(&journal);
    opts.workers = 0;
    opts.chaos = chaos;
    let running = start(opts);
    for index in 0..jobs {
        assert_eq!(submit(&running.addr, &corpus_payload(index)).0, 202);
    }
    assert_eq!(running.drain(), RunOutcome::Drained);

    let mut opts = ServeOptions::new(&journal);
    opts.workers = 1;
    opts.chaos = chaos;
    opts.kill_after = Some(2);
    let crashing = start(opts);
    assert_eq!(crashing.join(), RunOutcome::Crashed, "kill_after stops the server");

    let mut opts = ServeOptions::new(&journal);
    opts.workers = 1;
    opts.chaos = chaos;
    let resumed_server = start(opts);
    let resumed = await_report(&resumed_server.addr);
    assert_eq!(resumed_server.drain(), RunOutcome::Drained);

    // Control: same corpus, same chaos plan, no crash.
    let control_journal = temp_journal("crashcontrol");
    let mut opts = ServeOptions::new(&control_journal);
    opts.workers = 0;
    opts.chaos = chaos;
    let staging = start(opts);
    for index in 0..jobs {
        assert_eq!(submit(&staging.addr, &corpus_payload(index)).0, 202);
    }
    assert_eq!(staging.drain(), RunOutcome::Drained);
    let mut opts = ServeOptions::new(&control_journal);
    opts.workers = 1;
    opts.chaos = chaos;
    let control = start(opts);
    let uninterrupted = await_report(&control.addr);
    assert_eq!(control.drain(), RunOutcome::Drained);

    assert_eq!(resumed, uninterrupted, "crash + resume converges byte-identically");
    assert!(resumed.contains("jobs"), "report is the standard rendering:\n{resumed}");
}

#[test]
fn token_bucket_throttles_per_client() {
    let clock = ManualClock::new();
    let mut opts = ServeOptions::new(temp_journal("bucket"));
    opts.workers = 0;
    opts.bucket = Some((1, 0.0)); // one job per client, no refill
    opts.clock = Arc::new(clock);
    let running = start(opts);
    let addr = running.addr;

    let alice = [("X-TML-Client", "alice")];
    let (status, _, _) = http(&addr, "POST", "/v1/jobs", &alice, &corpus_payload(0));
    assert_eq!(status, 202, "alice's first job is admitted");
    let (status, head, _) = http(&addr, "POST", "/v1/jobs", &alice, &corpus_payload(1));
    assert_eq!(status, 429, "alice's quota is spent");
    assert!(head.contains("\r\nRetry-After: "), "throttle names a wait:\n{head}");
    let bob = [("X-TML-Client", "bob")];
    let (status, _, _) = http(&addr, "POST", "/v1/jobs", &bob, &corpus_payload(1));
    assert_eq!(status, 202, "bob's bucket is independent");

    assert_eq!(metric(&addr, "tml_serve_jobs_throttled_total"), 1);
    assert_eq!(metric(&addr, "tml_serve_jobs_accepted_total"), 2);
    assert_eq!(running.drain(), RunOutcome::Drained);
}

#[test]
fn health_surfaces_track_drain_state() {
    let mut opts = ServeOptions::new(temp_journal("health"));
    opts.workers = 0;
    // Keep the socket answering for a while after the drain begins, so
    // the post-drain probes below are deterministic.
    opts.drain_linger_ms = 3000;
    let running = start(opts);
    let addr = running.addr;

    let (status, _, body) = http(&addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":false"));
    let (status, _, body) = http(&addr, "GET", "/readyz", &[], "");
    assert_eq!(status, 200, "idle server is ready: {body}");
    assert!(body.contains("\"ready\":true"), "{body}");

    // Draining flips readiness off while health stays up, and new
    // submissions are refused outright.
    let (status, _, _) = http(&addr, "POST", "/admin/drain", &[], "");
    assert_eq!(status, 200);
    let (status, _, body) = http(&addr, "GET", "/readyz", &[], "");
    assert_eq!(status, 503, "draining server is not ready: {body}");
    let (status, _, _) = http(&addr, "POST", "/v1/jobs", &[], &corpus_payload(0));
    assert_eq!(status, 503, "draining server refuses new work");

    assert_eq!(running.handle.join().expect("join").expect("run"), RunOutcome::Drained);
}
