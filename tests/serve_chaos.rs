//! Wire-level chaos harness for the service front-end.
//!
//! Drives a live `mde-server` with hostile clients — slow-loris
//! dribbles, torn and oversized frames, raw garbage, mid-frame
//! disconnects, injected session panics — interleaved with well-behaved
//! clients, and asserts the robustness contract:
//!
//! * every fault lands as a typed wire error or a clean disconnect,
//! * well-behaved sessions keep getting *bit-identical* answers to the
//!   in-process library throughout the chaos,
//! * the accept loop never hangs (a fresh client always gets served),
//! * a mid-query client disconnect cancels the in-flight work
//!   cooperatively and persists a partial checkpoint that resumes
//!   exactly,
//! * overload rejections surface as retryable typed errors with
//!   deterministic backoff hints,
//! * graceful drain stops in-flight campaigns at boundaries, persists
//!   their checkpoints, and exits without wedging.
//!
//! Fault interleavings derive from `MDE_CHAOS_SEED` (CI sweeps a seed
//! matrix), so a red run replays exactly.

use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::{Catalog, DataType, Table, Value};
use mde_mcdb::sql::{parse_create_random_table, plan_from_sql, VgRegistry};
use mde_numeric::resilience::FaultPlan;
use mde_numeric::rng::chaos_seed;
use mde_server::chaos;
use mde_server::client::{Client, Reply};
use mde_server::{Server, ServerConfig, WireCode};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DDL: &str = "CREATE TABLE SALES(IID, AMT) AS FOR EACH ITEMS \
                   WITH Normal(SELECT MEAN, STD FROM PARAMS) \
                   SELECT IID, VALUE AS AMT";
const MC_SQL: &str = "SELECT SUM(AMT) AS V FROM SALES";

fn seed_catalog() -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..8).map(|i| vec![Value::from(i)]))
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(10.0), Value::from(2.0)])
        .finish()
        .unwrap(),
    );
    db
}

/// The in-process library answer the server must match bit-for-bit.
fn baseline_mean(n: usize, seed: u64) -> f64 {
    let spec = parse_create_random_table(DDL, &VgRegistry::standard()).expect("valid DDL");
    let plan = plan_from_sql(MC_SQL).expect("valid SQL");
    let query = MonteCarloQuery::new(vec![spec], plan);
    query
        .run(&seed_catalog(), n, seed)
        .expect("baseline MC runs")
        .mean()
}

fn wire_mc(client: &mut Client, n: usize, seed: u64) -> f64 {
    let reply = client
        .send(&format!("MC n={n} seed={seed}\n{MC_SQL}"))
        .expect("MC request");
    let map = reply.expect_ok("MC");
    assert_eq!(map["succeeded"], n.to_string());
    map["mean"].parse().expect("mean parses")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mde-serve-{name}-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn connect(server: &Server) -> Client {
    let client = Client::connect(server.addr()).expect("connect");
    client
        .set_reply_timeout(Some(Duration::from_secs(60)))
        .expect("reply timeout");
    client
}

#[test]
fn clean_session_matches_library_bit_for_bit() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let mut c = connect(&server);
    c.hello("acme").expect("hello").expect_ok("HELLO");

    // Plain SQL over the snapshot.
    match c.sql("SELECT COUNT(*) AS N FROM ITEMS", None).expect("sql") {
        Reply::Table { rows, .. } => assert_eq!(rows, vec![vec!["8".to_string()]]),
        other => panic!("expected table, got {other:?}"),
    }

    // DDL + rows through the wire mutate the shared catalog snapshot.
    c.send("CREATE name=EXTRA cols=ID:int,SCORE:float")
        .expect("create")
        .expect_ok("CREATE");
    let ok = c
        .send("INSERT name=EXTRA\n1\t0.5\n2\t1.5\n3\tNULL")
        .expect("insert")
        .expect_ok("INSERT");
    assert_eq!(ok["rows"], "3");
    match c
        .sql("SELECT COUNT(*) AS N FROM EXTRA WHERE SCORE > 0.0", None)
        .expect("sql over inserted rows")
    {
        Reply::Table { rows, .. } => assert_eq!(rows, vec![vec!["2".to_string()]]),
        other => panic!("expected table, got {other:?}"),
    }

    // Monte Carlo through the wire is bit-identical to the library.
    c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
    let seed = chaos_seed();
    let mean = wire_mc(&mut c, 64, seed);
    assert_eq!(mean, baseline_mean(64, seed), "wire MC must match library");

    // Campaign path gives the same estimate.
    let reply = c
        .send(&format!(
            "CAMPAIGN n=64 seed={seed} priority=interactive\n{MC_SQL}"
        ))
        .expect("campaign");
    let map = reply.expect_ok("CAMPAIGN");
    assert_eq!(map["status"], "completed");
    let value: f64 = map["value"].parse().expect("value parses");
    assert_eq!(value, baseline_mean(64, seed), "campaign matches library");

    server.shutdown();
}

/// `VG` is an alias of `SQL`: a declaration sent either way registers the
/// same random table, so both sessions answer one `MC` frame with the same
/// bits. Malformed DDL over `SQL` is a typed `PARSE` error the session
/// survives, and a declaration neither hits nor fills the plan cache.
#[test]
fn a_declaration_over_sql_registers_what_vg_does() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let cache_counts = |c: &mut Client| {
        let map = c.send("STATS").expect("stats").expect_ok("STATS");
        (map["cache_hits"].clone(), map["cache_misses"].clone())
    };
    let mut a = connect(&server);
    let ok = a.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
    assert_eq!(ok["specs"], "1");

    let mut b = connect(&server);
    let before = cache_counts(&mut b);
    for malformed in [
        "CREATE TABLE SALES AS FOR EACH ITEMS WITH Normal(1, 2 SELECT IID",
        "CREATE TABLE SALES(IID) AS FOR EACH ITEMS WITH Normal(1, 2) SELECT IID, VALUE",
    ] {
        let err = b
            .sql(malformed, None)
            .expect("malformed DDL")
            .expect_err("malformed DDL");
        assert_eq!(err.code, WireCode::Parse, "{malformed}");
    }
    let ok = b.sql(DDL, None).expect("DDL over SQL").expect_ok("DDL");
    assert_eq!(ok["specs"], "1");
    assert_eq!(
        cache_counts(&mut b),
        before,
        "a declaration skips the plan cache"
    );

    let seed = chaos_seed();
    let (via_vg, via_sql) = (wire_mc(&mut a, 32, seed), wire_mc(&mut b, 32, seed));
    assert_eq!(via_vg.to_bits(), via_sql.to_bits());
    server.shutdown();
}

#[test]
fn bad_deadlines_and_budgets_are_rejected_at_parse_time() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let mut c = connect(&server);
    for (req, code) in [
        (
            "SQL deadline_ms=0\nSELECT COUNT(*) AS N FROM ITEMS",
            WireCode::BadDeadline,
        ),
        (
            "SQL deadline_ms=99999999999999999999\nSELECT COUNT(*) AS N FROM ITEMS",
            WireCode::BadDeadline,
        ),
        (
            "MC n=0 seed=1\nSELECT COUNT(*) AS N FROM ITEMS",
            WireCode::BadBudget,
        ),
        (
            "CAMPAIGN n=4 seed=1 cost=0\nSELECT COUNT(*) AS N FROM ITEMS",
            WireCode::BadBudget,
        ),
    ] {
        let err = c.send(req).expect("send").expect_err("bad budget request");
        assert_eq!(err.code, code, "request {req:?}");
        // The session survives a rejected request.
        match c
            .sql("SELECT COUNT(*) AS N FROM ITEMS", Some(5_000))
            .expect("follow-up")
        {
            Reply::Table { rows, .. } => assert_eq!(rows[0][0], "8"),
            other => panic!("session should survive, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn deadline_propagates_into_monte_carlo_boundaries() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let mut c = connect(&server);
    c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
    // A replicate budget this size takes far longer than the deadline;
    // the run must stop at a boundary, typed, with partial progress.
    let reply = c
        .send(&format!("MC n=50000000 seed=3 deadline_ms=200\n{MC_SQL}"))
        .expect("mc");
    let map = reply.expect_ok("deadline-bounded MC");
    assert_eq!(map["stopped"], "deadline");
    let succeeded: usize = map["succeeded"].parse().unwrap();
    assert!(succeeded > 0, "some replicates ran before expiry");
    assert!(succeeded < 50_000_000, "the deadline actually stopped it");
    server.shutdown();
}

#[test]
fn wire_chaos_never_wedges_the_server_or_corrupts_answers() {
    let seed = chaos_seed();
    // Sessions 0 and 1 panic on their second request (the ordinals are
    // claimed below by connecting the panic victims first).
    let faults = FaultPlan::new()
        .panic_session_at(0, 1)
        .panic_session_at(1, 1);
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            faults: Some(faults),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();

    // Panic victims first, sequentially, so they own session ids 0 and 1.
    for victim in 0..2 {
        let mut c = connect(&server);
        c.hello("doomed").expect("hello").expect_ok("HELLO");
        let err = c
            .send("PING")
            .expect("panic reply delivered")
            .expect_err("injected panic");
        assert_eq!(err.code, WireCode::Panic, "victim {victim}");
        assert!(!err.retryable);
        // The panicking session is gone; the socket observes EOF.
        assert!(
            c.send("PING").is_err(),
            "victim {victim}: session must be terminated"
        );
    }

    // Now the storm: hostile clients interleaved with honest ones.
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for i in 0..2 {
        let h = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("loris connects");
            // Dribbles one byte per 60ms against a 300ms read deadline:
            // the server must cut us off, not wait forever.
            chaos::slow_loris(&mut s, "PING", Duration::from_millis(60)).expect("loris tolerated");
        });
        handles.push(h);
        let h = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("torn connects");
            chaos::torn_frame(&mut s, 64, format!("HELLO tenant=torn{i}").as_bytes())
                .expect("torn frame written");
            drop(s);
        });
        handles.push(h);
        let h = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("mid-frame connects");
            chaos::mid_frame_disconnect(&mut s, "SQL\nSELECT COUNT(*) AS N FROM ITEMS", 7)
                .expect("partial frame written");
            drop(s);
        });
        handles.push(h);
    }
    handles.push(std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("oversize connects");
        chaos::oversized_header(&mut s, u32::MAX).expect("oversize header written");
    }));
    handles.push(std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("garbage connects");
        chaos::garbage_bytes(&mut s, b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n").expect("garbage");
    }));

    // Honest clients demand exact answers all the way through the storm.
    for worker in 0..3 {
        let h = std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("honest client connects");
            c.set_reply_timeout(Some(Duration::from_secs(60))).unwrap();
            c.hello(&format!("honest{worker}"))
                .unwrap()
                .expect_ok("HELLO");
            c.send(&format!("VG\n{DDL}")).unwrap().expect_ok("VG");
            for round in 0..3u64 {
                let n = 32 + 16 * round as usize;
                let mc_seed = seed ^ (worker as u64) << 8 | round;
                let reply = c
                    .send(&format!("MC n={n} seed={mc_seed}\n{MC_SQL}"))
                    .expect("MC during chaos");
                let map = reply.expect_ok("MC during chaos");
                let mean: f64 = map["mean"].parse().unwrap();
                assert_eq!(
                    mean,
                    baseline_mean(n, mc_seed),
                    "worker {worker} round {round}: wrong answer under chaos"
                );
            }
        });
        handles.push(h);
    }

    for h in handles {
        h.join().expect("chaos thread");
    }

    // The accept loop is alive and a fresh session computes correctly.
    let mut c = connect(&server);
    match c
        .sql("SELECT COUNT(*) AS N FROM ITEMS", None)
        .expect("post-chaos SQL")
    {
        Reply::Table { rows, .. } => assert_eq!(rows[0][0], "8"),
        other => panic!("post-chaos reply: {other:?}"),
    }
    let stats = c.send("STATS").expect("stats").expect_ok("STATS");
    let panics: u64 = stats["panics"].parse().unwrap();
    let bad_frames: u64 = stats["bad_frames"].parse().unwrap();
    assert_eq!(panics, 2, "both injected panics fired");
    assert!(
        bad_frames >= 5,
        "framing faults were classified (got {bad_frames})"
    );

    let report = server.shutdown();
    assert_eq!(report.panics, 2);
}

#[test]
fn mid_query_disconnect_cancels_and_checkpoints_partial_progress() {
    let dir = scratch_dir("disconnect");
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let n: usize = 4_000_000;
    let seed = chaos_seed();

    // Fire a long checkpointing MC, then vanish mid-query.
    {
        let mut c = connect(&server);
        c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
        c.stream()
            .set_read_timeout(Some(Duration::from_millis(120)))
            .unwrap();
        let _ = c.send(&format!(
            "MC n={n} seed={seed} checkpoint=dropped.ckpt\n{MC_SQL}"
        ));
        // Read timed out (the run is long); drop the socket mid-query.
    }

    // The reader observes the disconnect and cancels the in-flight
    // token; the run seals a partial checkpoint. Poll the server's
    // cancelled counter rather than sleeping blind.
    let mut monitor = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = monitor.send("STATS").expect("stats").expect_ok("STATS");
        if stats["cancelled"].parse::<u64>().unwrap() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the in-flight MC"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let ckpt = dir.join("dropped.ckpt");
    assert!(ckpt.exists(), "partial run checkpointed on cancellation");
    let state = mde_numeric::CampaignState::load(&ckpt).expect("checkpoint loads");
    assert!(state.cursor > 0, "some replicates completed before the cut");
    assert!(
        (state.cursor as usize) < n,
        "cancellation stopped the run early (cursor {})",
        state.cursor
    );

    // Resuming from the partial checkpoint completes the run and is
    // bit-identical to an uninterrupted one — but finishing 4M
    // replicates takes minutes, so prove it at a smaller scale with the
    // same machinery: interrupt, resume, compare.
    let n_small = 2_000;
    let mut c = connect(&server);
    c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
    let reply = c
        .send(&format!(
            "MC n={n_small} seed={seed} deadline_ms=1 checkpoint=resume.ckpt\n{MC_SQL}"
        ))
        .expect("interrupted mc");
    let map = reply.expect_ok("interrupted MC");
    assert_eq!(map["stopped"], "deadline");
    assert_eq!(map["checkpointed"], "1");
    let reply = c
        .send(&format!(
            "MC n={n_small} seed={seed} checkpoint=resume.ckpt\n{MC_SQL}"
        ))
        .expect("resumed mc");
    let map = reply.expect_ok("resumed MC");
    assert_eq!(map["succeeded"], n_small.to_string());
    let mean: f64 = map["mean"].parse().unwrap();
    assert_eq!(
        mean,
        baseline_mean(n_small, seed),
        "resume from a partial checkpoint must be bit-identical"
    );

    // A second session whose SALES differs only in its parameter query
    // reuses the file: the checkpoint is another campaign's, so the request
    // is refused — never answered with the first DDL's samples.
    let mut other = connect(&server);
    let swapped = DDL.replace(
        "SELECT MEAN, STD FROM PARAMS",
        "SELECT STD, MEAN FROM PARAMS",
    );
    assert_ne!(swapped, DDL);
    other
        .send(&format!("VG\n{swapped}"))
        .expect("vg")
        .expect_ok("VG");
    let err = other
        .send(&format!(
            "MC n={n_small} seed={seed} checkpoint=resume.ckpt\n{MC_SQL}"
        ))
        .expect("foreign resume")
        .expect_err("resuming another DDL's checkpoint");
    assert_eq!(err.code, WireCode::Exec);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_rejections_carry_typed_codes_and_retry_hints() {
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            sched: mde_core::SchedConfig {
                cost_budget: 1,
                ..mde_core::SchedConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let seed = chaos_seed();

    let mut c = connect(&server);
    c.hello("tenant-b").unwrap().expect_ok("HELLO");
    c.send(&format!("VG\n{DDL}")).unwrap().expect_ok("VG");

    // Deterministic mapping check: a cost above the whole budget is
    // always a typed, retryable rejection with a backoff hint.
    let err = c
        .send(&format!("CAMPAIGN n=16 seed={seed} cost=2\n{MC_SQL}"))
        .expect("oversized campaign")
        .expect_err("cost above budget");
    assert_eq!(err.code, WireCode::CostBudget);
    assert!(err.retryable, "overload must be retryable");
    let first_hint = err.retry_after_ms.expect("deterministic backoff hint");
    assert!(first_hint > 0);
    // Hints are deterministic: the same session's next rejection streak
    // step reproduces from the session fingerprint, not a clock.
    let err2 = c
        .send(&format!("CAMPAIGN n=16 seed={seed} cost=2\n{MC_SQL}"))
        .expect("oversized campaign again")
        .expect_err("cost above budget");
    assert!(err2.retry_after_ms.expect("hint present") >= first_hint);

    // Contention check: session A occupies the budget with a long
    // campaign; B waits until the cost is visibly in flight, gets
    // rejected, and retries per the hint until the budget frees up.
    let a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("A connects");
        c.set_reply_timeout(Some(Duration::from_secs(120))).unwrap();
        c.hello("tenant-a").unwrap().expect_ok("HELLO");
        c.send(&format!("VG\n{DDL}")).unwrap().expect_ok("VG");
        let reply = c
            .send(&format!("CAMPAIGN n=50000 seed={seed}\n{MC_SQL}"))
            .expect("A campaign");
        let map = reply.expect_ok("A campaign");
        assert_eq!(map["status"], "completed");
    });

    // Wait until A's cost is charged before contending.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = c.send("STATS").expect("stats").expect_ok("STATS");
        if stats["campaigns_inflight_cost"].parse::<u64>().unwrap() >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "A's campaign never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut rejections = 0u32;
    let deadline = Instant::now() + Duration::from_secs(120);
    let map = loop {
        assert!(Instant::now() < deadline, "B never got through");
        let reply = c
            .send(&format!("CAMPAIGN n=16 seed={seed}\n{MC_SQL}"))
            .expect("B campaign");
        match reply {
            Reply::Ok(map) => break map,
            Reply::Err(err) => {
                assert_eq!(err.code, WireCode::CostBudget, "typed overload code");
                assert!(err.retryable);
                let hint = err.retry_after_ms.expect("hint present");
                rejections += 1;
                std::thread::sleep(Duration::from_millis(hint.min(100)));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert_eq!(map["status"], "completed");
    assert!(
        rejections >= 1,
        "B should have been rejected at least once while A held the budget"
    );

    a.join().expect("session A");
    server.shutdown();
}

#[test]
fn graceful_drain_preempts_at_boundaries_and_checkpoints() {
    let dir = scratch_dir("drain");
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr();
    let seed = chaos_seed();

    // A long-running campaign with a checkpoint, in flight when drain
    // begins.
    let inflight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connects");
        c.set_reply_timeout(Some(Duration::from_secs(60))).unwrap();
        c.send(&format!("VG\n{DDL}")).unwrap().expect_ok("VG");
        let reply = c.send(&format!(
            "CAMPAIGN n=4000000 seed={seed} checkpoint=drained.ckpt\n{MC_SQL}"
        ));
        // Depending on timing the session sees the preempted report or
        // the drain closes the socket first; both are clean outcomes.
        if let Ok(Reply::Ok(map)) = reply {
            assert_eq!(map["status"], "preempted");
            assert_eq!(map["resumable"], "true");
        }
    });

    // Let the campaign get going, then drain.
    std::thread::sleep(Duration::from_millis(400));
    let report = server.shutdown();
    inflight.join().expect("in-flight session thread");

    assert!(report.sessions_closed >= 1);
    let ckpt = dir.join("drained.ckpt");
    assert!(
        ckpt.exists(),
        "drain must persist the in-flight campaign's checkpoint"
    );
    let state = mde_numeric::CampaignState::load(&ckpt).expect("checkpoint loads");
    assert!(
        (state.cursor as usize) < 4_000_000,
        "drain stopped the campaign early"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_refuses_new_connections_with_typed_error() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    // A client-requested shutdown flips the drain flag.
    let mut c = connect(&server);
    let ok = c.send("SHUTDOWN").expect("shutdown").expect_ok("SHUTDOWN");
    assert_eq!(ok["draining"], "1");
    assert!(server.shutdown_requested());
    server.shutdown();
}

#[test]
fn a_request_longer_than_idle_timeout_runs_to_completion() {
    // The read deadline bounds the wait for the next frame, not a request:
    // both runs take far longer than 300 ms and must finish every replicate.
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let mut c = connect(&server);
    c.set_reply_timeout(Some(Duration::from_secs(600)))
        .expect("reply timeout");
    c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
    let n = 400_000;
    let seed = chaos_seed();
    for verb in ["MC", "CAMPAIGN"] {
        let map = c
            .send(&format!("{verb} n={n} seed={seed}\n{MC_SQL}"))
            .expect("long request")
            .expect_ok(verb);
        assert_eq!(map["succeeded"], n.to_string(), "{verb}: {map:?}");
        assert!(!map.contains_key("stopped"), "{verb}: {map:?}");
    }
    server.shutdown();
}

#[test]
fn a_connection_after_shutdown_reads_a_typed_refusal() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let mut c = connect(&server);
    c.send("SHUTDOWN").expect("shutdown").expect_ok("SHUTDOWN");
    // The drain has begun but the listener stays up until
    // `Server::shutdown`: a late client is told to come back, not refused
    // by the kernel.
    let mut late = connect(&server);
    let err = late
        .read_reply()
        .expect("refusal delivered")
        .expect_err("late connection");
    assert_eq!(err.code, WireCode::ShuttingDown);
    assert!(err.retryable);
    assert!(err.retry_after_ms.is_some_and(|ms| ms > 0));
    server.shutdown();
}

#[test]
fn a_client_that_drops_mid_campaign_leaves_a_partial_checkpoint() {
    let dir = scratch_dir("campaign-disconnect");
    let server = Server::start(
        seed_catalog(),
        ServerConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let n: u64 = 4_000_000;
    let seed = chaos_seed();
    {
        let mut c = connect(&server);
        c.send(&format!("VG\n{DDL}")).expect("vg").expect_ok("VG");
        c.stream()
            .set_read_timeout(Some(Duration::from_millis(120)))
            .unwrap();
        let _ = c.send(&format!(
            "CAMPAIGN n={n} seed={seed} checkpoint=campaign.ckpt\n{MC_SQL}"
        ));
        // Read timed out (the run is long); drop the socket mid-campaign.
    }

    // The campaign's slice token carries the session's liveness probe, so
    // the run stops at a boundary and the session closes long before n
    // replicates could finish.
    let mut monitor = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = monitor.send("STATS").expect("stats").expect_ok("STATS");
        if stats["sessions_closed"].parse::<u64>().unwrap() >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never stopped the in-flight campaign"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let state = mde_numeric::CampaignState::load(&dir.join("campaign.ckpt"))
        .expect("partial campaign checkpointed");
    assert!(state.cursor > 0, "some replicates completed before the cut");
    assert!(
        state.cursor < n,
        "the disconnect stopped the campaign early (cursor {})",
        state.cursor
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_frames_are_answered_in_order() {
    let server = Server::start(seed_catalog(), ServerConfig::default()).expect("server starts");
    let mut c = connect(&server);
    for frame in [
        "HELLO tenant=pipelined",
        "SQL\nSELECT COUNT(*) AS N FROM ITEMS",
        "PING",
    ] {
        mde_server::proto::write_frame(c.stream(), frame).expect("frame written");
    }
    let hello = c.read_reply().expect("first reply").expect_ok("HELLO");
    assert_eq!(hello["tenant"], "pipelined");
    match c.read_reply().expect("second reply") {
        Reply::Table { rows, .. } => assert_eq!(rows, vec![vec!["8".to_string()]]),
        other => panic!("expected the SQL table second, got {other:?}"),
    }
    let pong = c.read_reply().expect("third reply").expect_ok("PING");
    assert_eq!(pong["pong"], "1");
    server.shutdown();
}
