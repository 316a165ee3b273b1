//! `ingest_stream`: writes beside reads.
//!
//! Two connections each stream sessions back to back. A session appends a
//! trace in 256-record chunks (the daemon re-fits and registers a version
//! every 32), finalizes, lists the versions, fetches the final artifact and
//! replays its first version. The timed operation is one `/append`; the
//! other requests count toward `records_per_s` and `cpu_s_per_kop` only.
//! The two connections never share a session, so whatever one waits for
//! the other is the store-global ingest lock.

use std::path::Path;
use std::time::Instant;

use serde::Value;

use ibox::{fit_model, ModelKind, PathModel};
use ibox_sim::SimTime;
use ibox_trace::FlowTrace;

use crate::gen::{
    first_append_body, session_id, session_meta, session_replay_body, Plan, SessionTrace,
    CHUNK_RECORDS, INGEST_CONNECTIONS, REFIT_EVERY_CHUNKS, SESSION_REPLAY_SECS,
};
use crate::harness::{cpu_seconds, whole_passes, Client, Daemon, Expected, Outcome};

/// What a correctly ingested session of one pool trace looks like.
pub struct SessionReference {
    /// `serde_json::to_string` of an offline one-shot `fit_model` of the
    /// whole trace — what the final artifact's `model` field must equal.
    pub final_model_json: String,
    /// Versions the lineage must list: one per cadence refit, plus the
    /// finalize.
    pub versions: u64,
    /// The closing replay of version 1 (fitted on the first 32 chunks).
    pub replay: Expected,
}

impl SessionReference {
    /// Compute the reference of one pool trace offline.
    pub fn of(s: &SessionTrace) -> SessionReference {
        let final_model = fit_model(&ModelKind::IBoxNet, &s.trace);
        let final_model_json =
            serde_json::to_string(&final_model).expect("fitted models serialize");
        let chunks = s.trace.len().div_ceil(CHUNK_RECORDS) as u64;
        let first_refit = (REFIT_EVERY_CHUNKS as usize * CHUNK_RECORDS).min(s.trace.len());
        let prefix = FlowTrace::from_records(
            s.trace.meta.clone(),
            s.trace.records()[..first_refit].to_vec(),
        );
        let v1 = fit_model(&ModelKind::IBoxNet, &prefix);
        let replay =
            v1.simulate(s.replay_protocol, SimTime::from_secs(SESSION_REPLAY_SECS), s.replay_seed);
        let replay_json = serde_json::to_string(&replay).expect("traces serialize");
        SessionReference {
            final_model_json,
            versions: chunks / REFIT_EVERY_CHUNKS + 1,
            replay: Expected::of(replay_json.as_bytes(), replay.len() as u64),
        }
    }
}

/// `ingest_stream`, set up.
pub struct PreparedIngest {
    /// The generated plan (its `sessions` pool).
    pub plan: Plan,
    /// The reference of each pool trace.
    pub refs: Vec<SessionReference>,
    /// Number of the next session each connection streams; session ids
    /// are never reused within one daemon.
    next_session: usize,
    /// The daemon.
    pub daemon: Daemon,
}

fn ok_json(status: u16, reply: &[u8]) -> Result<Value, String> {
    let text = String::from_utf8_lossy(reply);
    if status != 200 {
        return Err(format!("status {status}: {}", &text[..text.len().min(200)]));
    }
    serde_json::parse_value(&text).map_err(|e| format!("reply is not json: {e}"))
}

fn field_is(v: &Value, name: &str, want: &Value) -> Result<(), String> {
    match v.get(name) {
        Some(got) if got == want => Ok(()),
        other => Err(format!("field {name:?} is {other:?}, expected {want:?}")),
    }
}

/// Stream session number `n` of connection `conn` and verify every reply.
fn stream_session(
    client: &mut Client,
    conn: usize,
    n: usize,
    s: &SessionTrace,
    reference: &SessionReference,
    out: &mut Outcome,
) -> Result<(), String> {
    let id = session_id(conn, n);
    let append_path = format!("/traces/{id}/append");
    let first = first_append_body(&s.trace, &session_meta(conn, n));
    let mut offset = 0usize;
    for body in std::iter::once(&first).chain(&s.tail_bodies) {
        let len = CHUNK_RECORDS.min(s.trace.len() - offset);
        let (status, reply, ms) = client.request("POST", &append_path, Some(body))?;
        out.latencies_ms.push(ms);
        offset += len;
        out.count(ok_json(status, &reply).and_then(|v| {
            field_is(&v, "outcome", &Value::Str("accepted".into()))?;
            field_is(&v, "next_offset", &Value::U64(offset as u64))?;
            Ok(len as u64)
        }));
    }

    let (status, reply, _) = client.request("POST", &format!("/traces/{id}/finalize"), None)?;
    out.count(ok_json(status, &reply).and_then(|v| {
        field_is(&v, "records", &Value::Str(s.trace.len().to_string()))?;
        field_is(&v, "fit_seq", &Value::Str(reference.versions.to_string()))?;
        Ok(0)
    }));

    let (status, reply, _) = client.request("GET", &format!("/models/{id}/versions"), None)?;
    out.count(ok_json(status, &reply).and_then(|v| {
        let seqs: Vec<Option<&Value>> =
            v.as_array().unwrap_or(&[]).iter().map(|row| row.get("fit_seq")).collect();
        let want: Vec<Value> = (1..=reference.versions).map(Value::U64).collect();
        if seqs.len() == want.len() && seqs.iter().zip(&want).all(|(got, w)| *got == Some(w)) {
            Ok(0)
        } else {
            Err(format!("lineage lists fit_seqs {seqs:?}, expected 1..={}", reference.versions))
        }
    }));

    let (status, reply, _) = client.request("GET", &format!("/models/{id}"), None)?;
    out.count(ok_json(status, &reply).and_then(|v| {
        let model = v.get("model").ok_or("artifact has no \"model\" field")?;
        let json = serde_json::to_string(model).map_err(|e| e.to_string())?;
        if json == reference.final_model_json {
            Ok(0)
        } else {
            Err("final artifact differs from an offline one-shot fit of the same trace".into())
        }
    }));

    let replay = session_replay_body(&id, s);
    let (status, reply, _) = client.request("POST", "/replay", Some(&replay))?;
    out.count(reference.replay.check(status, &reply).map(|()| reference.replay.records));
    Ok(())
}

/// Sessions connection `conn` streams, in order: it walks the pool from
/// its own offset so the two connections never stream the same pool trace
/// at the same time.
fn pool_index(conn: usize, n: usize, pool: usize) -> usize {
    (conn * pool / INGEST_CONNECTIONS + n) % pool
}

/// The timed window: every connection streams whole sessions at once,
/// each until `seconds` have passed since the common start (at least one
/// session each).
pub fn run(p: &mut PreparedIngest, spanning: bool, seconds: f64) -> Result<Outcome, String> {
    let pool = &p.plan.sessions;
    let first_n = p.next_session;
    let (addr, refs) = (&p.daemon.addr, &p.refs);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let per_conn: Vec<Result<(Outcome, usize), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..INGEST_CONNECTIONS)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr, spanning)?;
                    let mut out = Outcome::default();
                    let mut n = first_n;
                    whole_passes(t0, seconds, || {
                        let k = pool_index(conn, n, pool.len());
                        n += 1;
                        stream_session(&mut client, conn, n - 1, &pool[k], &refs[k], &mut out)
                    })?;
                    out.spans = client.into_spans();
                    Ok((out, n))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let mut out = Outcome::default();
    for conn in per_conn {
        let (conn_out, next) = conn?;
        out.absorb(conn_out);
        p.next_session = p.next_session.max(next);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = cpu_seconds() - cpu0;
    Ok(out)
}

/// Set `ingest_stream` up: references, daemon, one verified warm-up
/// session per connection.
pub fn prepare(plan: Plan, scratch: &Path) -> Result<PreparedIngest, String> {
    let refs = plan.sessions.iter().map(SessionReference::of).collect();
    let daemon = Daemon::start(scratch)?;
    let mut prepared = PreparedIngest { plan, refs, next_session: 0, daemon };
    let warm = run(&mut prepared, false, 0.0)?;
    match warm.first_failure {
        Some(why) => Err(format!("warm-up session failed: {why}")),
        None => Ok(prepared),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_walk_disjoint_parts_of_the_pool() {
        for n in 0..20 {
            assert_ne!(pool_index(0, n, 8), pool_index(1, n, 8));
        }
        assert_eq!(pool_index(1, 5, 8), 1);
    }
}
