//! Round-trip latency on loopback. A request line and its response must
//! each leave in one write: a separate write for the trailing newline sits
//! in Nagle's buffer until the peer's delayed ACK, about 40 ms per round
//! trip.

mod common;

use cme_serve::client::{Client, ClientConfig, Endpoint, Idempotency};
use cme_serve::ServerConfig;
use std::time::Instant;

#[test]
fn sequential_pings_round_trip_without_nagle_stalls() {
    let (server, addr, listener) = common::start_server(ServerConfig::default());
    let mut client = Client::new(ClientConfig::new(Endpoint::Tcp(addr.to_string())));
    let mut rtts_ms: Vec<f64> = (0..50)
        .map(|i| {
            let line = format!(r#"{{"op":"ping","id":"p{i}"}}"#);
            let t = Instant::now();
            let response = client
                .exchange(&line, Idempotency::Idempotent)
                .expect("ping");
            assert!(response.contains("pong"), "{response}");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtts_ms.sort_by(f64::total_cmp);
    let median = rtts_ms[rtts_ms.len() / 2];
    assert!(
        median < 10.0,
        "median ping round trip {median:.1} ms: {rtts_ms:?}"
    );
    common::shutdown(&server, addr, listener);
}
