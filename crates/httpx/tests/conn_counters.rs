//! `Conn` reads are counted in the metrics registry like the free-function
//! readers. This is its own test binary, so no other test touches the
//! process-global registry and the deltas are exact.

use pingmesh_httpx::{Conn, Request, Response};

fn counter(name: &str) -> u64 {
    pingmesh_obs::registry().counter(name).get()
}

#[tokio::test]
async fn keep_alive_exchange_counts_every_read() {
    const REQUESTS: u64 = 3;
    let before = [
        counter("pingmesh_httpx_requests_read_total"),
        counter("pingmesh_httpx_responses_read_total"),
        counter("pingmesh_httpx_read_errors_total"),
    ];
    let (client, server) = tokio::io::duplex(4096);
    let server = tokio::spawn(async move {
        let mut conn = Conn::new(server);
        // Serve until the client goes away; that final read is an error.
        while let Ok(req) = conn.read_request().await {
            let mut resp = Response::ok(req.path.into_bytes());
            resp.set_keep_alive();
            conn.queue_response(&resp);
            conn.flush().await.unwrap();
        }
    });
    let mut conn = Conn::new(client);
    for i in 0..REQUESTS {
        let mut req = Request::get(&format!("/q/{i}"));
        req.set_keep_alive();
        conn.queue_request(&req);
        conn.flush().await.unwrap();
        let resp = conn.read_response().await.unwrap();
        assert_eq!(resp.body, format!("/q/{i}").into_bytes());
    }
    drop(conn);
    server.await.unwrap();
    let after = [
        counter("pingmesh_httpx_requests_read_total"),
        counter("pingmesh_httpx_responses_read_total"),
        counter("pingmesh_httpx_read_errors_total"),
    ];
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        delta,
        [REQUESTS, REQUESTS, 1],
        "[requests, responses, errors]"
    );
}
