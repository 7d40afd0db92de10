//! Keep-alive framing: requests written back to back on one connection
//! parse as exactly those requests, in order, however their bodies look.

use ppet_serve::http::{read_request, HttpError, Request};
use proptest::prelude::*;

/// Bytes a body is drawn from: enough of a request head's alphabet that
/// a framing slip would parse the rest of a body as a request.
const BODY_BYTES: &[u8] = b"GET /x HTTP/1.1\r\n\r\nContent-Length: 9{}\"";

const PATHS: [&str; 4] = ["/compile", "/healthz", "/metrics", "/cache/00ff"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn back_to_back_keep_alive_requests_parse_as_sent(
        requests in collection::vec(
            (0usize..4, collection::vec(0usize..BODY_BYTES.len(), 0..48), any::<bool>()),
            1..8,
        ),
    ) {
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for (i, (path, body, with_id)) in requests.iter().enumerate() {
            let body: String = body.iter().map(|&b| char::from(BODY_BYTES[b])).collect();
            let method = if body.is_empty() { "GET" } else { "POST" };
            let request_id = with_id.then(|| format!("rid-{i}"));
            let mut head = format!(
                "{method} {} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n",
                PATHS[*path]
            );
            if let Some(id) = &request_id {
                head.push_str(&format!("X-Ppet-Request-Id: {id}\r\n"));
            }
            if !body.is_empty() {
                head.push_str(&format!("Content-Length: {}\r\n", body.len()));
            }
            wire.extend_from_slice(head.as_bytes());
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(body.as_bytes());
            sent.push(Request {
                method: method.to_owned(),
                path: PATHS[*path].to_owned(),
                body,
                request_id,
                keep_alive: true,
            });
        }
        let mut reader = wire.as_slice();
        for expected in &sent {
            prop_assert_eq!(&read_request(&mut reader, 1 << 10).unwrap(), expected);
        }
        prop_assert!(matches!(read_request(&mut reader, 1 << 10), Err(HttpError::Io(_))));
    }
}
