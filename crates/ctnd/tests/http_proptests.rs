//! Property tests of `ctnd::http::read_request` over an in-memory peer:
//! on arbitrary bytes and on HTTP-shaped requests, delivered in partial
//! reads, the parser returns a request or a typed [`HttpError`], never
//! panics, never hands back a body longer than `max_body`, and reads no
//! more than a bounded head plus that body.

use ctnd::http::{read_request, HttpError};
use proptest::prelude::*;
use std::io::{self, Read, Write};

/// The parser's header-block cap plus one read buffer: the most head it
/// can take in before it answers `header block too large`.
const HEAD_READ_BOUND: usize = 16 * 1024 + 1024;

/// A peer that sends `input` at most `chunk` bytes per read, the way a
/// socket delivers partial reads, then end-of-stream; writes are kept.
struct Peer {
    input: Vec<u8>,
    pos: usize,
    chunk: usize,
    written: Vec<u8>,
}

impl Read for Peer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Peer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Parses `input` and checks everything that must hold whatever it was.
fn check(input: Vec<u8>, chunk: usize, max_body: usize) -> Result<(), TestCaseError> {
    let mut peer = Peer {
        input,
        pos: 0,
        chunk,
        written: Vec::new(),
    };
    match read_request(&mut peer, max_body) {
        Ok(request) => {
            prop_assert!(request.body.len() <= max_body);
            let declared = request
                .header("content-length")
                .map_or(Ok(0), str::parse::<usize>);
            prop_assert_eq!(declared, Ok(request.body.len()));
        }
        Err(HttpError::BadRequest(message)) => prop_assert!(!message.is_empty()),
        Err(HttpError::BodyTooLarge | HttpError::Io(_)) => {}
    }
    prop_assert!(peer.pos <= HEAD_READ_BOUND + max_body + 1024);
    prop_assert!(
        peer.written.is_empty() || peer.written == b"HTTP/1.1 100 Continue\r\n\r\n",
        "wrote {:?}",
        String::from_utf8_lossy(&peer.written)
    );
    Ok(())
}

const METHODS: &[&str] = &["GET", "POST", "DELETE", "", "G T", "get"];
const TARGETS: &[&str] = &[
    "/v1/runs",
    "/v1/runs/1?seed=5&deadline_ms=10",
    "/%",
    "/%4",
    "/%zz",
    "/%C3%A9",
    "/%FF",
    "/a+b?x=%2B1&&=&k",
    "?",
    "",
];
const VERSIONS: &[&str] = &["HTTP/1.1", "HTTP/1.0", "HTTP/2", "", "HTTP/1.1 extra"];
const HEADERS: &[&str] = &[
    "Host: localhost",
    "Content-Type: application/toml",
    "Content-Length: 0",
    "Content-Length: 5",
    "Content-Length: 64",
    "content-length:100",
    "Content-Length: +5",
    "Content-Length: -1",
    "Content-Length: ",
    "Content-Length: 18446744073709551616",
    "Content-Length: 99999999999",
    "Transfer-Encoding: chunked",
    "Transfer-Encoding: identity",
    "Expect: 100-continue",
    "no colon here",
    ": empty name",
    "X-\u{e9}: \u{ff}",
];
const LINE_ENDS: &[&str] = &["\r\n", "\n", "\r"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_request_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..2048,
        max_body in 0usize..2048,
    ) {
        check(bytes, chunk, max_body)?;
    }

    /// A request line and up to eight headers drawn from the cases the
    /// parser distinguishes, mostly `\r\n`-terminated, then a body of any
    /// length: requests that get past the head and exercise the
    /// `Content-Length`, `Expect` and percent-decoding branches.
    #[test]
    fn read_request_is_total_on_http_shaped_requests(
        line in (0usize..METHODS.len(), 0usize..TARGETS.len(), 0usize..VERSIONS.len()),
        headers in prop::collection::vec((0usize..HEADERS.len(), 0usize..8), 0..8),
        body in prop::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..64,
        max_body in 0usize..128,
    ) {
        let mut text = format!("{} {} {}\r\n", METHODS[line.0], TARGETS[line.1], VERSIONS[line.2]);
        for (header, end) in headers {
            // Six in eight headers end properly.
            text.push_str(HEADERS[header]);
            text.push_str(LINE_ENDS[end.saturating_sub(5)]);
        }
        text.push_str("\r\n");
        let mut input = text.into_bytes();
        input.extend_from_slice(&body);
        check(input, chunk, max_body)?;
    }
}

#[test]
fn an_endless_head_is_refused_after_a_bounded_read() {
    let mut peer = Peer {
        input: b"GET / HTTP/1.1\r\nX: "
            .iter()
            .chain(&[b'a'; 100_000])
            .copied()
            .collect(),
        pos: 0,
        chunk: 4096,
        written: Vec::new(),
    };
    match read_request(&mut peer, 1024) {
        Err(HttpError::BadRequest(message)) => assert!(message.contains("too large"), "{message}"),
        other => panic!("{other:?}"),
    }
    assert!(peer.pos <= HEAD_READ_BOUND, "read {} bytes", peer.pos);
}
