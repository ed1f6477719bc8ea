//! A hand-rolled, minimal HTTP/1.1 layer on blocking streams.
//!
//! The vendored-deps constraint rules out tokio/hyper, and the daemon
//! needs very little: parse one request (request line, headers,
//! `Content-Length` body), write one response, and stream progress with
//! chunked transfer encoding. Every connection is single-shot — the
//! daemon answers with `Connection: close` and closes, which keeps the
//! connection pool's bookkeeping trivial.
//!
//! The callers are sweep scripts submitting runs that simulate in a
//! tenth of a millisecond, so a response costs what its bytes cost and
//! no more: the sockets are `TCP_NODELAY` and unbuffered, where every
//! `write` is a system call and a segment, so whatever goes out
//! together — a response's head and body, a stream's head with the
//! chunks ready when it is served, the last chunks with the terminator —
//! is assembled in one buffer and leaves in one `write`. (Keep-alive
//! would save the two reconnects an operation still pays; it waits for a
//! benchmark client that can hold a connection.)
//!
//! The parser is strict where it is cheap to be (CRLF line endings, one
//! space between request-line tokens, `HTTP/1.x` versions only) and
//! bounded everywhere (header block and body size caps), so a hostile
//! peer cannot balloon memory.

use std::io::{self, Read, Write};

/// Header block beyond this size is rejected (414/431-class abuse).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parse/IO failure while reading a request, mapped to the status the
/// server answers with.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request (syntax, unsupported framing): answer 400.
    BadRequest(String),
    /// Body longer than the server's cap: answer 413.
    BodyTooLarge,
    /// The underlying stream failed (timeout, reset): no answer possible.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Percent-decoded path without the query string.
    pub path: String,
    /// Decoded `key=value` query pairs, in order.
    pub query: Vec<(String, String)>,
    /// Headers as `(lower-case name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads and parses one request from `stream`. The stream must be
/// readable *and* writable: when the client sent `Expect:
/// 100-continue`, the interim `100 Continue` response is written before
/// the body is read (otherwise curl stalls a second before sending it).
pub fn read_request<S: Read + Write>(
    stream: &mut S,
    max_body: usize,
) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut tmp = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("header block too large".into()));
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before headers completed".into(),
            ));
        }
        buf.extend_from_slice(&tmp[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("headers are not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::BadRequest(
            "chunked request bodies are not supported; send Content-Length".into(),
        ));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => decimal_u64(v)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?,
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    if body.len() < content_length
        && headers
            .iter()
            .any(|(n, v)| n == "expect" && v.to_ascii_lowercase().contains("100-continue"))
    {
        stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        stream.flush()?;
    }
    while body.len() < content_length {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Err(HttpError::BadRequest(
                "connection closed before body completed".into(),
            ));
        }
        body.extend_from_slice(&tmp[..n]);
    }
    body.truncate(content_length);

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| HttpError::BadRequest("malformed percent-encoding in path".into()))?;
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            let (Some(k), Some(v)) = (percent_decode(k), percent_decode(v)) else {
                return Err(HttpError::BadRequest(
                    "malformed percent-encoding in query".into(),
                ));
            };
            query.push((k, v));
        }
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// A decimal integer off the wire (`Content-Length`, a run id, a query
/// value): digits only. `str::parse` alone would also take a leading `+`.
pub(crate) fn decimal_u64(raw: &str) -> Option<u64> {
    raw.parse()
        .ok()
        .filter(|_| raw.bytes().all(|b| b.is_ascii_digit()))
}

/// Index of the `\r\n\r\n` separating headers from body, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Decodes `%XX` sequences and `+`-as-space; `None` on malformed or
/// non-UTF-8 results.
fn percent_decode(input: &str) -> Option<String> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Two hex digits (`from_str_radix` would also take `+5`).
                let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
                let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// The standard reason phrase for the status codes the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One non-streaming response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers beyond the always-present set.
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Writes the response with `Content-Length` framing and
    /// `Connection: close`, head and body in one `write`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut wire = Vec::with_capacity(128 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(wire, "{name}: {value}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&self.body);
        w.write_all(&wire)?;
        w.flush()
    }
}

/// Writes a `Transfer-Encoding: chunked` response incrementally — the
/// transport behind `GET /v1/runs/{id}/events`. The head and the chunks
/// are buffered, and each [`ChunkedWriter::send`] writes all that is
/// pending in one `write`; [`ChunkedWriter::finish`] does the same with
/// the terminating chunk appended. So a head goes out with the first
/// chunks, and the last chunks with the terminator: a response whose
/// chunks are all known up front is one `write`.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
    pending: Vec<u8>,
}

impl<W: Write> ChunkedWriter<W> {
    /// Buffers the response head and returns the chunk writer.
    pub fn start(w: W, status: u16, content_type: &str) -> io::Result<Self> {
        let mut pending = Vec::with_capacity(256);
        write!(
            pending,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type
        )?;
        Ok(ChunkedWriter { w, pending })
    }

    /// Buffers one chunk (empty input is skipped — a zero-length chunk
    /// would terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.pending, "{:x}\r\n", data.len())?;
        self.pending.extend_from_slice(data);
        self.pending.extend_from_slice(b"\r\n");
        Ok(())
    }

    /// Writes whatever is pending in one `write` and flushes, so the
    /// client sees it now.
    pub fn send(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.w.write_all(&self.pending)?;
            self.pending.clear();
        }
        self.w.flush()
    }

    /// Writes whatever is pending and the terminating zero chunk, in one
    /// `write`.
    pub fn finish(mut self) -> io::Result<()> {
        self.pending.extend_from_slice(b"0\r\n\r\n");
        self.send()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory Read+Write stream for parser tests. Input arrives
    /// in segments: each `read` drains at most the front segment, so a
    /// two-segment stream models a client that sends its body only
    /// after the head (the `Expect: 100-continue` dance).
    struct Fake {
        segments: Vec<Vec<u8>>,
        output: Vec<u8>,
        writes: usize,
    }

    impl Fake {
        fn new(input: &str) -> Self {
            Fake::segmented(&[input.as_bytes()])
        }

        fn segmented(parts: &[&[u8]]) -> Self {
            Fake {
                segments: parts.iter().map(|p| p.to_vec()).collect(),
                output: Vec::new(),
                writes: 0,
            }
        }
    }

    impl Read for Fake {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            while let Some(front) = self.segments.first_mut() {
                if front.is_empty() {
                    self.segments.remove(0);
                    continue;
                }
                let n = front.len().min(buf.len());
                buf[..n].copy_from_slice(&front[..n]);
                front.drain(..n);
                return Ok(n);
            }
            Ok(0)
        }
    }

    impl Write for Fake {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            self.writes += 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let mut s = Fake::new(
            "GET /v1/runs/7?deadline_ms=1500&note=a%20b+c HTTP/1.1\r\nHost: x\r\nX-Weird:  padded \r\n\r\n",
        );
        let req = read_request(&mut s, 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/runs/7");
        assert_eq!(req.query_param("deadline_ms"), Some("1500"));
        assert_eq!(req.query_param("note"), Some("a b c"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("x-weird"), Some("padded"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_answers_expect_continue() {
        let mut s = Fake::new(
            "POST /v1/runs HTTP/1.1\r\nContent-Length: 11\r\nExpect: 100-continue\r\n\r\nhello world",
        );
        let req = read_request(&mut s, 1024).unwrap();
        assert_eq!(req.body, b"hello world");
        // The body arrived with the head here, so no interim response
        // was needed.
        assert!(s.output.is_empty());

        // Body *not* yet sent: the parser must emit 100 Continue first.
        let head = "POST /v1/runs HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n";
        let mut s = Fake::segmented(&[head.as_bytes(), b"ok"]);
        let req = read_request(&mut s, 1024).unwrap();
        assert_eq!(req.body, b"ok");
        assert_eq!(s.output, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET /x HTTP/1.1\r\nNo-colon-here\r\n\r\n",
            "GET /x%GG HTTP/1.1\r\n\r\n",
            "GET /x%+5 HTTP/1.1\r\n\r\n",
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        ] {
            let mut s = Fake::new(bad);
            assert!(
                matches!(read_request(&mut s, 1024), Err(HttpError::BadRequest(_))),
                "accepted {bad:?}"
            );
        }
        let mut s = Fake::new("POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\n");
        assert!(matches!(
            read_request(&mut s, 10),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn response_and_chunked_writer_frame_correctly() {
        // The bytes are pinned verbatim, and so is each `write`: on the
        // daemon's unbuffered `TCP_NODELAY` sockets a `write` is a system
        // call and a segment.
        let mut out = Fake::new("");
        Response::json(429, "{\"error\": \"queue full\"}".to_string())
            .with_header("Retry-After", "1")
            .write_to(&mut out)
            .unwrap();
        assert_eq!(
            String::from_utf8(out.output).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 23\r\nConnection: close\r\nRetry-After: 1\r\n\r\n\
             {\"error\": \"queue full\"}"
        );
        assert_eq!(out.writes, 1);

        let mut out = Fake::new("");
        let mut cw = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        let mut writes = vec![cw.w.writes];
        for data in [&b"{\"event\":\"x\"}\n"[..], b"", b"0123456789abcdefg", b"z"] {
            cw.chunk(data).unwrap();
            writes.push(cw.w.writes);
        }
        cw.finish().unwrap();
        // The empty chunk is skipped, not written as a terminator. Head
        // and chunks wait in the buffer, and `finish` writes them with
        // the terminator: a stream known up front is one `write`.
        assert_eq!(writes, [0, 0, 0, 0, 0]);
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.output).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
             e\r\n{\"event\":\"x\"}\n\r\n11\r\n0123456789abcdefg\r\n1\r\nz\r\n0\r\n\r\n"
        );
    }
}
