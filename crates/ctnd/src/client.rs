//! A minimal blocking HTTP/1.1 client — for the daemon's own tests,
//! benches and smoke checks, not a general-purpose client.
//!
//! One request per connection (the daemon answers `Connection: close`),
//! `Content-Length` request framing, and response bodies read to EOF
//! with chunked transfer decoding when the server streamed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One decoded response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers as `(lower-case name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The body, chunked-decoded when the server streamed it.
    pub body: String,
}

impl HttpResponse {
    /// First header with this lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Performs one request and reads the full response (blocking until
/// the server closes — for `/events` that is when the run finishes).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Generous cap: a queued run behind a long one can keep /events
    // quiet for a while; the daemon's own keep-alive is the 1s condvar
    // recheck, so a healthy stream never stays silent longer than that.
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    // Head and body leave in one write: on a `TCP_NODELAY` stream each
    // write is a segment, and a read on the daemon's side.
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: ctnd\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(ct) = content_type {
        wire.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    wire.push_str("Connection: close\r\n\r\n");
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire)?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body_bytes = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        decode_chunked(body_bytes)?
    } else {
        body_bytes.to_vec()
    };
    Ok(HttpResponse {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| "response body is not UTF-8")?,
    })
}

fn decode_chunked(mut rest: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size line")?;
        let size_line =
            std::str::from_utf8(&rest[..line_end]).map_err(|_| "chunk size is not UTF-8")?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk body".to_string());
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_plain_and_chunked_responses() {
        let plain =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\nhi";
        let resp = parse_response(plain).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, "hi");

        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n";
        let resp = parse_response(chunked).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "ab\ncd");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 zzz\r\n\r\n").is_err());
        assert!(
            parse_response(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n").is_err()
        );
    }
}
