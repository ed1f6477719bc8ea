//! The measuring HTTP/1.1 client: one request per connection (what `ctnd`
//! serves today), with an instant taken at each step of the exchange.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No single response of the benchmark's workloads takes this long; a
/// silent daemon fails the operation instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// De-chunked body bytes.
    pub body: Vec<u8>,
}

/// One exchange with its client-side timeline.
#[derive(Debug)]
pub struct Exchange {
    pub response: Response,
    pub start: Instant,
    pub connected: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub last_byte: Instant,
}

pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> Result<Exchange, String> {
    let io = |what: &str, e: std::io::Error| format!("{method} {path}: {what}: {e}");
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| io("connect", e))?;
    let connected = Instant::now();
    stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| io("timeout", e))?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| io("timeout", e))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ctnd\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str("Connection: close\r\n\r\n");
    // Head and body leave in one write, so a small request is one segment.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message).map_err(|e| io("write", e))?;
    let written = Instant::now();

    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| io("read", e))?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(Instant::now);
        raw.extend_from_slice(&buf[..n]);
    }
    let last_byte = Instant::now();
    let response = parse_response(&raw).map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(Exchange {
        response,
        start,
        connected,
        written,
        first_byte: first_byte.unwrap_or(last_byte),
        last_byte,
    })
}

/// Splits a complete response (read to EOF) into status and body. A
/// `Content-Length` body must be complete and a chunked body must reach
/// its terminal chunk: a truncated response is an error, never a short
/// body, because the benchmark compares bodies byte for byte.
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad Content-Length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let rest = &raw[head_end + 4..];
    let body = if chunked {
        decode_chunked(rest)?
    } else if let Some(len) = content_length {
        if rest.len() < len {
            return Err(format!("body truncated: {} of {len} bytes", rest.len()));
        }
        rest[..len].to_vec()
    } else {
        rest.to_vec()
    };
    Ok(Response { status, body })
}

fn decode_chunked(mut rest: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("chunked body truncated in a size line")?;
        let size_line = std::str::from_utf8(&rest[..line_end])
            .map_err(|_| "chunk size is not UTF-8")?
            .split(';')
            .next()
            .unwrap_or_default()
            .trim();
        let size = usize::from_str_radix(size_line, 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        let end = size
            .checked_add(2)
            .filter(|&end| end <= rest.len())
            .ok_or("chunked body truncated in a chunk")?;
        out.extend_from_slice(&rest[..size]);
        rest = &rest[end..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_responses_are_framed_by_content_length() {
        let r = parse_response(
            b"HTTP/1.1 202 Accepted\r\ncontent-type: application/json\r\nContent-Length: 2\r\n\r\nhi",
        )
        .unwrap();
        assert_eq!((r.status, r.body.as_slice()), (202, b"hi".as_slice()));
        let r = parse_response(b"HTTP/1.1 404 Not Found\r\n\r\nuntil eof").unwrap();
        assert_eq!(
            (r.status, r.body.as_slice()),
            (404, b"until eof".as_slice())
        );
    }

    #[test]
    fn chunked_responses_are_reassembled() {
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2;ext=1\r\ncd\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, b"ab\ncd".as_slice()));
    }

    #[test]
    fn truncated_responses_are_errors_not_short_bodies() {
        for raw in [
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort".as_slice(),
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nab",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2",
            b"HTTP/1.1 zzz\r\n\r\n",
            b"not http\r\n\r\n",
            b"",
        ] {
            assert!(
                parse_response(raw).is_err(),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }
}
