//! A minimal HTTP/1.1 keep-alive client: one persistent connection, reopened
//! when the server closes it (the server caps requests per connection).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body text.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// A client holding at most one open connection to the server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    /// Send one request and read its whole response.
    ///
    /// A reused connection that the server closed while idle yields no
    /// response byte at all; the request was then never read, so it is sent
    /// once more over a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, String> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body) {
            Ok(response) => Ok(response),
            Err(Failure::Closed) if reused => {
                self.conn = None;
                self.try_request(method, path, body)
                    .map_err(Failure::into_message)
            }
            Err(failure) => {
                self.conn = None;
                Err(failure.into_message())
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, Failure> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)
                .map_err(|err| Failure::Other(format!("connect: {err}")))?;
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|err| Failure::Other(format!("set timeout: {err}")))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        let body = body.unwrap_or("");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Length: {}\r\n",
            body.len()
        );
        if !body.is_empty() {
            request.push_str("Content-Type: application/json\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        conn.get_mut()
            .write_all(request.as_bytes())
            .map_err(|_| Failure::Closed)?;

        let mut line = String::new();
        match conn.read_line(&mut line) {
            Ok(0) | Err(_) if line.is_empty() => return Err(Failure::Closed),
            Ok(_) => {}
            Err(err) => return Err(Failure::Other(format!("read status: {err}"))),
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| Failure::Other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            conn.read_line(&mut line)
                .map_err(|err| Failure::Other(format!("read header: {err}")))?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(Failure::Other(format!("bad header {header:?}")));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .parse()
                    .map_err(|_| Failure::Other(format!("bad content-length {value:?}")))?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut bytes = vec![0u8; length];
        conn.read_exact(&mut bytes)
            .map_err(|err| Failure::Other(format!("read body: {err}")))?;
        if close {
            self.conn = None;
        }
        let body =
            String::from_utf8(bytes).map_err(|_| Failure::Other("body is not UTF-8".into()))?;
        Ok(Response { status, body })
    }
}

enum Failure {
    /// The connection was gone before any response byte arrived.
    Closed,
    Other(String),
}

impl Failure {
    fn into_message(self) -> String {
        match self {
            Failure::Closed => "connection closed before a response".to_string(),
            Failure::Other(message) => message,
        }
    }
}
