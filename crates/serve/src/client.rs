//! Retrying line-protocol client.
//!
//! `fusesim submit` (and the `serve_load` bench) drive the service
//! through this module: one [`request`] call dials the endpoint,
//! authenticates if a token is configured, sends one request line and
//! collects the response lines up to the protocol's terminal line.
//! Transient failures — connect errors, I/O deadlines, a `BUSY` reply
//! from a server at its connection limit — are retried with exponential
//! backoff (a `BUSY` carries its own `retry-after` hint, which is honored
//! when it is longer than the backoff). A full job queue never answers
//! `BUSY`; it only delays the reply. Authentication rejection is *not*
//! retried: a wrong token stays wrong.
//!
//! Retrying a `SWEEP` mid-flight is safe by construction: cells are
//! content-addressed and coalesced server-side, so a re-submitted batch
//! costs cache lookups, never duplicate simulations.

use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use crate::proto;
use crate::transport::{Conn, Endpoint};

/// How a client dials and retries.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Where the service listens.
    pub endpoint: Endpoint,
    /// Shared token sent as the `AUTH` preamble (mandatory against a
    /// `fusesim serve` server; `None` skips the preamble).
    pub auth_token: Option<String>,
    /// Per-attempt connect and I/O deadline.
    pub io_timeout: Duration,
    /// Additional attempts after the first; connect errors, I/O
    /// failures and `BUSY` refusals all consume one.
    pub retries: u32,
    /// First retry delay; doubles per retry. A `BUSY retry-after`
    /// longer than the current backoff takes precedence.
    pub backoff: Duration,
}

impl ClientConfig {
    /// Defaults: 30 s deadline, 3 retries, 50 ms initial backoff, no
    /// auth token.
    pub fn new(endpoint: Endpoint) -> ClientConfig {
        ClientConfig {
            endpoint,
            auth_token: None,
            io_timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

/// One attempt's outcome, before retry policy is applied.
enum Attempt {
    /// Full response collected (terminal line included).
    Done(Vec<String>),
    /// The server refused the connection; retry after the given hint.
    Busy(u64),
}

/// An attempt failure, split by whether retrying can help.
struct AttemptError {
    fatal: bool,
    message: String,
}

impl AttemptError {
    fn transient(message: String) -> AttemptError {
        AttemptError {
            fatal: false,
            message,
        }
    }

    fn fatal(message: String) -> AttemptError {
        AttemptError {
            fatal: true,
            message,
        }
    }
}

/// Sends one request line and returns the full response (terminal line
/// included), applying the retry policy in `cfg`.
///
/// # Errors
///
/// Authentication rejection (immediately), or the last transient
/// failure once the retry budget is exhausted.
pub fn request(cfg: &ClientConfig, line: &str) -> Result<Vec<String>, String> {
    let mut delay = cfg.backoff;
    let mut last = String::new();
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
        match attempt_once(cfg, line) {
            Ok(Attempt::Done(lines)) => return Ok(lines),
            Ok(Attempt::Busy(retry_after_ms)) => {
                last = format!("server busy (retry-after={retry_after_ms}ms)");
                delay = delay.max(Duration::from_millis(retry_after_ms));
            }
            Err(e) if e.fatal => return Err(e.message),
            Err(e) => last = e.message,
        }
    }
    Err(format!(
        "request to {} failed after {} attempt(s): {last}",
        cfg.endpoint.describe(),
        cfg.retries + 1
    ))
}

fn attempt_once(cfg: &ClientConfig, line: &str) -> Result<Attempt, AttemptError> {
    let writer = cfg.endpoint.connect(cfg.io_timeout).map_err(|e| {
        AttemptError::transient(format!("connecting to {}: {e}", cfg.endpoint.describe()))
    })?;
    writer
        .set_read_timeout(Some(cfg.io_timeout))
        .and_then(|()| writer.set_write_timeout(Some(cfg.io_timeout)))
        .map_err(|e| AttemptError::transient(format!("setting deadlines: {e}")))?;
    let mut reader = BufReader::new(
        writer
            .try_clone()
            .map_err(|e| AttemptError::transient(format!("cloning connection: {e}")))?,
    );
    let mut writer = writer;
    if let Some(token) = &cfg.auth_token {
        send(&mut writer, &format!("AUTH {token}"))?;
        let reply = read_line(&mut reader)?;
        if let Some(ms) = proto::parse_busy(&reply) {
            return Ok(Attempt::Busy(ms));
        }
        if reply != proto::AUTH_OK {
            return Err(AttemptError::fatal(format!(
                "authentication rejected by {}: {reply}",
                cfg.endpoint.describe()
            )));
        }
    }
    send(&mut writer, line)?;
    let mut lines = Vec::new();
    loop {
        let reply = read_line(&mut reader)?;
        if lines.is_empty() {
            if let Some(ms) = proto::parse_busy(&reply) {
                return Ok(Attempt::Busy(ms));
            }
        }
        let terminal = is_terminal(&reply);
        lines.push(reply);
        if terminal {
            return Ok(Attempt::Done(lines));
        }
    }
}

fn send(writer: &mut Conn, line: &str) -> Result<(), AttemptError> {
    writeln!(writer, "{line}")
        .and_then(|()| writer.flush())
        .map_err(|e| AttemptError::transient(format!("sending request: {e}")))
}

fn read_line(reader: &mut BufReader<Conn>) -> Result<String, AttemptError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err(AttemptError::transient(
            "connection closed by server".to_string(),
        )),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(AttemptError::transient(format!("reading response: {e}"))),
    }
}

/// The lines that end a response: `DONE` (sweep), `PONG`, `BYE`,
/// `STATS` and request-level `ERR - ` (per-cell `ERR <cell>` lines are
/// followed by more cells and a `DONE`).
fn is_terminal(line: &str) -> bool {
    line.starts_with("DONE")
        || line == "PONG"
        || line == "BYE"
        || line.starts_with("STATS")
        || line.starts_with("ERR - ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_lines_match_the_protocol() {
        assert!(is_terminal("DONE hits=1 misses=0 errors=0"));
        assert!(is_terminal("PONG"));
        assert!(is_terminal("BYE"));
        assert!(is_terminal("STATS entries=0 bytes=0"));
        assert!(is_terminal("ERR - unknown request \"NOPE\""));
        assert!(!is_terminal(
            "CELL ATAX/Dy-FUSE cached key=ab cycles=1 instructions=1"
        ));
        assert!(
            !is_terminal("ERR ATAX/Dy-FUSE unknown workload"),
            "per-cell errors are followed by more lines"
        );
    }
}
