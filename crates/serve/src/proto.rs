//! The line-based wire protocol between `fusesim serve` and its clients.
//!
//! Deliberately boring: one request per line, UTF-8 text, newline
//! terminated, so `nc <host> <port>` works as a debugging client (type
//! `AUTH <token>` as the first line) and the parser cannot be confused
//! by framing. A connection may issue any number of
//! requests; the server answers each in order.
//!
//! ```text
//! -> AUTH <token>                        (mandatory first line when the
//! <- OK                                   server was started with a token)
//! -> PING
//! <- PONG
//! -> SWEEP ATAX/Dy-FUSE ATAX/L1-SRAM
//! <- CELL ATAX/Dy-FUSE computed key=<32 hex> cycles=812345 instructions=460800
//! <- CELL ATAX/L1-SRAM cached key=<32 hex> cycles=901234 instructions=460800
//! <- DONE hits=1 misses=1 errors=0
//! -> STATS
//! <- STATS entries=42 bytes=123456 hits=84 misses=42 inserts=42 evictions=0 quarantined=0 coalesced=7 panics=0
//! -> SHUTDOWN
//! <- BYE
//! ```
//!
//! Two more server lines refuse a connection instead of answering: a
//! connection over the server's connection limit gets
//! `BUSY retry-after=<ms>` (the client backs off and retries), and a
//! connection that fails (or skips) a required `AUTH` gets a single
//! `ERR - …` line; both are then closed. A `SWEEP` is never refused for
//! its size: a full job queue only delays the reply (back-pressure).
//!
//! Cells are named `<workload>/<config>`; both halves are resolved by the
//! server's [`crate::server::CellBackend`], so clients never ship
//! configuration structs — the server's run configuration (and therefore
//! the [`crate::key::CellKey`]) is fixed at `fusesim serve` start.

use std::fmt::Write as _;

/// One requested cell: a workload row and an L1 configuration column,
/// both by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Workload name (e.g. `"ATAX"`).
    pub workload: String,
    /// Configuration column name (e.g. `"Dy-FUSE"`).
    pub config: String,
}

impl CellSpec {
    /// The `<workload>/<config>` wire token.
    pub fn token(&self) -> String {
        format!("{}/{}", self.workload, self.config)
    }

    /// Parses a `<workload>/<config>` token.
    ///
    /// # Errors
    ///
    /// Rejects tokens without exactly one `/` or with an empty half.
    pub fn parse(token: &str) -> Result<CellSpec, String> {
        let mut halves = token.split('/');
        match (halves.next(), halves.next(), halves.next()) {
            (Some(w), Some(c), None) if !w.is_empty() && !c.is_empty() => Ok(CellSpec {
                workload: w.to_string(),
                config: c.to_string(),
            }),
            _ => Err(format!("bad cell {token:?}: expected <workload>/<config>")),
        }
    }
}

/// A parsed client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Authenticate the connection with a shared token.
    Auth(String),
    /// Simulate-or-fetch a batch of cells.
    Sweep(Vec<CellSpec>),
    /// Report cache counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop the server after draining in-flight work.
    Shutdown,
}

/// The server's reply to a successful `AUTH`.
pub const AUTH_OK: &str = "OK";

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for unknown verbs, malformed cell
/// tokens, or an empty `SWEEP`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let mut words = line.split_ascii_whitespace();
    match words.next() {
        Some("PING") => Ok(Request::Ping),
        Some("STATS") => Ok(Request::Stats),
        Some("SHUTDOWN") => Ok(Request::Shutdown),
        Some("AUTH") => {
            let token = words.next().ok_or("AUTH needs a token")?;
            if words.next().is_some() {
                return Err("AUTH takes exactly one token".to_string());
            }
            Ok(Request::Auth(token.to_string()))
        }
        Some("SWEEP") => {
            let cells: Result<Vec<CellSpec>, String> = words.map(CellSpec::parse).collect();
            let cells = cells?;
            if cells.is_empty() {
                return Err("SWEEP needs at least one <workload>/<config> cell".to_string());
            }
            Ok(Request::Sweep(cells))
        }
        Some(verb) => Err(format!("unknown request {verb:?}")),
        None => Err("empty request".to_string()),
    }
}

/// The outcome of one cell in a `SWEEP` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellReply {
    /// Resolved to a result.
    Ok {
        /// The requested cell.
        spec: CellSpec,
        /// Answered from the cache (`cached`) or simulated (`computed`)?
        cached: bool,
        /// The cell's content digest.
        key: String,
        /// Simulated cycles — a cheap cross-check for clients.
        cycles: u64,
        /// Retired warp instructions.
        instructions: u64,
    },
    /// Could not be resolved (unknown name, backend failure).
    Err {
        /// The requested cell.
        spec: CellSpec,
        /// What went wrong.
        reason: String,
    },
}

impl CellReply {
    /// Renders the `CELL`/`ERR` response line (no trailing newline).
    pub fn line(&self) -> String {
        match self {
            CellReply::Ok {
                spec,
                cached,
                key,
                cycles,
                instructions,
            } => format!(
                "CELL {} {} key={key} cycles={cycles} instructions={instructions}",
                spec.token(),
                if *cached { "cached" } else { "computed" },
            ),
            CellReply::Err { spec, reason } => {
                format!("ERR {} {}", spec.token(), reason.replace('\n', " "))
            }
        }
    }
}

/// Renders the terminating `DONE` line of a sweep response.
pub fn done_line(hits: u64, misses: u64, errors: u64) -> String {
    format!("DONE hits={hits} misses={misses} errors={errors}")
}

/// Renders the connection-limit reply: the server has no handler
/// capacity for this connection, and the client should retry after
/// roughly `retry_after_ms` milliseconds.
pub fn busy_line(retry_after_ms: u64) -> String {
    format!("BUSY retry-after={retry_after_ms}")
}

/// Parses a [`busy_line`] reply, returning the suggested retry delay.
pub fn parse_busy(line: &str) -> Option<u64> {
    line.trim().strip_prefix("BUSY retry-after=")?.parse().ok()
}

/// Renders the `STATS` response line from a cache snapshot plus the
/// server's coalesced-request and isolated-panic counters.
pub fn stats_line(s: &crate::store::CacheStatsSnapshot, coalesced: u64, panics: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "STATS entries={} bytes={} hits={} misses={} inserts={} evictions={} quarantined={} coalesced={coalesced} panics={panics}",
        s.entries, s.bytes, s.hits, s.misses, s.inserts, s.evictions, s.quarantined,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        assert_eq!(parse_request("PING\n"), Ok(Request::Ping));
        assert_eq!(parse_request("  STATS  "), Ok(Request::Stats));
        assert_eq!(parse_request("SHUTDOWN"), Ok(Request::Shutdown));
        assert_eq!(
            parse_request("AUTH s3cr3t"),
            Ok(Request::Auth("s3cr3t".to_string()))
        );
        assert!(parse_request("AUTH").is_err(), "AUTH needs a token");
        assert!(
            parse_request("AUTH one two").is_err(),
            "AUTH takes one token"
        );
        assert_eq!(
            parse_request("SWEEP ATAX/Dy-FUSE BFS/L1-SRAM"),
            Ok(Request::Sweep(vec![
                CellSpec {
                    workload: "ATAX".to_string(),
                    config: "Dy-FUSE".to_string()
                },
                CellSpec {
                    workload: "BFS".to_string(),
                    config: "L1-SRAM".to_string()
                },
            ]))
        );
    }

    #[test]
    fn malformed_requests_are_messages_not_panics() {
        for bad in [
            "",
            "NOPE",
            "SWEEP",
            "SWEEP ATAX",
            "SWEEP a/b/c",
            "SWEEP /x",
            "SWEEP x/",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn reply_lines_have_the_documented_shape() {
        let spec = CellSpec::parse("ATAX/Dy-FUSE").unwrap();
        let ok = CellReply::Ok {
            spec: spec.clone(),
            cached: true,
            key: "ab".repeat(16),
            cycles: 7,
            instructions: 9,
        };
        assert_eq!(
            ok.line(),
            format!(
                "CELL ATAX/Dy-FUSE cached key={} cycles=7 instructions=9",
                "ab".repeat(16)
            )
        );
        let err = CellReply::Err {
            spec,
            reason: "no such\nworkload".to_string(),
        };
        assert_eq!(err.line(), "ERR ATAX/Dy-FUSE no such workload");
        assert_eq!(done_line(1, 2, 3), "DONE hits=1 misses=2 errors=3");
    }

    #[test]
    fn busy_lines_round_trip() {
        assert_eq!(busy_line(250), "BUSY retry-after=250");
        assert_eq!(parse_busy("BUSY retry-after=250"), Some(250));
        assert_eq!(parse_busy("BUSY retry-after=250\n"), Some(250));
        assert_eq!(parse_busy("BUSY"), None);
        assert_eq!(parse_busy("DONE hits=0 misses=0 errors=0"), None);
    }
}
