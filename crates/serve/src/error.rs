//! The service's error type and its exit-code contract.

use std::fmt;

/// Any error the scenario service can produce.
///
/// The three variants partition failures by who must act:
///
/// * [`Parse`](ServeError::Parse) — the request line is not valid JSON or
///   not a valid request shape; the client must fix the request syntax.
/// * [`BadRequest`](ServeError::BadRequest) — the request parsed but its
///   semantics are invalid (unknown discipline, out-of-range parameter,
///   unknown experiment id). The CLI's scenario commands parse their
///   flags with the same field walk and print the same message, naming
///   the field `--name` where the wire names it `"name"`.
/// * [`Io`](ServeError::Io) — the transport failed (socket, stdin); the
///   operator must act.
///
/// Exit-code contract of `greednet serve` (mirrors `greednet-lint`'s
/// documented contract): exit 0 on a clean shutdown (EOF on stdin or a
/// `shutdown` request), exit 1 on a transport/runtime failure
/// (`ServeError` escaping the serve loop), exit 2 on bad command-line
/// usage. Per-request `Parse`/`BadRequest` failures never kill the
/// service: they are answered with an `error` record on the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Malformed request: invalid JSON or an invalid request shape.
    Parse(String),
    /// Semantically invalid request. Displays as the bare message so the
    /// CLI commands that share the data path keep their historical error
    /// strings byte-for-byte.
    BadRequest(String),
    /// Transport failure (socket or stdio).
    Io(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(msg) => write!(f, "parse error: {msg}"),
            ServeError::BadRequest(msg) => write!(f, "{msg}"),
            ServeError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_request_displays_bare_message() {
        let e = ServeError::BadRequest("unknown discipline 'x' (use fifo/fs/sp)".into());
        assert_eq!(e.to_string(), "unknown discipline 'x' (use fifo/fs/sp)");
    }

    #[test]
    fn parse_and_io_are_prefixed() {
        assert!(ServeError::Parse("x".into())
            .to_string()
            .starts_with("parse error:"));
        assert!(ServeError::Io("x".into())
            .to_string()
            .starts_with("io error:"));
    }
}
