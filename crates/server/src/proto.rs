//! The wire protocol: newline-framed requests, counted-line responses.
//!
//! Requests are exactly the shell's command syntax, one command per
//! line — the journal already records transactions in the surface event
//! syntax, so the wire format costs nothing new. Responses are framed so
//! a client never has to guess where output ends:
//!
//! ```text
//! request  := line "\n"
//! response := ("ok" | "err") " " count "\n" line*count
//! ```
//!
//! `ok` carries a command's normal output (possibly zero lines); `err`
//! carries the rendered error a local shell would print to stderr. The
//! connection stays usable after an `err` — exactly like the local
//! REPL, where an error does not end the session.
//!
//! A request line holds at most [`MAX_RECORD`](dduf_persist::MAX_RECORD)
//! bytes before its newline, the most one journal record can take. The
//! server never buffers more of a longer line: it answers `err` and
//! reads on past the newline.
//!
//! Body lines are escaped on the wire (`\` → `\\`, CR → `\r`), because a
//! line's *content* can contain framing bytes: a quoted symbol may embed
//! a carriage return, and multi-line span-diagnostic errors forwarded
//! from the writer carry whatever the renderer produced. Without the
//! escape, the reader's line-terminator stripping ate content bytes and
//! the reconstructed body silently differed from what the server sent.

use std::borrow::Cow;
use std::io::{self, BufRead, Read, Write};

/// How [`read_request`] ended.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Request {
    /// The buffer holds one request line: its newline included, unless
    /// the peer closed the connection right after it.
    Line,
    /// The line ran past the limit. Its bytes were dropped as they
    /// arrived, up to and including its newline.
    TooLong,
    /// The peer closed the connection before another byte.
    Closed,
}

/// Reads one request line into `buf` (cleared first), keeping at most
/// `limit` bytes of it before the newline. The bytes are copied once,
/// from the reader's buffer into `buf`.
pub(crate) fn read_request(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<Request> {
    buf.clear();
    // One byte past the limit is room for the newline of a line of
    // exactly `limit` bytes, and proof that any other line is too long.
    if r.by_ref().take(limit as u64 + 1).read_until(b'\n', buf)? == 0 {
        return Ok(Request::Closed);
    }
    if buf.len() <= limit || buf.ends_with(b"\n") {
        return Ok(Request::Line);
    }
    buf.clear();
    r.skip_until(b'\n')?;
    Ok(Request::TooLong)
}

/// Writes one framed response: the status header, then the body split
/// into lines, each escaped so its content cannot collide with the
/// framing. A trailing newline in `body` does not produce an empty
/// final line.
pub fn write_response(w: &mut impl Write, ok: bool, body: &str) -> io::Result<()> {
    let body = body.trim_end_matches('\n');
    let lines: Vec<&str> = if body.is_empty() {
        Vec::new()
    } else {
        body.split('\n').collect()
    };
    let status = if ok { "ok" } else { "err" };
    writeln!(w, "{status} {}", lines.len())?;
    for line in lines {
        w.write_all(escape_line(line).as_bytes())?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Escapes one body line for the wire: backslashes double, carriage
/// returns become `\r`. The result contains no CR, so the reader can
/// strip line terminators without eating content.
fn escape_line(line: &str) -> Cow<'_, str> {
    if !line.contains('\\') && !line.contains('\r') {
        return Cow::Borrowed(line);
    }
    Cow::Owned(line.replace('\\', "\\\\").replace('\r', "\\r"))
}

/// Undoes [`escape_line`]. Unknown escapes pass through verbatim, so a
/// reader never fails on output from a well-behaved writer.
fn unescape_line(line: &str) -> String {
    if !line.contains('\\') {
        return line.to_string();
    }
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('r') => out.push('\r'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Reads one framed response: `(ok, body lines)`. Returns an
/// `UnexpectedEof` error if the peer closed mid-response and
/// `InvalidData` on a malformed header.
pub fn read_response(r: &mut impl BufRead) -> io::Result<(bool, Vec<String>)> {
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response header",
        ));
    }
    let header = header.trim_end();
    let (status, count) = header.split_once(' ').ok_or_else(|| malformed(header))?;
    let ok = match status {
        "ok" => true,
        "err" => false,
        _ => return Err(malformed(header)),
    };
    let count: usize = count.parse().map_err(|_| malformed(header))?;
    let mut lines = Vec::with_capacity(count);
    for _ in 0..count {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        // Strip the frame terminator only; content CRs arrive escaped.
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        lines.push(unescape_line(&line));
    }
    Ok((ok, lines))
}

fn malformed(header: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response header {header:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn round_trip(ok: bool, body: &str) -> (bool, Vec<String>) {
        let mut buf = Vec::new();
        write_response(&mut buf, ok, body).unwrap();
        read_response(&mut BufReader::new(buf.as_slice())).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(round_trip(true, ""), (true, vec![]));
        assert_eq!(round_trip(true, "pong"), (true, vec!["pong".to_string()]));
        assert_eq!(
            round_trip(false, "no translation exists\nselect with :do <n>\n"),
            (
                false,
                vec![
                    "no translation exists".to_string(),
                    "select with :do <n>".to_string()
                ]
            )
        );
    }

    #[test]
    fn trailing_newline_adds_no_empty_line() {
        let (_, lines) = round_trip(true, "one line\n");
        assert_eq!(lines, vec!["one line".to_string()]);
    }

    #[test]
    fn carriage_returns_in_content_round_trip() {
        // Regression: the reader strips line terminators, so content CRs
        // (quoted symbols, renderer output) used to vanish in transit.
        for body in [
            "value with\rembedded cr",
            "trailing cr\r",
            "\r",
            "backslash \\ and \\r literal",
            "windows\r\nstyle",
        ] {
            let (_, lines) = round_trip(true, body);
            let expected: Vec<String> = body
                .trim_end_matches('\n')
                .split('\n')
                .map(str::to_string)
                .collect();
            assert_eq!(lines, expected, "body {body:?}");
        }
    }

    #[test]
    fn multi_line_error_with_diagnostics_round_trips() {
        // The shape a span-diagnostic parse error produces: carets,
        // blank-ish lines, and backslashes must all arrive intact.
        let body =
            "error: expected a term\n  --> line 1, column 9\n  |\n1 | +item(a\\\n  |         ^\r";
        let mut buf = Vec::new();
        write_response(&mut buf, false, body).unwrap();
        let (ok, lines) = read_response(&mut BufReader::new(buf.as_slice())).unwrap();
        assert!(!ok);
        assert_eq!(lines.join("\n"), body);
        // The frame really counted every line: a second response after it
        // parses from the same stream (framing was not corrupted).
        let mut buf2 = buf.clone();
        write_response(&mut buf2, true, "pong").unwrap();
        let mut r = BufReader::new(buf2.as_slice());
        read_response(&mut r).unwrap();
        assert_eq!(read_response(&mut r).unwrap(), (true, vec!["pong".into()]));
    }

    /// A random body over an alphabet chosen to stress the framing:
    /// backslash runs, lone CR and LF, control bytes, multi-byte
    /// characters, and ordinary text.
    fn random_body(rng: &mut dduf_core::rng::Rng, max_len: usize) -> String {
        const ALPHABET: [char; 12] = [
            'a', 'z', ' ', '\\', '\r', '\n', '\t', '\u{1}', '\u{7f}', 'é', 'λ', '0',
        ];
        let len = rng.usize(max_len + 1);
        (0..len).map(|_| *rng.choose(&ALPHABET)).collect()
    }

    /// What the reader must reconstruct from a written body: trailing
    /// newlines collapse (they mark frame end, not content), interior
    /// structure survives byte-exact.
    fn expected_lines(body: &str) -> Vec<String> {
        let body = body.trim_end_matches('\n');
        if body.is_empty() {
            return Vec::new();
        }
        body.split('\n').map(str::to_string).collect()
    }

    #[test]
    fn fuzz_escape_round_trips_and_never_leaks_framing_bytes() {
        let mut rng = dduf_core::rng::Rng::new(0x9ec0de);
        for _ in 0..2000 {
            let line: String = random_body(&mut rng, 40).replace('\n', "n");
            let escaped = escape_line(&line);
            assert!(
                !escaped.contains('\r'),
                "escaped line leaks a CR: {line:?} -> {escaped:?}"
            );
            assert_eq!(
                unescape_line(&escaped),
                line,
                "escape/unescape not inverse for {line:?}"
            );
        }
    }

    #[test]
    fn fuzz_random_bodies_round_trip() {
        let mut rng = dduf_core::rng::Rng::new(0xf4a2);
        for i in 0..1500 {
            let ok = rng.bool();
            let body = random_body(&mut rng, 60);
            let got = round_trip(ok, &body);
            assert_eq!(
                got,
                (ok, expected_lines(&body)),
                "iteration {i}: body {body:?}"
            );
        }
    }

    #[test]
    fn fuzz_back_to_back_frames_never_desync() {
        // Many frames on one stream — multi-line err bodies included —
        // must parse back in order: one mis-counted or mis-escaped
        // frame would desynchronize everything after it.
        let mut rng = dduf_core::rng::Rng::new(0x5eb0_51de);
        let mut buf = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..300 {
            let ok = rng.chance(0.6);
            let body = random_body(&mut rng, 80);
            write_response(&mut buf, ok, &body).unwrap();
            expected.push((ok, expected_lines(&body)));
        }
        let mut r = BufReader::new(buf.as_slice());
        for (i, want) in expected.iter().enumerate() {
            let got = read_response(&mut r).unwrap();
            assert_eq!(&got, want, "frame {i} desynchronized");
        }
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof,
            "stream must be exactly consumed"
        );
    }

    /// Every request `read_request` finds in `wire`, with its bytes.
    fn requests(wire: &[u8], limit: usize) -> Vec<(Request, Vec<u8>)> {
        // A small reader buffer, so lines span several refills.
        let mut r = BufReader::with_capacity(3, wire);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let got = read_request(&mut r, &mut buf, limit).unwrap();
            if got == Request::Closed {
                return out;
            }
            out.push((got, buf.clone()));
        }
    }

    #[test]
    fn a_request_of_exactly_the_limit_is_read() {
        assert_eq!(
            requests(b"12345678\n1234\n", 8),
            [
                (Request::Line, b"12345678\n".to_vec()),
                (Request::Line, b"1234\n".to_vec())
            ]
        );
    }

    #[test]
    fn an_oversized_request_is_dropped_through_its_newline() {
        assert_eq!(
            requests(b"123456789\n:ping\n0123456789abcdef\n", 8),
            [
                (Request::TooLong, Vec::new()),
                (Request::Line, b":ping\n".to_vec()),
                (Request::TooLong, Vec::new())
            ]
        );
    }

    #[test]
    fn eof_mid_line_ends_the_last_request() {
        assert_eq!(
            requests(b":ping\n:sta", 8),
            [
                (Request::Line, b":ping\n".to_vec()),
                (Request::Line, b":sta".to_vec())
            ]
        );
        // Past the limit, the unterminated tail is dropped too.
        assert_eq!(
            requests(b":ping\n123456789", 8),
            [
                (Request::Line, b":ping\n".to_vec()),
                (Request::TooLong, Vec::new())
            ]
        );
        assert_eq!(requests(b"", 8), []);
    }

    #[test]
    fn malformed_headers_rejected() {
        for bad in ["gibberish\n", "ok x\n", "yes 1\nline\n"] {
            let mut r = BufReader::new(bad.as_bytes());
            assert!(read_response(&mut r).is_err(), "{bad:?}");
        }
        let mut r = BufReader::new(&b""[..]);
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncated body.
        let mut r = BufReader::new(&b"ok 2\nonly one\n"[..]);
        assert_eq!(
            read_response(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }
}
