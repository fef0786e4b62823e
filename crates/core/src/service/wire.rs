//! Line-delimited JSON wire protocol for [`Session`] (the `figures serve`
//! surface). One request object per line in, one reply object per line out;
//! SERVE.md is the normative grammar.
//!
//! Replies are rendered with a fixed field order and the shortest
//! round-trip number formatting shared with the experiment codec
//! ([`crate::json`]), so a scripted session produces a byte-stable
//! transcript — the CI smoke diffs one against a committed golden.

use std::io::{self, BufRead};

use jellyfish_routing::path_table::RoutingScheme;

use crate::json::{escape_into, num_into, parse_document, Value};
use crate::service::{ChurnEvent, Delta, Query, Reply, Session};

/// Valid `scheme` values, listed in every scheme error.
pub const SCHEME_CHOICES: &str = "ecmp8, ecmp64, ksp8, ecmp:N, ksp:N";

/// The widest `ecmp:N` or `ksp:N` scheme a query may ask for: `ecmp64` is
/// the widest any experiment uses, and Yen with a huge `k` runs until it
/// has enumerated every simple path.
pub const MAX_SCHEME_WIDTH: usize = 64;

/// The longest request line the server reads, in bytes before its newline
/// (1 MiB). A longer line is answered with [`too_long_reply`] and skipped.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One line of input, as [`read_request`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A line within the limit, without its line ending.
    Line(String),
    /// A line over the limit, consumed through its newline but not kept.
    TooLong,
    /// A line within the limit that is not UTF-8, consumed through its
    /// newline.
    NotUtf8,
}

/// Reads the next request line, keeping at most `limit` bytes of it: the
/// rest of a longer line is consumed up to and including its newline
/// without being buffered. `None` at end of input. As with
/// [`BufRead::lines`], a line ends at `\n` or `\r\n` and the last line may
/// lack one; a line that is not UTF-8 is a [`Request::NotUtf8`], so the
/// next line is read as usual.
pub fn read_request(reader: &mut impl BufRead, limit: usize) -> io::Result<Option<Request>> {
    let mut line = Vec::new();
    let (mut read_any, mut too_long, mut ended) = (false, false, false);
    while !ended {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..newline.unwrap_or(chunk.len())];
        too_long |= line.len() + body.len() > limit;
        if !too_long {
            line.extend_from_slice(body);
        }
        ended = newline.is_some();
        let used = newline.map_or(chunk.len(), |at| at + 1);
        reader.consume(used);
    }
    if !read_any {
        return Ok(None);
    }
    if too_long {
        return Ok(Some(Request::TooLong));
    }
    if ended && line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(String::from_utf8(line).map_or(Request::NotUtf8, Request::Line)))
}

/// The reply to a line over [`MAX_REQUEST_BYTES`].
pub fn too_long_reply() -> LineOutcome {
    LineOutcome::Reply(error_reply(&format!(
        "request line longer than the {MAX_REQUEST_BYTES}-byte limit; the line was skipped"
    )))
}

/// The reply to a line that is not UTF-8.
pub fn not_utf8_reply() -> LineOutcome {
    LineOutcome::Reply(error_reply("request line is not valid UTF-8; the line was skipped"))
}

/// What the server loop should do with one input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineOutcome {
    /// Write this reply line and keep reading.
    Reply(String),
    /// Write this reply line, then close the connection.
    Shutdown(String),
}

impl LineOutcome {
    /// The reply line, whichever variant carries it.
    pub fn text(&self) -> &str {
        match self {
            LineOutcome::Reply(s) | LineOutcome::Shutdown(s) => s,
        }
    }
}

/// Handles one request line against the session. Never panics on client
/// input: malformed lines produce an `{"ok":false,...}` reply and leave
/// the session untouched.
pub fn handle_line(session: &mut Session, line: &str) -> LineOutcome {
    match dispatch(session, line) {
        Ok(outcome) => outcome,
        Err(msg) => LineOutcome::Reply(error_reply(&msg)),
    }
}

fn dispatch(session: &mut Session, line: &str) -> Result<LineOutcome, String> {
    let v = parse_document(line.trim())?;
    let op = v.get("op")?.as_str()?;
    match op {
        "apply" => {
            let event = parse_event(&v)?;
            let delta = session.apply(&event).map_err(|e| e.to_string())?;
            Ok(LineOutcome::Reply(delta_reply(&delta)))
        }
        "query" => {
            let query = parse_query(&v)?;
            let reply = session.query(&query).map_err(|e| e.to_string())?;
            Ok(LineOutcome::Reply(query_reply(&reply)))
        }
        "stats" => Ok(LineOutcome::Reply(stats_reply(session))),
        "shutdown" => Ok(LineOutcome::Shutdown("{\"ok\":true,\"op\":\"shutdown\"}".to_string())),
        other => {
            Err(format!("unknown op '{other}' (valid choices: apply, query, stats, shutdown)"))
        }
    }
}

// ---------------------------------------------------------------- requests

fn parse_event(v: &Value) -> Result<ChurnEvent, String> {
    let event = v.get("event")?.as_str()?;
    match event {
        "fail_link" => {
            Ok(ChurnEvent::FailLink { a: v.get("a")?.as_usize()?, b: v.get("b")?.as_usize()? })
        }
        "fail_links" => Ok(ChurnEvent::FailLinks { fraction: v.get("fraction")?.as_f64()? }),
        "fail_switch" => Ok(ChurnEvent::FailSwitch { node: v.get("node")?.as_usize()? }),
        "fail_switches" => Ok(ChurnEvent::FailSwitches { fraction: v.get("fraction")?.as_f64()? }),
        "restore" => Ok(ChurnEvent::Restore),
        "expand" => Ok(ChurnEvent::Expand { racks: v.get("racks")?.as_usize()? }),
        other => Err(format!(
            "unknown event '{other}' (valid choices: fail_link, fail_links, fail_switch, \
             fail_switches, restore, expand)"
        )),
    }
}

/// Parses a `scheme` string (`ecmp8`, `ksp8`, `ecmp:N`, `ksp:N`, ...),
/// with `N` in `1..=MAX_SCHEME_WIDTH`.
pub fn parse_scheme(s: &str) -> Result<RoutingScheme, String> {
    let parsed = match s {
        "ecmp8" => Some(RoutingScheme::ecmp8()),
        "ecmp64" => Some(RoutingScheme::ecmp64()),
        "ksp8" => Some(RoutingScheme::ksp8()),
        _ => {
            let width = |raw: &str| raw.parse::<usize>().ok().filter(|&n| n > 0);
            if let Some(raw) = s.strip_prefix("ecmp:") {
                width(raw).map(|way| RoutingScheme::Ecmp { way })
            } else if let Some(raw) = s.strip_prefix("ksp:") {
                width(raw).map(|k| RoutingScheme::KShortestPaths { k })
            } else {
                None
            }
        }
    };
    match parsed {
        Some(RoutingScheme::Ecmp { way: n } | RoutingScheme::KShortestPaths { k: n })
            if n > MAX_SCHEME_WIDTH =>
        {
            Err(format!("scheme '{s}' asks for {n} paths; the limit is {MAX_SCHEME_WIDTH}"))
        }
        Some(scheme) => Ok(scheme),
        None => Err(format!("unknown scheme '{s}' (valid choices: {SCHEME_CHOICES})")),
    }
}

fn parse_query(v: &Value) -> Result<Query, String> {
    let q = v.get("q")?.as_str()?;
    match q {
        "dist" => {
            Ok(Query::Dist { src: v.get("src")?.as_usize()?, dst: v.get("dst")?.as_usize()? })
        }
        "path" => {
            let scheme = match v.get_opt("scheme") {
                Some(raw) => parse_scheme(raw.as_str()?)?,
                None => RoutingScheme::ecmp8(),
            };
            Ok(Query::Path {
                src: v.get("src")?.as_usize()?,
                dst: v.get("dst")?.as_usize()?,
                scheme,
            })
        }
        "throughput" => {
            let tseed = match v.get_opt("tseed") {
                Some(raw) => Some(raw.as_u64()?),
                None => None,
            };
            Ok(Query::Throughput { tseed })
        }
        "bisection" => {
            let restarts = match v.get_opt("restarts") {
                Some(raw) => raw.as_usize()?,
                None => 4,
            };
            Ok(Query::Bisection { restarts })
        }
        other => Err(format!(
            "unknown query '{other}' (valid choices: dist, path, throughput, bisection)"
        )),
    }
}

// ----------------------------------------------------------------- replies

fn error_reply(msg: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

fn opt_usize_into(out: &mut String, v: Option<usize>) {
    match v {
        Some(n) => out.push_str(&format!("{n}")),
        None => out.push_str("null"),
    }
}

fn delta_reply(d: &Delta) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"apply\",\"event\":");
    escape_into(&mut out, d.event);
    out.push_str(&format!(
        ",\"removed\":{},\"added\":{},\"switches\":{},\"links\":{},\"servers\":{},\
         \"generation\":{},\"repaired_rows\":",
        d.removed_links, d.added_links, d.switches, d.links, d.servers, d.generation
    ));
    opt_usize_into(&mut out, d.repaired_rows);
    out.push_str(",\"total_rows\":");
    opt_usize_into(&mut out, d.total_rows);
    out.push_str(&format!(
        ",\"full_rebuild\":{},\"paths_dropped\":{},\"paths_kept\":{}}}",
        d.full_rebuild, d.paths_dropped, d.paths_kept
    ));
    out
}

fn query_reply(r: &Reply) -> String {
    let mut out = String::from("{\"ok\":true,\"op\":\"query\",\"q\":");
    match r {
        Reply::Dist { src, dst, hops } => {
            out.push_str(&format!("\"dist\",\"src\":{src},\"dst\":{dst},\"hops\":"));
            match hops {
                Some(h) => out.push_str(&format!("{h}")),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        Reply::Path { src, dst, scheme, paths } => {
            out.push_str(&format!("\"path\",\"src\":{src},\"dst\":{dst},\"scheme\":"));
            escape_into(&mut out, scheme);
            out.push_str(",\"paths\":[");
            for (i, path) in paths.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, node) in path.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{node}"));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        Reply::Throughput { result } => {
            out.push_str("\"throughput\",\"lambda\":");
            num_into(&mut out, result.lambda);
            out.push_str(",\"lambda_hi\":");
            num_into(&mut out, result.lambda_hi);
            out.push_str(",\"normalized\":");
            num_into(&mut out, result.normalized);
            out.push_str(&format!(",\"commodities\":{},\"epsilon\":", result.commodities));
            num_into(&mut out, result.epsilon);
            out.push('}');
        }
        Reply::Bisection { cut } => {
            out.push_str(&format!(
                "\"bisection\",\"crossing_links\":{},\"partition_size\":{},\"normalized\":",
                cut.crossing_links,
                cut.partition.len()
            ));
            num_into(&mut out, cut.normalized);
            out.push('}');
        }
    }
    out
}

fn stats_reply(session: &Session) -> String {
    let s = session.stats();
    let t = session.topology();
    format!(
        "{{\"ok\":true,\"op\":\"stats\",\"oracle\":{},\"switches\":{},\"links\":{},\
         \"servers\":{},\"generation\":{},\"events\":{},\"queries\":{},\
         \"rows_repaired\":{},\"full_rebuilds\":{},\"paths_dropped\":{},\
         \"path_cache_hits\":{}}}",
        session.is_oracle(),
        t.num_switches(),
        t.num_links(),
        t.total_servers(),
        t.generation(),
        s.events,
        s.queries,
        s.rows_repaired,
        s.full_rebuilds,
        s.paths_dropped,
        s.path_cache_hits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jellyfish_topology::JellyfishBuilder;

    fn session() -> Session {
        let topo = JellyfishBuilder::new(12, 6, 3).seed(7).build().unwrap();
        Session::new(topo, 7)
    }

    fn line(s: &mut Session, req: &str) -> String {
        handle_line(s, req).text().to_string()
    }

    #[test]
    fn malformed_lines_do_not_kill_the_session() {
        let mut s = session();
        for bad in ["", "not json", "{}", "{\"op\":\"nope\"}", "{\"op\":\"apply\"}"] {
            let reply = line(&mut s, bad);
            assert!(reply.starts_with("{\"ok\":false,\"error\":"), "{bad} -> {reply}");
        }
        // Still serving.
        let ok = line(&mut s, "{\"op\":\"query\",\"q\":\"dist\",\"src\":0,\"dst\":1}");
        assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    }

    #[test]
    fn apply_then_query_round_trip() {
        let mut s = session();
        let d = line(&mut s, "{\"op\":\"query\",\"q\":\"dist\",\"src\":0,\"dst\":5}");
        assert!(d.contains("\"hops\":"), "{d}");
        let a = line(&mut s, "{\"op\":\"apply\",\"event\":\"fail_links\",\"fraction\":0.1}");
        assert!(a.starts_with("{\"ok\":true,\"op\":\"apply\",\"event\":\"fail_links\""), "{a}");
        assert!(a.contains("\"repaired_rows\":"), "{a}");
        let p = line(&mut s, "{\"op\":\"query\",\"q\":\"path\",\"src\":0,\"dst\":5}");
        assert!(p.contains("\"scheme\":\"8-way ECMP\""), "{p}");
        let st = line(&mut s, "{\"op\":\"stats\"}");
        assert!(st.contains("\"events\":1") && st.contains("\"queries\":2"), "{st}");
    }

    #[test]
    fn shutdown_is_terminal() {
        let mut s = session();
        match handle_line(&mut s, "{\"op\":\"shutdown\"}") {
            LineOutcome::Shutdown(reply) => assert_eq!(reply, "{\"ok\":true,\"op\":\"shutdown\"}"),
            other => panic!("expected shutdown, got {other:?}"),
        }
    }

    #[test]
    fn scheme_strings_parse() {
        assert_eq!(parse_scheme("ecmp8").unwrap(), RoutingScheme::ecmp8());
        assert_eq!(parse_scheme("ecmp:4").unwrap(), RoutingScheme::Ecmp { way: 4 });
        assert_eq!(parse_scheme("ksp:3").unwrap(), RoutingScheme::KShortestPaths { k: 3 });
        assert_eq!(parse_scheme("ksp:64").unwrap(), RoutingScheme::KShortestPaths { k: 64 });
        assert!(parse_scheme("ospf").unwrap_err().contains(SCHEME_CHOICES));
        assert!(parse_scheme("ecmp:0").is_err());
        for over in ["ecmp:65", "ksp:65"] {
            let err = parse_scheme(over).unwrap_err();
            assert_eq!(err, format!("scheme '{over}' asks for 65 paths; the limit is 64"));
        }
    }

    /// Requests over a limit are error replies that name it, and the
    /// session answers the next request as before.
    #[test]
    fn over_limit_requests_are_refused_by_name() {
        let mut s = session();
        let rows = [
            (
                "{\"op\":\"query\",\"q\":\"path\",\"src\":0,\"dst\":5,\"scheme\":\"ksp:65\"}",
                "limit is 64",
            ),
            (
                "{\"op\":\"query\",\"q\":\"path\",\"src\":0,\"dst\":5,\"scheme\":\"ecmp:65\"}",
                "limit is 64",
            ),
            ("{\"op\":\"query\",\"q\":\"bisection\",\"restarts\":65}", "at most 64 restarts"),
            ("{\"op\":\"apply\",\"event\":\"expand\",\"racks\":13}", "at most 12 racks"),
        ];
        for (req, limit) in rows {
            let reply = line(&mut s, req);
            assert!(reply.starts_with("{\"ok\":false,\"error\":"), "{req} -> {reply}");
            assert!(reply.contains(limit), "{req} -> {reply}");
        }
        let st = line(&mut s, "{\"op\":\"stats\"}");
        assert!(st.contains("\"switches\":12") && st.contains("\"events\":0"), "{st}");
        assert!(st.contains("\"queries\":0"), "{st}");
    }

    #[test]
    fn identical_scripts_produce_identical_transcripts() {
        let script = [
            "{\"op\":\"query\",\"q\":\"dist\",\"src\":0,\"dst\":9}",
            "{\"op\":\"apply\",\"event\":\"fail_links\",\"fraction\":0.15}",
            "{\"op\":\"query\",\"q\":\"path\",\"src\":0,\"dst\":9,\"scheme\":\"ksp:4\"}",
            "{\"op\":\"apply\",\"event\":\"restore\"}",
            "{\"op\":\"query\",\"q\":\"throughput\"}",
            "{\"op\":\"query\",\"q\":\"bisection\",\"restarts\":2}",
            "{\"op\":\"stats\"}",
        ];
        let run = || {
            let mut s = session();
            script.iter().map(|req| line(&mut s, req)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oracle_and_incremental_transcripts_match() {
        let script = [
            "{\"op\":\"query\",\"q\":\"dist\",\"src\":2,\"dst\":11}",
            "{\"op\":\"query\",\"q\":\"path\",\"src\":2,\"dst\":11}",
            "{\"op\":\"apply\",\"event\":\"fail_switch\",\"node\":5}",
            "{\"op\":\"query\",\"q\":\"dist\",\"src\":2,\"dst\":11}",
            "{\"op\":\"query\",\"q\":\"path\",\"src\":2,\"dst\":11}",
            "{\"op\":\"apply\",\"event\":\"expand\",\"racks\":2}",
            "{\"op\":\"query\",\"q\":\"dist\",\"src\":2,\"dst\":13}",
            "{\"op\":\"query\",\"q\":\"path\",\"src\":2,\"dst\":13,\"scheme\":\"ksp8\"}",
            "{\"op\":\"query\",\"q\":\"throughput\"}",
            "{\"op\":\"query\",\"q\":\"bisection\"}",
        ];
        let topo = JellyfishBuilder::new(12, 6, 3).seed(7).build().unwrap();
        let mut inc = Session::new(topo.clone(), 7);
        let mut ora = Session::oracle(topo, 7);
        for req in script {
            let a = line(&mut inc, req);
            let b = line(&mut ora, req);
            // Delta replies legitimately differ in repair accounting; query
            // replies must be byte-identical.
            if req.contains("\"op\":\"query\"") {
                assert_eq!(a, b, "diverged on {req}");
            }
        }
    }

    #[test]
    fn read_request_caps_lines_and_skips_the_rest_of_a_long_one() {
        // A 4-byte reader buffer splits every line across chunks.
        let input = "ab\r\nabcdefgh\n\nabcdef\nxyz";
        let mut reader = std::io::BufReader::with_capacity(4, input.as_bytes());
        let mut read = || read_request(&mut reader, 6).unwrap();
        assert_eq!(read(), Some(Request::Line("ab".to_string())));
        assert_eq!(read(), Some(Request::TooLong));
        assert_eq!(read(), Some(Request::Line(String::new())));
        assert_eq!(read(), Some(Request::Line("abcdef".to_string())), "the limit itself fits");
        assert_eq!(
            read(),
            Some(Request::Line("xyz".to_string())),
            "the last line needs no newline"
        );
        assert_eq!(read(), None);
        let mut not_utf8: &[u8] = b"\xff\r\nab\n";
        assert_eq!(read_request(&mut not_utf8, 6).unwrap(), Some(Request::NotUtf8));
        assert_eq!(read_request(&mut not_utf8, 6).unwrap(), Some(Request::Line("ab".to_string())));
        assert!(too_long_reply().text().contains(&MAX_REQUEST_BYTES.to_string()));
        assert!(not_utf8_reply().text().contains("UTF-8"));
    }
}
