//! End-to-end tests of the live-topology daemon through the real `figures`
//! binary: a scripted churn-and-query session over stdin/stdout must
//! reproduce the committed golden transcript byte for byte (the same check
//! CI's serve smoke runs in both feature configs), oracle mode must answer
//! every query identically, and the TCP listener must speak the same
//! protocol as the stdio loop.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_figures");

/// The serve smoke configuration: topology, seed, script and golden are one
/// committed unit — regenerate the golden when (and only when) the wire
/// format deliberately changes.
const TOPO: &str = "jellyfish:switches=16,ports=8,degree=5";
const SEED: &str = "7";
const SCRIPT: &str = include_str!("../testdata/serve_session.script");
const GOLDEN: &str = include_str!("../testdata/serve_session.golden.jsonl");

fn serve_args(extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> =
        ["serve", "--topo", TOPO, "--seed", SEED].iter().map(ToString::to_string).collect();
    args.extend(extra.iter().map(ToString::to_string));
    args
}

/// Runs `figures serve` with the committed script on stdin, returning the
/// process output once the script's `shutdown` op stops it.
fn scripted_session(extra: &[&str]) -> Output {
    let mut child = Command::new(BIN)
        .args(serve_args(extra))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve starts");
    child.stdin.take().unwrap().write_all(SCRIPT.as_bytes()).expect("script written");
    child.wait_with_output().expect("figures serve exits")
}

#[test]
fn stdio_session_matches_the_committed_golden_transcript() {
    let out = scripted_session(&[]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let transcript = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        transcript, GOLDEN,
        "serve transcript drifted from testdata/serve_session.golden.jsonl"
    );
}

/// Oracle mode rebuilds everything per event, so repair accounting differs —
/// but every query reply and error must be byte-identical to the golden.
#[test]
fn oracle_session_answers_queries_byte_identically() {
    let out = scripted_session(&["--oracle"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let transcript = String::from_utf8(out.stdout).unwrap();
    let queries_and_errors = |t: &str| -> Vec<String> {
        t.lines()
            .filter(|l| {
                l.starts_with("{\"ok\":true,\"op\":\"query\"") || l.starts_with("{\"ok\":false")
            })
            .map(str::to_string)
            .collect()
    };
    assert_eq!(queries_and_errors(&transcript), queries_and_errors(GOLDEN));
    assert!(transcript.contains("\"oracle\":true"), "stats must report oracle mode");
}

/// Reads the daemon's stderr until it prints the bound TCP address.
fn bound_addr(stderr: &mut dyn Read) -> String {
    let mut lines = BufReader::new(stderr).lines();
    while let Some(Ok(line)) = lines.next() {
        if let Some(addr) = line.strip_prefix("figures: listening on ") {
            return addr.trim().to_string();
        }
    }
    panic!("daemon never reported its listen address");
}

fn kill(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

#[test]
fn tcp_session_speaks_the_same_protocol() {
    let mut child = Command::new(BIN)
        .args(serve_args(&["--tcp", "127.0.0.1:0"]))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve --tcp starts");
    let addr = bound_addr(child.stderr.as_mut().unwrap());
    let stream = std::net::TcpStream::connect(&addr).expect("connect to daemon");
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(SCRIPT.as_bytes()).expect("script written");
    let mut transcript = String::new();
    BufReader::new(stream).read_to_string(&mut transcript).expect("replies read");
    kill(child);
    assert_eq!(transcript, GOLDEN, "TCP transcript differs from the stdio golden");
}

/// One line of 50,000 `[` is a parse error like any other: the session
/// replies `ok: false`, answers the next request and exits 0 at EOF.
#[test]
fn deeply_nested_request_is_an_error_reply_not_a_crash() {
    let mut child = Command::new(BIN)
        .args(serve_args(&[]))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve starts");
    let script = format!("{}\n{{\"op\":\"stats\"}}\n", "[".repeat(50_000));
    child.stdin.take().unwrap().write_all(script.as_bytes()).expect("script written");
    let out = child.wait_with_output().expect("figures serve exits");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let transcript = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = transcript.lines().collect();
    assert_eq!(replies.len(), 2, "{transcript}");
    assert!(replies[0].starts_with("{\"ok\":false"), "{}", replies[0]);
    assert!(replies[1].starts_with("{\"ok\":true,\"op\":\"stats\""), "{}", replies[1]);
}

/// A request line over the 1 MiB cap is answered with an error naming the
/// limit and skipped without being buffered; the session answers the next
/// request and exits 0 at EOF. The padded request is valid JSON, so a
/// server without the cap would answer it like any other.
#[test]
fn over_long_request_is_an_error_reply_and_the_next_is_answered() {
    let mut child = Command::new(BIN)
        .args(serve_args(&[]))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve starts");
    let padded = format!("{{\"op\":\"stats\"{}}}", " ".repeat(1 << 20));
    let script = format!("{padded}\n{{\"op\":\"stats\"}}\n");
    child.stdin.take().unwrap().write_all(script.as_bytes()).expect("script written");
    let out = child.wait_with_output().expect("figures serve exits");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let transcript = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = transcript.lines().collect();
    assert_eq!(replies.len(), 2, "{transcript}");
    assert!(
        replies[0].starts_with("{\"ok\":false") && replies[0].contains("1048576-byte limit"),
        "{}",
        replies[0]
    );
    assert!(replies[1].starts_with("{\"ok\":true,\"op\":\"stats\""), "{}", replies[1]);
}

/// A request line that is not UTF-8 is answered with an error naming
/// UTF-8, and the session answers the next request and exits 0 at EOF.
#[test]
fn non_utf8_request_is_an_error_reply_and_the_next_is_answered() {
    let mut child = Command::new(BIN)
        .args(serve_args(&[]))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures serve starts");
    child.stdin.take().unwrap().write_all(b"\xff\n{\"op\":\"stats\"}\n").expect("script written");
    let out = child.wait_with_output().expect("figures serve exits");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let transcript = String::from_utf8(out.stdout).unwrap();
    let replies: Vec<&str> = transcript.lines().collect();
    assert_eq!(replies.len(), 2, "{transcript}");
    assert!(
        replies[0].starts_with("{\"ok\":false") && replies[0].contains("UTF-8"),
        "{}",
        replies[0]
    );
    assert!(replies[1].starts_with("{\"ok\":true,\"op\":\"stats\""), "{}", replies[1]);
}

#[test]
fn serve_rejects_bad_options_with_exit_2() {
    for args in [
        vec!["serve", "--bogus"],
        vec!["serve", "--topo", "nope:what=1"],
        vec!["serve", "--seed", "NaN"],
        vec!["serve", "--topo"],
    ] {
        let out = Command::new(BIN).args(&args).output().expect("figures runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stderr).is_empty(), "{args:?}: silent failure");
    }
}
