//! `wifictl` — the one inspection CLI over the run artifacts:
//!
//! * `wifictl trace …` — `FLT1` flight-recorder dumps ([`trace`]);
//! * `wifictl health …` — health reports ([`health`]);
//! * `wifictl perf …` — run profiles and the perf baseline ([`perf`]);
//! * `wifictl time …` — `TSL1` timeline dumps ([`time`]).
//!
//! Every group shares the [`cli`] skeleton: stdout + exit 0 on success,
//! exit 1 when a `diff`/`regress` finds a divergence, stderr + exit 2
//! on a usage, IO or parse error. A reader that closes stdout early
//! (`wifictl … | head`) changes neither the exit code nor stderr.

use std::io::{ErrorKind, Write};

mod cli;
mod health;
mod perf;
mod time;
mod trace;

fn usage() -> String {
    format!(
        "wifictl — inspect run artifacts\n\n{}\n{}\n{}\n{}",
        trace::USAGE,
        health::USAGE,
        perf::USAGE,
        time::USAGE
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("trace") => trace::run(rest),
        Some("health") => health::run(rest),
        Some("perf") => perf::run(rest),
        Some("time") => time::run(rest),
        _ => Err(usage()),
    };
    std::process::exit(finish(outcome, &mut std::io::stdout().lock()));
}

/// Write a command's rendering to `w` (stdout) and return its exit code.
fn finish(outcome: Result<(String, i32), String>, w: &mut impl Write) -> i32 {
    let err = match outcome {
        Ok((out, code)) => match w.write_all(out.as_bytes()).and_then(|()| w.flush()) {
            // A reader that closed the pipe has all it wanted.
            Err(e) if e.kind() != ErrorKind::BrokenPipe => format!("wifictl: stdout: {e}"),
            _ => return code,
        },
        Err(e) => e,
    };
    eprintln!("{err}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stdout whose writes all fail with `kind`.
    struct Closed(ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_keeps_the_commands_exit_code() {
        let run = |code, kind| finish(Ok(("a\n".repeat(1 << 17), code)), &mut Closed(kind));
        assert_eq!(run(0, ErrorKind::BrokenPipe), 0);
        assert_eq!(run(1, ErrorKind::BrokenPipe), 1);
        assert_eq!(run(0, ErrorKind::Other), 2);
    }
}
