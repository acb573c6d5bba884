//! `wifictl` — the one inspection CLI over the run artifacts:
//!
//! * `wifictl trace …` — `FLT1` flight-recorder dumps ([`trace`]);
//! * `wifictl health …` — health reports ([`health`]);
//! * `wifictl perf …` — run profiles and the perf baseline ([`perf`]);
//! * `wifictl time …` — `TSL1` timeline dumps ([`time`]).
//!
//! Every group shares the [`cli`] skeleton: stdout + exit 0 on success,
//! exit 1 when a `diff`/`regress` finds a divergence, stderr + exit 2
//! on a usage, IO or parse error.

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
    match outcome {
        Ok((out, code)) => {
            print!("{out}");
            std::process::exit(code);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
