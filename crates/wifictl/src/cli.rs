//! The CLI skeleton every `wifictl` subcommand shares: one argv
//! splitter, one way to load a file, one exit-code contract.

/// What a subcommand returns: the text for stdout plus the exit code
/// (0 ok, 1 divergence/regression), or a usage/IO/parse error that
/// `main` prints to stderr before exiting 2.
pub type Outcome = Result<(String, i32), String>;

/// One subcommand's argv, split into positionals, valued flags and
/// bare switches.
#[derive(Debug, Default)]
pub struct Args {
    pub positional: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Accepts `--flag value` and `--flag=value` for every name in
    /// `valued`, the bare `switches`, and positionals; any other `--x`
    /// is a usage error quoting `usage`.
    pub fn parse(
        args: &[String],
        valued: &[&'static str],
        switches: &[&'static str],
        usage: &str,
    ) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let (name, inline) = match a.split_once('=') {
                Some((name, v)) => (name, Some(v)),
                None => (a.as_str(), None),
            };
            if let Some(&flag) = valued.iter().find(|&&f| f == name) {
                let v = match inline {
                    Some(v) => v.to_owned(),
                    None => it
                        .next()
                        .ok_or_else(|| format!("{flag} needs a value"))?
                        .clone(),
                };
                out.values.push((flag, v));
            } else if let Some(&s) = switches.iter().find(|&&s| s == a) {
                out.switches.push(s);
            } else if a.starts_with("--") {
                return Err(format!("unknown argument {a}\n{usage}"));
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    /// The (last) value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let hit = self.values.iter().rev().find(|(f, _)| *f == flag);
        hit.map(|(_, v)| v.as_str())
    }

    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

pub fn read_bytes(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

pub fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

const SAME_CONTENT: &str = "files DIFFER: they encode the same content differently\n";

/// Every `diff` subcommand: `diff` reports on the two parses, but the
/// identity verdict comes from the files' own bytes. A parser may accept
/// a spelling its writer never produces, so two files that differ can
/// parse equal; that is still exit 1, said in one line.
pub fn diff_files<T>(
    pa: &str,
    pb: &str,
    parse: impl Fn(&str, &[u8]) -> Result<T, String>,
    diff: impl Fn(&T, &T) -> (String, bool),
) -> Outcome {
    let (ba, bb) = (read_bytes(pa)?, read_bytes(pb)?);
    let (report, same) = diff(&parse(pa, &ba)?, &parse(pb, &bb)?);
    Ok(match (ba == bb, same) {
        (false, true) => (SAME_CONTENT.to_owned(), 1),
        (identical, _) => (report, i32::from(!identical)),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `bytes` written as `name` in a directory of the system temp dir
    /// that only the test named `test` uses; returns the path.
    pub(crate) fn temp_file(test: &str, name: &str, bytes: impl AsRef<[u8]>) -> String {
        let dir = std::env::temp_dir().join(format!("wifictl-{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(name), bytes).unwrap();
        dir.join(name).to_string_lossy().to_string()
    }

    pub(crate) fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn splits_flags_switches_and_positionals() {
        let a = Args::parse(
            &argv(&["x.bin", "--from", "10", "--json", "--to=20", "7"]),
            &["--from", "--to"],
            &["--json"],
            "usage",
        )
        .unwrap();
        assert_eq!(a.positional, ["x.bin", "7"]);
        assert_eq!(a.value("--from"), Some("10"));
        assert_eq!(a.value("--to"), Some("20"));
        assert_eq!(a.value("--width"), None);
        assert!(a.switch("--json") && !a.switch("--csv"));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let e = Args::parse(&argv(&["--bogus"]), &[], &[], "USAGE").unwrap_err();
        assert!(e.contains("--bogus") && e.ends_with("USAGE"), "{e}");
        assert!(Args::parse(&argv(&["--from"]), &["--from"], &[], "").is_err());
        assert!(Args::parse(&argv(&["--json=1"]), &[], &["--json"], "").is_err());
    }
}
