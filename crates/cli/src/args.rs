//! Minimal dependency-free argument parsing for the `pres` CLI.
//!
//! Flags are `--name value` pairs (or bare `--name` for booleans); the
//! first non-flag token is the subcommand. Unknown flags are errors —
//! silent typo-tolerance is how reproduction scripts rot. A flag given
//! twice is an error.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand (first positional token).
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// A CLI usage error.
#[derive(Debug)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl Args {
    /// Parses `argv[1..]`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, UsageError> {
        let mut args = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap_or_default(),
                    _ => "true".to_string(),
                };
                if args.flags.insert(name.to_string(), value).is_some() {
                    return Err(UsageError(format!("flag --{name} given twice")));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(UsageError(format!("unexpected positional argument '{tok}'")));
            }
        }
        Ok(args)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<String, UsageError> {
        self.get(name)
            .ok_or_else(|| UsageError(format!("missing required flag --{name}")))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<String> {
        let v = self.flags.get(name).cloned();
        if v.is_some() {
            self.consumed.borrow_mut().push(name.to_string());
        }
        v
    }

    /// An optional parsed flag.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, UsageError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| UsageError(format!("--{name}: cannot parse '{raw}'"))),
        }
    }

    /// A boolean flag (present = true).
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Errors if any flag was never consumed (typo protection). Call last.
    pub fn finish(&self) -> Result<(), UsageError> {
        let consumed = self.consumed.borrow();
        for name in self.flags.keys() {
            if !consumed.contains(name) {
                return Err(UsageError(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&["record", "--bug", "pbzip-order", "--seed", "7"]);
        assert_eq!(a.command.as_deref(), Some("record"));
        assert_eq!(a.required("bug").unwrap(), "pbzip-order");
        assert_eq!(a.get_parsed::<u64>("seed").unwrap(), Some(7));
        a.finish().unwrap();
    }

    #[test]
    fn boolean_flags() {
        let a = parse(&["replay", "--report"]);
        assert!(a.has("report"));
        a.finish().unwrap();
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = parse(&["record"]);
        assert!(a.required("bug").is_err());
    }

    #[test]
    fn unknown_flag_is_caught_by_finish() {
        let a = parse(&["record", "--bgu", "oops"]);
        assert!(a.finish().is_err());
    }

    #[test]
    fn duplicate_flag_errors() {
        let err = Args::parse(["--x", "1", "--x", "2"].iter().map(|s| s.to_string()));
        assert!(err.is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = parse(&["record", "--seed", "banana"]);
        let err = a.get_parsed::<u64>("seed").unwrap_err();
        assert!(err.0.contains("--seed"));
    }
}
