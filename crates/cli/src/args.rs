//! Minimal dependency-free argument parsing for the `picl` CLI.
//!
//! Grammar: `picl <command> [<subcommand>] [--flag value]...`. One bare
//! word may follow the command (`picl store dump`); whether it is accepted
//! is the command's decision. Flags accept both `--flag value` and
//! `--flag=value`. Numbers accept `k`/`m`/`g` suffixes
//! (`--instructions 60m`).

use std::collections::BTreeMap;

/// Flags that take no value; writing `--quick` records `quick=true`
/// (the `--quick=false` form still works).
const BOOLEAN_FLAGS: &[&str] = &["quick", "keep-going", "progress", "baseline"];

/// A parsed command line: the command, an optional subcommand, and flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    subcommand: Option<String>,
    flags: BTreeMap<String, String>,
}

/// A command-line parsing or validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if no command is given, a flag is malformed,
    /// or a flag is repeated.
    pub fn parse<I, S>(raw: I) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = raw.into_iter().map(Into::into).peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing command; try `picl help`".into()))?;
        if command.starts_with('-') {
            return Err(ArgError(format!(
                "expected a command, found flag {command:?}"
            )));
        }
        let subcommand = match it.peek() {
            Some(tok) if !tok.starts_with('-') => it.next(),
            _ => None,
        };
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            };
            let (key, value) = if let Some((k, v)) = name.split_once('=') {
                (k.to_owned(), v.to_owned())
            } else if BOOLEAN_FLAGS.contains(&name) {
                (name.to_owned(), "true".to_owned())
            } else {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError(format!("flag --{name} needs a value")))?;
                (name.to_owned(), v)
            };
            if flags.insert(key.clone(), value).is_some() {
                return Err(ArgError(format!("flag --{key} given twice")));
            }
        }
        Ok(Args {
            command,
            subcommand,
            flags,
        })
    }

    /// The command name.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// The bare word following the command, if any (`picl store dump`).
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Rejects a stray subcommand for commands that take none.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the unexpected positional argument.
    pub fn expect_no_subcommand(&self) -> Result<(), ArgError> {
        match &self.subcommand {
            None => Ok(()),
            Some(word) => Err(ArgError(format!(
                "unexpected positional argument {word:?} after `{}`",
                self.command
            ))),
        }
    }

    /// A string flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A string flag with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A count flag with `k`/`m`/`g` suffix support and a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value does not parse.
    pub fn count_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => parse_count(s)
                .ok_or_else(|| ArgError(format!("--{name}: cannot parse {s:?} as a count"))),
        }
    }

    /// A float flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value does not parse.
    pub fn float_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {s:?} as a number"))),
        }
    }

    /// Whether a boolean flag is set (`--quick` or `--quick=true`).
    pub fn is_set(&self, name: &str) -> bool {
        matches!(self.get(name), Some("true" | "1" | "yes"))
    }

    /// Rejects unknown flags so typos fail loudly.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unrecognized flag.
    pub fn expect_only(&self, known: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys() {
            if !known.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{key}; valid flags: {}",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Parses `"60m"`, `"4k"`, `"2g"`, or a bare integer.
pub fn parse_count(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1_000),
        'm' | 'M' => (&s[..s.len() - 1], 1_000_000),
        'g' | 'G' => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(["run", "--bench", "mcf", "--instructions=60m"]).unwrap();
        assert_eq!(a.command(), "run");
        assert_eq!(a.get("bench"), Some("mcf"));
        assert_eq!(a.count_or("instructions", 0).unwrap(), 60_000_000);
        assert_eq!(a.get_or("scheme", "picl"), "picl");
    }

    #[test]
    fn count_suffixes() {
        assert_eq!(parse_count("42"), Some(42));
        assert_eq!(parse_count("3k"), Some(3_000));
        assert_eq!(parse_count("30M"), Some(30_000_000));
        assert_eq!(parse_count("2g"), Some(2_000_000_000));
        assert_eq!(parse_count("x"), None);
        assert_eq!(parse_count(""), None);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(Vec::<String>::new()).is_err());
        assert!(Args::parse(["--bench", "mcf"]).is_err());
    }

    #[test]
    fn malformed_flags_are_errors() {
        assert!(
            Args::parse(["run", "--bench", "mcf", "extra"]).is_err(),
            "positional after flags"
        );
        assert!(Args::parse(["run", "--bench"]).is_err(), "missing value");
        assert!(
            Args::parse(["run", "--a", "1", "--a", "2"]).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn one_subcommand_is_absorbed() {
        let a = Args::parse(["store", "run", "--seed", "7"]).unwrap();
        assert_eq!(a.command(), "store");
        assert_eq!(a.subcommand(), Some("run"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.expect_no_subcommand().is_err());

        let plain = Args::parse(["run", "--bench", "mcf"]).unwrap();
        assert_eq!(plain.subcommand(), None);
        assert!(plain.expect_no_subcommand().is_ok());
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = Args::parse(["run", "--bogus", "1"]).unwrap();
        let err = a.expect_only(&["bench", "scheme"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
        let ok = Args::parse(["run", "--bench", "mcf"]).unwrap();
        assert!(ok.expect_only(&["bench"]).is_ok());
    }

    #[test]
    fn boolean_flags_need_no_value() {
        let a = Args::parse(["bench", "--quick", "--out", "f.json"]).unwrap();
        assert!(a.is_set("quick"));
        assert_eq!(a.get("out"), Some("f.json"));
        let b = Args::parse(["bench", "--quick=false"]).unwrap();
        assert!(!b.is_set("quick"));
        assert!(!Args::parse(["bench"]).unwrap().is_set("quick"));
    }

    #[test]
    fn float_flags() {
        let a = Args::parse(["run", "--scale", "0.25"]).unwrap();
        assert_eq!(a.float_or("scale", 1.0).unwrap(), 0.25);
        assert_eq!(a.float_or("other", 2.0).unwrap(), 2.0);
        let bad = Args::parse(["run", "--scale", "abc"]).unwrap();
        assert!(bad.float_or("scale", 1.0).is_err());
    }
}
