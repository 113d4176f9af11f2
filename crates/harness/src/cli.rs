//! The `harness` flag grammar: a cursor over one subcommand's argument
//! tokens and the typed getters every subcommand reads its flags with.
//!
//! Each subcommand keeps its own `match` over [`Args::token`]; the match is
//! the flag table and each arm is one getter call. Every parse returns
//! `Result<_, Usage>`, and the binary turns a [`Usage`] into the usage
//! text and an exit code in one place.

use std::str::FromStr;

/// Why a parse stopped without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Usage {
    /// `--help` or `-h`: print the usage text and exit 0.
    Help,
    /// A malformed command line: print the message and the usage text,
    /// exit 2.
    Error(String),
}

impl From<String> for Usage {
    fn from(msg: String) -> Self {
        Usage::Error(msg)
    }
}

impl From<&str> for Usage {
    fn from(msg: &str) -> Self {
        Usage::Error(msg.to_string())
    }
}

/// A cursor over one subcommand's argument tokens.
#[derive(Debug)]
pub struct Args {
    /// Subcommand name for messages; empty for the bare experiment run.
    cmd: String,
    toks: std::vec::IntoIter<String>,
    /// The `N` of an attached `-jN`, served as the value of the `-j` that
    /// [`Args::token`] returned for it.
    attached: Option<String>,
}

impl Args {
    /// A cursor over `toks`, the arguments after the subcommand `cmd`
    /// (`""` for the bare experiment run).
    pub fn new(cmd: impl Into<String>, toks: Vec<String>) -> Self {
        Args {
            cmd: cmd.into(),
            toks: toks.into_iter(),
            attached: None,
        }
    }

    /// The next flag or positional token, `Ok(None)` at the end, or
    /// `Err(Usage::Help)` for `--help`/`-h`. `-jN` comes back as `-j`, with
    /// `N` kept as its value: `-j N` and `-jN` both alias `--jobs`.
    pub fn token(&mut self) -> Result<Option<String>, Usage> {
        let Some(tok) = self.toks.next() else {
            return Ok(None);
        };
        match tok.as_str() {
            "--help" | "-h" => Err(Usage::Help),
            t if t.len() > 2 && t.starts_with("-j") => {
                self.attached = Some(t[2..].to_string());
                Ok(Some("-j".to_string()))
            }
            _ => Ok(Some(tok)),
        }
    }

    /// The value of `flag`, taken verbatim.
    pub fn string(&mut self, flag: &str) -> Result<String, Usage> {
        self.attached
            .take()
            .or_else(|| self.toks.next())
            .ok_or_else(|| format!("{flag} needs a value").into())
    }

    /// The value of `flag`, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, Usage> {
        let v = self.string(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: invalid value '{v}'").into())
    }

    /// The value of `flag` as a count: an unsigned integer of at least 1.
    pub fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, flag: &str) -> Result<T, Usage> {
        let n: T = self.parse(flag)?;
        if n < T::from(1) {
            return Err(format!("{flag}: must be at least 1").into());
        }
        Ok(n)
    }

    /// The value of `flag` as a journal level (`debug`, `info`, `warn`,
    /// `error`).
    pub fn level(&mut self, flag: &str) -> Result<obs::log::Level, Usage> {
        let v = self.string(flag)?;
        obs::log::Level::parse(&v).ok_or_else(|| format!("{flag}: unknown level '{v}'").into())
    }

    /// The error for a flag this subcommand does not have.
    pub fn unknown(&mut self, tok: &str) -> Usage {
        let tok = format!("{tok}{}", self.attached.take().unwrap_or_default());
        if self.cmd.is_empty() {
            format!("unknown option: {tok}").into()
        } else {
            format!("unknown {} option: {tok}", self.cmd).into()
        }
    }
}

/// Fills `slot` with a subcommand's single positional argument; a second
/// one is an error.
pub fn once(slot: &mut Option<String>, tok: String) -> Result<(), Usage> {
    if slot.is_some() {
        return Err(format!("unexpected argument: {tok}").into());
    }
    *slot = Some(tok);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(toks: &[&str]) -> Args {
        Args::new("demo", toks.iter().map(|s| s.to_string()).collect())
    }

    fn err(msg: &str) -> Usage {
        Usage::Error(msg.to_string())
    }

    #[test]
    fn token_yields_tokens_then_none_and_stops_at_help() {
        let mut a = args(&["x", "--flag"]);
        assert_eq!(a.token(), Ok(Some("x".to_string())));
        assert_eq!(a.token(), Ok(Some("--flag".to_string())));
        assert_eq!(a.token(), Ok(None));
        assert_eq!(args(&["--help"]).token(), Err(Usage::Help));
        assert_eq!(args(&["-h"]).token(), Err(Usage::Help));
    }

    #[test]
    fn string_takes_the_next_token_verbatim() {
        let mut a = args(&["--out", "--help"]);
        a.token().unwrap();
        assert_eq!(a.string("--out"), Ok("--help".to_string()));
        assert_eq!(a.string("--out"), Err(err("--out needs a value")));
    }

    #[test]
    fn parse_names_the_flag_and_the_bad_value() {
        let mut a = args(&["0.5", "half"]);
        assert_eq!(a.parse::<f64>("--scale"), Ok(0.5));
        assert_eq!(
            a.parse::<f64>("--scale"),
            Err(err("--scale: invalid value 'half'"))
        );
        assert_eq!(a.parse::<u64>("--seed"), Err(err("--seed needs a value")));
    }

    #[test]
    fn count_rejects_zero() {
        let mut a = args(&["3", "0", "-1"]);
        assert_eq!(a.count::<usize>("--window"), Ok(3));
        assert_eq!(
            a.count::<u32>("--window"),
            Err(err("--window: must be at least 1"))
        );
        assert_eq!(
            a.count::<u64>("--window"),
            Err(err("--window: invalid value '-1'"))
        );
    }

    #[test]
    fn level_parses_journal_levels() {
        let mut a = args(&["debug", "WARNING", "loud"]);
        assert_eq!(a.level("--log-level"), Ok(obs::log::Level::Debug));
        assert_eq!(a.level("--log-level"), Ok(obs::log::Level::Warn));
        assert_eq!(
            a.level("--log-level"),
            Err(err("--log-level: unknown level 'loud'"))
        );
        assert_eq!(
            a.level("--log-level"),
            Err(err("--log-level needs a value"))
        );
    }

    #[test]
    fn attached_jobs_is_an_alias_with_its_value() {
        let mut a = args(&["-j4", "-j", "2", "-jfour"]);
        for want in [4usize, 2] {
            let flag = a.token().unwrap().unwrap();
            assert_eq!(flag, "-j");
            assert_eq!(a.count::<usize>(&flag), Ok(want));
        }
        a.token().unwrap();
        assert_eq!(a.count::<usize>("-j"), Err(err("-j: invalid value 'four'")));
    }

    #[test]
    fn unknown_names_the_subcommand_and_the_whole_token() {
        let mut a = args(&["-j9"]);
        let flag = a.token().unwrap().unwrap();
        assert_eq!(a.unknown(&flag), err("unknown demo option: -j9"));
        let mut bare = Args::new("", vec![]);
        assert_eq!(bare.unknown("-x"), err("unknown option: -x"));
    }

    #[test]
    fn once_takes_one_positional() {
        let mut slot = None;
        assert_eq!(once(&mut slot, "a".to_string()), Ok(()));
        assert_eq!(
            once(&mut slot, "b".to_string()),
            Err(err("unexpected argument: b"))
        );
        assert_eq!(slot.as_deref(), Some("a"));
    }
}
