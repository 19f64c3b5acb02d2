//! The one command-line flag reader shared by every subcommand of both
//! binaries (`pathinv-cli` and `experiments`).
//!
//! [`Flags::each`] walks the arguments and hands every one to a callback,
//! which pulls the argument's value, if it takes one, with [`Flags::value`],
//! [`Flags::num`] or [`Flags::positive`].  Each reader fails with the exact
//! message the CLI has always printed, and [`usage_error`] is the one path
//! that turns such a message into exit status 2.

use std::process::ExitCode;
use std::str::FromStr;

/// A cursor over the arguments of one subcommand.
pub struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// Calls `on_arg` with every argument in order, plus the cursor so the
    /// callback can consume the argument's value; stops at the first error.
    ///
    /// # Errors
    ///
    /// Returns the first message `on_arg` fails with.
    pub fn each(
        args: &'a [String],
        mut on_arg: impl FnMut(&'a str, &mut Flags<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut flags = Flags { rest: args.iter() };
        while let Some(arg) = flags.rest.next() {
            on_arg(arg, &mut flags)?;
        }
        Ok(())
    }

    /// The value following `flag`.
    ///
    /// # Errors
    ///
    /// `{flag} requires a value` when the arguments end here.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.rest.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following `flag`, parsed as a number.
    ///
    /// # Errors
    ///
    /// As [`Flags::value`], or ``bad {flag} `{v}` `` when `v` does not parse.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    }

    /// The value following `flag`, parsed as a number of at least 1.
    ///
    /// # Errors
    ///
    /// As [`Flags::num`], or `{flag} must be at least 1` for zero.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self, flag: &str) -> Result<T, String> {
        let n: T = self.num(flag)?;
        if n == T::default() {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }
}

/// Reports a usage error — `error: {msg}`, then `usage` after a blank line
/// unless it is empty — and returns exit status 2.
pub fn usage_error(msg: &str, usage: &str) -> ExitCode {
    if usage.is_empty() {
        eprintln!("error: {msg}");
    } else {
        eprintln!("error: {msg}\n\n{usage}");
    }
    ExitCode::from(2)
}
