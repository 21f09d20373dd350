//! One declarative command-line layer for every wabench binary.
//!
//! A binary states its command line once, as data — [`Command`]s with
//! their [`Flag`]s — and [`parse`] does the rest: it picks the
//! subcommand, applies `--log LEVEL` (which every command takes), and
//! turns every malformed command line into the same usage error: a
//! line naming the offending flag or argument, the usage generated from
//! the table (defaults included), exit 2. Typed values come out through
//! [`Args::get`] / [`Args::opt`] with the caller's parse function, so a
//! bad value reads `--workers needs a positive integer` everywhere.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// One flag of a [`Command`].
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The spelling, dashes included (`--socket`, `-o`).
    pub name: &'static str,
    /// The metavariable of the value it takes; `None` for a switch.
    pub arg: Option<&'static str>,
    /// The value used when the flag is absent.
    pub default: Option<&'static str>,
    /// One line of usage text.
    pub help: &'static str,
    /// Whether it may be repeated (every value is kept).
    pub many: bool,
}

impl Flag {
    /// A flag taking one value, shown as `arg` in the usage text.
    pub const fn value(name: &'static str, arg: &'static str, help: &'static str) -> Flag {
        Flag {
            arg: Some(arg),
            ..Flag::switch(name, help)
        }
    }

    /// An on/off switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            arg: None,
            default: None,
            help,
            many: false,
        }
    }

    /// This flag with a default value.
    pub const fn default(self, value: &'static str) -> Flag {
        Flag {
            default: Some(value),
            ..self
        }
    }

    /// This flag, allowed to repeat.
    pub const fn many(self) -> Flag {
        Flag { many: true, ..self }
    }
}

/// One command of a binary.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The subcommand word; `""` for the command that runs when the
    /// first argument names no other.
    pub name: &'static str,
    /// The metavariable of the one positional argument the command
    /// requires, if it takes one.
    pub positional: Option<&'static str>,
    /// The flags it accepts besides the common `--log LEVEL`.
    pub flags: &'static [Flag],
}

impl Command {
    /// A command taking `flags` and no positional argument.
    pub const fn new(name: &'static str, flags: &'static [Flag]) -> Command {
        Command {
            name,
            positional: None,
            flags,
        }
    }

    /// This command, requiring one positional argument shown as `arg`.
    pub const fn takes(self, arg: &'static str) -> Command {
        Command {
            positional: Some(arg),
            ..self
        }
    }
}

const LOG: Flag = Flag::value("--log", "LEVEL", "error|warn|info|debug (overrides WABENCH_LOG)");

/// The flag of `cmd` spelled `name`, `--log` included.
fn lookup(cmd: &'static Command, name: &str) -> Option<&'static Flag> {
    cmd.flags.iter().chain([&LOG]).find(|f| f.name == name)
}

/// Why a command line was refused: the command whose usage to show
/// (`None`: the binary's overview) and a line naming the culprit.
type Rejection = (Option<&'static Command>, String);

/// A parsed command line.
#[derive(Debug)]
pub struct Args {
    prog: &'static str,
    cmd: &'static Command,
    positional: Option<String>,
    /// Given flags in order with their values (empty for switches).
    given: Vec<(&'static str, String)>,
}

/// Parses the process arguments against `commands` and applies
/// `--log`; a malformed command line prints the usage error and exits 2.
pub fn parse(prog: &'static str, commands: &'static [Command]) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse_from(prog, commands, &argv).unwrap_or_else(|(cmd, message)| {
        usage_error(prog, cmd.map_or(commands, std::slice::from_ref), message)
    });
    if let Some(level) = args.opt("--log", "a level", crate::logger::Level::parse) {
        crate::logger::set_level(level);
    }
    args
}

/// Prints `message` and the usage of `commands`, then exits 2.
fn usage_error(prog: &str, commands: &[Command], message: impl Display) -> ! {
    crate::error!("{prog}: {message}");
    crate::error!("{}", usage_text(prog, commands));
    std::process::exit(2);
}

/// The usage text: one synopsis line per command, and for a single
/// command its flags with help and defaults.
fn usage_text(prog: &str, commands: &[Command]) -> String {
    let mut s = String::from("usage:");
    for c in commands {
        s.push_str("\n  ");
        s.push_str(prog);
        for word in [c.name, c.positional.unwrap_or_default()] {
            if !word.is_empty() {
                s.push(' ');
                s.push_str(word);
            }
        }
        for f in c.flags {
            s.push_str(&format!(" [{}]{}", head(f), if f.many { "..." } else { "" }));
        }
    }
    match commands {
        [c] => {
            for f in c.flags.iter().chain([&LOG]) {
                s.push_str(&format!("\n    {:<22} {}", head(f), f.help));
                if let Some(d) = f.default {
                    s.push_str(&format!(" (default {d})"));
                }
            }
        }
        _ => s.push_str(&format!("\n  every command also takes {}: {}", head(&LOG), LOG.help)),
    }
    s
}

fn head(f: &Flag) -> String {
    match f.arg {
        Some(meta) => format!("{} {meta}", f.name),
        None => f.name.to_string(),
    }
}

impl Args {
    /// Parses `argv` (without the program name) against `commands`.
    ///
    /// The first argument picks a named command; otherwise the `""`
    /// command, if any, takes every argument. Refused: an unknown
    /// flag, a flag missing its value (a following `--flag` is not a
    /// value), a non-repeatable flag given twice, a positional argument
    /// the command does not take or a second one, and a missing
    /// required positional.
    fn parse_from(
        prog: &'static str,
        commands: &'static [Command],
        argv: &[String],
    ) -> Result<Args, Rejection> {
        let named = argv
            .first()
            .and_then(|a| commands.iter().find(|c| !c.name.is_empty() && c.name == a));
        let (cmd, rest) = match (named, commands.iter().find(|c| c.name.is_empty())) {
            (Some(c), _) => (c, &argv[1..]),
            (None, Some(c)) if !argv.is_empty() || commands.len() == 1 => (c, argv),
            (None, _) => {
                return Err(match argv.first() {
                    Some(a) => (None, format!("unknown command {a:?}")),
                    None => (None, "missing command".to_string()),
                })
            }
        };
        let reject = |message: String| (Some(cmd), message);
        let mut args = Args {
            prog,
            cmd,
            positional: None,
            given: Vec::new(),
        };
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            if a.len() > 1 && a.starts_with('-') {
                let flag = lookup(cmd, a).ok_or_else(|| reject(format!("unknown flag {a}")))?;
                if !flag.many && args.given.iter().any(|(n, _)| *n == flag.name) {
                    return Err(reject(format!("{a} given twice")));
                }
                let value = match flag.arg {
                    None => String::new(),
                    Some(meta) => match it.next() {
                        Some(v) if !v.starts_with("--") => v.clone(),
                        _ => return Err(reject(format!("{a} is missing its {meta} value"))),
                    },
                };
                args.given.push((flag.name, value));
            } else if cmd.positional.is_none() || args.positional.is_some() {
                return Err(reject(format!("unexpected argument {a:?}")));
            } else {
                args.positional = Some(a.clone());
            }
        }
        match (cmd.positional, &args.positional) {
            (Some(meta), None) => Err(reject(format!("missing {meta}"))),
            _ => Ok(args),
        }
    }

    /// The name of the command that was picked.
    pub fn command(&self) -> &'static str {
        self.cmd.name
    }

    /// The positional argument (`""` for a command that takes none; the
    /// parser already refused a missing one).
    pub fn positional(&self) -> &str {
        self.positional.as_deref().unwrap_or_default()
    }

    /// Whether switch `flag` was given.
    pub fn on(&self, flag: &str) -> bool {
        self.declared(flag);
        self.given.iter().any(|(n, _)| *n == flag)
    }

    /// Every value given for `flag`, in order; its default when none was.
    pub fn all(&self, flag: &str) -> Vec<&str> {
        let f = self.declared(flag);
        let mut given: Vec<&str> =
            self.given.iter().filter(|(n, _)| *n == flag).map(|(_, v)| v.as_str()).collect();
        if given.is_empty() {
            given.extend(f.default);
        }
        given
    }

    /// The value of `flag` (or its default) through `parse`; `None`
    /// when it has neither. A value `parse` rejects is a usage error
    /// reading "`flag` needs `what`".
    pub fn opt<T>(&self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let v = self.all(flag).pop()?;
        Some(parse(v).unwrap_or_else(|| self.fail(format!("{flag} needs {what}, not {v:?}"))))
    }

    /// [`Args::opt`] for a flag the command cannot run without: absent
    /// with no default is a usage error.
    pub fn get<T>(&self, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> T {
        self.opt(flag, what, parse)
            .unwrap_or_else(|| self.fail(format!("{flag} is required")))
    }

    /// Reports a usage error for this command: `message`, its usage,
    /// exit 2.
    pub fn fail(&self, message: impl Display) -> ! {
        usage_error(self.prog, std::slice::from_ref(self.cmd), message)
    }

    /// Runs `body`, recording spans when the command line asked for
    /// them (`--trace-out FILE`, `--report`, whichever the command
    /// declares); afterwards writes the trace and prints the span
    /// profile table ([`crate::prof::render`]) to stderr. The file name picks the format: `*.folded` gets
    /// wall-time folded stacks for `flamegraph.pl`, anything else the
    /// Chrome trace. A trace file that cannot be written exits 1.
    pub fn traced<R>(&self, body: impl FnOnce() -> R) -> R {
        let takes = |f: &str| self.cmd.flags.iter().any(|x| x.name == f);
        let out = takes("--trace-out").then(|| self.opt("--trace-out", "a file", path)).flatten();
        let report = takes("--report") && self.on("--report");
        if out.is_none() && !report {
            return body();
        }
        crate::trace::install(crate::trace::Sink::Ring);
        let r = body();
        let trace = crate::trace::drain();
        crate::trace::install(crate::trace::Sink::Null);
        if let Some(path) = out {
            let written = if path.extension().is_some_and(|e| e == "folded") {
                crate::folded::export_file(&trace, &path)
            } else {
                crate::chrome::export_file(&trace, &path)
            };
            match written {
                Ok(()) => crate::info!("wrote {} ({} spans)", path.display(), trace.span_count()),
                Err(e) => {
                    crate::error!("{}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        if report {
            eprint!("{}", crate::prof::render(&trace));
        }
        r
    }

    /// `flag`'s table row; asking for a flag the command does not
    /// declare is a bug in the caller.
    fn declared(&self, flag: &str) -> &'static Flag {
        lookup(self.cmd, flag)
            .unwrap_or_else(|| panic!("{flag} is not a flag of `{} {}`", self.prog, self.cmd.name))
    }
}

/// Parse function for a strictly positive number.
pub fn positive<T: FromStr + Default + PartialOrd>(s: &str) -> Option<T> {
    s.parse().ok().filter(|n| *n > T::default())
}

/// Parse function for any [`FromStr`] value.
pub fn number<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// Parse function for a path (never fails).
pub fn path(s: &str) -> Option<PathBuf> {
    Some(PathBuf::from(s))
}

/// Parse function for plain text (never fails).
pub fn text(s: &str) -> Option<String> {
    Some(s.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    static COMMANDS: &[Command] = &[
        Command::new("", &[
            Flag::value("--jobs", "N", "workers").default("1"),
            Flag::switch("--md", "markdown"),
            Flag::value("--bench", "NAME", "benchmark").many(),
        ]).takes("TARGET"),
        Command::new("stats", &[Flag::value("--socket", "PATH", "server socket")]),
    ];

    fn parse(argv: &[&str]) -> Result<Args, Rejection> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse_from("prog", COMMANDS, &argv)
    }

    fn refusal(argv: &[&str]) -> String {
        parse(argv).expect_err("must be refused").1
    }

    #[test]
    fn picks_named_command_else_the_default_one() {
        let a = parse(&["stats", "--socket", "s"]).expect("stats");
        assert_eq!(a.cmd.name, "stats");
        assert_eq!(a.get("--socket", "a path", path), PathBuf::from("s"));
        let a = parse(&["fig6", "--md"]).expect("default");
        assert_eq!((a.cmd.name, a.positional(), a.on("--md")), ("", "fig6", true));
        assert_eq!(a.get("--jobs", "a positive integer", positive::<usize>), 1);
        assert_eq!(refusal(&[]), "missing command");
    }

    #[test]
    fn every_malformed_line_is_refused_naming_the_culprit() {
        for (argv, why) in [
            (&["--jbos", "4", "fig6"][..], "unknown flag --jbos"),
            (&["fig6", "fig7"], "unexpected argument \"fig7\""),
            (&["stats", "x"], "unexpected argument \"x\""),
            (&["stats", "--jobs", "3"], "unknown flag --jobs"),
            (&["fig6", "--jobs"], "--jobs is missing its N value"),
            (&["fig6", "--jobs", "--md"], "--jobs is missing its N value"),
            (&["fig6", "--md", "--md"], "--md given twice"),
            (&["--md"], "missing TARGET"),
        ] {
            assert_eq!(refusal(argv), why, "{argv:?}");
        }
    }

    #[test]
    fn many_flags_keep_every_value_and_log_is_common() {
        let a = parse(&["x", "--bench", "a", "--bench", "b", "--log", "warn"]).expect("parses");
        assert_eq!(a.all("--bench"), ["a", "b"]);
        assert_eq!(a.opt("--log", "a level", text).as_deref(), Some("warn"));
        assert!(parse(&["stats", "--log", "error"]).is_ok());
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        let all = usage_text("prog", COMMANDS);
        assert!(all.contains("prog TARGET [--jobs N] [--md] [--bench NAME]..."), "{all}");
        assert!(all.contains("prog stats [--socket PATH]"), "{all}");
        let one = usage_text("prog", &COMMANDS[..1]);
        assert!(one.contains("--jobs N") && one.contains("workers (default 1)"), "{one}");
        assert!(one.contains("--log LEVEL"), "{one}");
    }
}
