//! Declarative argument parsing (no external dependencies).
//!
//! Each subcommand declares a [`CmdSpec`] — its positionals and an
//! [`OptSpec`] table — and parsing, usage text, and error messages all
//! derive from that single table. Unknown options are rejected (with a
//! "did you mean" suggestion) instead of being treated as value-taking
//! options, which used to silently swallow the next argument.

use std::collections::BTreeMap;

/// One option a subcommand accepts.
#[derive(Debug, Clone, Copy)]
pub struct OptSpec {
    /// Canonical long name (`--seed`) — the key commands read back.
    pub name: &'static str,
    /// Optional short alias (`-o`), shown in usage when present.
    pub short: Option<&'static str>,
    /// Whether the option consumes the next argument as its value.
    pub takes_value: bool,
    /// Whether the option may be given more than once (`--train a --train b`).
    pub repeatable: bool,
    /// Placeholder (or `a|b|c` enumeration) shown in usage text.
    pub value_name: &'static str,
}

impl OptSpec {
    /// A boolean flag: present or absent, no value.
    pub const fn flag(name: &'static str) -> Self {
        Self { name, short: None, takes_value: false, repeatable: false, value_name: "" }
    }

    /// An option taking one value.
    pub const fn value(name: &'static str, value_name: &'static str) -> Self {
        Self { name, short: None, takes_value: true, repeatable: false, value_name }
    }

    /// An option taking one value, allowed to repeat.
    pub const fn repeated(name: &'static str, value_name: &'static str) -> Self {
        Self { name, short: None, takes_value: true, repeatable: true, value_name }
    }

    /// Attach a short alias.
    pub const fn with_short(mut self, short: &'static str) -> Self {
        self.short = Some(short);
        self
    }

    /// The name shown in usage (short alias wins — it is what people type).
    fn display_name(&self) -> &'static str {
        self.short.unwrap_or(self.name)
    }
}

/// One positional argument in a [`CmdSpec`].
#[derive(Debug, Clone, Copy)]
pub struct PosSpec {
    /// Placeholder shown in usage text.
    pub name: &'static str,
    /// Required positionals render as `<name>`, optional as `[name]`.
    pub required: bool,
    /// Whether more than one value may be supplied (`<trace>...`).
    pub variadic: bool,
}

/// A subcommand's full argument grammar.
#[derive(Debug, Clone, Copy)]
pub struct CmdSpec {
    /// Subcommand name (`fit`, `simulate`, …).
    pub name: &'static str,
    /// Positional arguments, in order.
    pub positionals: &'static [PosSpec],
    /// The option table.
    pub opts: &'static [OptSpec],
}

/// Flags every subcommand accepts (mapped onto the log filter before
/// dispatch, but still declared so parsing accepts them anywhere).
pub const GLOBAL_FLAGS: [OptSpec; 2] = [OptSpec::flag("--quiet"), OptSpec::flag("--verbose")];

impl CmdSpec {
    /// The one-line usage synopsis, generated from the tables.
    pub fn usage_line(&self) -> String {
        let mut s = format!("  ibox {}", self.name);
        for p in self.positionals {
            let dots = if p.variadic { "..." } else { "" };
            if p.required {
                s.push_str(&format!(" <{}>{dots}", p.name));
            } else {
                s.push_str(&format!(" [{}]{dots}", p.name));
            }
        }
        for o in self.opts {
            let mut inner = o.display_name().to_string();
            if o.takes_value {
                inner.push_str(&format!(" <{}>", o.value_name));
            }
            if o.repeatable {
                inner.push_str("...");
            }
            s.push_str(&format!(" [{inner}]"));
        }
        s
    }

    fn find(&self, arg: &str) -> Option<&OptSpec> {
        self.opts.iter().chain(GLOBAL_FLAGS.iter()).find(|o| o.name == arg || o.short == Some(arg))
    }

    /// Every way an option can be spelled for this command — the
    /// candidate set for "did you mean" suggestions.
    fn spellings(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for o in self.opts.iter().chain(GLOBAL_FLAGS.iter()) {
            out.push(o.name);
            if let Some(s) = o.short {
                out.push(s);
            }
        }
        out
    }
}

/// Parsed command line: positional arguments plus options, keyed by their
/// canonical (long) name.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Option values under the canonical name; flags map to empty vecs'
    /// worth of presence (a single empty string).
    pub options: BTreeMap<String, Vec<String>>,
}

/// An argument error: the command line does not fit the command's
/// grammar, so `ibox` follows it with the usage block.
#[derive(Debug)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Parse `argv` (after the subcommand) against the command's grammar.
///
/// Anything starting with `-` that the table doesn't know is an error —
/// with a suggestion when a declared option is close — so a typo like
/// `--no-crossx` can never swallow the argument after it.
pub fn parse(argv: &[String], cmd: &CmdSpec) -> Result<Parsed, UsageError> {
    let mut out = Parsed::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with('-') && arg.len() > 1 {
            let Some(opt) = cmd.find(arg) else {
                return Err(UsageError(unknown_option_error(arg, cmd)));
            };
            let entry = out.options.entry(opt.name.to_string()).or_default();
            if !entry.is_empty() && !opt.repeatable {
                return Err(UsageError(format!("option {} given more than once", opt.name)));
            }
            if opt.takes_value {
                let needs_value = || UsageError(format!("option {} needs a value", opt.name));
                let value = it.next().ok_or_else(needs_value)?;
                entry.push(value.clone());
            } else {
                entry.push(String::new());
            }
        } else {
            out.positional.push(arg.clone());
        }
    }
    let max =
        if cmd.positionals.iter().any(|p| p.variadic) { usize::MAX } else { cmd.positionals.len() };
    if out.positional.len() > max {
        return Err(UsageError(format!(
            "unexpected argument {:?} (ibox {} takes at most {max} positional argument{})",
            out.positional[max],
            cmd.name,
            if max == 1 { "" } else { "s" }
        )));
    }
    Ok(out)
}

fn unknown_option_error(arg: &str, cmd: &CmdSpec) -> String {
    let mut msg = format!("unknown option {arg} for `ibox {}`", cmd.name);
    let best = cmd
        .spellings()
        .into_iter()
        .map(|cand| (levenshtein(arg, cand), cand))
        .min_by_key(|(d, _)| *d);
    if let Some((d, cand)) = best {
        // Only suggest near-misses: a distance beyond a third of the
        // option's length is noise, not a typo.
        if d <= (cand.len() / 3).max(1) {
            msg.push_str(&format!(" — did you mean `{cand}`?"));
        }
    }
    msg
}

/// Classic dynamic-programming edit distance, O(a·b).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

impl Parsed {
    /// Required positional argument `idx`.
    pub fn positional(&self, idx: usize, what: &str) -> Result<&str, UsageError> {
        let missing = || UsageError(format!("missing {what}"));
        self.positional.get(idx).map(String::as_str).ok_or_else(missing)
    }

    /// Optional option value (the last one given, by canonical name).
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).and_then(|v| v.last()).map(String::as_str)
    }

    /// Every value a repeatable option was given.
    pub fn opt_all(&self, key: &str) -> Vec<&str> {
        self.options.get(key).map(|v| v.iter().map(String::as_str).collect()).unwrap_or_default()
    }

    /// Required option value.
    pub fn required(&self, key: &str) -> Result<&str, UsageError> {
        self.opt(key).ok_or_else(|| UsageError(format!("missing required option {key}")))
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, UsageError> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| UsageError(format!("invalid value for {key}: {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_CMD: CmdSpec = CmdSpec {
        name: "test",
        positionals: &[PosSpec { name: "trace", required: true, variadic: false }],
        opts: &[
            OptSpec::value("--protocol", "name"),
            OptSpec::value("--seed", "N"),
            OptSpec::value("--duration", "S"),
            OptSpec::value("--output", "path").with_short("-o"),
            OptSpec::flag("--no-cross"),
            OptSpec::flag("--with-reordering"),
            OptSpec::repeated("--train", "trace"),
        ],
    };

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options_mix() {
        let p = parse(&argv(&["trace.json", "--protocol", "vegas", "-o", "out.json"]), &TEST_CMD)
            .unwrap();
        assert_eq!(p.positional, vec!["trace.json"]);
        assert_eq!(p.opt("--protocol"), Some("vegas"));
        // Short aliases resolve to the canonical long name.
        assert_eq!(p.opt("--output"), Some("out.json"));
    }

    #[test]
    fn flags_take_no_value() {
        let p = parse(&argv(&["--no-cross", "t.json", "--with-reordering"]), &TEST_CMD).unwrap();
        assert!(p.flag("--no-cross"));
        assert!(p.flag("--with-reordering"));
        assert_eq!(p.positional, vec!["t.json"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--protocol"]), &TEST_CMD).is_err());
        assert!(parse(&argv(&["-o"]), &TEST_CMD).is_err());
    }

    #[test]
    fn unknown_options_rejected_with_suggestion() {
        let err = parse(&argv(&["-x"]), &TEST_CMD).unwrap_err();
        assert!(err.0.contains("unknown option -x"), "{err}");

        // The old parser treated any mistyped `--flag` as value-taking and
        // silently swallowed the next argument. Now it's a hard error with
        // a suggestion.
        let err = parse(&argv(&["--no-crossx", "t.json"]), &TEST_CMD).unwrap_err();
        assert!(err.0.contains("unknown option --no-crossx"), "{err}");
        assert!(err.0.contains("did you mean `--no-cross`?"), "{err}");

        let err = parse(&argv(&["--sed", "7"]), &TEST_CMD).unwrap_err();
        assert!(err.0.contains("did you mean `--seed`?"), "{err}");
    }

    #[test]
    fn far_off_typos_get_no_suggestion() {
        let err = parse(&argv(&["--zzzzzzzzzz"]), &TEST_CMD).unwrap_err();
        assert!(!err.0.contains("did you mean"), "{err}");
    }

    #[test]
    fn repeatable_options_accumulate_and_others_do_not() {
        let p = parse(&argv(&["--train", "a.json", "--train", "b.json"]), &TEST_CMD).unwrap();
        assert_eq!(p.opt_all("--train"), vec!["a.json", "b.json"]);

        let err = parse(&argv(&["--seed", "1", "--seed", "2"]), &TEST_CMD).unwrap_err();
        assert!(err.0.contains("more than once"), "{err}");
    }

    #[test]
    fn excess_positionals_rejected() {
        let err = parse(&argv(&["a.json", "b.json"]), &TEST_CMD).unwrap_err();
        assert!(err.0.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn global_flags_parse_everywhere() {
        let p = parse(&argv(&["t.json", "--verbose"]), &TEST_CMD).unwrap();
        assert!(p.flag("--verbose"));
    }

    #[test]
    fn numeric_options() {
        let p = parse(&argv(&["--seed", "42", "--duration", "12.5"]), &TEST_CMD).unwrap();
        assert_eq!(p.num("--seed", 0u64).unwrap(), 42);
        assert_eq!(p.num("--duration", 30.0f64).unwrap(), 12.5);
        assert_eq!(p.num("--missing", 7u32).unwrap(), 7);
        assert!(p.num::<u64>("--duration", 0).is_err());
    }

    #[test]
    fn required_accessors() {
        let p = parse(&argv(&["a"]), &TEST_CMD).unwrap();
        assert_eq!(p.positional(0, "trace").unwrap(), "a");
        assert!(p.positional(1, "thing").is_err());
        assert!(p.required("--protocol").is_err());
    }

    #[test]
    fn usage_lines_render_from_the_table() {
        let line = TEST_CMD.usage_line();
        assert!(line.starts_with("  ibox test <trace>"), "{line}");
        assert!(line.contains("[--protocol <name>]"), "{line}");
        assert!(line.contains("[-o <path>]"), "{line}");
        assert!(line.contains("[--train <trace>...]"), "{line}");
        assert!(line.contains("[--no-cross]"), "{line}");
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("--sed", "--seed"), 1);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
    }
}
