//! The one command-line validator behind all four binaries —
//! `reproduce_all`, `sweepd`, `sweepctl` and `obs_report`: a binary
//! states its flags once and nothing it does not know gets past `main`'s
//! first lines.

/// Checks that every argument is a switch, a value flag followed by its
/// values (none of which may start with `--`), or one of at most
/// `positionals` free arguments, and returns the free arguments in order.
/// `value_flags` gives each flag its value count and what its values are,
/// for the complaint ("a directory argument"), which callers print above
/// their usage text before exiting 2 — and before they lock, bind, connect
/// or write anything, so a typo never falls through to a default.
pub fn check_args<'a>(
    args: &'a [String],
    value_flags: &[(&str, usize, &str)],
    switches: &[&str],
    positionals: usize,
) -> Result<Vec<&'a str>, String> {
    let mut free = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some((flag, count, what)) = value_flags.iter().find(|(flag, ..)| flag == arg) {
            for _ in 0..*count {
                if rest.next().is_none_or(|value| value.starts_with("--")) {
                    return Err(format!("{flag} requires {what}"));
                }
            }
        } else if !arg.starts_with('-') && free.len() < positionals {
            free.push(arg.as_str());
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(free)
}

/// The `count` values following `flag`, once [`check_args`] has passed
/// (which is what guarantees a present flag has them).
pub fn values_of<'a>(args: &'a [String], flag: &str, count: usize) -> Option<&'a [String]> {
    let at = args.iter().position(|a| a == flag)?;
    Some(&args[at + 1..=at + count])
}

/// The single value following `flag`; see [`values_of`].
pub fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    values_of(args, flag, 1).map(|v| v[0].as_str())
}
