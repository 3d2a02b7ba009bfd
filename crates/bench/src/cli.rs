//! The one command-line validator behind `reproduce_all`, `sweepd` and
//! `obs_report`: a binary states its flags once and nothing it does not
//! know gets past `main`'s first lines.

/// Checks that every argument is a switch, a value flag followed by its
/// value (which may not start with `--`), or one of at most `positionals`
/// free arguments. `value_flags` pairs each flag with what its value is,
/// for the complaint ("a directory argument"), which callers print above
/// their usage text before exiting 2 — and before they lock, bind or
/// write anything, so a typo never falls through to a default.
pub fn check_args(
    args: &[String],
    value_flags: &[(&str, &str)],
    switches: &[&str],
    positionals: usize,
) -> Result<(), String> {
    let mut free = 0;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if let Some((flag, what)) = value_flags.iter().find(|(flag, _)| flag == arg) {
            if rest.next().is_none_or(|value| value.starts_with("--")) {
                return Err(format!("{flag} requires {what}"));
            }
        } else if !arg.starts_with('-') && free < positionals {
            free += 1;
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// The value following `flag`, once [`check_args`] has passed (which is
/// what guarantees a present flag has one).
pub fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let at = args.iter().position(|a| a == flag)?;
    Some(args[at + 1].as_str())
}
