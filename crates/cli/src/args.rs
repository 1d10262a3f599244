//! Minimal dependency-free argument parsing for `pandora-cli`.
//!
//! Grammar: `pandora-cli <command> [--flag value]... [--switch]...`.
//! Kept deliberately small (the workspace's dependency policy allows no
//! argument-parsing crates; see DESIGN.md §8).

use std::collections::BTreeMap;
use std::time::Duration;

use pandora_workloads::FaultKind;

/// A parsed command line: the command word plus flag map.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pub command: String,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Parse errors with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parse raw argv (without the program name). Flags take a value
    /// (`--coordinators 8`); switches do not (`--respawn`). A flag name
    /// followed by another `--name` or end-of-line is a switch.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ParseError> {
        let mut it = argv.into_iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| ParseError("missing command (try `pandora-cli help`)".into()))?;
        if command.starts_with("--") {
            return Err(ParseError(format!("expected a command, got flag {command}")));
        }
        let mut args = Args { command, ..Default::default() };
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ParseError(format!("unexpected positional argument {tok:?}")));
            };
            if name.is_empty() {
                return Err(ParseError("empty flag name `--`".into()));
            }
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = it.next().expect("peeked");
                    args.flags.insert(name.to_string(), value);
                }
                _ => args.switches.push(name.to_string()),
            }
        }
        Ok(args)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.flags.contains_key(name)
    }

    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name} expects an integer, got {v:?}"))),
        }
    }

    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, ParseError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{name} expects a number, got {v:?}"))),
        }
    }

    /// Seconds-valued flag.
    pub fn get_secs(&self, name: &str, default: Duration) -> Result<Duration, ParseError> {
        Ok(Duration::from_secs_f64(self.get_f64(name, default.as_secs_f64())?))
    }
}

/// Parse a fault specification, `compute:<fraction>@<secs>` or
/// `memory:<node>@<secs>`, into the fault and when it fires.
pub fn parse_fault(s: &str) -> Result<(FaultKind, Duration), ParseError> {
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| ParseError(format!("fault spec {s:?}: expected kind:arg@secs")))?;
    let (arg, at) = rest
        .split_once('@')
        .ok_or_else(|| ParseError(format!("fault spec {s:?}: missing @<secs>")))?;
    let at = Duration::from_secs_f64(
        at.parse()
            .map_err(|_| ParseError(format!("fault spec {s:?}: bad time {at:?}")))?,
    );
    match kind {
        "compute" => {
            let fraction: f64 =
                arg.parse().map_err(|_| ParseError(format!("fault spec {s:?}: bad fraction")))?;
            if !(0.0..=1.0).contains(&fraction) {
                return Err(ParseError(format!("fraction {fraction} outside [0, 1]")));
            }
            Ok((FaultKind::ComputeCrash { fraction }, at))
        }
        "memory" => {
            let node: u16 =
                arg.parse().map_err(|_| ParseError(format!("fault spec {s:?}: bad node id")))?;
            Ok((FaultKind::MemoryKill { node }, at))
        }
        other => Err(ParseError(format!("unknown fault kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Result<Args, ParseError> {
        Args::parse(toks.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = parse(&["run", "--workload", "micro", "--coordinators", "8", "--respawn"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("workload"), Some("micro"));
        assert_eq!(a.get_u64("coordinators", 4).unwrap(), 8);
        assert!(a.has("respawn"));
        assert!(!a.has("stalls"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--run"]).is_err());
    }

    #[test]
    fn bad_integer_reports_the_flag() {
        let a = parse(&["run", "--coordinators", "eight"]).unwrap();
        let err = a.get_u64("coordinators", 4).unwrap_err();
        assert!(err.0.contains("coordinators"));
    }

    #[test]
    fn duration_flags() {
        let a = parse(&["run", "--duration", "2.5"]).unwrap();
        assert_eq!(
            a.get_secs("duration", Duration::from_secs(8)).unwrap(),
            Duration::from_millis(2500)
        );
        assert_eq!(a.get_secs("warmup", Duration::from_secs(1)).unwrap(), Duration::from_secs(1));
    }

    #[test]
    fn fault_specs() {
        assert_eq!(
            parse_fault("compute:0.5@3").unwrap(),
            (FaultKind::ComputeCrash { fraction: 0.5 }, Duration::from_secs(3))
        );
        assert_eq!(
            parse_fault("memory:2@1.5").unwrap(),
            (FaultKind::MemoryKill { node: 2 }, Duration::from_millis(1500))
        );
        assert!(parse_fault("compute:1.5@3").is_err());
        assert!(parse_fault("disk:0@1").is_err());
        assert!(parse_fault("compute:0.5").is_err());
    }

    #[test]
    fn positional_arguments_rejected() {
        assert!(parse(&["run", "stray"]).is_err());
    }
}
