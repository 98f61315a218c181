//! Checks of both command tables `tsv3d` dispatches over: this
//! binary's flow commands and the observability subcommands.

use super::FLOW;
use tsv3d_bench::cli::{Args, Subcommand, SUBCOMMANDS};

/// Every command of both tables.
fn commands() -> impl Iterator<Item = &'static Subcommand> {
    FLOW.iter().chain(&SUBCOMMANDS)
}

#[test]
fn every_flag_table_matches_its_usage_text() {
    for cmd in commands() {
        // Option lines start with `  --flag ARG[, --flag ARG]` and end
        // their syntax at the first double space.
        let mut documented: Vec<&str> = cmd
            .usage
            .lines()
            .filter(|line| line.starts_with("  --"))
            .filter_map(|line| line.trim_start().split("  ").next())
            .flat_map(|syntax| syntax.split_whitespace())
            .filter(|word| word.starts_with("--"))
            .map(|word| word.trim_end_matches(','))
            .collect();
        let mut table: Vec<&str> = cmd.flags.iter().map(|(flag, _)| *flag).collect();
        documented.sort_unstable();
        table.sort_unstable();
        assert_eq!(documented, table, "{}", cmd.name);
    }
}

#[test]
fn every_command_asks_for_its_usage_on_help() {
    for cmd in commands() {
        for help in ["-h", "--help"] {
            let parsed = Args::parse(cmd, &[help.to_string()]);
            assert!(matches!(parsed, Ok(None)), "`{} {help}`", cmd.name);
        }
    }
}
