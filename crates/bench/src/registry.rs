//! The registry: every runnable experiment, once, in `all` order —
//! and the `skipper-bench <name> [flags]` dispatch over it.

use std::time::Instant;

use crate::cli::{write_artifact, AllocProbe, Flags, UsageError};
use crate::experiments::*;
use crate::{Ctx, Table};

/// How a registry entry runs.
pub enum Run {
    /// A section: prints one table, takes no flags.
    Table(fn(&mut Ctx) -> Table),
    /// A section that also renders its rows as a JSON document,
    /// written under `--out PATH`.
    TableJson(fn(&mut Ctx) -> (Table, String)),
    /// A gate run: parses its own `flags`, prints its own report and
    /// returns the number of violated gates. Not part of `all`.
    Gate {
        /// Synopsis of the accepted flags.
        flags: &'static str,
        /// The subcommand.
        command: fn(&mut Flags, Option<AllocProbe>) -> Result<u32, UsageError>,
    },
}

/// One runnable experiment.
pub struct Entry {
    /// Subcommand name.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// The scenario it runs.
    pub scenario: &'static str,
    /// How it runs.
    pub run: Run,
}

const fn entry(
    name: &'static str,
    artifact: &'static str,
    scenario: &'static str,
    run: Run,
) -> Entry {
    Entry {
        name,
        artifact,
        scenario,
        run,
    }
}

/// Every runnable experiment, in the order `all` visits the sections.
#[rustfmt::skip]
pub const REGISTRY: &[Entry] = &[
    entry("table1", "Table 1", "device pricing + tier fractions", Run::Table(|_| costs::table1())),
    entry("fig2", "Figure 2", "100 TB DB cost, 7 configurations", Run::Table(|_| costs::fig2())),
    entry("fig3", "Figure 3", "CSD-as-cold-tier savings at 3 price points", Run::Table(|_| costs::fig3())),
    entry("fig4", "Figure 4", "vanilla on CSD vs HDD, 1-5 clients", Run::Table(baseline::fig4)),
    entry("fig5", "Figure 5", "vanilla sensitivity to switch latency", Run::Table(baseline::fig5)),
    entry("table2", "Table 2", "layout → subplan enumeration example + switch counts", Run::Table(|_| table2::table2())),
    entry("fig7", "Figure 7", "Skipper vs vanilla vs ideal, 1-5 clients", Run::Table(skipper_exp::fig7)),
    entry("fig8", "Figure 8", "mixed workload (TPC-H, MR-bench, NREF, SSB)", Run::Table(mixed::fig8)),
    entry("mixed-fleet", "beyond the paper", "Figure 8 tenants, Skipper + vanilla in one fleet", Run::Table(mixed::mixed_fleet)),
    entry("fig9", "Figure 9", "execution-time breakdown, 5 clients", Run::Table(skipper_exp::fig9)),
    entry("table3", "Table 3", "component overheads (exec / FUSE / network)", Run::Table(skipper_exp::table3)),
    entry("fig10", "Figure 10", "Skipper vs vanilla across switch latencies", Run::Table(skipper_exp::fig10)),
    entry("fig11a", "Figure 11a", "layout sensitivity, 4 clients", Run::Table(layout_exp::fig11a)),
    entry("fig11b", "Figure 11b", "cache sweep, TPC-H SF-50 Q5 (+ GET counts)", Run::Table(cache_exp::fig11b)),
    entry("fig11c", "Figure 11c", "cache sweep, TPC-H SF-100 Q5 (+ GET counts)", Run::Table(cache_exp::fig11c)),
    entry("fig12", "Figure 12", "scheduler fairness vs efficiency", Run::Table(sched_exp::fig12)),
    entry("sharding", "beyond the paper", "mixed-tenant fleet on 1-8 CSD shards", Run::Table(sharding::sharding)),
    entry("streams", "§5.2.1", "1-8 service-pipeline streams x 1-4 shards (BENCH_streams.json)", Run::TableJson(streams::streams)),
    entry("ablations", "§4.2/§4.4/§5.2.4", "eviction / ordering / pruning A-Bs", Run::Table(ablations::ablations)),
    entry("outlook", "§7 outlook", "Skipper with parallel intra-group servicing vs HDD", Run::Table(outlook::outlook)),
    entry("suite", "beyond the paper", "extended TPC-H suite (Q1/Q3/Q5/Q6/Q10/Q12/Q14) at SF-50", Run::Table(suite::suite)),
    entry("power", "§2 MAID", "energy comparison for the Figure 7 scenario", Run::Table(power_exp::power)),
    entry("chaos", "gate", "fault plane: conservation, determinism (BENCH_chaos.json)",
        Run::Gate { flags: chaos::FLAGS, command: chaos::command }),
    entry("overload", "gate", "protection plane: shedding, hedging (BENCH_overload.json)",
        Run::Gate { flags: overload::FLAGS, command: overload::command }),
    entry("tiering", "gate", "shard-cache tiers: cost vs performance grid (BENCH_tiering.json)",
        Run::Gate { flags: tiering::FLAGS, command: tiering::command }),
];

impl Entry {
    /// Synopsis of the flags this entry accepts (empty for none).
    pub fn flags(&self) -> &'static str {
        match self.run {
            Run::Table(_) => "",
            Run::TableJson(_) => "[--out PATH]",
            Run::Gate { flags, .. } => flags,
        }
    }
}

/// The entries `all` visits, in order: every section, no gate run.
pub fn sections() -> impl Iterator<Item = &'static Entry> {
    REGISTRY
        .iter()
        .filter(|e| !matches!(e.run, Run::Gate { .. }))
}

/// What `list` prints: one line per subcommand.
pub fn list() -> String {
    let mut out = String::new();
    for e in REGISTRY {
        out.push_str(&format!(
            "{:<12} {:<17} {}\n",
            e.name, e.artifact, e.scenario
        ));
        if !e.flags().is_empty() {
            out.push_str(&format!("{:<12} {}\n", "", e.flags()));
        }
    }
    out.push_str(&format!(
        "{:<12} every section above the gates, in order\n",
        "all"
    ));
    out
}

/// Regenerates every section in sequence — the data source for
/// `EXPERIMENTS.md`.
fn all() {
    let started = Instant::now();
    let mut ctx = Ctx::new();
    for entry in sections() {
        let t0 = Instant::now();
        let table = match entry.run {
            Run::Table(f) => f(&mut ctx),
            Run::TableJson(f) => f(&mut ctx).0,
            Run::Gate { .. } => continue,
        };
        println!("{table}");
        eprintln!(
            "[{} done in {:.1}s]",
            entry.name,
            t0.elapsed().as_secs_f64()
        );
    }
    eprintln!(
        "[all experiments in {:.1}s]",
        started.elapsed().as_secs_f64()
    );
}

/// Runs `skipper-bench <args>`; returns the number of violated gates
/// (exit status 1 when non-zero) or the usage error (exit status 2).
pub fn run(args: Vec<String>, probe: Option<AllocProbe>) -> Result<u32, UsageError> {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    let entry = REGISTRY.iter().find(|e| e.name == name);
    let mut flags = Flags::new(&name, entry.map_or("", Entry::flags), args.collect());
    match (name.as_str(), entry.map(|e| &e.run)) {
        ("list", _) => {
            flags.finish()?;
            print!("{}", list());
        }
        ("all", _) => {
            flags.finish()?;
            all();
        }
        (_, Some(Run::Table(f))) => {
            flags.finish()?;
            println!("{}", f(&mut Ctx::new()));
        }
        (_, Some(Run::TableJson(f))) => {
            let mut out: Option<String> = None;
            while let Some(flag) = flags.next_flag() {
                match flag.as_str() {
                    "--out" => out = Some(flags.value(&flag)?),
                    _ => return Err(flags.unknown(&flag)),
                }
            }
            let (table, json) = f(&mut Ctx::new());
            println!("{table}");
            if let Some(path) = out {
                write_artifact(&path, &json)?;
            }
        }
        (_, Some(Run::Gate { command, .. })) => return command(&mut flags, probe),
        (_, None) => {
            let what = if name.is_empty() {
                "missing subcommand".to_string()
            } else {
                format!("unknown subcommand {name:?}")
            };
            return Err(UsageError(format!(
                "{what}\nusage: skipper-bench <name> [flags]; \
                 `skipper-bench list` names every subcommand"
            )));
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn names_are_unique_and_reserved_words_are_free() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.extend(["all", "list"]);
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate subcommand name");
        assert_eq!(REGISTRY.len(), 25);
    }

    #[test]
    fn all_visits_the_22_sections_in_order() {
        let visited: Vec<&str> = sections().map(|e| e.name).collect();
        assert_eq!(
            visited.join(" "),
            "table1 fig2 fig3 fig4 fig5 table2 fig7 fig8 mixed-fleet fig9 table3 fig10 \
             fig11a fig11b fig11c fig12 sharding streams ablations outlook suite power"
        );
    }

    #[test]
    fn list_prints_every_name() {
        let listing = list();
        for e in REGISTRY {
            assert!(
                listing.lines().any(|l| l.starts_with(e.name)),
                "{} missing from list",
                e.name
            );
        }
        assert!(listing.lines().any(|l| l.starts_with("all ")));
    }

    #[test]
    fn cli_mistakes_are_usage_errors_not_panics() {
        let unknown = run(args("fig99"), None).unwrap_err();
        assert!(unknown.0.contains("\"fig99\""), "{}", unknown.0);
        let missing = run(Vec::new(), None).unwrap_err();
        assert!(missing.0.contains("usage: skipper-bench"), "{}", missing.0);

        // Rejected before anything runs: sections take no flags, gate
        // runs only their own, and values must parse.
        for (line, offender) in [
            ("table1 --fast", "\"--fast\""),
            ("all --fast", "\"--fast\""),
            ("streams --json x", "\"--json\""),
            ("chaos --floor 3", "\"--floor\""),
            (
                "overload --alloc-ceiling",
                "missing value for --alloc-ceiling",
            ),
            ("tiering --shards four", "\"four\""),
        ] {
            let err = run(args(line), None).unwrap_err();
            assert!(err.0.contains(offender), "{line}: {}", err.0);
            let name = line.split(' ').next().unwrap();
            assert!(
                err.0.contains(&format!("usage: skipper-bench {name}")),
                "{line}: {}",
                err.0
            );
        }
    }
}
