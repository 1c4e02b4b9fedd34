//! What every subcommand shares: the flag cursor, the gate
//! accumulator, the allocation probe and the artifact writer.

/// A command-line mistake. The binary prints it and exits with
/// status 2.
#[derive(Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

/// Cursor over one subcommand's flags.
pub struct Flags {
    /// `<name> <accepted flags>`, quoted in every error.
    usage: String,
    args: std::vec::IntoIter<String>,
}

impl Flags {
    /// A cursor over `args` for the subcommand `name` accepting
    /// `accepted` (its flag synopsis, empty when it takes none).
    pub fn new(name: &str, accepted: &str, args: Vec<String>) -> Self {
        Flags {
            usage: format!("{name} {accepted}").trim_end().to_string(),
            args: args.into_iter(),
        }
    }

    /// The next flag, or `None` at the end of the command line.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.args
            .next()
            .ok_or_else(|| self.error(&format!("missing value for {flag}")))
    }

    /// Reads a command line that may hold only `--out PATH`; returns
    /// the path.
    pub fn out(&mut self) -> Result<Option<String>, UsageError> {
        let mut out = None;
        while let Some(flag) = self.next_flag() {
            match flag.as_str() {
                "--out" => out = Some(self.value(&flag)?),
                _ => return Err(self.unknown(&flag)),
            }
        }
        Ok(out)
    }

    /// The error for a flag this subcommand does not accept.
    pub fn unknown(&self, flag: &str) -> UsageError {
        self.error(&format!("unknown flag {flag:?}"))
    }

    /// Rejects any remaining argument (subcommands without flags).
    pub fn finish(mut self) -> Result<(), UsageError> {
        match self.next_flag() {
            Some(flag) => Err(self.unknown(&flag)),
            None => Ok(()),
        }
    }

    fn error(&self, what: &str) -> UsageError {
        UsageError(format!("{what}\nusage: skipper-bench {}", self.usage))
    }
}

/// Accumulates gate outcomes: `ok` lines on stdout, `FAIL` lines on
/// stderr, and the failure count that becomes exit status 1.
#[derive(Debug, Default)]
pub struct Gates {
    /// Gates that failed so far.
    pub failures: u32,
}

impl Gates {
    /// Records one gate.
    pub fn check(&mut self, ok: bool, label: &str) {
        if ok {
            println!("ok   {label}");
        } else {
            eprintln!("FAIL {label}");
            self.failures += 1;
        }
    }

    /// Records one gate over an oracle's violations
    /// (`skipper_core::runtime::oracle`): it holds when there are none,
    /// and each violation is printed under its `FAIL` line.
    pub fn violations(&mut self, violations: Vec<String>, label: &str) {
        self.check(violations.is_empty(), label);
        for v in violations {
            eprintln!("     {v}");
        }
    }

    /// Records the allocation gate when the binary's probe counted a
    /// `gauge`: allocations per delivery must stay at or under
    /// `ceiling`. `prefix` leads the label.
    pub fn alloc_ceiling(&mut self, gauge: Option<f64>, ceiling: f64, prefix: &str) {
        if let Some(a) = gauge {
            self.check(
                a <= ceiling,
                &format!("{prefix}allocations/delivery {a:.1} <= {ceiling:.1}"),
            );
        }
    }

    /// Prints the closing line — `clean` when every gate held — and
    /// returns the failure count.
    pub fn finish(self, plane: &str, clean: &str) -> u32 {
        if self.failures > 0 {
            eprintln!("{plane} REGRESSION: {} gate(s) violated", self.failures);
        } else {
            println!("{clean}");
        }
        self.failures
    }
}

/// The binary's allocation probe: allocations made by the process so
/// far. It lives in `main.rs` (a counting `#[global_allocator]` needs
/// `unsafe`, which this library forbids); library callers and tests
/// run without one.
pub type AllocProbe = fn() -> u64;

/// Runs `f` and counts the allocations it made, when a probe is
/// installed.
pub fn count_allocs<T>(probe: Option<AllocProbe>, f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = probe.map(|p| p());
    let out = f();
    let after = probe.map(|p| p());
    (out, after.zip(before).map(|(after, before)| after - before))
}

/// Allocations per delivered object over a counted run.
pub fn allocs_per_delivery(allocs: Option<u64>, deliveries: u64) -> Option<f64> {
    allocs.map(|a| a as f64 / deliveries.max(1) as f64)
}

/// Renders an [`allocs_per_delivery`] gauge to `decimals` places
/// (`null` when no probe counted).
pub fn gauge_label(gauge: Option<f64>, decimals: usize) -> String {
    gauge.map_or_else(|| "null".into(), |a| format!("{a:.decimals$}"))
}

/// Writes a JSON artifact to the `--out` path and says so.
pub fn write_artifact(path: &str, json: &str) -> Result<(), UsageError> {
    std::fs::write(path, json)
        .map_err(|e| UsageError(format!("cannot write --out {path:?}: {e}")))?;
    println!("wrote {path}");
    Ok(())
}

/// Asserts that `rendered` equals the `committed` artifact line for
/// line, every `"allocs_per_delivery"` value aside — the one field a
/// run without the binary's probe cannot reproduce.
#[cfg(test)]
pub(crate) fn assert_matches_committed(rendered: &str, committed: &str) {
    fn without_alloc_gauge(line: &str) -> String {
        const KEY: &str = "\"allocs_per_delivery\": ";
        match line.find(KEY) {
            Some(at) => {
                let value = at + KEY.len();
                let end = value + line[value..].find([',', '}']).expect("value ends");
                format!("{}{}", &line[..value], &line[end..])
            }
            None => line.to_string(),
        }
    }
    assert_eq!(rendered.lines().count(), committed.lines().count());
    for (got, want) in rendered.lines().zip(committed.lines()) {
        assert_eq!(without_alloc_gauge(got), without_alloc_gauge(want));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_count_failures() {
        let mut g = Gates::default();
        g.check(true, "holds");
        g.check(false, "broken");
        g.violations(Vec::new(), "sound");
        g.violations(vec!["a ledger drifted".into()], "unsound");
        g.alloc_ceiling(None, 1.0, "no probe: ");
        g.alloc_ceiling(Some(1.5), 1.0, "over: ");
        assert_eq!(g.failures, 3);
        assert_eq!(g.finish("DEMO", "clean"), 3);
    }
}
