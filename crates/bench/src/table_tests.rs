//! Checks of an experiment table, compiled into the `#[cfg(test)]` module
//! of both `paper` and `perf` and run there over that binary's table.

use ibox_bench::Expected::{self, Holds, KnownFailure};
use ibox_bench::{Experiment, Ledger, Report, Scale, Sweep, Table};

/// Row names are unique; each row of `quick` (a smoke run of some rows)
/// asserts something, measures something, and has the shape of its row in
/// `committed`, the ledger whose rows are exactly the table's.
pub fn names_are_unique_and_every_row_carries_a_verdict<C>(
    table: &Table<C>,
    quick: &Ledger,
    committed: &Ledger,
) {
    let names: Vec<&str> = table.rows.iter().map(|e| e.name).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate experiment name in {names:?}");
    let bin = table.bin;
    for row in &quick.rows {
        assert!(!row.verdicts.is_empty(), "{} asserts nothing", row.name);
        assert!(!row.stats.is_empty(), "{} measures nothing", row.name);
        let recorded = committed.rows.iter().find(|r| r.name == row.name);
        assert_eq!(
            recorded.map(|r| r.shape()),
            Some(row.shape()),
            "{}'s statistics or claims differ from BENCH_{bin}.json: rerun `{bin}`",
            row.name
        );
    }
    // The rows too slow to run here are held to the same by the ledger.
    let recorded: Vec<&str> = committed.rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(recorded, names, "BENCH_{bin}.json rows differ from the table: rerun `{bin}`");
    assert!(committed.rows.iter().all(|row| !row.verdicts.is_empty()));
}

fn fixture_report(claim: &str, holds: bool, expected: Expected, stat: f64) -> Report {
    let mut rep = Report { text: "## fixture\n".into(), ..Report::default() };
    rep.stat("value", stat);
    rep.verdict(claim, holds, expected);
    rep
}

fn promoted<C>(_: &C, seed: u64) -> Result<Report, String> {
    Ok(fixture_report("a gap that closed", true, KnownFailure("once failed"), seed as f64))
}

fn broken<C>(_: &C, seed: u64) -> Result<Report, String> {
    Ok(fixture_report("a claim that broke", seed != 5, Holds, 1.0))
}

fn erring<C>(_: &C, _: u64) -> Result<Report, String> {
    Err("no flow recorded".into())
}

/// The ledger and gate rules of `table`'s sweep, on fixture rows.
pub fn a_known_failure_that_holds_and_a_holds_that_fails_both_fail_the_gate<C>(
    table: &Table<C>,
    ctx: &C,
) {
    let rows = [
        Experiment { name: "promoted", paper: "-", seed: 1, sweep: 2, run: promoted },
        Experiment { name: "erring", paper: "-", seed: 1, sweep: 0, run: erring },
        Experiment { name: "broken", paper: "-", seed: 5, sweep: 1, run: broken },
    ];
    let sweep = table.sweep;
    let fixture = |rows: &[Experiment<C>], scale| {
        let fixture = Table { bin: table.bin, sweep, rows };
        let (runs, failures) = fixture.run_rows(ctx, scale, &rows.iter().collect::<Vec<_>>());
        (Ledger::of(&runs), failures)
    };
    let (ledger, failures) = fixture(&rows, Scale::Full);
    // A row that errs is reported by name and the rows after it still run.
    assert_eq!(failures, ["row erring: no flow recorded (seed 1)"]);
    let (stride, seeded) = match sweep {
        Sweep::Seeds(stride) => (stride, true),
        Sweep::Repeats => (1, false),
    };
    assert_eq!(ledger.rows[0].seeds, [1, 1 + stride, 1 + 2 * stride]);
    let unexpected = ledger.unexpected();
    assert_eq!(unexpected.len(), 2, "{unexpected:?}");
    assert!(unexpected[0].contains("promoted") && unexpected[0].contains("promote it"));
    assert!(unexpected[1].contains("broken") && unexpected[1].contains("holds 1/2"));

    let rerun = |rows: &[Experiment<C>]| fixture(rows, Scale::Gate).0;
    // Against that ledger, a canonical run that repeats it passes where a
    // seed decides the claims. A repeat of a timing decides nothing, so
    // there a `Holds` claim must hold whatever the ledger saw first.
    let regressions = ledger.regressions(&rerun(&rows), sweep);
    let fails = "broken: \"a claim that broke\" now fails (expected: holds)";
    assert_eq!(regressions, if seeded { vec![] } else { vec![fails] });
    // A statistic that leaves the band [1 − 2·stride, 1 + 4·stride] fails
    // either way; a claim that flips from its canonical outcome fails where
    // a seed decides it, and a `Holds` claim that holds passes for repeats.
    let mut moved = rows;
    moved[0].seed = 1 + 5 * stride;
    moved[2].seed = 6;
    let regressions = ledger.regressions(&rerun(&moved), sweep);
    assert_eq!(regressions.len(), if seeded { 2 } else { 1 }, "{regressions:?}");
    assert!(regressions[0].starts_with("promoted: value = "));
    if seeded {
        assert!(regressions[1].contains("\"a claim that broke\" now holds"));
    }
}
