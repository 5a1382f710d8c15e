//! # livephase-experiments
//!
//! One driver per table and figure of the MICRO 2006 paper. Each module
//! exposes a `run(seed)` entry point returning a printable result whose
//! `Display` output mirrors the rows/series the paper reports, plus a
//! `check(..)` routine asserting the *shape* claims the paper makes about
//! that artifact (who wins, by roughly what factor, where the crossovers
//! fall).
//!
//! [`ARTIFACTS`] registers every reproduced artifact — the paper's tables
//! and figures, the ablations and the extensions — as one
//! `fn(seed) -> (output, violations)` entry; `livephase-cli repro
//! <name>|all` dispatches through it. The `repro-all` binary runs the
//! paper's tables and figures from their typed results and regenerates
//! `EXPERIMENTS.md` and `results/*.csv`.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`]  | Table 1 — Mem/Uop phase definitions |
//! | [`table2`]  | Table 2 — phase → DVFS translation |
//! | [`fig02`]   | Figure 2 — applu trace: actual vs LastValue vs GPHT |
//! | [`fig03`]   | Figure 3 — benchmark stability/savings quadrants |
//! | [`fig04`]   | Figure 4 — prediction accuracy, 6 predictors × 33 runs |
//! | [`fig05`]   | Figure 5 — GPHT accuracy vs PHT size |
//! | [`fig06`]   | Figure 6 — (UPC, Mem/Uop) space + IPCxMEM grid |
//! | [`fig07`]   | Figure 7 — metric behaviour across 6 frequencies |
//! | [`fig10`]   | Figure 10 — applu under management, with DAQ power |
//! | [`fig11`]   | Figure 11 — normalized BIPS/power/EDP, all runs |
//! | [`fig12`]   | Figure 12 — GPHT vs reactive EDP/degradation |
//! | [`fig13`]   | Figure 13 — performance-bounded conservative phases |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod extensions;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod format;
pub mod power_zoo;
pub mod predictors;
pub mod runs;
pub mod table1;
pub mod table2;

/// The seed every experiment uses unless overridden, so published numbers
/// are reproducible bit-for-bit.
pub const DEFAULT_SEED: u64 = 42;

/// Outcome of an experiment's shape checks: the list of violated claims
/// (empty = all of the paper's qualitative claims hold).
pub type ShapeViolations = Vec<String>;

/// One artifact: its printable output and its shape-check violations at
/// the given seed.
pub type Artifact = fn(u64) -> (String, ShapeViolations);

macro_rules! artifact {
    ($name:literal, $module:path) => {
        ($name, |seed| {
            use $module as m;
            let r = m::run(seed);
            (r.to_string(), m::check(&r))
        })
    };
}

/// Every reproduced artifact by name, in the order of
/// `results/repro/seed42.sha256`: the paper's tables and figures, then
/// the ablations, then the extensions. (Tables 1 and 2 are seedless.)
pub const ARTIFACTS: [(&str, Artifact); 27] = [
    ("table1", |_| {
        let r = table1::run();
        (r.to_string(), table1::check(&r))
    }),
    ("table2", |_| {
        let r = table2::run();
        (r.to_string(), table2::check(&r))
    }),
    artifact!("fig02", fig02),
    artifact!("fig03", fig03),
    artifact!("fig04", fig04),
    artifact!("fig05", fig05),
    artifact!("fig06", fig06),
    artifact!("fig07", fig07),
    artifact!("fig10", fig10),
    artifact!("fig11", fig11),
    artifact!("fig12", fig12),
    artifact!("fig13", fig13),
    artifact!("gphr_depth", ablations::gphr_depth),
    artifact!("upc_pitfall", ablations::upc_pitfall),
    artifact!("oracle_gap", ablations::oracle_gap),
    artifact!("overheads", ablations::overheads),
    artifact!("granularity", ablations::granularity),
    artifact!("selector", ablations::selector),
    artifact!("pht_organization", ablations::pht_organization),
    artifact!("confidence", ablations::confidence),
    artifact!("family_tour", ablations::family_tour),
    artifact!("dtm", extensions::dtm),
    artifact!("power_cap", extensions::power_cap),
    artifact!("multiprogram", extensions::multiprogram),
    artifact!("duration", extensions::duration),
    artifact!("adaptive_sampling", extensions::adaptive_sampling),
    artifact!("tenants", extensions::tenants),
];

/// Seed for an experiment binary: the first CLI argument if present,
/// otherwise [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics with a usage message when the argument is not an integer.
#[must_use]
pub fn seed_from_args() -> u64 {
    match std::env::args().nth(1) {
        None => DEFAULT_SEED,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("usage: <bin> [seed]; got {s:?}")),
    }
}

/// Prints an experiment's shape-check outcome and returns the exit code
/// (0 = every claim held), letting each binary double as an acceptance
/// test.
#[must_use]
pub fn report_violations(artifact: &str, violations: &[String]) -> i32 {
    if violations.is_empty() {
        println!("[{artifact}] all of the paper's shape claims hold");
        0
    } else {
        for v in violations {
            eprintln!("[{artifact}] SHAPE VIOLATION: {v}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::ARTIFACTS;

    /// The registry and the committed hash pin list the same artifacts
    /// in the same order, so the CI hash gate covers every entry and
    /// `repro all` prints them in pin order.
    #[test]
    fn registry_matches_the_seed42_hash_pin() {
        let pinned: Vec<&str> = include_str!("../../../results/repro/seed42.sha256")
            .lines()
            .filter_map(|line| line.split_whitespace().nth(1))
            .collect();
        let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, pinned);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate artifact names");
    }
}
