//! The batched experiment driver: every paper artefact as one enumerable
//! pass through the shared sweep engine.
//!
//! `repro all` used to be a hand-maintained list of a dozen calls; the
//! driver makes the batch first-class so the binary, the bench harness and
//! CI all iterate the *same* experiments in the same order. Every
//! experiment runs its suites on the calling thread
//! ([`crate::suite::suite_times`]) and estimates through the cross-sweep
//! cache, so running the batch end-to-end makes exactly one pass over each
//! unique `(machine, kernel, config)` triple — later experiments are
//! served the earlier experiments' estimates.

use super::{fig1, fig2, fig3, next_gen, scaling, x86};
use crate::report::{FigureReport, TableReport};
use rvhpc_perfmodel::Precision;

/// A regenerated artefact: the paper has bar-chart figures and tables.
pub enum Artefact {
    /// A figure (series × classes).
    Figure(FigureReport),
    /// A table.
    Table(TableReport),
}

/// One entry of the reproduction batch.
pub struct Experiment {
    /// Command-line token (`repro <name>`) and BENCH artefact key.
    pub name: &'static str,
    /// One-line description for listings.
    pub title: &'static str,
    run: fn() -> Artefact,
}

impl Experiment {
    /// Regenerate this experiment's artefact.
    pub fn run(&self) -> Artefact {
        let _span = rvhpc_trace::span!("core.experiment", name = self.name);
        (self.run)()
    }
}

/// The full reproduction batch, in the paper's presentation order (the
/// order `repro all` emits and `repro bench` times).
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "fig1",
        title: "single-core RISC-V comparison",
        run: || Artefact::Figure(fig1::run()),
    },
    Experiment {
        name: "table1",
        title: "block placement scaling (FP32)",
        run: || {
            Artefact::Table(scaling::table1().report("Table 1", "block placement scaling (FP32)"))
        },
    },
    Experiment {
        name: "table2",
        title: "NUMA-cyclic placement scaling (FP32)",
        run: || {
            Artefact::Table(
                scaling::table2().report("Table 2", "NUMA-cyclic placement scaling (FP32)"),
            )
        },
    },
    Experiment {
        name: "table3",
        title: "cluster-cyclic placement scaling (FP32)",
        run: || {
            Artefact::Table(
                scaling::table3().report("Table 3", "cluster-cyclic placement scaling (FP32)"),
            )
        },
    },
    Experiment {
        name: "fig2",
        title: "vectorisation speedup",
        run: || Artefact::Figure(fig2::run()),
    },
    Experiment {
        name: "fig3",
        title: "VLA/VLS compiler comparison",
        run: || Artefact::Table(fig3::report()),
    },
    Experiment {
        name: "table4",
        title: "x86 CPU inventory",
        run: || Artefact::Table(x86::table4()),
    },
    Experiment {
        name: "fig4",
        title: "FP64 single-core vs x86",
        run: || Artefact::Figure(x86::fig4()),
    },
    Experiment {
        name: "fig5",
        title: "FP32 single-core vs x86",
        run: || Artefact::Figure(x86::fig5()),
    },
    Experiment {
        name: "fig6",
        title: "FP64 multithreaded vs x86",
        run: || Artefact::Figure(x86::fig6()),
    },
    Experiment {
        name: "fig7",
        title: "FP32 multithreaded vs x86",
        run: || Artefact::Figure(x86::fig7()),
    },
    Experiment {
        name: "nextgen",
        title: "the conclusion's what-if machine (FP64)",
        run: || Artefact::Figure(next_gen::run(Precision::Fp64)),
    },
];

/// Look an experiment up by its command token.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_names_are_unique_command_tokens() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn find_resolves_every_entry_and_rejects_unknowns() {
        for e in &EXPERIMENTS {
            assert_eq!(find(e.name).expect("resolvable").name, e.name);
        }
        assert!(find("fig9").is_none());
    }

    #[test]
    fn batch_covers_every_figure_and_table_of_the_paper() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for expected in [
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2", "table3",
            "table4", "nextgen",
        ] {
            assert!(names.contains(&expected), "{expected} missing from the batch");
        }
    }

    #[test]
    fn driver_pass_is_estimate_cache_coherent() {
        // Running two overlapping experiments back-to-back must serve the
        // second one at least partly from the cache: fig5's SG2042 FP32
        // single-core baseline is also fig2's vector-on series.
        rvhpc_perfmodel::cache::clear();
        let _ = find("fig2").unwrap().run();
        let before = rvhpc_perfmodel::cache::stats();
        let _ = find("fig5").unwrap().run();
        let delta = rvhpc_perfmodel::cache::stats().since(&before);
        assert!(delta.hits > 0, "fig5 must reuse fig2's estimates: {delta:?}");
    }
}
