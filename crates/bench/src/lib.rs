//! # wsn-bench — experiment harness
//!
//! Shared plumbing for the experiment regenerator binaries (one per figure
//! or quantitative claim; see DESIGN.md §5 for the index) and the
//! `wsn-lint` gate table. Binaries print their tables as aligned text;
//! pass `--csv` to a binary to get CSV instead, so EXPERIMENTS.md can
//! quote either.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod figures;
pub mod gates;
pub mod hotpath;
pub mod lint;
pub mod parallel;
pub mod perfbase;
pub mod table;

pub use experiments::*;
pub use figures::{fig2_quadtree, fig3_mapping, fig4_program};
pub use parallel::parallel_map;
pub use table::Table;

/// Prints a table as text, or CSV when the process was invoked with
/// `--csv`.
pub fn emit(table: &Table) {
    if std::env::args().any(|a| a == "--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
}
