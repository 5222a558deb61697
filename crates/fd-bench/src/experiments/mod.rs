//! One module per experiment in DESIGN.md's index. Every module exposes
//! `run() -> Vec<Table>`; [`ALL`] names them, `ecfd experiments [E1 …
//! E10]` prints them, and EXPERIMENTS.md records paper-vs-measured.

pub mod e1;
pub mod e10;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use crate::table::Table;

/// An experiment's regenerator: the tables EXPERIMENTS.md records.
pub type Run = fn() -> Vec<Table>;

/// Every experiment, in index order: its id and its regenerator.
pub static ALL: [(&str, Run); 10] = [
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e9", e9::run),
    ("e10", e10::run),
];
