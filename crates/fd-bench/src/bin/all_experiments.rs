//! Run every experiment (E1–E10) and print all tables. Writes nothing
//! but each table's JSON copy under `target/experiments/`.

fn main() {
    for table in fd_bench::experiments::run_all() {
        table.emit();
    }
}
