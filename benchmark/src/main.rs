//! `ledger` — the repo's benchmark binary. Everything lives in the library
//! so `tests/` can reach the JSON reader and the metric declarations.

fn main() -> std::process::ExitCode {
    ltpg_ledger::main()
}
