//! Replays every checked-in repro under `tests/repros/`.
//!
//! Each file is a minimized case that once exposed a divergence (written
//! by the `ltpg-qa` shrinker, or promoted by hand from a proptest
//! regression seed). Replaying them on every test run turns each
//! once-found bug into a permanent regression test: the full differential
//! check — the engine vs the exact reference and the oracle, the system
//! under test stacked from the file's layers against a single-device
//! reference, WAL replay, rival schedulers — must now run clean on all of
//! them. A file is a case,
//! not a seed, so generator changes never move what it replays.

use std::path::PathBuf;

fn repro_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/repros")
}

/// Every `*.repro` file must parse and run without divergence.
#[test]
fn all_checked_in_repros_replay_clean() {
    let outcomes = ltpg_qa::replay_dir(&repro_dir()).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        !outcomes.is_empty(),
        "no repro files found in {} — the promoted proptest seed should be there",
        repro_dir().display()
    );
    for (path, outcome) in &outcomes {
        println!(
            "{}: engine committed {}, server committed {} over {} ticks (drained: {})",
            path.display(),
            outcome.engine_committed,
            outcome.server_committed,
            outcome.ticks,
            outcome.drained,
        );
    }
}

/// The seed promoted from `tests/serializability.proptest-regressions`:
/// a reader, a blind writer and a commutative add racing on one cell.
/// Named so a regression points straight at the historical bug.
#[test]
fn promoted_proptest_rw_triangle_replays_clean() {
    let path = repro_dir().join("promoted-proptest-rw-triangle.repro");
    let case = ltpg_qa::repro::load_file(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(case.txns.len(), 3, "the promoted seed has exactly three transactions");
    let outcome = ltpg_qa::run_case(&case)
        .unwrap_or_else(|d| panic!("promoted proptest seed diverged: {d}"));
    // All three conflict on T[11].a: exactly one wins each re-admission
    // round, and with user re-queuing disabled at the engine layer the
    // batch-level commit count is deterministic.
    assert!(outcome.engine_committed >= 1);
}
