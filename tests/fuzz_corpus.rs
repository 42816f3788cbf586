//! Corpus-replay merge gate for the coverage-guided guarantee fuzzer.
//!
//! The committed `corpus/` directory holds every novel zero-flip
//! scenario the standard-domain fuzz campaign has recorded: detector
//! configurations, adaptive-adversary schedules, and fault plans that
//! pushed the detector into a previously unseen state *without*
//! breaking the no-flip guarantee. Replaying them on every merge turns
//! the fuzzer's past discoveries into a permanent regression net — a
//! detector change that lets any corpus case flip a bit fails CI with
//! the exact replayable scenario in hand.

use anvil::fuzz::{load_dir, CorpusEntry};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus() -> Vec<(PathBuf, CorpusEntry)> {
    load_dir(&corpus_dir()).expect("committed corpus loads")
}

#[test]
fn corpus_is_committed_and_nonempty() {
    let entries = corpus();
    assert!(
        !entries.is_empty(),
        "corpus/ is empty — run `cargo run --release -p anvil-bench -- fuzz` \
         and commit the cases it writes"
    );
}

#[test]
fn corpus_files_are_content_addressed() {
    for (path, entry) in corpus() {
        let expect = entry.filename();
        let actual = path.file_name().unwrap().to_string_lossy();
        assert_eq!(
            actual,
            expect,
            "{} does not match its scenario's content hash — the file was \
             edited by hand or the scenario encoding drifted",
            path.display()
        );
    }
}

#[test]
fn every_corpus_case_still_claims_safety() {
    for (path, entry) in corpus() {
        assert!(
            entry.scenario.supposedly_safe(),
            "{}: the envelope no longer holds for this case's configuration — \
             it guards nothing; regenerate the corpus",
            path.display()
        );
    }
}

#[test]
fn corpus_replays_with_zero_flips() {
    // The gate: every committed case must still uphold the guarantee it
    // was recorded under. Scenario runs are deterministic, so a flip
    // here is a real detector regression, not noise.
    for (path, entry) in corpus() {
        let out = entry.scenario.run();
        assert_eq!(
            out.flips,
            0,
            "{}: corpus case now flips {} bit(s) under a supposedly-safe \
             configuration (detected={}, errors={:?})",
            path.display(),
            out.flips,
            out.detected,
            out.errors
        );
    }
}
