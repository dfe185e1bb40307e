//! The correctness gate: a damaged stored log must fail the run.

use std::fs;
use std::path::PathBuf;

use pipebench::bench::{pass, Outcome};
use pipebench::pipeline::{checked_verdict, setup, Fixture, Workload};
use pipebench::trace::Tracer;
use relaxreplay::{IntervalLog, LogEntry};

fn fixture(name: &str) -> (Fixture, PathBuf) {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let fx = setup(Workload::Compute, 1, &root).expect("set-up succeeds");
    (fx, root)
}

/// The first core log of the run's Opt-4K variant in the verdict store.
fn stored_log(fx: &Fixture, root: &std::path::Path) -> PathBuf {
    root.join("verdicts")
        .join(&fx.shapes[0].run)
        .join("Opt-4K")
        .join("core0.rrlog")
}

/// Runs a one-second pass and returns its outcome.
fn short_pass(fx: &Fixture) -> Outcome {
    let mut out = Outcome::default();
    pass(fx, 1.0, false, &mut out, |_, _| false);
    out
}

#[test]
fn an_intact_store_passes() {
    let (fx, root) = fixture("intact");
    let out = short_pass(&fx);
    assert!(out.correct(), "{:?}", out.errors);
    assert!(out.attempted > 1);
    let _ = fs::remove_dir_all(root);
}

#[test]
fn a_corrupted_stored_log_fails_the_run() {
    let (fx, root) = fixture("corrupt");
    let path = stored_log(&fx, &root);
    let mut bytes = fs::read(&path).expect("stored log");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    fs::write(&path, bytes).expect("rewrite log");

    assert!(checked_verdict(&fx, &fx.shapes[0], &mut Tracer::new(false)).is_err());
    let out = short_pass(&fx);
    assert!(!out.correct());
    assert!(out.failed > 0 && out.failed <= out.attempted);
    assert!(
        out.errors.iter().any(|e| e.starts_with("verdict")),
        "{:?}",
        out.errors
    );
    let _ = fs::remove_dir_all(root);
}

#[test]
fn a_well_formed_log_with_a_wrong_value_fails_verification() {
    let (fx, root) = fixture("tampered");
    let path = stored_log(&fx, &root);
    let mut log = IntervalLog::decode(&fs::read(&path).expect("stored log")).expect("decodes");
    let value = log
        .entries
        .iter_mut()
        .find_map(|e| match e {
            LogEntry::ReorderedLoad { value } => Some(value),
            _ => None,
        })
        .expect("the run logs a reordered load");
    *value ^= 1;
    fs::write(&path, log.encode()).expect("rewrite log");

    let err = checked_verdict(&fx, &fx.shapes[0], &mut Tracer::new(false))
        .expect_err("replay of a tampered log must not verify");
    assert!(err.to_string().contains("verification failed"), "{err}");
    assert!(!short_pass(&fx).correct());
    let _ = fs::remove_dir_all(root);
}
