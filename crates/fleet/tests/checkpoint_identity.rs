//! Checkpoint round-trip bit-identity, proptest style: for every dataset
//! family, snapshot a live engine mid trajectory, push the snapshot through the SNVC wire codec, restore it
//! into a fresh engine, finish the trajectory on both — and require the
//! restored run to be *byte-identical* to the uninterrupted one. Plus the
//! hostile-input side: truncated checkpoints are typed rejections and a
//! checkpoint that decodes but lies (tampered witness) is caught by
//! replay verification, never a silently wrong map.

use std::sync::Arc;

use supernova_datasets::Dataset;
use supernova_factors::{Key, Variable};
use supernova_hw::Platform;
use supernova_runtime::CostModel;
use supernova_serve::{decode_snapshot, encode_snapshot};
use supernova_solvers::{RaIsam2Config, RestoreError, SolverEngine};

fn datasets() -> Vec<Dataset> {
    // Small scaled cuts of the paper's benchmark families: M3500 (planar
    // grid-world) and CAB1 (concatenated AR sessions). Sized to stay
    // fast in debug builds.
    vec![Dataset::m3500_scaled(0.008), Dataset::cab1_scaled(0.06)]
}

fn engine() -> SolverEngine {
    let cost = Arc::new(CostModel::new(Platform::supernova(2)));
    SolverEngine::new(RaIsam2Config::default(), cost)
}

fn poses(e: &SolverEngine) -> Vec<Variable> {
    let values = e.estimate();
    (0..values.len())
        .map(|i| values.get(Key(i)).clone())
        .collect()
}

#[test]
fn snapshot_restore_replay_is_bit_identical_across_datasets() {
    for ds in datasets() {
        let steps = ds.online_steps();
        assert!(steps.len() >= 8, "{}: dataset too small to cut", ds.name());
        let cut = steps.len() / 2;
        let case = ds.name();

        // Reference: the uninterrupted run.
        let mut reference = engine();
        for s in &steps {
            reference.step(s.truth.clone(), s.factors.clone());
        }

        // Interrupted run: snapshot at the cut, round-trip the checkpoint
        // through the SNVC codec, restore into a fresh engine, then finish
        // the trajectory there.
        let mut live = engine();
        for s in &steps[..cut] {
            live.step(s.truth.clone(), s.factors.clone());
        }
        let bytes =
            encode_snapshot(&live.snapshot()).unwrap_or_else(|e| panic!("{case}: encode: {e}"));
        let decoded = decode_snapshot(&bytes).unwrap_or_else(|e| panic!("{case}: decode: {e}"));
        let mut restored = engine()
            .restore(&decoded)
            .unwrap_or_else(|e| panic!("{case}: restore: {e}"));
        assert_eq!(poses(&restored), poses(&live), "{case}: witness replay");
        for s in &steps[cut..] {
            restored.step(s.truth.clone(), s.factors.clone());
        }

        assert_eq!(
            poses(&restored),
            poses(&reference),
            "{case}: restored run diverged from the uninterrupted run"
        );
    }
}

#[test]
fn truncated_checkpoints_are_typed_rejections() {
    // A real (not hand-built) checkpoint from a scaled M3500 prefix: every
    // strict prefix must fail decode with a typed error, never panic and
    // never yield a snapshot.
    let ds = Dataset::m3500_scaled(0.008);
    let steps = ds.online_steps();
    let mut e = engine();
    for s in &steps[..steps.len() / 2] {
        e.step(s.truth.clone(), s.factors.clone());
    }
    let bytes = encode_snapshot(&e.snapshot()).expect("encode");
    for n in (0..bytes.len()).step_by(3) {
        assert!(
            decode_snapshot(&bytes[..n]).is_err(),
            "prefix of {n}/{} bytes decoded",
            bytes.len()
        );
    }
}

#[test]
fn tampered_witness_is_caught_by_replay_verification() {
    // Corrupt the checkpoint *witness* (the trailing estimate section) in a
    // way that still decodes: the decoder cannot tell, but restore replays
    // the update log and must reject the lying witness with a typed error.
    let ds = Dataset::m3500_scaled(0.008);
    let steps = ds.online_steps();
    let mut e = engine();
    for s in &steps[..steps.len() / 2] {
        e.step(s.truth.clone(), s.factors.clone());
    }
    let mut bytes = encode_snapshot(&e.snapshot()).expect("encode");
    // The buffer ends with the last witness pose's last f64 (little
    // endian); flipping mantissa/exponent bits in its 7th byte changes the
    // value while keeping the buffer structurally valid.
    let n = bytes.len();
    bytes[n - 2] ^= 0xFF;
    let decoded = decode_snapshot(&bytes).expect("tampered witness still decodes");
    match engine().restore(&decoded) {
        Err(RestoreError::EstimateMismatch { .. }) => {}
        other => panic!("tampered witness not rejected: {other:?}"),
    }
}
