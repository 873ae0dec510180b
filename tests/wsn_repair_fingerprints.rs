//! WSN model repair (paper E2) is pinned bit for bit: the optimizer's
//! evaluation counts and the bits of the repair cost, for penalty search
//! and for parameter lifting under default options. A change to the
//! property oracle, the checker's solve or the optimizer that moves any
//! candidate value by one ulp moves these fingerprints, so a pure speed-up
//! must leave them exactly as they are.

use trusted_ml::repair::{ModelRepair, RepairOptions, RepairStatus, RepairStrategy};
use trusted_ml::wsn::{attempts_property, build_dtmc, repair_template, WsnConfig};

/// `(X, penalty evaluations, penalty cost bits, lifting evaluations,
/// lifting cost bits)`.
const FINGERPRINTS: [(f64, usize, u64, usize, u64); 3] = [
    (34.0, 619_592, 0x3f88_0c42_32bb_c0e4, 303_751, 0x3f88_0c42_32bb_c0e4),
    (37.0, 544_474, 0x3f6d_0313_c55d_7e74, 305_361, 0x3f71_4639_f48f_3354),
    (40.0, 282_274, 0x3f3e_082e_626b_14f1, 41_643, 0x3f38_aeab_05eb_1db5),
];

#[test]
fn wsn_repairs_match_their_fingerprints() {
    let config = WsnConfig::default();
    let chain = build_dtmc(&config).unwrap();
    let template = repair_template(&config).unwrap();
    for (x, penalty_evals, penalty_bits, lifting_evals, lifting_bits) in FINGERPRINTS {
        let phi = attempts_property(x);
        let repair = |strategy| {
            let out = ModelRepair::with_options(RepairOptions { strategy, ..Default::default() })
                .repair_dtmc(&chain, &phi, &template)
                .unwrap();
            assert_eq!(out.status, RepairStatus::Repaired, "{strategy:?} at X = {x}");
            assert!(out.verified, "{strategy:?} at X = {x}");
            (out.evaluations, out.cost.to_bits())
        };
        assert_eq!(
            repair(RepairStrategy::Penalty),
            (penalty_evals, penalty_bits),
            "penalty fingerprint at X = {x}"
        );
        assert_eq!(
            repair(RepairStrategy::Lifting),
            (lifting_evals, lifting_bits),
            "lifting fingerprint at X = {x}"
        );
    }
}
