//! Committed reference values for the default seed. Simulated work is a
//! pure function of the inputs, so these repeat exactly on every host;
//! a change to them means the program now does different work.

use hiperrf::designs::Design;

/// First-round `[events, slot_bytes, fanout_rows, peak_queue_depth]` of
/// the `soak-256x64` write-all/read-all round per design.
pub fn soak(design: Design) -> [u64; 4] {
    match design {
        Design::NdroBaseline => [5_760_224, 368_654_336, 5_754_080, 10_816],
        Design::HiPerRf => [14_141_617, 905_063_488, 14_133_425, 8_945],
        Design::DualBanked => [10_380_033, 664_322_112, 10_374_657, 7_205],
        Design::ShiftRegister => [13_168_509, 842_784_576, 13_096_829, 508],
    }
}

/// Digest (`hiperrf::jobs::digest_f64s`) of the per-trial critical σ of
/// the first `yield-16x16` curve per design.
pub fn yield_criticals(design: Design) -> u64 {
    match design {
        Design::HiPerRf => 0x9eb6_87aa_0a85_84d2,
        Design::NdroBaseline => 0x4914_0db2_b812_d3c9,
        // Not part of the margin study.
        Design::DualBanked | Design::ShiftRegister => 0,
    }
}
