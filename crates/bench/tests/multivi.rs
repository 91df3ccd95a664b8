//! Multi-VI endpoint regressions: the fig9 crossover (striping must beat
//! a shared VI once enough producer threads contend for it) and the
//! lock-convoy charge on a shared VI. Per-(pair, stripe) credit
//! conservation is a world-end law (`viampi_core::invariants`) that
//! `Universe::run` checks on every striped world.

use viampi_core::{ConnMode, Device};

#[test]
fn striping_beats_a_shared_vi_at_four_producers() {
    // The committed fig9 record shows N-VI endpoints ahead of the shared
    // single VI from T = 4 on both devices; this pins the crossover in a
    // fast sub-grid so a model regression fails here, not only in the
    // figure-identity diff.
    for device in [Device::Clan, Device::Berkeley] {
        let (shared, _, _) =
            viampi_bench::experiments::threaded_rate(device, ConnMode::OnDemand, 1, 4, 64, 256);
        let (striped, _, _) =
            viampi_bench::experiments::threaded_rate(device, ConnMode::OnDemand, 4, 4, 64, 256);
        assert!(
            striped > shared,
            "{device:?}: striped rate {striped:.1} must beat shared {shared:.1} at T=4"
        );
    }
}

#[test]
fn shared_vi_convoy_is_charged_per_producer_switch() {
    // Producer identity is stamped at post time, so sends that stall in
    // the credit FIFO still convoy under the thread that posted them: a
    // T-producer round-robin exchange on one shared VI must switch
    // producers on nearly every data message.
    let (_, switches, convoy_us) = viampi_bench::experiments::threaded_rate(
        Device::Berkeley,
        ConnMode::OnDemand,
        1,
        4,
        64,
        256,
    );
    // 2 ranks × 4 threads × (64+1 warm-up) messages, round-robin: all but
    // the first message per rank-burst switches producers.
    assert!(
        switches > 400,
        "expected near-per-message producer switches, got {switches}"
    );
    assert!(convoy_us > 0.0);
}
