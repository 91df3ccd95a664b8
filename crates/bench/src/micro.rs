//! Microbenchmark drivers: ping-pong latency and windowed bandwidth (the
//! paper's §5.3 tests), plus the VIA-level Fig.-1 harness.

use viampi_core::{ConnMode, Device, RunReport, Universe, WaitPolicy};
use viampi_sim::SimDuration;
use viampi_via::{fabric_engine, CompletionKind, DeviceProfile, Discriminator, ViaPort};

/// One-way MPI latency in µs for `size`-byte messages (np = 2).
pub fn pingpong_latency(
    device: Device,
    conn: ConnMode,
    wait: WaitPolicy,
    size: usize,
    reps: usize,
) -> f64 {
    let uni = Universe::new(2, device, conn, wait);
    let report = uni
        .run(move |mpi| {
            let other = 1 - mpi.rank();
            let buf = vec![0x5Au8; size];
            // Warm-up round establishes connections and credits.
            mpi.sendrecv(&buf, other, 0, Some(other), Some(0));
            let t0 = mpi.now();
            for _ in 0..reps {
                if mpi.rank() == 0 {
                    mpi.send(&buf, 1, 1);
                    mpi.recv(Some(1), Some(1));
                } else {
                    mpi.recv(Some(0), Some(1));
                    mpi.send(&buf, 0, 1);
                }
            }
            mpi.now().since(t0).as_micros_f64() / (2.0 * reps as f64)
        })
        .unwrap();
    report.results[0]
}

/// Streaming bandwidth in MB/s for `size`-byte messages: `window` messages
/// per acknowledged burst (np = 2).
pub fn bandwidth(
    device: Device,
    conn: ConnMode,
    wait: WaitPolicy,
    size: usize,
    bursts: usize,
    window: usize,
) -> f64 {
    let pair = Universe::new(2, device, conn, wait);
    bandwidth_in(pair, size, bursts, window, true).results[0]
}

/// The streaming-bandwidth kernel, in a two-rank world the caller has
/// configured: rank 0 streams `bursts` bursts of `window` `size`-byte
/// messages, each burst acknowledged by rank 1, and every rank returns the
/// MB/s it saw (rank 0's is the figure). `warm_up` sends one message first,
/// so connection setup and the first credits stay out of the timed window.
pub fn bandwidth_in(
    universe: Universe,
    size: usize,
    bursts: usize,
    window: usize,
    warm_up: bool,
) -> RunReport<f64> {
    universe
        .run(move |mpi| {
            let buf = vec![0xC3u8; size];
            if warm_up {
                if mpi.rank() == 0 {
                    mpi.send(&buf, 1, 0);
                } else {
                    mpi.recv(Some(0), Some(0));
                }
            }
            let t0 = mpi.now();
            for _ in 0..bursts {
                if mpi.rank() == 0 {
                    let reqs: Vec<_> = (0..window).map(|_| mpi.isend(&buf, 1, 1)).collect();
                    mpi.waitall(&reqs);
                    mpi.recv(Some(1), Some(2));
                } else {
                    let reqs: Vec<_> = (0..window).map(|_| mpi.irecv(Some(0), Some(1))).collect();
                    mpi.waitall(&reqs);
                    mpi.send(&[1], 0, 2);
                }
            }
            let secs = mpi.now().since(t0).as_secs_f64();
            (bursts * window * size) as f64 / secs / 1.0e6
        })
        .unwrap()
}

/// Raw VIA ping-pong latency (µs, one-way) with `idle_vis` additional idle
/// endpoints on each NIC — the paper's Fig. 1 measurement.
pub fn via_latency_with_idle_vis(profile: DeviceProfile, size: usize, idle_vis: usize) -> f64 {
    let reps = 200u64;
    let mut eng = fabric_engine(profile, 2);
    let disc = Discriminator(1);
    for me in 0..2usize {
        let other = 1 - me;
        eng.spawn(format!("n{me}"), move |ctx| {
            let port = ViaPort::open(ctx, me);
            for _ in 0..idle_vis {
                port.create_vi().unwrap();
            }
            let vi = port.create_vi().unwrap();
            let mem = port.register(2 * size.max(64) + 128).unwrap();
            port.post_recv(vi, mem, 0, size.max(64)).unwrap();
            port.connect_peer(vi, other, disc).unwrap();
            port.connect_wait(vi).unwrap();
            let data_off = size.max(64) + 64;
            for _ in 0..reps {
                if me == 0 {
                    port.post_send(vi, mem, data_off, size, 0).unwrap();
                }
                // Wait for the inbound message.
                loop {
                    let stamp = port.activity_stamp();
                    match port.cq_poll() {
                        Some(c) if c.kind == CompletionKind::Recv => break,
                        Some(_) => {}
                        None => {
                            port.wait_activity(stamp);
                        }
                    }
                }
                port.post_recv(vi, mem, 0, size.max(64)).unwrap();
                if me == 1 {
                    port.post_send(vi, mem, data_off, size, 0).unwrap();
                }
            }
            // Drain the final completion on node 0's side.
            if me == 0 {
                port.charge(SimDuration::millis(1));
            }
        });
    }
    let (_, out) = eng.run().unwrap();
    // Total time ≈ reps round trips (plus setup); subtract nothing — the
    // paper's measurement includes the same steady-state loop.
    out.end_time.as_micros_f64() / (2.0 * reps as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_reasonable_on_clan() {
        let l = pingpong_latency(
            Device::Clan,
            ConnMode::StaticPeerToPeer,
            WaitPolicy::Polling,
            4,
            50,
        );
        // Calibration target: the paper-era MVICH/cLAN small-message
        // latency was ≈ 9–12 µs.
        assert!((5.0..20.0).contains(&l), "cLAN 4B latency {l}us");
    }

    #[test]
    fn latency_grows_with_size() {
        let l4 = pingpong_latency(Device::Clan, ConnMode::OnDemand, WaitPolicy::Polling, 4, 30);
        let l4k = pingpong_latency(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            4096,
            30,
        );
        assert!(l4k > l4 + 20.0, "4B={l4} 4KiB={l4k}");
    }

    #[test]
    fn bandwidth_dips_at_rendezvous_threshold() {
        // The paper observes a jump at the 5000-byte eager→rendezvous
        // switch (§5.3): just-below-threshold eager beats just-above
        // rendezvous because of the added RTS/CTS round trip.
        let below = bandwidth(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            4096,
            20,
            8,
        );
        let above = bandwidth(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            6144,
            20,
            8,
        );
        assert!(
            below > above,
            "bandwidth must dip across the threshold: {below} vs {above}"
        );
    }

    #[test]
    fn large_message_bandwidth_approaches_link_rate() {
        let bw = bandwidth(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            262_144,
            10,
            4,
        );
        assert!((70.0..=112.0).contains(&bw), "cLAN asymptotic bw {bw} MB/s");
    }

    #[test]
    fn fig1_idle_vis_slow_bvia_not_clan() {
        let b0 = via_latency_with_idle_vis(DeviceProfile::berkeley(), 4, 0);
        let b8 = via_latency_with_idle_vis(DeviceProfile::berkeley(), 4, 8);
        assert!(b8 > b0 + 5.0, "BVIA: {b0} → {b8}");
        let c0 = via_latency_with_idle_vis(DeviceProfile::clan(), 4, 0);
        let c8 = via_latency_with_idle_vis(DeviceProfile::clan(), 4, 8);
        assert!((c8 - c0).abs() < 0.5, "cLAN flat: {c0} → {c8}");
    }
}
