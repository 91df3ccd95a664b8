//! VIA-layer edge cases: descriptor limits, oversized arrivals, RDMA
//! addressing errors, endpoint teardown, NIC transmit serialization, and
//! the buffer hand-off through registered regions (an RDMA write shares
//! the sender's buffer with the packet and, when it can, with the target
//! region — none of which may be observable as aliasing).

use viampi_sim::{PooledBuf, SimDuration};
use viampi_via::{
    fabric_engine, nic_metrics, CompletionKind, CsRequest, DeviceProfile, Discriminator, MemHandle,
    Nic, Open, ViId, ViState, ViaError, ViaPort,
};

fn connect_pair(a: &ViaPort, remote: usize, disc: u64) -> ViId {
    let vi = a.create_vi().unwrap();
    a.connect_peer(vi, remote, Discriminator(disc)).unwrap();
    a.connect_wait(vi).unwrap();
    vi
}

#[test]
fn recv_queue_depth_limit() {
    let mut profile = DeviceProfile::clan();
    profile.max_recv_descs = 4;
    let mut eng = fabric_engine(profile, 1);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let mem = port.register(4096).unwrap();
        for i in 0..4 {
            port.post_recv(vi, mem, i * 64, 64).unwrap();
        }
        assert_eq!(port.post_recv(vi, mem, 0, 64), Err(ViaError::RecvQueueFull));
    });
    eng.run().unwrap();
}

/// Post a 16-descriptor window on a fresh, unconnected VI — as one run or
/// one descriptor at a time — and report what is left behind: the NIC's
/// receive queue, its counters, the caller's clock and the next id.
fn posted_window(as_run: bool) -> (String, u64, u64, u64) {
    let mut eng = fabric_engine(DeviceProfile::clan(), 1);
    eng.spawn("p", move |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let mem = port.register(16 * 512).unwrap();
        let first = if as_run {
            port.post_recv_run(vi, mem, 0, 512, 16).unwrap()
        } else {
            let ids: Vec<_> = (0..16)
                .map(|i| port.post_recv(vi, mem, i * 512, 512).unwrap())
                .collect();
            assert!(ids.windows(2).all(|w| w[1].0 == w[0].0 + 1));
            ids[0]
        };
        assert_eq!(first.0, 0);
        let clock = port.ctx().now().as_nanos();
        port.oob_send(0, clock.to_le_bytes().to_vec());
    });
    let (fabric, out) = eng.run().unwrap();
    let nic = &fabric.nics[0];
    let (_, clock) = nic.oob.front().cloned().expect("clock was reported");
    (
        format!("{:?}", nic.vis[0].recv_q),
        nic.metrics.counter(nic_metrics::DESCS_POSTED),
        u64::from_le_bytes(clock[..].try_into().unwrap()),
        out.metrics.get("sim.world_accesses").unwrap(),
    )
}

#[test]
fn a_run_leaves_the_nic_as_single_posts_do() {
    let (run, one_by_one) = (posted_window(true), posted_window(false));
    assert_eq!(run.0, one_by_one.0, "descriptor ids, order and segments");
    assert_eq!((run.1, one_by_one.1), (16, 16), "nic.descs_posted");
    assert_eq!(run.2, one_by_one.2, "16 × post_recv charged either way");
    assert_eq!(one_by_one.3 - run.3, 15, "one world access instead of 16");
}

/// What a bring-up leaves on node 0's NIC: its regions, its VI (state,
/// target, receive queue), pinned bytes now and at peak, connection
/// requests and descriptors posted.
fn nic_after(nic: &Nic) -> String {
    let m = &nic.metrics;
    format!(
        "{:?} {:?} pinned {}/{} requests {} descs {}",
        nic.regions,
        nic.vis,
        m.gauge(nic_metrics::PINNED_NOW),
        m.gauge(nic_metrics::PINNED_PEAK),
        m.counter(nic_metrics::CONN_REQUESTS),
        m.counter(nic_metrics::DESCS_POSTED),
    )
}

/// Block until a client/server request reaches `port`; the first one.
fn first_cs_request(port: &ViaPort) -> CsRequest {
    loop {
        let stamp = port.activity_stamp();
        if let Some(r) = port.cs_requests().first().copied() {
            return r;
        }
        port.wait_activity(stamp);
    }
}

/// Node 0 brings up a channel end with a 16-buffer window of 512-byte
/// segments — in one `bring_up`, or verb by verb — and opens it with a peer
/// request or, once node 1's client request is in, with an accept. Returns
/// what node 0's NIC holds at the end, node 0's clock when it finished, and
/// the world's accesses.
fn brought_up(one_call: bool, accept: bool) -> (String, u64, u64) {
    const LEN: usize = 512;
    const N: usize = 16;
    let disc = Discriminator(40);
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("end", move |ctx| {
        let port = ViaPort::open(ctx, 0);
        let open = if accept {
            Open::Accept {
                req_id: first_cs_request(&port).id,
            }
        } else {
            Open::Peer { remote: 1, disc }
        };
        let vi = port.create_vi().unwrap();
        if one_call {
            port.bring_up(vi, LEN, N, open).unwrap();
            return;
        }
        let recv = port.register(N * LEN).unwrap();
        port.register(N * LEN).unwrap();
        port.post_recv_run(vi, recv, 0, LEN, N).unwrap();
        match open {
            Open::Accept { req_id } => port.accept_cs(req_id, vi),
            _ => port.connect_peer(vi, 1, disc),
        }
        .unwrap();
    });
    eng.spawn("client", move |ctx| {
        let port = ViaPort::open(ctx, 1);
        if accept {
            let vi = port.create_vi().unwrap();
            port.connect_request(vi, 0, disc).unwrap();
        }
    });
    let (fabric, out) = eng.run().unwrap();
    (
        nic_after(&fabric.nics[0]),
        out.proc_finish[0].as_nanos(),
        out.metrics.get("sim.world_accesses").unwrap(),
    )
}

#[test]
fn a_bring_up_leaves_the_nic_as_its_verbs_do() {
    for accept in [false, true] {
        let (one, verbs) = (brought_up(true, accept), brought_up(false, accept));
        assert_eq!(one.0, verbs.0, "accept {accept}: the NIC");
        assert_eq!(one.1, verbs.1, "accept {accept}: each verb charged");
        assert_eq!(verbs.2 - one.2, 3, "accept {accept}: one access, not four");
    }
    // The pools are pinned, the window is one run and the open went out.
    let (peer, _, _) = brought_up(true, false);
    assert!(
        peer.contains("pinned 16384/16384 requests 1 descs 16"),
        "{peer}"
    );
    assert!(peer.contains("state: Connecting"), "{peer}");
}

#[test]
fn a_bring_up_that_fails_leaves_the_nic_untouched() {
    const POOL: usize = 16 * 512;
    let mut profile = DeviceProfile::clan();
    // Room for the receive pool, not for the send pool after it.
    profile.max_pinned = POOL + POOL / 2;
    let mut eng = fabric_engine(profile, 2);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let open = Open::Peer {
            remote: 1,
            disc: Discriminator(41),
        };
        // The error the second `register` would return.
        let over = ViaError::PinLimitExceeded {
            requested: POOL,
            available: POOL / 2,
        };
        assert_eq!(port.bring_up(vi, 512, 16, open), Err(over));
        // An open the VI cannot take fails before anything is pinned.
        let busy = port.create_vi().unwrap();
        port.connect_peer(busy, 1, Discriminator(42)).unwrap();
        assert_eq!(
            port.bring_up(busy, 512, 1, open),
            Err(ViaError::AlreadyConnected)
        );
        let gone = Open::Accept { req_id: 7 };
        assert_eq!(
            port.bring_up(vi, 512, 1, gone),
            Err(ViaError::NoSuchRequest)
        );
    });
    let (fabric, _) = eng.run().unwrap();
    let nic = &fabric.nics[0];
    assert!(nic.regions.is_empty(), "nothing pinned");
    assert_eq!(nic.metrics.gauge(nic_metrics::PINNED_PEAK), 0);
    assert_eq!(nic.metrics.counter(nic_metrics::DESCS_POSTED), 0);
    let first = &nic.vis[0];
    assert_eq!((first.state, first.remote), (ViState::Idle, None));
    assert!(first.recv_q.is_empty());
    assert_eq!(
        nic.metrics.counter(nic_metrics::CONN_REQUESTS),
        1,
        "only the busy VI's own request"
    );
}

/// Node 1 posts a 4-descriptor window over its second region — as one run
/// or one descriptor at a time — and node 0 sends it six messages, the last
/// two after node 1 has reposted the first two segments its completions
/// named. Returns each receive completion's `(desc, segment)`, in order.
fn consumed_window(as_run: bool) -> Vec<(u64, Option<(MemHandle, usize)>)> {
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("tx", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, 30);
        let mem = port.register(64).unwrap();
        for i in 0..6 {
            port.post_send(vi, mem, 0, 8, i).unwrap();
            if i == 3 {
                port.charge(SimDuration::millis(1));
            }
        }
        port.charge(SimDuration::millis(1));
    });
    let out = got.clone();
    eng.spawn("rx", move |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        port.register(64).unwrap();
        let mem = port.register(4 * 128).unwrap();
        if as_run {
            port.post_recv_run(vi, mem, 0, 128, 4).unwrap();
        } else {
            for i in 0..4 {
                port.post_recv(vi, mem, i * 128, 128).unwrap();
            }
        }
        port.connect_peer(vi, 0, Discriminator(30)).unwrap();
        port.connect_wait(vi).unwrap();
        let mut got = out.lock().unwrap();
        while got.len() < 6 {
            let stamp = port.activity_stamp();
            let Some(c) = port.cq_poll() else {
                port.wait_activity(stamp);
                continue;
            };
            assert_eq!(c.kind, CompletionKind::Recv);
            if got.len() < 2 {
                let (mem, off) = c.segment.unwrap();
                port.post_recv(vi, mem, off, 128).unwrap();
            }
            got.push((c.desc.0, c.segment));
        }
    });
    eng.run().unwrap();
    let got = got.lock().unwrap().clone();
    got
}

#[test]
fn a_recv_completion_names_the_segment_it_consumed() {
    let (run, singles) = (consumed_window(true), consumed_window(false));
    assert_eq!(run, singles, "a run is consumed as its single posts are");
    let seg = |off| Some((MemHandle(1), off));
    assert_eq!(
        run,
        [
            (0, seg(0)),
            (1, seg(128)),
            (2, seg(256)),
            (3, seg(384)),
            (4, seg(0)),
            (5, seg(128)),
        ],
        "window in order, then the reposted segments under fresh ids"
    );
}

#[test]
fn a_run_that_does_not_fit_posts_and_charges_nothing() {
    let mut profile = DeviceProfile::clan();
    profile.max_recv_descs = 8;
    let mut eng = fabric_engine(profile, 1);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let mem = port.register(8 * 64).unwrap();
        port.post_recv_run(vi, mem, 0, 64, 3).unwrap();
        let (t0, posted) = (
            port.ctx().now(),
            port.metrics().counter(nic_metrics::DESCS_POSTED),
        );
        // Six more would make nine on a queue of eight.
        assert_eq!(
            port.post_recv_run(vi, mem, 0, 64, 6),
            Err(ViaError::RecvQueueFull)
        );
        // Five fit the queue, but the last ends past the region.
        assert_eq!(
            port.post_recv_run(vi, mem, 4 * 64, 64, 5),
            Err(ViaError::OutOfBounds)
        );
        assert_eq!(
            port.post_recv_run(vi, mem, 0, usize::MAX, 2),
            Err(ViaError::OutOfBounds),
            "a run whose length overflows is out of bounds"
        );
        assert_eq!(port.ctx().now(), t0, "a rejected run charges nothing");
        assert_eq!(
            port.metrics().counter(nic_metrics::DESCS_POSTED),
            posted,
            "and posts nothing"
        );
        // Exactly what is left still fits, and the ids carry on.
        assert_eq!(port.post_recv_run(vi, mem, 3 * 64, 64, 5).unwrap().0, 3);
        assert_eq!(port.post_recv(vi, mem, 0, 64), Err(ViaError::RecvQueueFull));
    });
    eng.run().unwrap();
}

#[test]
fn oversized_arrival_is_dropped_with_counter() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("tx", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, 5);
        let mem = port.register(1024).unwrap();
        port.post_send(vi, mem, 0, 512, 0).unwrap();
        port.charge(SimDuration::millis(1));
    });
    eng.spawn("rx", |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        let mem = port.register(1024).unwrap();
        port.post_recv(vi, mem, 0, 100).unwrap(); // too small for 512
        port.connect_peer(vi, 0, Discriminator(5)).unwrap();
        port.connect_wait(vi).unwrap();
        port.charge(SimDuration::millis(1));
        let nic = port.metrics();
        assert_eq!(nic.counter(nic_metrics::DROPS_TOO_BIG), 1);
        assert_eq!(nic.counter(nic_metrics::MSGS_RX), 0);
        // The undersized descriptor is still posted (VIA leaves it).
        assert!(port.cq_poll().is_none());
    });
    eng.run().unwrap();
}

#[test]
fn rdma_out_of_bounds_is_dropped() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("src", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, 6);
        let mem = port.register(256).unwrap();
        // Remote region is only 64 bytes; write 128 at offset 0 → dropped.
        port.post_rdma_write(vi, mem, 0, 128, MemHandle(0), 0)
            .unwrap();
        port.charge(SimDuration::millis(1));
    });
    eng.spawn("dst", |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        let _mem = port.register(64).unwrap();
        port.connect_peer(vi, 0, Discriminator(6)).unwrap();
        port.connect_wait(vi).unwrap();
        port.charge(SimDuration::millis(1));
        assert_eq!(port.metrics().counter(nic_metrics::DROPS_RDMA), 1);
    });
    eng.run().unwrap();
}

#[test]
fn rdma_on_unconnected_vi_errors() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let mem = port.register(64).unwrap();
        assert_eq!(
            port.post_rdma_write(vi, mem, 0, 8, MemHandle(0), 0),
            Err(ViaError::NotConnected)
        );
    });
    eng.run().unwrap();
}

#[test]
fn destroyed_vi_rejects_everything() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 1);
    eng.spawn("p", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = port.create_vi().unwrap();
        let mem = port.register(64).unwrap();
        port.destroy_vi(vi).unwrap();
        assert_eq!(port.post_recv(vi, mem, 0, 64), Err(ViaError::InvalidVi));
        assert_eq!(port.post_send(vi, mem, 0, 8, 0), Err(ViaError::InvalidVi));
        assert_eq!(port.vi_state(vi), Err(ViaError::InvalidVi));
        assert_eq!(port.destroy_vi(vi), Err(ViaError::InvalidVi));
    });
    eng.run().unwrap();
}

#[test]
fn connect_on_connected_vi_rejected() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    for me in 0..2usize {
        eng.spawn(format!("n{me}"), move |ctx| {
            let port = ViaPort::open(ctx, me);
            let vi = connect_pair(&port, 1 - me, 9);
            assert_eq!(
                port.connect_peer(vi, 1 - me, Discriminator(10)),
                Err(ViaError::AlreadyConnected)
            );
        });
    }
    eng.run().unwrap();
}

#[test]
fn nic_tx_serializes_back_to_back_sends() {
    // Two posts in the same instant: the second message's completion must
    // come one full transmit time after the first (single NIC engine).
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("tx", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, 11);
        let mem = port.register(8192).unwrap();
        port.post_send(vi, mem, 0, 2048, 0).unwrap();
        port.post_send(vi, mem, 2048, 2048, 1).unwrap();
        let mut done = Vec::new();
        while done.len() < 2 {
            let stamp = port.activity_stamp();
            match port.cq_poll() {
                Some(c) if c.kind == CompletionKind::Send => {
                    done.push(port.ctx().now());
                }
                Some(_) => {}
                None => {
                    port.wait_activity(stamp);
                }
            }
        }
        let gap = done[1].since(done[0]);
        let wire = port.profile().wire_time(2048 + 32);
        assert!(
            gap.as_nanos() >= wire.as_nanos() * 9 / 10,
            "tx must serialize: gap {gap} < wire {wire}"
        );
    });
    eng.spawn("rx", move |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        let mem = port.register(8192).unwrap();
        port.post_recv(vi, mem, 0, 4096).unwrap();
        port.post_recv(vi, mem, 4096, 4096).unwrap();
        port.connect_peer(vi, 0, Discriminator(11)).unwrap();
        port.connect_wait(vi).unwrap();
        port.charge(SimDuration::millis(2));
        assert_eq!(port.metrics().counter(nic_metrics::MSGS_RX), 2);
    });
    eng.run().unwrap();
}

#[test]
fn zero_byte_messages_flow() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("tx", |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, 12);
        let mem = port.register(64).unwrap();
        port.post_send(vi, mem, 0, 0, 77).unwrap();
        port.charge(SimDuration::millis(1));
    });
    eng.spawn("rx", |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        let mem = port.register(64).unwrap();
        port.post_recv(vi, mem, 0, 64).unwrap();
        port.connect_peer(vi, 0, Discriminator(12)).unwrap();
        port.connect_wait(vi).unwrap();
        loop {
            let stamp = port.activity_stamp();
            match port.cq_poll() {
                Some(c) => {
                    assert_eq!(c.kind, CompletionKind::Recv);
                    assert_eq!(c.len, 0);
                    assert_eq!(c.imm, 77, "immediate data crosses with empty payload");
                    break;
                }
                None => {
                    port.wait_activity(stamp);
                }
            }
        }
    });
    eng.run().unwrap();
}

#[test]
fn oob_messages_preserve_pairwise_order() {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("a", |ctx| {
        let port = ViaPort::open(ctx, 0);
        for i in 0..20u8 {
            port.oob_send(1, vec![i]);
        }
    });
    eng.spawn("b", |ctx| {
        let port = ViaPort::open(ctx, 1);
        for i in 0..20u8 {
            let (_, d) = port.oob_recv();
            assert_eq!(d, vec![i], "OOB channel must be FIFO per pair");
        }
    });
    eng.run().unwrap();
}

/// Run `src` on node 0 and `dst` on node 1 over one connected VI pair.
/// `dst` registers before it connects, so its first region is
/// `MemHandle(0)` by the time `src` can post; after `dst` returns the
/// harness checks nothing — each body asserts for itself.
fn rdma_pair(
    disc: u64,
    src: impl FnOnce(&ViaPort, viampi_via::ViId) + Send + 'static,
    dst_setup: impl FnOnce(&ViaPort) + Send + 'static,
    dst_check: impl FnOnce(&ViaPort) + Send + 'static,
) {
    let mut eng = fabric_engine(DeviceProfile::clan(), 2);
    eng.spawn("src", move |ctx| {
        let port = ViaPort::open(ctx, 0);
        let vi = connect_pair(&port, 1, disc);
        src(&port, vi);
        port.charge(SimDuration::millis(2));
    });
    eng.spawn("dst", move |ctx| {
        let port = ViaPort::open(ctx, 1);
        let vi = port.create_vi().unwrap();
        dst_setup(&port);
        port.connect_peer(vi, 0, Discriminator(disc)).unwrap();
        port.connect_wait(vi).unwrap();
        // One-sided: no completion will ever arrive; give the writes time.
        port.charge(SimDuration::millis(1));
        dst_check(&port);
    });
    eng.run().unwrap();
}

#[test]
fn write_after_post_does_not_change_the_bytes_that_land() {
    rdma_pair(
        20,
        |port, vi| {
            // The region adopts the buffer; the packet shares it.
            let mem = port.register_buf(PooledBuf::from(vec![0xAB; 64])).unwrap();
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(0), 0)
                .unwrap();
            // Both kinds of host write, while the packet is in flight.
            port.mem_fill(mem, 0, &[0xCD; 32]).unwrap();
            port.mem_write(mem, 32, &[0xEF; 32]).unwrap();
            let mut now = vec![0xCD; 32];
            now.extend([0xEF; 32]);
            assert_eq!(port.mem_peek(mem, 0, 64).unwrap(), now);
        },
        |port| {
            port.register(64).unwrap();
        },
        |port| {
            assert_eq!(port.mem_peek(MemHandle(0), 0, 64).unwrap(), vec![0xAB; 64]);
        },
    );
}

#[test]
fn whole_region_rdma_is_handed_over_not_copied() {
    rdma_pair(
        21,
        |port, vi| {
            let mem = port
                .register_buf(PooledBuf::from(vec![0x5A; 4096]))
                .unwrap();
            let before = port.pool().stats().bytes_copied;
            port.post_rdma_write(vi, mem, 0, 4096, MemHandle(0), 0)
                .unwrap();
            // Landed by now, and the target has not written yet (the pool
            // and its counter are fabric-wide).
            port.charge(SimDuration::micros(500));
            assert_eq!(port.pool().stats().bytes_copied, before, "no staging copy");
            // The target's later write must not reach back into this buffer.
            port.charge(SimDuration::micros(1500));
            assert_eq!(port.mem_peek(mem, 0, 4096).unwrap(), vec![0x5A; 4096]);
        },
        |port| {
            port.register(4096).unwrap();
        },
        |port| {
            let region_copies =
                |port: &ViaPort| port.metrics().counter(nic_metrics::POOL_BYTES_COPIED);
            assert_eq!(region_copies(port), 0, "installed, not copied in");
            let before = port.pool().stats().bytes_copied;
            // A partial host write on top: the region moves to a private
            // copy (a pool allocation, counted there) and leaves the
            // sender's buffer alone.
            port.mem_fill(MemHandle(0), 8, &[0x11; 16]).unwrap();
            assert_eq!(port.pool().stats().bytes_copied, before + 4096);
            assert_eq!(region_copies(port), 16);
            let got = port.deregister_take(MemHandle(0), 4096).unwrap();
            assert_eq!(&got[..8], &[0x5A; 8]);
            assert_eq!(&got[8..24], &[0x11; 16]);
            assert_eq!(&got[24..], &[0x5A; 4096 - 24][..]);
            assert_eq!(
                port.mem_peek(MemHandle(0), 0, 1),
                Err(ViaError::InvalidMem),
                "the region is gone with its buffer"
            );
        },
    );
}

#[test]
fn rdma_at_an_offset_into_a_fresh_region_is_copied_in() {
    rdma_pair(
        22,
        |port, vi| {
            let mem = port.register_buf(PooledBuf::from(vec![0xAB; 64])).unwrap();
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(0), 16)
                .unwrap();
        },
        |port| {
            port.register(128).unwrap();
        },
        |port| {
            let mut want = vec![0u8; 16];
            want.extend([0xAB; 64]);
            want.extend([0u8; 48]);
            assert_eq!(port.mem_peek(MemHandle(0), 0, 128).unwrap(), want);
            assert_eq!(port.metrics().counter(nic_metrics::MSGS_RX), 1);
        },
    );
}

#[test]
fn two_disjoint_rdma_writes_share_one_region() {
    rdma_pair(
        23,
        |port, vi| {
            let mem = port.register(64).unwrap();
            port.mem_fill(mem, 0, &[0x11; 32]).unwrap();
            port.mem_fill(mem, 32, &[0x22; 32]).unwrap();
            // Second half first: neither write covers the region.
            port.post_rdma_write(vi, mem, 32, 32, MemHandle(0), 32)
                .unwrap();
            port.post_rdma_write(vi, mem, 0, 32, MemHandle(0), 0)
                .unwrap();
        },
        |port| {
            port.register(64).unwrap();
        },
        |port| {
            let mut want = vec![0x11; 32];
            want.extend([0x22; 32]);
            assert_eq!(port.mem_peek(MemHandle(0), 0, 64).unwrap(), want);
            assert_eq!(port.metrics().counter(nic_metrics::MSGS_RX), 2);
        },
    );
}

#[test]
fn rdma_into_a_region_the_host_already_wrote_keeps_the_rest() {
    rdma_pair(
        24,
        |port, vi| {
            let mem = port.register_buf(PooledBuf::from(vec![0xAB; 64])).unwrap();
            // Whole-region write into a materialized region, then a partial
            // one into a second region the host filled.
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(0), 0)
                .unwrap();
            port.post_rdma_write(vi, mem, 0, 32, MemHandle(1), 0)
                .unwrap();
        },
        |port| {
            for _ in 0..2 {
                let mem = port.register(64).unwrap();
                port.mem_write(mem, 0, &[0x77; 64]).unwrap();
            }
        },
        |port| {
            assert_eq!(port.mem_peek(MemHandle(0), 0, 64).unwrap(), vec![0xAB; 64]);
            let mut want = vec![0xAB; 32];
            want.extend([0x77; 32]);
            assert_eq!(port.mem_peek(MemHandle(1), 0, 64).unwrap(), want);
        },
    );
}

#[test]
fn deregister_with_an_rdma_in_flight_drops_or_lands_cleanly() {
    rdma_pair(
        25,
        |port, vi| {
            let mem = port.register_buf(PooledBuf::from(vec![0xAB; 64])).unwrap();
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(0), 0)
                .unwrap();
            port.post_rdma_write(vi, mem, 0, 64, MemHandle(1), 0)
                .unwrap();
            // The source unpins with both packets still on the wire: they
            // keep the buffer alive.
            port.deregister(mem).unwrap();
            assert_eq!(port.metrics().gauge(nic_metrics::PINNED_NOW), 0);
        },
        |port| {
            port.register(64).unwrap();
            let gone = port.register(64).unwrap();
            port.deregister(gone).unwrap();
        },
        |port| {
            assert_eq!(port.mem_peek(MemHandle(0), 0, 64).unwrap(), vec![0xAB; 64]);
            let nic = port.metrics();
            assert_eq!(
                nic.counter(nic_metrics::DROPS_RDMA),
                1,
                "write into the unpinned region"
            );
            assert_eq!(nic.counter(nic_metrics::MSGS_RX), 1);
        },
    );
}

/// What an accept on node 0 could change: the states of `vis`, the pending
/// client/server requests and the bytes pinned now.
fn accept_inputs(port: &ViaPort, vis: &[ViId]) -> (Vec<ViState>, Vec<CsRequest>, u64) {
    (
        vis.iter().map(|&vi| port.vi_state(vi).unwrap()).collect(),
        port.cs_requests(),
        port.metrics().gauge(nic_metrics::PINNED_NOW),
    )
}

#[test]
fn a_failed_accept_leaves_the_request_and_the_vis_as_they_were() {
    // Either the server's VI is busy, or the client's VI is gone by the
    // time the server accepts.
    for client_gone in [false, true] {
        let disc = Discriminator(43);
        let mut eng = fabric_engine(DeviceProfile::clan(), 2);
        eng.spawn("server", move |ctx| {
            let port = ViaPort::open(ctx, 0);
            port.register(4096).unwrap();
            let req = first_cs_request(&port);
            port.oob_recv();
            let idle = port.create_vi().unwrap();
            let busy = port.create_vi().unwrap();
            port.connect_peer(busy, 1, Discriminator(44)).unwrap();
            let vis = [idle, busy];
            let before = accept_inputs(&port, &vis);
            let (vi, err) = if client_gone {
                (idle, ViaError::NoSuchRequest)
            } else {
                (busy, ViaError::AlreadyConnected)
            };
            assert_eq!(port.accept_cs(req.id, vi), Err(err));
            assert_eq!(
                accept_inputs(&port, &vis),
                before,
                "client gone {client_gone}"
            );
            if !client_gone {
                // The request is still there to accept.
                port.accept_cs(req.id, idle).unwrap();
                assert_eq!(port.connect_wait(idle), Ok(ViState::Connected));
            }
        });
        eng.spawn("client", move |ctx| {
            let port = ViaPort::open(ctx, 1);
            let vi = port.create_vi().unwrap();
            port.connect_request(vi, 0, disc).unwrap();
            if client_gone {
                port.destroy_vi(vi).unwrap();
            }
            port.oob_send(0, Vec::new());
            if !client_gone {
                assert_eq!(port.connect_wait(vi), Ok(ViState::Connected));
            }
        });
        eng.run().unwrap();
    }
}
