//! Microbenchmarks of the protocol hot paths: wire-header codec, matching
//! queues, the event queue, and the engine's compute-charge and
//! fiber-switch costs.

use viampi_bench::micro;
use viampi_bench::minibench::{black_box, Bench};
use viampi_core::matching::{MatchEngine, PostedRecv, Unexpected, UnexpectedBody};
use viampi_core::protocol::{Header, MsgKind};
use viampi_core::{ConnMode, Device, WaitPolicy};
use viampi_sim::{Engine, EventQueue, SimDuration, SimTime, SplitMix64};

fn bench_header_codec(b: &mut Bench) {
    let h = Header {
        kind: MsgKind::Eager,
        credits: 3,
        context: 1,
        src: 17,
        tag: 42,
        aux1: 0xABCD,
        aux2: 0x1234_5678,
        len: 4096,
    };
    b.run("header_encode", || {
        let mut buf = [0u8; 32];
        h.encode(black_box(&mut buf));
        buf
    });
    let bytes = h.to_bytes();
    b.run("header_decode", || {
        Header::decode(black_box(&bytes)).unwrap()
    });
}

fn bench_matching(b: &mut Bench) {
    b.run("match_post_and_consume_64", || {
        let mut m = MatchEngine::new();
        for i in 0..64u64 {
            m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            });
        }
        for i in 0..64u64 {
            black_box(m.incoming(0, (i % 8) as u32, i as i32));
        }
    });
    b.run("match_unexpected_scan_64", || {
        let mut m = MatchEngine::new();
        for i in 0..64u32 {
            m.push_unexpected(Unexpected {
                context: 0,
                src: i % 8,
                tag: i as i32,
                body: UnexpectedBody::Eager(vec![0u8; 16].into()),
            });
        }
        for i in (0..64u64).rev() {
            black_box(m.post_recv(PostedRecv {
                req: i,
                context: 0,
                src: Some((i % 8) as u32),
                tag: Some(i as i32),
            }));
        }
    });
}

fn bench_event_queue(b: &mut Bench) {
    b.run("event_queue_push_pop_1k", || {
        let mut rng = SplitMix64::new(7);
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime(rng.next_below(1_000_000)), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
    });
    b.run("event_queue_reused_push_pop_1k", || {
        // Capacity-reuse path: one long-lived queue, drained each round.
        let mut rng = SplitMix64::new(7);
        let mut q = EventQueue::with_capacity(1024);
        for _ in 0..4 {
            for i in 0..1000u64 {
                q.push(SimTime(rng.next_below(1_000_000)), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        }
    });
    b.run("queue_wheel_1k", || {
        // Spread pushes across every wheel level (due buffer, level 0,
        // level 1, far-future overflow) with interleaved pops — the
        // cascade-heavy pattern the timing wheel's advance() pays for.
        let mut rng = SplitMix64::new(0x51ED);
        let mut q = EventQueue::with_capacity(1024);
        let mut popped = 0u64;
        for i in 0..1000u64 {
            let scale = [11u32, 17, 22, 34][(i % 4) as usize];
            q.push(SimTime(rng.next_below(1u64 << scale)), i);
            if i % 3 == 0 {
                if let Some(e) = q.pop() {
                    black_box(e);
                    popped += 1;
                }
            }
        }
        while let Some(e) = q.pop() {
            black_box(e);
            popped += 1;
        }
        popped
    });
}

fn bench_data_plane(b: &mut Bench) {
    // Host wall-clock of a full 2-rank eager ping-pong simulation: pooled
    // frame alloc, the single staging copy, by-reference delivery, recycle
    // on drop. Virtual-time results are pinned by the figure JSON; this
    // guards the real-time cost of the data plane.
    b.run("eager_pingpong_pooled", || {
        micro::pingpong_latency(
            Device::Clan,
            ConnMode::OnDemand,
            WaitPolicy::Polling,
            256,
            32,
        )
    });
}

struct Nop;
impl viampi_sim::World for Nop {
    type Event = ();
    fn handle_event(&mut self, _: (), _: &mut viampi_sim::Api<'_, ()>) {}
}

fn bench_engine(b: &mut Bench) {
    // Cost of one advance(): arithmetic on the process's own clock. The
    // scheduler is not involved — a charge is only settled at the next
    // world access, and this body makes none — so this times the world's
    // set-up plus 1000 clock additions.
    b.run("engine_1k_advances", || {
        let mut eng = Engine::new(Nop);
        eng.spawn("p", |ctx| {
            for _ in 0..1000 {
                ctx.advance(SimDuration::nanos(10));
            }
        });
        eng.run().unwrap()
    });
    // Token passing between two runnable processes: each charges and then
    // yields, and at every yield the peer is the earlier one, so the fast
    // path cannot apply. This isolates the inline decision plus
    // fiber-to-fiber switch that repro_all pays inside every multi-rank
    // simulation.
    b.run("engine_1k_token_passes", || {
        let mut eng = Engine::new(Nop);
        for p in 0..2 {
            eng.spawn(format!("p{p}"), |ctx| {
                for _ in 0..500 {
                    ctx.advance(SimDuration::nanos(10));
                    ctx.yield_now();
                }
            });
        }
        eng.run().unwrap()
    });
}

fn main() {
    let mut b = Bench::from_args();
    bench_header_codec(&mut b);
    bench_matching(&mut b);
    bench_event_queue(&mut b);
    bench_data_plane(&mut b);
    bench_engine(&mut b);
    b.finish("bench_hotpaths");
}
