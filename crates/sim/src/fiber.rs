//! Stackful fibers: the execution substrate of every simulated process.
//!
//! A *fiber* is a suspended computation: a privately owned stack plus a
//! saved stack pointer. Switching fibers saves the callee-saved register
//! file on the current stack, stores the stack pointer, and restores the
//! target's — a user-space context switch that costs tens of nanoseconds.
//! The engine hosts every simulated process on a fiber multiplexed onto the
//! *one* OS thread that called `Engine::run`; there is no other substrate.
//!
//! ## Supported targets
//!
//! The switch is hand-written assembly against the System V AMD64 and
//! AAPCS64 calling conventions and stacks come straight from `mmap`, so the
//! supported set is **x86_64 and aarch64 on Linux and macOS** (the macOS
//! constants are the platform's documented values; CI runs Linux). Any
//! other target fails to build with a `compile_error!` — there is no
//! thread fallback.
//!
//! ## Stacks and the per-thread pool
//!
//! A stack is one anonymous private mapping (`MAP_NORESERVE | MAP_STACK`):
//! a `PROT_NONE` guard page at the low end, then the usable stack. The
//! kernel commits pages lazily, so 4096 one-MiB stacks reserve 4 GiB of
//! address space but only the pages a rank actually touches become
//! resident, and running off the low end faults at the offending store
//! instead of silently corrupting a neighbouring allocation.
//!
//! Finished fibers hand their stacks to a **thread-local free list** that
//! outlives the [`FiberSet`] — and therefore `Engine::run` — that mapped
//! them. Back-to-back worlds on one thread (every experiment sweep, every
//! `--jobs` worker) reuse the same stacks, last-released first, so they
//! keep touching the same few already-resident pages and never pay
//! `mmap`/`munmap`/first-touch faults again. The list is bounded at
//! [`STACK_POOL_CAP`] stacks; anything released beyond that is unmapped on
//! the spot, so after an np = 4096 world a thread retains at most
//! `STACK_POOL_CAP` mappings (their touched pages resident, the rest
//! address space only). The list is per thread because fibers never
//! migrate: `--jobs` workers share nothing, and a worker's stacks are
//! unmapped when it exits. [`stack_pool_metrics`] publishes the pool's
//! counters (`sim.fiber.*`) for the calling thread.
//!
//! This is the only module in the crate that uses `unsafe`; the rest of
//! the workspace keeps `deny(unsafe_code)`. The unsafety is confined to
//! three well-trodden pieces (the same layout `boost.context` and every
//! green-thread runtime use):
//!
//! 1. the assembly switch ([`raw_switch`]) — save callee-saved registers,
//!    swap stack pointers, restore;
//! 2. the entry trampoline — a prepared initial stack frame whose return
//!    address is a naked shim that forwards a payload pointer into
//!    [`fiber_entry`];
//! 3. raw stack mapping — `mmap`/`mprotect`/`munmap` declared `extern "C"`
//!    below (no `libc` crate: the build is offline).
//!
//! Floating-point *control* state (`mxcsr`/x87 on x86-64, `fpcr` on
//! aarch64) is not switched: nothing in this workspace changes rounding
//! or exception modes, so every fiber shares the process default.
//!
//! Safety protocol for the callers in `engine.rs`: all fibers of one
//! [`FiberSet`] are driven from a single OS thread (the set is neither
//! `Send` nor `Sync`); a switch is only performed with no borrows of the
//! set's interior outstanding; and a fiber's stack is only released after
//! the fiber has run to completion (its entry function returned control
//! for the last time).

#![allow(unsafe_code)]

use crate::metrics::{fiber as fm, MetricsSnapshot, Registry};
use std::cell::RefCell;

#[cfg(not(all(
    any(target_arch = "x86_64", target_arch = "aarch64"),
    any(target_os = "linux", target_os = "android", target_os = "macos")
)))]
compile_error!(
    "viampi-sim runs simulated processes as stackful fibers on mmap'd stacks: \
     only x86_64 and aarch64 on Linux/macOS are supported (see crates/sim/src/fiber.rs)"
);

/// Magic word written at the low end of every stack (just above the guard
/// page); overwritten means the fiber came within a word of overflowing.
const CANARY: u64 = 0x5AFE_57AC_F1BE_55AA;

/// Smallest stack a fiber is given, whatever was asked for.
const MIN_STACK: usize = 32 << 10;

/// Largest stack that can be asked for. Far beyond any rank's need; the
/// bound keeps every size computation below clear of overflow and turns an
/// absurd request into an error before anything is mapped.
const MAX_STACK: usize = 1 << 30;

/// Most stacks a thread keeps on its free list between runs (see the
/// module docs): enough for every np ≤ 256 world to be fully recycled,
/// small enough that a thread which once ran np = 4096 gives the rest back.
pub const STACK_POOL_CAP: usize = 256;

// ---------------------------------------------------------------------------
// The context switch.
// ---------------------------------------------------------------------------
//
// `raw_switch(save, load)` pushes the callee-saved register file onto the
// current stack, stores the resulting stack pointer through `save`, loads
// `load` as the new stack pointer, pops the register file found there and
// returns — on the target's stack, to the target's caller. From the Rust
// caller's point of view it is an ordinary `extern "C"` call that happens
// to take a long time to return; caller-saved registers are dead across
// any call per the ABI, and callee-saved registers are restored from the
// save area, so no register state leaks between fibers.
//
// # Safety (both architectures)
//
// `save` must be valid for a pointer write, and `load` must be a stack
// pointer this function stored earlier for a context that is still
// suspended, or a frame `prepare_frame` built on a live stack. The
// trampolines are only ever entered through such a prepared frame.

#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn raw_switch(_save: *mut *mut u8, _load: *mut u8) {
    // System V AMD64: rdi = save slot, rsi = new stack pointer.
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn fiber_trampoline() {
    // First activation of a fiber: the prepared frame placed the payload
    // pointer in r12 (restored by `raw_switch`'s pops). Realign the stack
    // and enter Rust. `fiber_entry` never returns (its final act is a
    // switch away from a completed fiber); the trap instruction documents
    // that.
    core::arch::naked_asm!(
        "mov rdi, r12",
        "and rsp, -16",
        "call {entry}",
        "ud2",
        entry = sym fiber_entry,
    )
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn raw_switch(_save: *mut *mut u8, _load: *mut u8) {
    // AAPCS64: x0 = save slot, x1 = new stack pointer. Callee-saved:
    // x19–x28, fp (x29), lr (x30), d8–d15 — 160 bytes, 16-aligned.
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x2, sp",
        "str x2, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn fiber_trampoline() {
    // First activation: the prepared frame put the payload pointer in x19
    // and this shim's address in x30 (`ret` above branches here).
    core::arch::naked_asm!(
        "mov x0, x19",
        "bl {entry}",
        "brk #0x1",
        entry = sym fiber_entry,
    )
}

// ---------------------------------------------------------------------------
// Stacks, the per-thread pool, and entry payloads.
// ---------------------------------------------------------------------------

/// The handful of libc symbols and constants the stack mapping needs,
/// declared here because the build has no `libc` crate.
mod sys {
    use std::ffi::{c_int, c_long, c_void};

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    mod os {
        use std::ffi::c_int;
        pub const MAP_ANONYMOUS: c_int = 0x20;
        pub const MAP_NORESERVE: c_int = 0x4000;
        pub const MAP_STACK: c_int = 0x2_0000;
        pub const SC_PAGESIZE: c_int = 30;
    }
    #[cfg(target_os = "macos")]
    mod os {
        use std::ffi::c_int;
        pub const MAP_ANONYMOUS: c_int = 0x1000;
        pub const MAP_NORESERVE: c_int = 0x40;
        pub const MAP_STACK: c_int = 0; // no such flag
        pub const SC_PAGESIZE: c_int = 29;
    }
    pub use os::*;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn sysconf(name: c_int) -> c_long;
    }
}

/// The host page size (the guard-page length and the stack-size quantum).
fn page_size() -> usize {
    static PAGE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PAGE.get_or_init(|| {
        // SAFETY: `sysconf` takes no pointers; `_SC_PAGESIZE` is always valid.
        let n = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
        usize::try_from(n)
            .ok()
            .filter(|n| n.is_power_of_two())
            .unwrap_or(4096)
    })
}

/// Usable stack bytes a fiber gets for a request of `bytes`: at least
/// [`MIN_STACK`], rounded up to whole pages; `None` above [`MAX_STACK`].
fn round_stack_size(bytes: usize) -> Option<usize> {
    (bytes <= MAX_STACK).then(|| bytes.max(MIN_STACK).next_multiple_of(page_size()))
}

/// One mapped fiber stack: `[guard page | usable stack]`, growing down
/// from `top()` towards the guard.
struct Stack {
    /// Start of the mapping (the guard page).
    base: *mut u8,
    guard: usize,
    /// Usable bytes above the guard.
    size: usize,
}

impl Stack {
    /// Map a fresh stack with `size` usable bytes (a page multiple).
    fn map(size: usize) -> Self {
        let guard = page_size();
        let len = guard + size;
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing; the result is checked against MAP_FAILED.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != sys::MAP_FAILED,
            "mmap of a {len}-byte fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `[base, base + guard)` is the first page of the mapping
        // just created, which nothing references yet.
        let rc = unsafe { sys::mprotect(base, guard, sys::PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a fiber stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: base as *mut u8,
            guard,
            size,
        };
        // The canary is the single low-end word we touch up front (it
        // stays intact across reuse, or `note_park` would have panicked).
        // SAFETY: the word lies in the writable part of the mapping and is
        // page-aligned.
        unsafe { stack.canary().write(CANARY) };
        stack
    }

    #[inline]
    fn canary(&self) -> *mut u64 {
        // SAFETY: `guard < guard + size`, so the offset stays in bounds.
        unsafe { self.base.add(self.guard) as *mut u64 }
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    #[inline]
    fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the mapping.
        unsafe { self.base.add(self.guard + self.size) }
    }

    #[inline]
    fn canary_intact(&self) -> bool {
        // SAFETY: see `map` — the word is readable for the mapping's life.
        unsafe { self.canary().read() == CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`guard + size` describe exactly the mapping made
        // in `map`, and a stack is only dropped once no fiber stands on it.
        // A failing munmap leaks address space; nothing useful can be done
        // about it in a destructor.
        unsafe { sys::munmap(self.base as *mut _, self.guard + self.size) };
    }
}

/// A thread's free list of mapped stacks plus its `sim.fiber.*` metrics.
struct StackPool {
    free: Vec<Stack>,
    metrics: Registry,
}

thread_local! {
    static POOL: RefCell<StackPool> = RefCell::new(StackPool {
        free: Vec::new(),
        metrics: fm::registry(),
    });
}

impl StackPool {
    /// A stack with `size` usable bytes: the most recently released one if
    /// it fits (its top pages are the likeliest to be resident and cached),
    /// else a fresh mapping. Pooled stacks of another size — a set built
    /// with a different `bytes` — are unmapped as they surface.
    fn acquire(size: usize) -> Stack {
        POOL.with(|p| {
            let p = &mut *p.borrow_mut();
            p.metrics.gauge_add(fm::STACKS_LIVE, 1);
            while let Some(stack) = p.free.pop() {
                p.metrics.gauge_set(fm::POOL_FREE, p.free.len() as u64);
                if stack.size == size {
                    p.metrics.inc(fm::STACKS_REUSED);
                    return stack;
                }
            }
            p.metrics.inc(fm::STACKS_MAPPED);
            Stack::map(size)
        })
    }

    /// Return a stack no fiber stands on: kept for reuse while the free
    /// list is below [`STACK_POOL_CAP`], unmapped otherwise (and always
    /// during thread teardown, once the pool itself is gone).
    fn release(stack: Stack) {
        let _ = POOL.try_with(|p| {
            let p = &mut *p.borrow_mut();
            p.metrics.gauge_sub(fm::STACKS_LIVE, 1);
            if p.free.len() < STACK_POOL_CAP {
                p.free.push(stack);
                p.metrics.gauge_set(fm::POOL_FREE, p.free.len() as u64);
            }
        });
    }
}

/// The calling thread's stack-pool metrics ([`crate::metrics::fiber`]):
/// stacks mapped and reused since the thread started, stacks currently
/// checked out by live fibers, and the free-list length. They describe the
/// *thread*, not a run — which run maps a stack and which reuses it
/// depends on what the thread ran before — so they are deliberately not
/// part of the deterministic per-run [`crate::Outcome::metrics`].
pub fn stack_pool_metrics() -> MetricsSnapshot {
    POOL.with(|p| p.borrow().metrics.snapshot())
}

/// Payload handed to [`fiber_entry`] on a fiber's first activation. Boxed
/// so its address is stable while the fiber lives.
struct Entry {
    set: *const FiberSet,
    index: usize,
    /// The fiber body; `None` once taken at first activation.
    func: Option<Box<dyn FnOnce()>>,
}

/// Rust-side first activation of a fiber: run the body, then hand control
/// back to the driver forever.
///
/// # Safety
///
/// Only reachable through the frame [`prepare_frame`] built: `payload` is
/// the fiber's own boxed [`Entry`], whose `set` outlives every fiber in it.
unsafe extern "C" fn fiber_entry(payload: *mut Entry) {
    // SAFETY: per the contract above, `payload` is live and unaliased (the
    // set does not touch a started fiber's entry until it is done).
    let (set, index, func) = unsafe {
        let e = &mut *payload;
        (e.set, e.index, e.func.take().expect("fiber body present"))
    };
    func();
    // The body returned: mark this fiber completed and switch to the
    // driver context, never to run again.
    // SAFETY: `set` is live (see above) and `index` is this fiber.
    unsafe { (*set).finish(index) };
    unreachable!("a completed fiber was resumed");
}

// ---------------------------------------------------------------------------
// The fiber set.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FiberState {
    /// Body registered, no stack yet.
    NotStarted,
    /// Suspended at a switch point, resumable.
    Parked,
    /// Currently executing (control is on its stack).
    Active,
    /// Body returned (or the fiber was abandoned unstarted).
    Done,
}

struct FiberSlot {
    state: FiberState,
    stack: Option<Stack>,
    /// Saved stack pointer while parked (or the prepared initial frame).
    sp: *mut u8,
    entry: Option<Box<Entry>>,
}

/// A fixed-size set of fibers driven from one OS thread.
///
/// Exactly one context of {driver, fibers} executes at any instant; the
/// driver context is the thread that calls [`FiberSet::resume`] from
/// outside any fiber. The raw pointers inside make the set neither `Send`
/// nor `Sync`, which is the safety protocol's first rule enforced by type.
pub struct FiberSet {
    inner: std::cell::UnsafeCell<SetInner>,
}

struct SetInner {
    slots: Vec<FiberSlot>,
    /// Saved driver-context stack pointer while a fiber runs.
    driver_sp: *mut u8,
    /// Index of the executing fiber, or [`DRIVER`].
    current: usize,
    stack_size: usize,
    /// Deepest stack usage seen at any suspension point, bytes.
    stack_depth_peak: usize,
}

const DRIVER: usize = usize::MAX;

impl FiberSet {
    /// A set of `n` fibers with `bytes` usable stack bytes each, as
    /// [`round_stack_size`] rounds them. Bodies are registered with
    /// [`FiberSet::set_body`]; a stack is taken from the thread's pool at
    /// first resume and handed back when the set is dropped.
    pub fn new(n: usize, bytes: usize) -> Self {
        // The frame builder and the guard arithmetic rely on whole pages
        // within the bounds.
        let stack_size = round_stack_size(bytes)
            .unwrap_or_else(|| panic!("a {bytes}-byte fiber stack is beyond MAX_STACK"));
        FiberSet {
            inner: std::cell::UnsafeCell::new(SetInner {
                slots: (0..n)
                    .map(|_| FiberSlot {
                        state: FiberState::NotStarted,
                        stack: None,
                        sp: std::ptr::null_mut(),
                        entry: None,
                    })
                    .collect(),
                driver_sp: std::ptr::null_mut(),
                current: DRIVER,
                stack_size,
                stack_depth_peak: 0,
            }),
        }
    }

    /// The set's interior. Every caller ends the borrow before it switches
    /// contexts (the resumed context re-borrows), and the set is confined
    /// to one thread, so no two borrows are ever live at once.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn inner(&self) -> &mut SetInner {
        // SAFETY: see above — single thread, borrows never span a switch.
        unsafe { &mut *self.inner.get() }
    }

    /// Register fiber `i`'s body. Must be called before its first resume.
    pub fn set_body(&self, i: usize, f: Box<dyn FnOnce()>) {
        self.inner().slots[i].entry = Some(Box::new(Entry {
            set: self as *const FiberSet,
            index: i,
            func: Some(f),
        }));
    }

    /// True when fiber `i` has run to completion.
    #[cfg(test)]
    pub fn is_done(&self, i: usize) -> bool {
        self.inner().slots[i].state == FiberState::Done
    }

    /// If fiber `i` has never run, drop its body so it never will and
    /// return `true`; a started fiber is left alone (`false`).
    pub fn abandon(&self, i: usize) -> bool {
        let slot = &mut self.inner().slots[i];
        let unstarted = slot.state == FiberState::NotStarted;
        if unstarted {
            slot.state = FiberState::Done;
            slot.entry = None;
        }
        unstarted
    }

    /// Transfer control to fiber `to`, suspending the calling context
    /// (driver or another fiber) until something switches back. Takes
    /// `to`'s stack from the thread's pool on first activation.
    pub fn resume(&self, to: usize) {
        let (save, load) = {
            let inner = self.inner();
            let from = inner.current;
            if from != DRIVER {
                Self::note_park(inner, from);
            }
            let to_slot = &mut inner.slots[to];
            match to_slot.state {
                FiberState::NotStarted => {
                    let stack = StackPool::acquire(inner.stack_size);
                    to_slot.sp = prepare_frame(
                        &stack,
                        to_slot
                            .entry
                            .as_mut()
                            .expect("fiber body registered")
                            .as_mut(),
                    );
                    to_slot.stack = Some(stack);
                }
                FiberState::Parked => {}
                FiberState::Active | FiberState::Done => {
                    panic!("resume of a {:?} fiber", to_slot.state)
                }
            }
            to_slot.state = FiberState::Active;
            let load = to_slot.sp;
            inner.current = to;
            let save: *mut *mut u8 = if from == DRIVER {
                &mut inner.driver_sp
            } else {
                inner.slots[from].state = FiberState::Parked;
                &mut inner.slots[from].sp
            };
            (save, load)
        };
        // SAFETY: `load` is either a frame `prepare_frame` built on a live
        // stack or the stack pointer `raw_switch` stored when `to` parked;
        // `save` points into the set, which outlives the switch.
        unsafe { raw_switch(save, load) };
        // Control returned to this context: someone set `current` back to
        // us before switching. Nothing to do — the caller continues.
    }

    /// Transfer control from the executing fiber back to the driver
    /// context.
    pub fn yield_to_driver(&self) {
        let (save, load) = {
            let inner = self.inner();
            let from = inner.current;
            assert_ne!(from, DRIVER, "yield_to_driver from the driver");
            Self::note_park(inner, from);
            inner.slots[from].state = FiberState::Parked;
            inner.current = DRIVER;
            let save: *mut *mut u8 = &mut inner.slots[from].sp;
            (save, inner.driver_sp)
        };
        // SAFETY: a fiber is running, so the driver is suspended inside
        // `resume` and `driver_sp` is the pointer `raw_switch` stored then.
        unsafe { raw_switch(save, load) };
    }

    /// Called by [`fiber_entry`] when a fiber's body returns: mark it done
    /// and hand control to the driver forever.
    ///
    /// # Safety
    ///
    /// Must be called on fiber `i`'s own stack, as its last act.
    unsafe fn finish(&self, i: usize) {
        let (save, load) = {
            let inner = self.inner();
            debug_assert_eq!(inner.current, i);
            Self::note_park(inner, i);
            inner.slots[i].state = FiberState::Done;
            inner.slots[i].entry = None;
            inner.current = DRIVER;
            // The stack we are standing on goes back to the pool when the
            // set is dropped, never from under our feet.
            let save: *mut *mut u8 = &mut inner.slots[i].sp;
            (save, inner.driver_sp)
        };
        // SAFETY: as in `yield_to_driver`; the saved pointer is never
        // loaded again because the fiber is `Done`.
        unsafe { raw_switch(save, load) };
        unreachable!("a completed fiber was resumed");
    }

    /// Record the outgoing fiber's stack depth and check its canary. The
    /// guard page catches an overflow at the faulting store; the canary is
    /// the cheap assert that a fiber did not come within a word of it.
    fn note_park(inner: &mut SetInner, i: usize) {
        let stack = inner.slots[i]
            .stack
            .as_ref()
            .expect("running fiber has a stack");
        // Approximate the live depth with the address of a local.
        let probe = 0u8;
        let depth = (stack.top() as usize).saturating_sub(&probe as *const u8 as usize);
        inner.stack_depth_peak = inner.stack_depth_peak.max(depth);
        assert!(
            stack.canary_intact(),
            "fiber {i} overflowed its {}-byte stack; raise engine::STACK_BYTES",
            stack.size,
        );
    }

    /// Deepest stack usage observed at any suspension point so far, bytes.
    /// A host-side measurement: it moves with the compiler and with every
    /// edit to the frames under a park site.
    pub fn stack_depth_peak(&self) -> u64 {
        self.inner().stack_depth_peak as u64
    }

    /// Drop every body that never started. Must be called from the driver
    /// context once every started fiber has run to completion (the engine's
    /// teardown unwinds them all), so that no `Entry` — and nothing its
    /// closure captured — outlives the run.
    pub fn clear(&self) {
        let inner = self.inner();
        assert_eq!(inner.current, DRIVER, "clear with a fiber active");
        for slot in &mut inner.slots {
            // A parked fiber would leak everything its frames own.
            assert!(
                matches!(slot.state, FiberState::NotStarted | FiberState::Done),
                "clear with a {:?} fiber",
                slot.state
            );
            slot.entry = None;
        }
    }
}

impl Drop for FiberSet {
    /// Hand every stack back to the thread's pool. (A set dropped with a
    /// fiber still parked — only possible when the driver itself is
    /// unwinding — leaks what that fiber's frames own, nothing more.)
    fn drop(&mut self) {
        for slot in &mut self.inner.get_mut().slots {
            if let Some(stack) = slot.stack.take() {
                StackPool::release(stack);
            }
        }
    }
}

/// Build the initial stack frame for a fiber so that the first
/// [`raw_switch`] into it lands in [`fiber_trampoline`] with the payload
/// pointer in the designated callee-saved register.
#[cfg(target_arch = "x86_64")]
fn prepare_frame(stack: &Stack, entry: &mut Entry) -> *mut u8 {
    // SAFETY: the eight words written lie just below `top()` of a live
    // mapping of at least `MIN_STACK` bytes that no fiber runs on yet.
    unsafe {
        let mut sp = stack.top() as *mut u64;
        // Slot for alignment + a null "return address" above the
        // trampoline (never used; `fiber_trampoline` realigns and traps).
        sp = sp.sub(1);
        sp.write(0);
        sp = sp.sub(1);
        sp.write(fiber_trampoline as *const () as usize as u64); // popped by `ret`
        sp = sp.sub(1);
        sp.write(0); // rbp
        sp = sp.sub(1);
        sp.write(0); // rbx
        sp = sp.sub(1);
        sp.write(entry as *mut Entry as usize as u64); // r12 = payload
        sp = sp.sub(1);
        sp.write(0); // r13
        sp = sp.sub(1);
        sp.write(0); // r14
        sp = sp.sub(1);
        sp.write(0); // r15
        sp as *mut u8
    }
}

#[cfg(target_arch = "aarch64")]
fn prepare_frame(stack: &Stack, entry: &mut Entry) -> *mut u8 {
    // SAFETY: the 160 bytes written lie just below `top()` of a live
    // mapping of at least `MIN_STACK` bytes that no fiber runs on yet.
    unsafe {
        // One 160-byte register frame, laid out as `raw_switch` expects.
        let sp = stack.top().sub(160);
        std::ptr::write_bytes(sp, 0, 160);
        let words = sp as *mut u64;
        words.write(entry as *mut Entry as usize as u64); // x19 = payload
        words.add(11).write(fiber_trampoline as usize as u64); // x30 = lr
        sp
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// 64 KiB: a whole number of pages on every supported host (4, 16 and
    /// 64 KiB pages), so usable as a stack size as is.
    const KIB64: usize = 64 << 10;

    /// Run `f` on a thread of its own, so its stack pool starts empty and
    /// the `sim.fiber.*` counters can be asserted exactly.
    pub(crate) fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().expect("test thread panicked")
    }

    /// `(stacks_mapped, stacks_reused, stacks_live, pool_free)` of this thread.
    fn pool() -> (u64, u64, u64, u64) {
        let m = stack_pool_metrics();
        let get = |name| m.get(name).expect("sim.fiber.* metric published");
        (
            get("sim.fiber.stacks_mapped"),
            get("sim.fiber.stacks_reused"),
            get("sim.fiber.stacks_live"),
            get("sim.fiber.pool_free"),
        )
    }

    /// A set of `n` trivial fibers with `stack`-byte stacks, each run to
    /// completion.
    fn run_trivial_set(n: usize, stack: usize) {
        let set = FiberSet::new(n, stack);
        for i in 0..n {
            set.set_body(i, Box::new(|| {}));
            set.resume(i);
        }
        set.clear();
    }

    #[test]
    fn ping_pong_between_two_fibers() {
        let set = Rc::new(FiberSet::new(2, KIB64));
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..2 {
            let set2 = set.clone();
            let log2 = log.clone();
            set.set_body(
                i,
                Box::new(move || {
                    for step in 0..3 {
                        log2.borrow_mut().push((i, step));
                        set2.yield_to_driver();
                    }
                }),
            );
        }
        // Round-robin drive until both are done.
        while !(set.is_done(0) && set.is_done(1)) {
            for i in 0..2 {
                if !set.is_done(i) {
                    set.resume(i);
                }
            }
        }
        assert_eq!(
            *log.borrow(),
            vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
        set.clear();
    }

    #[test]
    fn fiber_to_fiber_direct_handoff() {
        let set = Rc::new(FiberSet::new(2, KIB64));
        let log = Rc::new(RefCell::new(Vec::new()));
        let (s0, l0) = (set.clone(), log.clone());
        set.set_body(
            0,
            Box::new(move || {
                l0.borrow_mut().push("a0");
                s0.resume(1); // direct switch, not through the driver
                l0.borrow_mut().push("a1");
            }),
        );
        let l1 = log.clone();
        set.set_body(
            1,
            Box::new(move || {
                l1.borrow_mut().push("b0");
            }),
        );
        set.resume(0); // a0, handoff, b0, finish -> driver
        assert!(set.is_done(1));
        assert!(!set.is_done(0));
        set.resume(0); // a1, finish
        assert!(set.is_done(0));
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1"]);
        set.clear();
    }

    #[test]
    fn lazy_stacks_and_abandon() {
        on_fresh_thread(|| {
            let set = FiberSet::new(3, KIB64);
            for i in 0..3 {
                set.set_body(i, Box::new(|| {}));
            }
            assert!(set.abandon(2), "an unstarted fiber can be abandoned");
            assert!(set.is_done(2));
            set.resume(0);
            set.resume(1);
            assert!(!set.abandon(1), "a started fiber cannot");
            assert_eq!(
                pool(),
                (2, 0, 2, 0),
                "the abandoned fiber never got a stack"
            );
            assert!(set.stack_depth_peak() > 0);
            set.clear();
        });
    }

    #[test]
    fn panics_unwind_inside_the_fiber() {
        let set = Rc::new(FiberSet::new(1, KIB64));
        let caught = Rc::new(RefCell::new(false));
        let c2 = caught.clone();
        set.set_body(
            0,
            Box::new(move || {
                let r = std::panic::catch_unwind(|| panic!("inside fiber"));
                *c2.borrow_mut() = r.is_err();
            }),
        );
        set.resume(0);
        assert!(set.is_done(0));
        assert!(*caught.borrow(), "panic was caught on the fiber stack");
        set.clear();
    }

    fn burn(set: &FiberSet, n: usize) -> u64 {
        let pad = [n as u64; 32];
        if n == 0 {
            set.yield_to_driver();
            pad.iter().sum()
        } else {
            burn(set, n - 1) + std::hint::black_box(pad)[0]
        }
    }

    #[test]
    fn deep_call_chains_record_stack_usage() {
        // Depth is sampled at suspension points, so park at the bottom of
        // the recursion (exactly how engine ranks park deep inside call
        // stacks).
        let set = Rc::new(FiberSet::new(1, 4 * KIB64));
        let s2 = set.clone();
        set.set_body(
            0,
            Box::new(move || {
                std::hint::black_box(burn(&s2, 64));
            }),
        );
        set.resume(0); // runs to the bottom, parks
        set.resume(0); // unwinds and finishes
        assert!(
            set.stack_depth_peak() >= 64 * 32 * 8,
            "peak {} must reflect the recursion",
            set.stack_depth_peak()
        );
        set.clear();
    }

    // ------------------------------------------------------------------
    // The per-thread stack pool
    // ------------------------------------------------------------------

    #[test]
    fn stack_sizes_are_whole_pages_with_a_floor() {
        let page = page_size();
        assert_eq!(round_stack_size(0), Some(MIN_STACK.next_multiple_of(page)));
        let odd = round_stack_size(MIN_STACK + 1).unwrap();
        assert!(odd > MIN_STACK && odd.is_multiple_of(page));
        assert_eq!(round_stack_size(1 << 20), Some(1 << 20));
        assert_eq!(round_stack_size(MAX_STACK), Some(MAX_STACK));
        assert_eq!(round_stack_size(MAX_STACK + 1), None);
        assert_eq!(round_stack_size(usize::MAX), None);
    }

    #[test]
    fn stacks_are_recycled_across_sets() {
        on_fresh_thread(|| {
            run_trivial_set(4, KIB64);
            assert_eq!(pool(), (4, 0, 0, 4), "a dropped set returns every stack");
            for _ in 0..10 {
                run_trivial_set(4, KIB64);
            }
            assert_eq!(pool(), (4, 40, 0, 4), "later sets map nothing new");
            // A larger set tops the pool up; a smaller one leaves it alone.
            run_trivial_set(6, KIB64);
            assert_eq!(pool(), (6, 44, 0, 6));
        });
    }

    #[test]
    fn free_list_is_bounded() {
        on_fresh_thread(|| {
            let n = STACK_POOL_CAP + 40;
            run_trivial_set(n, KIB64);
            let (mapped, reused, live, free) = pool();
            assert_eq!((mapped, reused, live), (n as u64, 0, 0));
            assert_eq!(free, STACK_POOL_CAP as u64, "the excess was unmapped");
        });
    }

    #[test]
    fn a_changed_stack_size_replaces_pooled_stacks() {
        on_fresh_thread(|| {
            run_trivial_set(3, KIB64);
            run_trivial_set(3, 2 * KIB64);
            // The three 64 KiB stacks surfaced, did not fit, and were
            // unmapped; three 128 KiB ones took their place.
            assert_eq!(pool(), (6, 0, 0, 3));
            run_trivial_set(3, 2 * KIB64);
            assert_eq!(pool(), (6, 3, 0, 3));
        });
    }

    #[test]
    fn pools_are_per_thread() {
        // Both threads are alive at once (the barrier), so a shared list
        // would let one reuse what the other released.
        let gate = std::sync::Arc::new(std::sync::Barrier::new(2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let gate = gate.clone();
                std::thread::spawn(move || {
                    run_trivial_set(5, KIB64);
                    gate.wait();
                    run_trivial_set(5, KIB64);
                    gate.wait();
                    pool()
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().expect("worker"), (5, 5, 0, 5));
        }
    }

    /// Child half of `overflow_faults_on_the_guard_page`: recurse until the
    /// stack runs out. Inert unless that test re-executes this binary.
    #[test]
    #[ignore = "child process of overflow_faults_on_the_guard_page"]
    fn child_overflows_its_stack() {
        if std::env::var_os("FIBER_TEST_CHILD").is_none() {
            return;
        }
        let set = Rc::new(FiberSet::new(1, KIB64));
        let s2 = set.clone();
        set.set_body(
            0,
            Box::new(move || {
                std::hint::black_box(burn(&s2, 1 << 20));
            }),
        );
        set.resume(0);
        unreachable!("a 64 KiB stack held a million 256-byte frames");
    }

    #[test]
    fn overflow_faults_on_the_guard_page() {
        use std::os::unix::process::ExitStatusExt;
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "fiber::tests::child_overflows_its_stack"])
            .args(["--ignored", "--test-threads=1"])
            .env("FIBER_TEST_CHILD", "1")
            .output()
            .expect("re-execute the test binary");
        // The store into the PROT_NONE page kills the process on the spot
        // (SIGSEGV; SIGBUS on macOS) — it never reaches the canary check,
        // let alone `unreachable!`.
        assert!(
            matches!(out.status.signal(), Some(11) | Some(10)),
            "expected a guard-page fault, got {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
