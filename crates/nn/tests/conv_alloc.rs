//! Allocation-counting proof that the convolution passes materialise no
//! im2col-sized matrices.
//!
//! A counting global allocator is armed around steady-state training
//! passes over a lane group (16 images side by side): the only heap
//! traffic allowed is the returned tensor (data + shape) — the output for
//! `forward`, `dx` for `backward` — never `fan_in × oh·ow` floats of
//! column matrix. Counters are per thread, so the tests here (and the
//! harness around them) cannot perturb each other.

use nn::{Conv2d, Layer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tensor::{Tensor, LANES};

struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            ALLOCS.set(ALLOCS.get() + 1);
            BYTES.set(BYTES.get() + layout.size() as u64);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counters armed; returns its result with the
/// allocation count and bytes it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.set(0);
    BYTES.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (out, ALLOCS.get(), BYTES.get())
}

// fan_in = 4*3*3 = 36, output pixels = 64: one image's im2col matrix
// would be 36*64*4 = 9216 bytes, a lane group's 144 KiB. Three groups, so
// that one stray allocation per group already breaks the count bound.
const GROUPS: usize = 3;
const DIMS: (usize, usize, usize) = (4, 8, 8);
const CO: usize = 8;
const IM2COL_BYTES: u64 = 36 * 64 * 4;

fn warmed_layer() -> (Conv2d, Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(7);
    let (c, h, w) = DIMS;
    let mut conv = Conv2d::new(DIMS, CO, 3, 1, &mut rng);
    let x = Tensor::randn(&[GROUPS, c * h * w, LANES], 1.0, &mut rng);
    let dy = Tensor::randn(&[GROUPS, CO * 64, LANES], 1.0, &mut rng);
    // Warm every reused buffer: the bordered-plane cache of this group
    // count and this thread's conv workspaces.
    for _ in 0..2 {
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&dy);
    }
    (conv, x, dy)
}

#[test]
fn conv_forward_allocates_only_its_output() {
    let (mut conv, x, _) = warmed_layer();
    let (y, allocs, bytes) = counted(|| conv.forward(&x, true));
    assert_eq!(y.dims(), &[GROUPS, CO * 64, LANES]);
    // The output tensor (data + shape vector) is the only allowed
    // allocation: 96 KiB, where one image's im2col matrix is 9 KiB more.
    let out_bytes = (GROUPS * CO * 64 * LANES * 4) as u64;
    assert!(
        allocs <= 4,
        "steady-state conv forward made {allocs} allocations"
    );
    assert!(
        bytes <= out_bytes + 1024,
        "steady-state conv forward allocated {bytes} bytes \
         (output is {out_bytes}, one im2col matrix would be {IM2COL_BYTES})"
    );
}

#[test]
fn conv_backward_allocates_only_dx() {
    let (mut conv, x, dy) = warmed_layer();
    let _ = conv.forward(&x, true);
    let (dx, allocs, bytes) = counted(|| conv.backward(&dy));
    assert_eq!(dx.dims(), x.dims());
    // dx is 48 KiB; a materialised dcol (or the transposed patch matrix
    // of the weight gradient) would add 9 KiB per image.
    let dx_bytes = (x.len() * 4) as u64;
    assert!(
        allocs <= 4,
        "steady-state conv backward made {allocs} allocations"
    );
    assert!(
        bytes <= dx_bytes + 1024,
        "steady-state conv backward allocated {bytes} bytes \
         (dx is {dx_bytes}, one im2col matrix would be {IM2COL_BYTES})"
    );
    // The first-layer path returns an empty tensor and allocates nothing
    // of any size that matters.
    let _ = conv.forward(&x, true);
    let (_, _, bytes) = counted(|| conv.backward_param_only(&dy));
    assert!(bytes <= 1024, "param-only backward allocated {bytes} bytes");
}
