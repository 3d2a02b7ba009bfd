//! Allocation-counting proof that the convolution passes materialise no
//! im2col-sized matrices, zero-fill nothing they overwrite, and keep their
//! ReLU masks across batches.
//!
//! A counting global allocator is armed around steady-state training
//! passes over lane groups (16 images side by side): the only heap
//! traffic allowed is the returned tensor (data + shape) — the output for
//! `forward`, `dx` for `backward` — never `fan_in × oh·ow` floats of
//! column matrix, and never a zeroed allocation (`alloc_zeroed`, what
//! `vec![0.0; n]` asks for), since every returned value is written.
//! Counters are per thread, so the tests here (and the harness around
//! them) cannot perturb each other.

use nn::{Conv2d, Layer, MaxPool2d, Residual, Sequential};
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
    static ZEROED: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            ALLOCS.set(ALLOCS.get() + 1);
            BYTES.set(BYTES.get() + layout.size() as u64);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.get() {
            ALLOCS.set(ALLOCS.get() + 1);
            BYTES.set(BYTES.get() + layout.size() as u64);
            ZEROED.set(ZEROED.get() + 1);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// What one counted call allocated.
#[derive(Debug)]
struct Counts {
    allocs: u64,
    bytes: u64,
    zeroed: u64,
}

/// Runs `f` with this thread's counters armed; returns its result with
/// what it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    ALLOCS.set(0);
    BYTES.set(0);
    ZEROED.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    let counts = Counts {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
        zeroed: ZEROED.get(),
    };
    (out, counts)
}

/// Asserts that `counts` is one returned tensor of `tensor_bytes` (data
/// plus shape, with slack for the shape) and no zeroed allocation.
fn only_the_returned_tensor(what: &str, counts: &Counts, tensor_bytes: u64) {
    assert!(
        counts.allocs <= 4,
        "steady-state {what} made {counts:?} allocations"
    );
    assert!(
        counts.bytes <= tensor_bytes + 1024,
        "steady-state {what} allocated {} bytes (the tensor is {tensor_bytes}, \
         one image's im2col matrix would be {IM2COL_BYTES}, a ReLU mask {MASK_BYTES})",
        counts.bytes
    );
    assert_eq!(
        counts.zeroed, 0,
        "steady-state {what} zero-filled an allocation"
    );
}

// fan_in = 4*3*3 = 36, output pixels = 64: one image's im2col matrix
// would be 36*64*4 = 9216 bytes, a lane group's 144 KiB. Three groups, so
// that one stray allocation per group already breaks the count bound.
const GROUPS: usize = 3;
const DIMS: (usize, usize, usize) = (4, 8, 8);
const CO: usize = 8;
const IM2COL_BYTES: u64 = 36 * 64 * 4;
// One flag per output element: a quarter of the output's bytes.
const MASK_BYTES: u64 = (GROUPS * CO * 64 * LANES) as u64;

/// Both epilogues of the test layer, warmed: the bordered-plane cache of
/// this group count, the ReLU mask and this thread's conv workspaces.
fn warmed_layers() -> Vec<(Conv2d, Tensor, Tensor)> {
    [false, true]
        .into_iter()
        .map(|relu| {
            let mut rng = StdRng::seed_from_u64(7);
            let (c, h, w) = DIMS;
            let conv = Conv2d::new(DIMS, CO, 3, 1, &mut rng);
            let mut conv = if relu { conv.with_relu() } else { conv };
            let x = Tensor::randn(&[GROUPS, c * h * w, LANES], 1.0, &mut rng);
            let dy = Tensor::randn(&[GROUPS, CO * 64, LANES], 1.0, &mut rng);
            for _ in 0..2 {
                let _ = conv.forward(&x, true);
                let _ = conv.backward(&dy);
            }
            (conv, x, dy)
        })
        .collect()
}

#[test]
fn conv_forward_allocates_only_its_output() {
    for (mut conv, x, _) in warmed_layers() {
        let out_bytes = (GROUPS * CO * 64 * LANES * 4) as u64;
        for train in [true, false] {
            let (y, counts) = counted(|| conv.forward(&x, train));
            assert_eq!(y.dims(), &[GROUPS, CO * 64, LANES]);
            only_the_returned_tensor(&format!("conv forward (train {train})"), &counts, out_bytes);
        }
    }
}

#[test]
fn conv_backward_allocates_only_dx() {
    for (mut conv, x, dy) in warmed_layers() {
        let _ = conv.forward(&x, true);
        let (dx, counts) = counted(|| conv.backward(&dy));
        assert_eq!(dx.dims(), x.dims());
        // dx is 48 KiB; a materialised dcol (or the transposed patch
        // matrix of the weight gradient) would add 9 KiB per image.
        only_the_returned_tensor("conv backward", &counts, (x.len() * 4) as u64);
        // The first-layer path returns an empty tensor and allocates
        // nothing of any size that matters.
        let _ = conv.forward(&x, true);
        let (_, counts) = counted(|| conv.backward_param_only(&dy));
        only_the_returned_tensor("param-only conv backward", &counts, 0);
    }
}

#[test]
fn maxpool_passes_allocate_only_their_results() {
    let (c, h, w) = DIMS;
    let mut pool = MaxPool2d::new(DIMS);
    let mut rng = StdRng::seed_from_u64(8);
    let x = Tensor::randn(&[GROUPS, c * h * w, LANES], 1.0, &mut rng);
    let dy = Tensor::randn(&[GROUPS, c * h * w / 4, LANES], 1.0, &mut rng);
    for _ in 0..2 {
        let _ = pool.forward(&x, true);
        let _ = pool.backward(&dy);
    }
    for train in [true, false] {
        let (_, counts) = counted(|| pool.forward(&x, train));
        only_the_returned_tensor("max-pool forward", &counts, (dy.len() * 4) as u64);
    }
    let _ = pool.forward(&x, true);
    let (_, counts) = counted(|| pool.backward(&dy));
    only_the_returned_tensor("max-pool backward", &counts, (x.len() * 4) as u64);
}

/// The fused ReLU of a residual block keeps its mask across batches: the
/// block's forward allocates only the inner convolution's output (the add
/// and the ReLU run in place), and its backward only the masked gradient
/// and the inner `dx` it returns.
#[test]
fn residual_relu_mask_allocates_nothing_after_warm_up() {
    let (c, h, w) = DIMS;
    let mut rng = StdRng::seed_from_u64(9);
    let inner = Sequential::new(vec![Box::new(Conv2d::new(DIMS, c, 3, 1, &mut rng))]);
    let mut block = Residual::new(inner).with_relu();
    let x = Tensor::randn(&[GROUPS, c * h * w, LANES], 1.0, &mut rng);
    for _ in 0..2 {
        let _ = block.forward(&x, true);
        let _ = block.backward(&x);
    }
    let bytes = (x.len() * 4) as u64;
    let (_, counts) = counted(|| block.forward(&x, true));
    only_the_returned_tensor("residual forward", &counts, bytes);
    let (_, counts) = counted(|| block.backward(&x));
    assert!(
        counts.allocs <= 8 && counts.bytes <= 2 * bytes + 2048 && counts.zeroed == 0,
        "steady-state residual backward made {counts:?}"
    );
}
