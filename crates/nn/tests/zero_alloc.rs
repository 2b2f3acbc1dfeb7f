//! Zero-allocation contract: once an [`ExecArena`] is warm, every kind of
//! run — plain, tapped, validated, suffix replay, batches of 1..=4 and a
//! batched suffix replay over pruned caches — performs no heap
//! allocation at all.
//!
//! A counting global allocator records the allocations each run makes
//! on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mupod_nn::tap::UniformNoiseTap;
use mupod_nn::{ExecArena, KernelTier, Network, NetworkBuilder, Run, ValidateConfig};
use mupod_stats::SeededRng;
use mupod_tensor::conv::Conv2dParams;
use mupod_tensor::pool::Pool2dParams;
use mupod_tensor::Tensor;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a bump of a const-initialized thread-local counter,
// which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Runs `run` once to warm `arena`, then asserts a second run allocates
/// nothing.
fn assert_warm_run_allocates_nothing(
    name: &str,
    arena: &mut ExecArena,
    mut run: impl FnMut(&mut ExecArena),
) {
    run(arena);
    assert_eq!(allocations(|| run(arena)), 0, "{name} run allocated");
}

fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims,
        (0..n).map(|_| rng.gaussian(0.0, 0.5) as f32).collect(),
    )
}

/// Two convolutions (one tapped by the suffix replay) plus pooling, a
/// residual add, concat and a fully-connected head.
fn net(rng: &mut SeededRng) -> Network {
    let mut b = NetworkBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d(
        "c1",
        input,
        Conv2dParams::new(2, 4, 3, 1, 1),
        random_tensor(rng, &[4, 2, 3, 3]),
        vec![0.05; 4],
    );
    let r1 = b.relu("r1", c1);
    let p1 = b.max_pool("p1", r1, Pool2dParams::new(2, 2, 0));
    let c2 = b.conv2d(
        "c2",
        p1,
        Conv2dParams::new(4, 4, 3, 1, 1),
        random_tensor(rng, &[4, 4, 3, 3]),
        vec![0.0; 4],
    );
    let res = b.add("res", &[p1, c2]);
    let cat = b.concat("cat", &[res, p1]);
    let gap = b.global_avg_pool("gap", cat);
    let fc = b.fully_connected("fc", gap, random_tensor(rng, &[5, 8]), vec![0.0; 5]);
    b.build(fc).expect("test net builds")
}

#[test]
fn warm_arena_runs_allocate_nothing() {
    let mut rng = SeededRng::new(7);
    let net = net(&mut rng);
    let images: Vec<Tensor> = (0..4)
        .map(|_| random_tensor(&mut rng, &[2, 8, 8]))
        .collect();
    let image = &images[0];
    let base = net.forward(image);
    let layer = net.dot_product_layers()[1];
    let mut tap = UniformNoiseTap::single(layer, 0.1, SeededRng::new(3));
    let checked = ValidateConfig::default();

    let mut arena = ExecArena::for_network(&net);
    assert_warm_run_allocates_nothing("forward", &mut arena, |a| {
        net.run(Run::image(image), a).unwrap();
    });
    assert_warm_run_allocates_nothing("tapped", &mut arena, |a| {
        net.run(Run::image(image).tap(&mut tap), a).unwrap();
    });
    assert_warm_run_allocates_nothing("checked", &mut arena, |a| {
        net.run(Run::image(image).validate(checked), a).unwrap();
    });
    assert_warm_run_allocates_nothing("suffix", &mut arena, |a| {
        net.run(Run::suffix(&[&base], layer).tap(&mut tap), a)
            .unwrap();
    });

    // One warm-up at the largest batch covers every smaller one.
    let mut batch = ExecArena::new(&net, 4, KernelTier::Exact);
    net.run(Run::images(&images), &mut batch).unwrap();
    for n in 1..=4 {
        let run = || {
            net.run(Run::images(&images[..n]), &mut batch).unwrap();
        };
        assert_eq!(allocations(run), 0, "batch of {n} allocated");
    }

    // The profiler's pattern: 8 slots over 4 pruned caches (each filling
    // two slots), fresh per-slot noise streams before every run.
    let keep = net.replay_operands(&[layer]);
    let pruned: Vec<_> = images
        .iter()
        .map(|img| net.forward(img).retained(&keep))
        .collect();
    let bases: Vec<_> = (0..8).map(|b| &pruned[b / 2]).collect();
    let mut replay = ExecArena::new(&net, 8, KernelTier::Exact);
    assert_warm_run_allocates_nothing("batched suffix", &mut replay, |a| {
        tap.set_streams((0..8).map(|b| SeededRng::new(b as u64)));
        net.run(
            Run::suffix(&bases, layer).tap(&mut tap).validate(checked),
            a,
        )
        .unwrap();
    });
}
