//! Property tests: a batch-N run is **bit-identical** to N sequential
//! single-image runs, across batch sizes, shapes, and a graph
//! exercising every operator (including grouped and depthwise conv).
//!
//! This equivalence is the correctness backbone of `mupod-serve`: the
//! server may batch requests opportunistically, so a batched request
//! must receive exactly the bits a solo request would have.

use mupod_nn::{ExecArena, KernelTier, Network, NetworkBuilder, NodeId, Run};
use mupod_stats::SeededRng;
use mupod_tensor::conv::Conv2dParams;
use mupod_tensor::pool::Pool2dParams;
use mupod_tensor::Tensor;
use proptest::prelude::*;

fn random_tensor(rng: &mut SeededRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        dims,
        (0..n).map(|_| rng.gaussian(0.0, 0.6) as f32).collect(),
    )
}

/// A randomized network touching every operator the executor supports:
/// dense, grouped and depthwise convolution, affine, ReLU, LRN, both
/// pools, residual add, concat, flatten and FC.
fn random_net(seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    let mut b = NetworkBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d(
        "c1",
        input,
        Conv2dParams::new(2, 4, 3, 1, 1),
        random_tensor(&mut rng, &[4, 2, 3, 3]),
        vec![0.05; 4],
    );
    let bn = b.channel_affine("bn1", c1, vec![1.1; 4], vec![-0.02; 4]);
    let r1 = b.relu("r1", bn);
    let lrn = b.lrn("lrn1", r1, 3, 1e-2, 0.75, 1.0);
    let p1 = b.max_pool("p1", lrn, Pool2dParams::new(2, 2, 0));
    // Depthwise 3×3 then a grouped 1×1 — the group-strided im2col pack
    // is where a batched stride bug would hide.
    let dw = b.conv2d(
        "dw",
        p1,
        Conv2dParams::grouped(4, 4, 3, 1, 1, 4),
        random_tensor(&mut rng, &[4, 1, 3, 3]),
        vec![0.0; 4],
    );
    let gp = b.conv2d(
        "gp",
        dw,
        Conv2dParams::grouped(4, 4, 1, 1, 0, 2),
        random_tensor(&mut rng, &[4, 2, 1, 1]),
        vec![0.01; 4],
    );
    let res = b.add("res", &[p1, gp]);
    let c3a = b.conv2d(
        "c3a",
        res,
        Conv2dParams::new(4, 2, 1, 1, 0),
        random_tensor(&mut rng, &[2, 4, 1, 1]),
        vec![0.0; 2],
    );
    let c3b = b.conv2d(
        "c3b",
        res,
        Conv2dParams::new(4, 2, 3, 1, 1),
        random_tensor(&mut rng, &[2, 4, 3, 3]),
        vec![0.0; 2],
    );
    let cat = b.concat("cat", &[c3a, c3b]);
    let ap = b.avg_pool("ap", cat, Pool2dParams::new(2, 2, 0));
    let fl = b.flatten("fl", ap);
    let fc = b.fully_connected("fc", fl, random_tensor(&mut rng, &[5, 16]), vec![0.0; 5]);
    b.build(fc).expect("random net builds")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_forward_bit_identical_to_sequential(
        net_seed in 0u64..200,
        img_seed in 0u64..1000,
        batch in 1usize..=5,
    ) {
        let net = random_net(net_seed);
        let mut batched = ExecArena::new(&net, batch, KernelTier::Exact);
        let mut single = ExecArena::for_network(&net);
        let mut rng = SeededRng::new(img_seed);
        let images: Vec<Tensor> = (0..batch)
            .map(|_| random_tensor(&mut rng, &[2, 8, 8]))
            .collect();

        net.run(Run::images(&images), &mut batched).unwrap();
        for (b, image) in images.iter().enumerate() {
            net.run(Run::image(image), &mut single).unwrap();
            let seq = single.activations(0);
            for i in 0..net.node_count() {
                prop_assert_eq!(
                    bits(batched.activations(b).get(NodeId::from_index_for_tests(i))),
                    bits(seq.get(NodeId::from_index_for_tests(i))),
                    "node {} diverged for image {} of batch {}",
                    i, b, batch
                );
            }
        }
    }

    #[test]
    fn warm_batch_arena_is_stable_across_batch_sizes(
        net_seed in 0u64..200,
        img_seed in 0u64..1000,
        first in 1usize..=4,
        second in 1usize..=4,
    ) {
        // Scratch grown by a large batch must not perturb a later small
        // one (and vice versa): the warm arena is still bit-identical.
        let net = random_net(net_seed);
        let mut batched = ExecArena::new(&net, 4, KernelTier::Exact);
        let mut single = ExecArena::for_network(&net);
        let mut rng = SeededRng::new(img_seed);
        for n in [first, second] {
            let images: Vec<Tensor> = (0..n)
                .map(|_| random_tensor(&mut rng, &[2, 8, 8]))
                .collect();
            net.run(Run::images(&images), &mut batched).unwrap();
            for (b, image) in images.iter().enumerate() {
                let seq = net.run(Run::image(image), &mut single).unwrap();
                prop_assert_eq!(
                    bits(batched.activations(b).get(net.output_id())),
                    bits(seq),
                    "logits diverged for image {} of pass n={}", b, n
                );
                prop_assert_eq!(
                    net.output(batched.activations(b)).argmax(),
                    net.classify(image)
                );
            }
        }
    }
}
