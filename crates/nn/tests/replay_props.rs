//! Property tests: the executor's suffix mode is bit-identical to its
//! full tapped mode, on randomized weights, images, layers, and noise
//! magnitudes.
//!
//! This equivalence is the correctness backbone of the profiler — if it
//! drifted, every `λ_K`/`θ_K` measured with the fast path would be wrong.

use mupod_nn::tap::{InputTap, QuantizeTap, UniformNoiseTap};
use mupod_nn::{ExecArena, Network, NetworkBuilder, NodeId, Run};
use mupod_quant::FixedPointFormat;
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

/// A randomized network exercising branches, residuals and pooling.
fn random_net(seed: u64) -> Network {
    let mut rng = SeededRng::new(seed);
    let mut b = NetworkBuilder::new(&[2, 8, 8]);
    let input = b.input();
    let c1 = b.conv2d(
        "c1",
        input,
        Conv2dParams::new(2, 4, 3, 1, 1),
        random_tensor(&mut rng, &[4, 2, 3, 3]),
        vec![0.01; 4],
    );
    let r1 = b.relu("r1", c1);
    let p1 = b.max_pool("p1", r1, Pool2dParams::new(2, 2, 0));
    let c2 = b.conv2d(
        "c2",
        p1,
        Conv2dParams::new(4, 4, 3, 1, 1),
        random_tensor(&mut rng, &[4, 4, 3, 3]),
        vec![0.0; 4],
    );
    let res = b.add("res", &[p1, c2]);
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
    let gap = b.global_avg_pool("gap", cat);
    let fc = b.fully_connected("fc", gap, random_tensor(&mut rng, &[5, 4]), vec![0.0; 5]);
    b.build(fc).expect("random net builds")
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Logits of a suffix replay from `layer` under `tap_a` and of a full
/// pass over `image` under `tap_b`, through one arena.
fn suffix_and_full(
    net: &Network,
    image: &Tensor,
    layer: NodeId,
    tap_a: &mut dyn InputTap,
    tap_b: &mut dyn InputTap,
) -> (Vec<u32>, Vec<u32>) {
    let base = net.forward(image);
    let mut arena = ExecArena::for_network(net);
    let suffix = bits(
        net.run(Run::suffix(&base, layer).tap(tap_a), &mut arena)
            .unwrap(),
    );
    let full = bits(net.run(Run::image(image).tap(tap_b), &mut arena).unwrap());
    (suffix, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn suffix_replay_equals_full_pass_uniform_noise(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        noise_seed in 0u64..500,
        layer_idx in 0usize..5,
        delta in 0.001f64..2.0,
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let mut tap_a = UniformNoiseTap::single(layer, delta, SeededRng::new(noise_seed));
        let mut tap_b = UniformNoiseTap::single(layer, delta, SeededRng::new(noise_seed));
        let (suffix, full) = suffix_and_full(&net, &image, layer, &mut tap_a, &mut tap_b);
        prop_assert_eq!(suffix, full);
    }

    #[test]
    fn suffix_replay_equals_full_pass_quantization(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        layer_idx in 0usize..5,
        frac_bits in 0i32..10,
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let fmt = FixedPointFormat::new(8, frac_bits);

        let mut tap_a = QuantizeTap::new([(layer, fmt)].into_iter().collect());
        let mut tap_b = QuantizeTap::new([(layer, fmt)].into_iter().collect());
        let (suffix, full) = suffix_and_full(&net, &image, layer, &mut tap_a, &mut tap_b);
        prop_assert_eq!(suffix, full);
    }

    #[test]
    fn untapped_suffix_replay_is_identity(
        net_seed in 0u64..500,
        img_seed in 0u64..500,
        layer_idx in 0usize..5,
    ) {
        let net = random_net(net_seed);
        let layers = net.dot_product_layers();
        let layer = layers[layer_idx % layers.len()];
        let mut rng = SeededRng::new(img_seed);
        let image = random_tensor(&mut rng, &[2, 8, 8]);
        let base = net.forward(&image);
        let mut arena = ExecArena::for_network(&net);
        let out = net.run(Run::suffix(&base, layer), &mut arena).unwrap();
        prop_assert_eq!(bits(out), bits(net.output(&base)));
    }
}
